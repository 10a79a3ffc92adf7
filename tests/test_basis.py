"""Singlet bases, Gram matrices, difference-equation matrices, reduction."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from su3chain import basis, rmatrix
from su3chain.basis import (
    GRAM_2,
    GRAM_3,
    SingularParameterError,
    _BASIS_SPEC,
    _EXPECTATION_ROWS,
    _chain_polynomial,
    a2_closed_form,
    a3_closed_form,
    a3_printed_zero_pattern,
    a_matrix,
    build_basis,
    gram_inverse,
    reduce_to_physical,
)
from su3chain.rmatrix import uniform_square
from su3chain.tensors import expectations, levi_civita

EPS = levi_civita()


def _random_points(rng, count):
    pts = []
    while len(pts) < count:
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if min(abs(z), abs(z + 3)) > 0.2:
            pts.append(z)
    return np.array(pts)


def test_gram_matrices_exact():
    # build_basis contracts the elements it builds and raises on any
    # deviation from the integer matrices; assert equality here too
    for m, gram in ((2, GRAM_2), (3, GRAM_3)):
        basis = build_basis(m)
        flat = basis.reshape(len(basis), -1)
        assert np.array_equal(flat @ flat.T, gram)


@pytest.mark.parametrize("m", [2, 3])
def test_elements_match_the_slot_definition(m):
    # the loop the einsum replaced: eps over the slots, the remaining lower
    # legs equal to the upper legs in order (pairing 0) or swapped (pairing 1)
    lower = m + 2
    for element, (slots, pairing) in zip(build_basis(m), _BASIS_SPEC[m]):
        rest = [k for k in range(lower) if k not in slots]
        upper = list(range(lower, lower + m - 1))
        if pairing:
            upper.reverse()
        expected = np.zeros(element.shape)
        for index in itertools.product(range(3), repeat=element.ndim):
            if all(index[r] == index[u] for r, u in zip(rest, upper)):
                expected[index] = EPS[tuple(index[k] for k in slots)]
        assert np.array_equal(element, expected)


def test_basis_is_shared_and_read_only():
    for m in (2, 3):
        basis = build_basis(m)
        assert basis is build_basis(m)
        assert basis.shape == (len(basis),) + (3,) * (2 * m + 1)
        assert not basis.flags.writeable


@pytest.mark.parametrize("m, d", [(2, 24), (3, 360)])
def test_gram_inverse_is_exact_over_its_denominator(m, d):
    gram = GRAM_2 if m == 2 else GRAM_3
    inverse = gram_inverse(m)
    scaled = np.rint(inverse * d)
    assert np.array_equal(inverse, scaled / d)
    product = gram @ scaled.astype(np.int64)
    assert np.array_equal(product, d * np.eye(len(gram), dtype=np.int64))
    assert not inverse.flags.writeable


def test_gram_matrices_symmetric_integer():
    for gram in (GRAM_2, GRAM_3):
        assert gram.dtype.kind == "i"
        assert np.array_equal(gram, gram.T)
        assert (np.linalg.eigvalsh(gram.astype(float)) > 0).all()


def test_basis_sizes():
    assert len(build_basis(2)) == 3
    assert len(build_basis(3)) == 11
    with pytest.raises(ValueError):
        build_basis(4)


def test_a2_matches_closed_form_at_random_points():
    rng = np.random.default_rng(21)
    lam = _random_points(rng, 20)
    assert np.abs(a_matrix(lam) - a2_closed_form(lam)).max() < 1e-10


def test_a2_gauge_factor():
    # row 0 of W = <P_j, T P_k> is lam (lam + 3) GRAM_2[0], coefficient by
    # coefficient, so GRAM_2[0] is a left eigenvector of A with eigenvalue 1
    coef = _chain_polynomial(2)
    assert coef.dtype.kind == "i"
    assert np.array_equal(coef[:, 0, :], np.outer([0, 3, 1], GRAM_2[0]))
    row = GRAM_2[0].astype(float)
    lam = _random_points(np.random.default_rng(24), 10)
    assert np.abs(row @ a_matrix(lam) - row).max() < 1e-12


def test_a3_matches_closed_form_at_random_points():
    rng = np.random.default_rng(22)
    x, y = _random_points(rng, 20), _random_points(rng, 20)
    assert np.abs(a_matrix(x, y) - a3_closed_form(x, y)).max() < 1e-10


def test_a3_closed_form_over_arrays_is_the_scalar_calls():
    # and so are a_matrix, with one argument and with two, and a2_closed_form
    rng = np.random.default_rng(26)
    shape = (2, 3, 4)
    x = rng.uniform(-3, 3, shape) + 1j * rng.uniform(-3, 3, shape)
    y = rng.uniform(-3, 3, shape) + 1j * rng.uniform(-3, 3, shape)
    for ys in (y, x, y[0, 0, 0]):  # off the diagonal, on it, and broadcast
        for fn in (a3_closed_form, a_matrix):
            pairs = zip(x.ravel(), np.broadcast_to(ys, shape).ravel())
            stacked = np.array([fn(a, b) for a, b in pairs])
            batch = fn(x, ys)
            assert batch.shape == shape + (11, 11)
            assert np.array_equal(batch, stacked.reshape(batch.shape))
    for fn in (a2_closed_form, a_matrix):
        stacked = np.array([fn(lam) for lam in x.ravel()])
        batch = fn(x)
        assert batch.shape == shape + (3, 3)
        assert np.array_equal(batch, stacked.reshape(batch.shape))
    # python complex scalars, too
    point = x[0, 0, 0]
    for fn, rest in (
        (a3_closed_form, (0.5,)), (a_matrix, (0.5,)), (a2_closed_form, ()), (a_matrix, ()),
    ):
        assert np.array_equal(fn(complex(point), *rest), fn(point, *rest))


def test_a3_zero_pattern():
    pattern = a3_printed_zero_pattern()
    assert pattern.shape == (11, 11)
    rng = np.random.default_rng(23)
    x, y = _random_points(rng, 20), _random_points(rng, 20)
    assert np.abs(a_matrix(x, y)[:, pattern]).max() < 1e-10
    assert np.abs(a3_closed_form(x, y)[:, pattern]).max() == 0


def test_a3_gauge_factor():
    # row 0 of the x^p y^q coefficient is g_p g_q GRAM_3[0], with
    # g = (0, 3, 1) the coefficients of x (3 + x)
    coef = _chain_polynomial(3)
    assert coef.dtype.kind == "i"
    gauge = np.multiply.outer([0, 3, 1], [0, 3, 1])
    assert np.array_equal(coef[:, :, 0, :], np.multiply.outer(gauge, GRAM_3[0]))
    row = GRAM_3[0].astype(float)
    rng = np.random.default_rng(25)
    x, y = _random_points(rng, 10), _random_points(rng, 10)
    assert np.abs(row @ a_matrix(x, y) - row).max() < 1e-12


def test_a3_on_diagonal_matches_closed_form():
    # x = y at the circle points of the three-site density solve
    angles = 2 * np.pi * (np.arange(16) + 0.5) / 16
    for shift in (0, 1):
        x = shift + 0.35 * np.exp(1j * angles)
        assert np.abs(a_matrix(x, x) - a3_closed_form(x, x)).max() < 1e-12


def test_normalization_row_left_eigenvector():
    row2 = GRAM_2[0].astype(float)
    row3 = GRAM_3[0].astype(float)
    assert np.abs(row2 @ a2_closed_form(0.9 - 0.3j) - row2).max() < 1e-12
    assert np.abs(row3 @ a3_closed_form(1.3 + 0.2j, -0.8 + 0.6j) - row3).max() < 1e-11


def test_random_points_are_the_kept_prefix_of_one_stream():
    assert basis._random_points(random.Random(3), 3).tolist() == [
        complex(0.5558454649121929, -2.217463226694294),
        complex(2.49566887324204, -0.1556787659359351),
        complex(0.4851125445576199, 0.6335972208513807),
    ]
    for seed in range(3):
        pts = basis._random_points(random.Random(seed), 2000)
        coords = pts.view(float)
        assert ((-3 <= coords) & (coords < 3)).all()
        assert (np.minimum(abs(pts), abs(pts + 3)) > 0.2).all()
        # a rejected point is redrawn from the same stream, one (re, im) draw
        # per missing point, so the points are the clear prefix of one stream
        stream = uniform_square(random.Random(seed), 2200)
        clear = np.minimum(abs(stream), abs(stream + 3)) > 0.2
        assert not clear[:2000].all()  # the redraw loop ran
        assert np.array_equal(pts, stream[clear][:2000])


def _bits(values: dict) -> dict:
    return {name: float(value).hex() for name, value in values.items()}


def test_suites_do_not_depend_on_their_blocks(monkeypatch):
    # the blocks bound the memory only: 7-point blocks give the same bits
    expected = _bits(basis.matrix_suite(3, 300)), _bits(rmatrix.identity_suite(3, 100))
    monkeypatch.setattr(basis, "_MATRIX_BLOCK", 7)
    monkeypatch.setattr(rmatrix, "_BLOCK", 7)
    blocked = _bits(basis.matrix_suite(3, 300)), _bits(rmatrix.identity_suite(3, 100))
    assert blocked == expected


def test_singular_parameters_rejected():
    with pytest.raises(SingularParameterError, match="lam = 0j"):
        a_matrix(0.0)
    with pytest.raises(SingularParameterError, match="x = "):
        a_matrix(-3.0, 0.7)
    # anywhere in an array, and named by its value
    with pytest.raises(SingularParameterError, match=r"y = \(-3\+0j\)"):
        a_matrix(np.array([0.5, 1.5]), np.array([0.7, -3.0]))


def test_reduction_matches_wing_contraction():
    """The physical-space images follow from closing the auxiliary wings.

    Site 1 of the reduced operator is produced by contracting the two wing
    legs of each basis element against the Levi-Civita tensor:
    D[(a, r...), (b, s...)] = eps(b, c, d) v[c, d, a, r..., s...].  This
    pins every coefficient of reduce_to_physical independently, and the
    image's expectations are exactly the element's column of the Gram rows
    that reduce_to_physical reads.
    """
    for j, element in enumerate(build_basis(2)):
        wing = np.einsum("bcd,cdars->arbs", EPS, element).reshape(9, 9)
        assert np.array_equal(expectations(wing), GRAM_2[_EXPECTATION_ROWS[2], j])
        unit = np.zeros(3)
        unit[j] = 1
        assert np.abs(wing - reduce_to_physical(2, unit)).max() < 1e-13
    for j, element in enumerate(build_basis(3)):
        wing = np.einsum(
            "bcd,cdarxsy->arxbsy", EPS, element
        ).reshape(27, 27)
        assert np.array_equal(expectations(wing), GRAM_3[_EXPECTATION_ROWS[3], j])
        unit = np.zeros(11)
        unit[j] = 1
        assert np.abs(wing - reduce_to_physical(3, unit)).max() < 1e-13


def test_reduction_traces_equal_normalization_row():
    # trace of each reduced basis image equals the first Gram row, so any
    # amplitude vector with f_1 = 1 automatically yields a trace-one operator
    for m, gram, dim in ((2, GRAM_2, 3), (3, GRAM_3, 11)):
        for j in range(dim):
            unit = np.zeros(dim)
            unit[j] = 1
            trace = np.trace(reduce_to_physical(m, unit)).real
            assert trace == pytest.approx(float(gram[0, j]), abs=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([(2, GRAM_2), (3, GRAM_3)]), st.integers(0, 2**16 - 1))
def test_exact_rational_solver(m_gram, bits):
    m, gram = m_gram
    rng = np.random.default_rng(bits)
    n = len(gram)
    w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x = gram_inverse(m) @ w
    assert np.abs(gram @ x - w).max() < 1e-12
