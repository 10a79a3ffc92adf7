"""R-matrix identities: Yang-Baxter, unitarity, fusion, contraction rules.

The 13 R-matrix identities are also proved, not only sampled.  Each R-matrix
is ``constant + lam * linear`` with integer parts, so it has degree 1 in its
parameter.  Each Yang-Baxter side is a product of three of them, in which
each of lam, mu and nu appears twice: degree <= 2 in each.  Each unitarity
product and its scalar have degree <= 2 in lam - mu, and each fusion column
and its scalar degree <= 3.  A polynomial of degree <= d in each variable
that vanishes at d + 1 points per variable is zero, so exact zeros on
{0, 1, 2}^3 for Yang-Baxter and at lam - mu in {0, 1, 2, 3} for unitarity
and fusion prove all 13.  On that grid every entry is a small integer, so
float64 arithmetic is exact and a residual is exactly 0.0 or an integer.
"""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from su3chain.rmatrix import (
    LINE_TRIPLES,
    R_PARTS,
    _ybe_name,
    check_fusion,
    check_unitarity,
    check_yang_baxter,
    identity_suite,
    r_operator,
    uniform_square,
)

TOL = 1e-12

finite = st.floats(-3, 3, allow_nan=False)

UNSHIFTED = ("FFF", "FFA", "FAA", "AAA", "AAF", "AFF")
SHIFTED = ("FAF", "AFA")


def test_line_triples_split_by_the_shift_rule():
    # line 3 like line 1 and line 2 opposite: exactly the two shifted triples
    assert set(LINE_TRIPLES) == {a + b + c for a in "FA" for b in "FA" for c in "FA"}
    assert LINE_TRIPLES == UNSHIFTED + SHIFTED
    assert [_ybe_name(t) for t in SHIFTED] == ["ybe_special_FAFFAF", "ybe_special_AFAAFA"]
    assert _ybe_name("FFA") == "ybe_FFFAFA"


@pytest.mark.parametrize("kind", ["FFF", "F", "fa", "FB", ("F", "A"), ""])
def test_r_operator_rejects_unknown_kinds(kind):
    with pytest.raises(ValueError):
        r_operator(kind, 0.5)


@pytest.mark.parametrize("lines", ["FF", "FFFF", "FFB", "faf", ("F", "A", "F")])
def test_yang_baxter_rejects_unknown_lines(lines):
    with pytest.raises(ValueError):
        check_yang_baxter(lines, 0.1, 0.2, 0.3)


@pytest.mark.parametrize("kind", sorted(R_PARTS))
def test_r_operator_is_exactly_affine_in_lambda(kind):
    # each kind is constant + lambda * linear with integer parts, so at integer
    # lambda every entry is a small integer and the identity holds bit for bit;
    # an exact proof of the identities on an integer grid rests on this degree
    r0, r1 = r_operator(kind, 0), r_operator(kind, 1)
    for lam in range(-3, 4):
        assert np.array_equal(r_operator(kind, lam) - r0, lam * (r1 - r0))


def test_regularity_ff_at_zero_is_identity():
    assert np.allclose(r_operator("FF", 0.0), np.eye(9))


def test_ff_operator_form():
    lam = 0.7 - 0.2j
    p = np.zeros((9, 9))
    for a in range(3):
        for b in range(3):
            p[3 * b + a, 3 * a + b] = 1
    assert np.allclose(r_operator("FF", lam), np.eye(9) + lam * p)


def test_identity_suite_all_below_tolerance():
    residuals = identity_suite(seed=7, samples=50)
    assert residuals, "suite returned no checks"
    for name, res in residuals.items():
        assert res < TOL, f"{name}: residual {res}"


@settings(max_examples=25, deadline=None)
@given(finite, finite, finite, finite, finite, finite)
def test_standard_ybe_property(a, b, c, d, e, f):
    lam, mu, nu = complex(a, b), complex(c, d), complex(e, f)
    for lines in UNSHIFTED:
        assert check_yang_baxter(lines, lam, mu, nu) < 1e-10


def test_special_ybe_needs_the_shift():
    lam, mu, nu = 0.37 + 0.11j, -0.82 + 0.4j, 0.05 - 0.6j
    for lines in SHIFTED:
        shifted = check_yang_baxter(lines, lam, mu, nu)
        unshifted = check_yang_baxter(lines, lam, mu, nu, shift=0)
        assert shifted < TOL
        assert unshifted > 1e-2, "unshifted special YBE unexpectedly holds"


@pytest.mark.parametrize("kind", ["standard", "special-1", "special-2"])
def test_unitarity(kind):
    # the residual is taken against the relation's scalar times the identity
    assert check_unitarity(kind, 1.3 - 0.7j, -0.4 + 0.2j) < TOL


@pytest.mark.parametrize("direction", ["up", "down"])
def test_fusion(direction):
    assert check_fusion(0.9 + 0.3j, -1.1 - 0.5j, direction) < TOL


def test_unitarity_holds_at_degenerate_scalar():
    # at lam = mu the special scalars vanish, and so does the product itself
    assert check_unitarity("standard", 0.5, 0.5) < TOL
    assert check_unitarity("special-1", 0.5, 0.5) < TOL
    assert np.abs(r_operator("FA", 0.0) @ r_operator("AF", 3.0)).max() < TOL


#: the degree grid of the module docstring: (lam, mu, nu) over {0, 1, 2}^3,
#: and lam - mu over {0, 1, 2, 3} for unitarity and fusion, which take no nu
YBE_GRID = np.meshgrid(*[np.arange(3)] * 3, indexing="ij")
PAIR_GRID = (np.arange(4), 0, None)


def test_identities_vanish_exactly_on_the_degree_grid():
    residuals = {
        name: check(*(YBE_GRID if name.startswith("ybe") else PAIR_GRID))
        for name, check in _all_checks().items()
    }
    assert len(residuals) == 13
    assert residuals == dict.fromkeys(residuals, 0.0)


def test_degree_grid_catches_a_wrong_shift():
    # the negative controls: a wrong shift leaves an integer residual
    assert check_yang_baxter("FAF", *YBE_GRID, shift=0) == 3.0
    assert check_yang_baxter("FAF", *YBE_GRID, shift=2) == 1.0


def _all_checks():
    """The 13 checks of the identity suite, each as ``f(lam, mu, nu)``."""
    checks = {}
    for lines in LINE_TRIPLES:
        checks[_ybe_name(lines)] = (
            lambda lam, mu, nu, lines=lines: check_yang_baxter(lines, lam, mu, nu)
        )
    for kind in ("standard", "special-1", "special-2"):
        checks["unitarity_" + kind] = (
            lambda lam, mu, nu, kind=kind: check_unitarity(kind, lam, mu)
        )
    for direction in ("up", "down"):
        checks["fusion_" + direction] = (
            lambda lam, mu, nu, d=direction: check_fusion(lam, mu, d)
        )
    return checks


def test_array_checks_match_scalar_calls():
    rng = np.random.default_rng(2024)
    lam, mu, nu = rng.uniform(-3, 3, (3, 20)) + 1j * rng.uniform(-3, 3, (3, 20))
    checks = _all_checks()
    assert len(checks) == 13
    for name, check in checks.items():
        batched = check(lam, mu, nu)
        scalar = max(check(*point) for point in zip(lam, mu, nu))
        assert abs(batched - scalar) < 1e-13, name
        assert batched < TOL and scalar < TOL, name
    for lines in SHIFTED:
        assert check_yang_baxter(lines, lam, mu, nu, shift=0) > 1e-2


def test_r_operator_stacks_array_parameters():
    lam = np.array([1.3 - 0.7j, 0.2 + 0.1j])
    assert r_operator("FA", lam.reshape(2, 1)).shape == (2, 1, 9, 9)


def test_identity_suite_names_in_order():
    # the names are the CLI's output keys, and their order breaks ties of the
    # worst identity
    assert list(identity_suite(seed=7, samples=2))[:13] == list(_all_checks())


def test_identity_suite_memory_is_blocked():
    # each check runs on blocks of a fixed 64 points, so the peak does not
    # grow with the sample count (unblocked, 500 samples take about 24 MiB)
    tracemalloc.start()
    try:
        identity_suite(seed=7, samples=500)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_uniform_square_stream_is_pinned():
    # random.Random(seed)'s bytes, 53 bits per coordinate: --seed promises
    # these exact doubles on every platform and Python version
    assert uniform_square(random.Random(7), 4).tolist() == [
        complex(2.68719216295122, -0.6310590307914898),
        complex(-2.7102814382161933, 1.9276457336811852),
        complex(-2.4352197402121285, 0.4967280738507709),
        complex(2.4582243841951694, -1.7118108991895309),
    ]
    coords = uniform_square(random.Random(0), 5000).view(float)
    assert ((-3 <= coords) & (coords < 3)).all()
