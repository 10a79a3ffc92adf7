"""The structural tensors P, I, E and the Levi-Civita tensor."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from su3chain.tensors import (
    _permutation_gram,
    as_operator,
    expectations,
    from_expectations,
    levi_civita,
    pie,
    site_permutations,
)


def partial_trace_last_site(d3: np.ndarray) -> np.ndarray:
    """Trace out the third site of an ``n^3 x n^3`` operator, giving ``n^2 x n^2``."""
    n = round(len(d3) ** (1 / 3))
    return np.einsum("abkcdk->abcd", d3.reshape((n,) * 6)).reshape(n * n, n * n)


def partial_trace_first_site(d3: np.ndarray) -> np.ndarray:
    """Trace out the first site of an ``n^3 x n^3`` operator, giving ``n^2 x n^2``."""
    n = round(len(d3) ** (1 / 3))
    return np.einsum("kabkcd->abcd", d3.reshape((n,) * 6)).reshape(n * n, n * n)


def kron_site_permutations(m: int) -> list[np.ndarray]:
    """``I, P12`` (m = 2) and ``I, P12, P23, P13, P12 P23, P23 P12`` (m = 3),
    built from Kronecker products of the two-site swap."""
    p = as_operator(pie()[0])
    if m == 2:
        return [np.eye(9), p]
    eye = np.eye(3)
    p12, p23 = np.kron(p, eye), np.kron(eye, p)
    return [np.eye(27), p12, p23, p12 @ p23 @ p12, p12 @ p23, p23 @ p12]


def _cycles(perm) -> int:
    seen, count = set(), 0
    for start in range(len(perm)):
        if start in seen:
            continue
        count += 1
        k = start
        while k not in seen:
            seen.add(k)
            k = perm[k]
    return count


def test_permutation_entries():
    p = pie()[0]
    assert p[0, 1, 1, 0] == 1
    assert p[0, 1, 0, 1] == 0
    for i, k, j, l in itertools.product(range(3), repeat=4):
        assert p[i, k, j, l] == (1 if i == l and j == k else 0)
    # as an operator, row (j, l) and column (i, k), P swaps the two factors:
    # it sends |a b> to |b a>
    swap = as_operator(p)
    assert np.array_equal(swap, np.eye(9)[[3 * b + a for a in range(3) for b in range(3)]])


@pytest.mark.parametrize("n", [2, 3])
def test_partial_traces_of_products(n):
    rng = np.random.default_rng(n)
    pair, site = rng.standard_normal((n * n, n * n)), rng.standard_normal((n, n))
    assert np.allclose(partial_trace_last_site(np.kron(pair, site)), np.trace(site) * pair)
    assert np.allclose(partial_trace_first_site(np.kron(site, pair)), np.trace(site) * pair)


def test_identity_and_temperley_lieb_entries():
    _, ident, e = pie()
    for i, k, j, l in itertools.product(range(3), repeat=4):
        assert ident[i, k, j, l] == (1 if i == j and k == l else 0)
        assert e[i, k, j, l] == (1 if i == k and j == l else 0)


def test_epsilon_values():
    eps = levi_civita()
    assert eps[0, 1, 2] == 1
    assert eps[1, 0, 2] == -1
    assert eps[0, 0, 1] == 0


@given(st.permutations(range(3)))
def test_levi_civita_antisymmetry(perm):
    eps = levi_civita()
    base = eps[0, 1, 2]
    # swapping any two indices flips the sign
    i, j, k = perm
    swapped = eps[j, i, k]
    assert swapped == -eps[i, j, k] or (i == j and swapped == 0)
    assert base == 1


def test_entries_are_immutable():
    for t in pie():
        with pytest.raises(ValueError):
            t[0, 0, 0, 0] = 5
    assert pie()[0] is pie()[0]  # built once, shared by every caller
    with pytest.raises(ValueError):
        levi_civita()[0, 1, 2] = 5
    assert levi_civita() is levi_civita()


@pytest.mark.parametrize("m", [2, 3])
def test_site_permutations_are_the_kron_products(m):
    ops = site_permutations(m)
    assert np.array_equal(ops, kron_site_permutations(m))
    assert ops is site_permutations(m)  # built once, shared by every caller
    assert not ops.flags.writeable
    with pytest.raises(ValueError):
        site_permutations(4)


@pytest.mark.parametrize("m, denominator", [(2, 24), (3, 120)])
def test_permutation_gram_is_three_to_the_cycles(m, denominator):
    # each operator sends |0 1 ... m-1> to |p(0) ... p(m-1)>, which names its
    # permutation p; the product of the operators of p and q is that of
    # k -> q(p(k)), and the trace of a permutation operator is 3^cycles
    distinct = sum(k * 3 ** (m - 1 - k) for k in range(m))
    perms = [np.unravel_index(np.argmax(op[:, distinct]), (3,) * m)
             for op in kron_site_permutations(m)]
    expected = [[3 ** _cycles([q[k] for k in p]) for q in perms] for p in perms]
    gram, inverse = _permutation_gram(m)
    assert gram.dtype == np.int64
    assert np.array_equal(gram, expected)
    # G^-1 is an integer matrix over the denominator, and G G^-1 = I exactly
    scaled = np.rint(inverse * denominator).astype(np.int64)
    assert np.array_equal(inverse, scaled / denominator)
    assert np.array_equal(gram @ scaled, denominator * np.eye(len(gram), dtype=np.int64))
    assert not inverse.flags.writeable


_COEFFICIENT = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)


@settings(max_examples=50, deadline=None)
@given(st.sampled_from([2, 6]).flatmap(
    lambda k: st.lists(_COEFFICIENT, min_size=k, max_size=k)))
def test_from_expectations_inverts_expectations(c):
    m = 2 if len(c) == 2 else 3
    d = np.tensordot(c, site_permutations(m), 1)
    v = expectations(d)
    assert np.allclose(v, [np.trace(d @ s) for s in site_permutations(m)],
                       rtol=0, atol=1e-13 * max(1, np.abs(c).max()))
    assert np.abs(from_expectations(v) - d).max() <= 1e-14 * max(1, np.abs(c).max())
