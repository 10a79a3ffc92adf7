"""The structural tensors P, I, E and the Levi-Civita tensor."""

import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from su3chain.tensors import (
    as_operator,
    levi_civita,
    partial_trace_first_site,
    partial_trace_last_site,
    pie,
)


def test_permutation_entries():
    p = pie(3)[0]
    assert p[0, 1, 1, 0] == 1
    assert p[0, 1, 0, 1] == 0
    for i, k, j, l in itertools.product(range(3), repeat=4):
        assert p[i, k, j, l] == (1 if i == l and j == k else 0)
    # as an operator, row (j, l) and column (i, k), P swaps the two factors
    swap = as_operator(pie(2)[0])
    assert np.array_equal(swap, np.eye(4)[[0, 2, 1, 3]])


@pytest.mark.parametrize("n", [2, 3])
def test_partial_traces_of_products(n):
    rng = np.random.default_rng(n)
    pair, site = rng.standard_normal((n * n, n * n)), rng.standard_normal((n, n))
    assert np.allclose(partial_trace_last_site(np.kron(pair, site)), np.trace(site) * pair)
    assert np.allclose(partial_trace_first_site(np.kron(site, pair)), np.trace(site) * pair)


def test_identity_and_temperley_lieb_entries():
    _, ident, e = pie(3)
    for i, k, j, l in itertools.product(range(3), repeat=4):
        assert ident[i, k, j, l] == (1 if i == j and k == l else 0)
        assert e[i, k, j, l] == (1 if i == k and j == l else 0)


def test_epsilon_values():
    eps = levi_civita(3)
    assert eps[0, 1, 2] == 1
    assert eps[1, 0, 2] == -1
    assert eps[0, 0, 1] == 0


@given(st.permutations(range(3)))
def test_levi_civita_antisymmetry(perm):
    eps = levi_civita(3)
    base = eps[0, 1, 2]
    # swapping any two indices flips the sign
    i, j, k = perm
    swapped = eps[j, i, k]
    assert swapped == -eps[i, j, k] or (i == j and swapped == 0)
    assert base == 1


def test_small_n_rejected():
    with pytest.raises(ValueError):
        pie(1)


def test_entries_are_immutable():
    for t in pie(3):
        with pytest.raises(ValueError):
            t[0, 0, 0, 0] = 5
    assert pie(3)[0] is pie(3)[0]  # built once, shared by every caller
