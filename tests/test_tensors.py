"""The structural tensors P, I, E and the Levi-Civita tensor."""

import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from su3chain.tensors import levi_civita, pie


def test_permutation_entries():
    p = pie(3)[0]
    assert p[0, 1, 1, 0] == 1
    assert p[0, 1, 0, 1] == 0
    for i, k, j, l in itertools.product(range(3), repeat=4):
        assert p[i, k, j, l] == (1 if i == l and j == k else 0)
    # as an operator, row (j, l) and column (i, k), P swaps the two factors
    swap = pie(2)[0].transpose(2, 3, 0, 1).reshape(4, 4)
    assert np.array_equal(swap, np.eye(4)[[0, 2, 1, 3]])


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
