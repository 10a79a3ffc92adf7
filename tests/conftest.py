"""Shared expensive fixtures (session-scoped: built once per test run)."""

import numpy as np
import pytest

from su3chain import ed
from su3chain.threesite import (
    G1Solver,
    density_matrix_three_site,
    three_site_correlator,
)


@pytest.fixture(scope="session")
def g1_solver():
    """Comb-constructed G1 at the defaults: a head of 12 comb terms plus the
    closed-form tail, sampled in long double (``c2`` within 1e-16 of the
    30-digit oracle)."""
    return G1Solver()


@pytest.fixture(scope="session")
def default_correlator():
    """``three_site_correlator()`` at the shipped defaults, computed once."""
    return three_site_correlator()


@pytest.fixture(scope="session")
def d3(g1_solver):
    """Homogeneous three-site density operator from the chain + circle solve."""
    return density_matrix_three_site(g1_solver)


@pytest.fixture(scope="session")
def ed_results():
    """Ground-state results for the three tabulated chain lengths."""
    return {L: ed.ground_state(ed.ChainSpec(L)) for L in (3, 6, 9)}


@pytest.fixture(scope="session")
def l9_full_space_energy():
    """Ground-state energy of the periodic L=9 chain, independent of ``ed``.

    ``H = sum_j P_{j,j+1}`` is assembled as a sparse matrix on the full
    3^9 = 19683-dim space: the open-chain bonds as Kronecker products of the
    two-site swap with identities, the wrap bond as the permutation that
    exchanges the first and last tensor axes.  ``eigsh`` then finds the lowest
    eigenvalue at machine precision, with no sector restriction and nothing
    taken from ``su3chain.ed``.
    """
    import scipy.sparse as sp
    from scipy.sparse.linalg import eigsh

    L = 9
    dim = 3**L

    def permutation(image):
        return sp.csr_matrix(
            (np.ones(len(image)), (np.arange(len(image)), image)),
            shape=(len(image), len(image)),
        )

    swap = permutation(np.arange(9).reshape(3, 3).T.ravel())
    bonds = [
        sp.kron(sp.kron(sp.identity(3**j), swap), sp.identity(3 ** (L - j - 2)))
        for j in range(L - 1)
    ]
    wrap = np.arange(dim).reshape((3,) * L).swapaxes(0, -1).ravel()
    bonds.append(permutation(wrap))
    h = sum(bond.tocsr() for bond in bonds)
    # a random start vector: the uniform one is an eigenvector (E = L)
    v0 = np.random.default_rng(0).standard_normal(dim)
    e0 = eigsh(h, k=1, which="SA", v0=v0, tol=0, return_eigenvectors=False)
    return float(e0[0])


@pytest.fixture(scope="session")
def three_site_pair():
    """Correlator at the default comb head (J = 12 terms before the
    closed-form tail) and at that head doubled (J = 24), for self-convergence.

    Returns ``(solutions, elapsed_seconds)``, with ``solutions`` keyed by the
    head length, so the acceptance suite can also check the runtime budget.
    """
    import time

    from su3chain import threesite

    start = time.perf_counter()
    solutions = {}
    for J in (12, 24):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(threesite, "_COMB_TERMS", J)
            solutions[J] = three_site_correlator()
    return solutions, time.perf_counter() - start
