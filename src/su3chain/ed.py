"""Exact diagonalization of the periodic SU(3) permutation chain.

For L = 3k the ground state of ``H = sum_j P_{j,j+1}`` (periodic, including
the wrap bond) is an SU(3) singlet.  By Schur-Weyl duality the singlets of
(C^3)^L carry the irrep of the symmetric group S_L of shape (k, k, k), so H
is solved there, in the orthonormal basis of standard Young tableaux of that
shape (Nataf and Mila, PRL 113, 127204 (2014)): 1, 5, 42 and 462 of them for
L = 3, 6, 9, 12.  The swap ``s_i`` of sites i and i+1 acts by Young's
orthogonal form ``s_i T = T/r + sqrt(1 - 1/r^2) T'``, with ``r`` the content
(column minus row) of i+1 minus that of i and ``T'`` the tableau with i and
i+1 exchanged, and the wrap bond is ``s_(L-1) ... s_2 s_1 s_2 ... s_(L-1)``.
One Lanczos iteration with full reorthogonalization, a fixed start vector
and fixed tolerances solves every L; for L <= 6 its minimum is verified
against the minimum of H on the whole balanced color sector, dense (90
states at L = 6).  That is the minimum over all 3^L states: every SU(3)
irrep in (C^3)^(3k) has triality zero, so it has a zero weight, whose states
have L/3 sites of each color, and every level of H has a state in the
balanced sector.  The reported gap is the singlet sector's, from a second
run with the ground vector lifted above the spectrum; the chain's lowest
excitation may lie outside it (at L = 12 the singlet gap is 1.13, the
balanced sector's 0.70).

A tableau is the Yamanouchi word of the rows its entries stand in, packed in
base 3 like a basis state (site 0 the most significant digit).  Both sectors
come from one generator, ``_words``, that grows every admissible prefix a
site at a time, in ascending order, under a rule for which digits a prefix
may take next: the ballot rule for the tableaux, fewer than L/3 of each color
for the balanced sector.  So the tableaux are built without enumerating the
balanced sector: 462 words at L = 12, where that sector has 34,650 states.
The generator also returns each word's digits and its contents, which it
reads off the prefix's digit counts.  A bond swap changes a word by
``(d_k - d_j)(3^(L-1-j) - 3^(L-1-k))`` for its two digits ``d_j``, ``d_k``,
and ``_swap_rank`` ranks the swapped word by binary search in the ascending
word list, for the tableaux' bonds and for the balanced sector's.  Every
three-site observable is one of the six numbers ``v`` that
``ground_state`` returns, ``<I>, <P12>, <P23>, <P13>, <P12 P23>, <P23 P12>``
of sites 0, 1, 2, read off the ground vector ``x`` as ``x.x``, ``<s_1>``,
``<s_2>``, ``<s_1 s_2 s_1>``, ``<s_1 s_2>`` and ``<s_2 s_1>``; the three
sites' reduced density matrix is ``tensors.from_expectations(v)``.

The equivalent spin-1 form ``H = sum_j [S.S + (S.S)^2]`` differs from the
permutation form by ``L`` times the identity, because ``S.S + (S.S)^2 = P + 1``
on a bond (checked in the tests).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

#: published finite-size reference values: L -> (energy per bond, <P12 P23>)
REFERENCE_TABLE1 = {
    3: (-1.000000000000000, 1.000000000000000),
    6: (-0.767591879243998, 0.309579305659537),
    9: (-0.731082881703061, 0.239661721591669),
}

_DENSE_LIMIT = 6  # largest L whose balanced sector is checked dense (90 x 90)
_DEGENERACY_TOL = 1e-10
_LANCZOS_START = (5**0.5 - 1) / 2  # start vector: k times this mod 1, centred
_GAP_START = 2**0.5 - 1  # the same for the second level's run
_LANCZOS_MAX_ITER = 400
_LANCZOS_EIG_TOL = 1e-14  # Ritz value movement between iterations
_LANCZOS_RESID_TOL = 1e-12  # explicit residual norm
_LANCZOS_BLOCK = 32  # Lanczos basis rows allocated at a time


@dataclass(frozen=True)
class ChainSpec:
    """Periodic SU(3) chain of L sites (L divisible by 3, 3 <= L <= 12)."""

    L: int

    def __post_init__(self):
        try:
            operator.index(self.L)
        except TypeError:
            raise ValueError(f"L must be an integer, got {self.L!r}") from None
        if not (3 <= self.L <= 12):
            raise ValueError("L must be in 3..12 (Hilbert space size)")
        if self.L % 3:
            raise ValueError("L must be divisible by 3 (balanced color sector)")


@dataclass
class SpectrumResult:
    """The ground level of a finite chain, solved in its singlet sector.

    ``singlet_dimension`` is the number of standard tableaux of shape
    (L/3, L/3, L/3), and ``singlet_gap`` the distance from the ground level
    to the sector's second level (``inf`` when the sector has one state).
    The chain's own gap may be smaller, outside the singlets.  ``v`` holds
    the six numbers ``<I>, <P12>, <P23>, <P13>, <P12 P23>, <P23 P12>`` of
    sites 0, 1, 2, with ``<I> = x.x`` for the computed ground vector ``x``.
    """

    ground_energy: float
    energy_per_bond: float
    residual_norm: float
    iterations: int
    singlet_dimension: int
    singlet_gap: float
    v: np.ndarray


# ---------------------------------------------------------------------------
# state bookkeeping
# ---------------------------------------------------------------------------

def _words(L: int, admits):
    """The words of L base-3 digits that ``admits`` lets grow site by site,
    ascending, with their ``(L, dim)`` digits and contents.

    ``admits(counts, k)`` takes each prefix's counts of the digits 0, 1, 2
    and k = L/3, and returns which digits it may take next.  Every prefix is
    extended at once through ``np.nonzero`` of that (prefix, digit) mask,
    which lists prefixes in order and each one's digits ascending, so the
    words stay ascending.  A site's content is the number of earlier sites
    with its digit, minus the digit (for a tableau word, the column of the
    entry minus its row), so it comes from the prefix's counts.  Each site's
    digits and contents are kept per prefix and gathered once at the end.
    """
    words = np.zeros(1, dtype=np.int64)
    counts = np.zeros((1, 3), dtype=np.int64)
    steps = []
    for _ in range(L):
        prefix, digit = np.nonzero(admits(counts, L // 3))
        counts = counts[prefix]
        steps.append((prefix, digit, counts[np.arange(len(digit)), digit] - digit))
        words = 3 * words[prefix] + digit
        counts += np.eye(3, dtype=np.int64)[digit]
    # each word's digit and content at every site, read back along its prefixes
    digits, contents = np.empty((2, L, len(words)), dtype=np.int64)
    node = np.arange(len(words))
    for site in reversed(range(L)):
        prefix, digit, content = steps.pop()
        digits[site], contents[site] = digit[node], content[node]
        node = prefix[node]
    return words, digits, contents


def _ballot(counts, k):
    """Row 0 may take an entry while it is shorter than k, rows 1 and 2 while
    shorter than the row above."""
    n0, n1, n2 = counts.T
    return np.column_stack([n0 < k, n1 < n0, n2 < n1])


def _swap_rank(words, digits, j, k):
    """The words with the digits of sites j and k exchanged, and the rank of
    each in the ascending ``words`` by binary search (clipped to the last)."""
    L = len(digits)
    swapped = words + (digits[k] - digits[j]) * (3 ** (L - 1 - j) - 3 ** (L - 1 - k))
    return swapped, np.minimum(np.searchsorted(words, swapped), len(words) - 1)


def balanced_sector(L: int) -> np.ndarray:
    """All states with exactly L/3 sites of each color, ascending.

    Built site by site, never from the 3^L states: a color may take the
    next site while it holds fewer than L/3, and no prefix is a dead end.
    """
    return _words(L, lambda counts, k: counts < k)[0]


class Hamiltonian:
    """H = sum_j P_{j,j+1} on the SU(3) singlets, in Young's orthogonal form.

    The basis is the ``dim`` Yamanouchi words of shape (k, k, k), k = L/3,
    ascending, as ``words``: read from site 0, no prefix has more 1s than 0s
    or more 2s than 1s, and the word has k of each (``_ballot``; no prefix
    is a dead end).  Word ``w`` is the standard tableau with entry i in row
    ``w_i``, and the words are the orthonormal basis.  A swap whose ``T'``
    is standard (|r| >= 2) must find it among the words; a list that lacks
    one raises.  Each swap is a diagonal and one gather, and ``matvec`` sums
    ``3L - 4`` of them.
    """

    def __init__(self, L: int):
        self.L = L
        self.words, digits, contents = _words(L, _ballot)
        self.dim = len(self.words)
        if not self.dim:
            raise RuntimeError("no standard tableau in the word list (sector broken)")
        self._bonds = []
        for j in range(L - 1):
            r = contents[j + 1] - contents[j]  # never 0: i and i+1 share no diagonal
            swapped, rank = _swap_rank(self.words, digits, j, j + 1)
            # |r| = 1: i+1 beside or below i, s_i T = +-T, and T' has weight 0
            if (self.words[rank] != swapped)[abs(r) > 1].any():
                raise RuntimeError("bond swap left the tableau list (sector broken)")
            self._bonds.append((1 / r, rank, np.sqrt(1 - 1 / r**2)))

    def _swap(self, v: np.ndarray, j: int) -> np.ndarray:
        """``s_(j+1) v``: sites j and j+1 (tableau entries j+1, j+2) exchanged."""
        diagonal, partner, weight = self._bonds[j]
        return diagonal * v + weight * v[partner]

    def matvec(self, v: np.ndarray) -> np.ndarray:
        out = sum(self._swap(v, j) for j in range(self.L - 1))
        for j in (*range(self.L - 2, 0, -1), *range(self.L - 1)):  # the wrap bond
            v = self._swap(v, j)
        return out + v


def _balanced_minimum(L: int) -> float:
    """Lowest level of H on the whole balanced sector, by dense ``eigvalsh``;
    each bond sends a state to the one with its two digits swapped."""
    states = balanced_sector(L)
    digits = states // 3 ** np.arange(L - 1, -1, -1)[:, None] % 3
    h = np.zeros((len(states), len(states)))
    for j in range(L):
        h[np.arange(len(states)), _swap_rank(states, digits, j, (j + 1) % L)[1]] += 1.0
    return float(np.linalg.eigvalsh(h)[0])


# ---------------------------------------------------------------------------
# eigensolvers
# ---------------------------------------------------------------------------

def _lanczos_ground(matvec, dim: int, start: float = _LANCZOS_START):
    """Lowest eigenpair by Lanczos with full reorthogonalization, from the
    start vector ``k * start mod 1 - 1/2``, k = 1 ... dim.

    Converged when the Ritz value moves by less than ``_LANCZOS_EIG_TOL``
    between iterations and the explicit residual norm is below
    ``_LANCZOS_RESID_TOL``.
    Returns (eigenvalue, vector, residual, iterations).  The basis grows by
    ``_LANCZOS_BLOCK`` rows at a time, so its memory follows the iterations
    run, not ``_LANCZOS_MAX_ITER``.
    """
    q = np.arange(1, dim + 1) * start % 1 - 0.5
    q /= np.linalg.norm(q)
    basis = np.empty((_LANCZOS_BLOCK, dim))
    basis[0] = q
    alphas: list[float] = []
    betas: list[float] = []
    theta_prev = None
    for j in range(_LANCZOS_MAX_ITER):
        w = matvec(basis[j])
        a = float(basis[j] @ w)
        alphas.append(a)
        w = w - a * basis[j]
        if j:
            w -= betas[-1] * basis[j - 1]
        # full reorthogonalization (twice, to suppress rounding leakage)
        for _ in range(2):
            w -= basis[: j + 1].T @ (basis[: j + 1] @ w)
        tri = np.diag(alphas)
        if betas:
            tri += np.diag(betas, 1) + np.diag(betas, -1)
        evals, evecs = np.linalg.eigh(tri)
        theta = evals[0]
        b = float(np.linalg.norm(w))
        exhausted = b < 1e-14  # invariant subspace exhausted
        settled = theta_prev is not None and abs(theta - theta_prev) < _LANCZOS_EIG_TOL
        if exhausted or (settled and j >= 2):
            x = basis[: j + 1].T @ evecs[:, 0]
            x /= np.linalg.norm(x)
            residual = float(np.linalg.norm(matvec(x) - theta * x))
            if exhausted or residual < _LANCZOS_RESID_TOL:
                return float(theta), x, residual, j + 1
        theta_prev = theta
        betas.append(b)
        if j + 1 == len(basis):
            basis = np.concatenate([basis, np.empty((_LANCZOS_BLOCK, dim))])
        basis[j + 1] = w / b
    raise RuntimeError(
        f"Lanczos did not converge in {_LANCZOS_MAX_ITER} iterations "
        f"(last Ritz value {theta_prev})"
    )


def ground_state(spec: ChainSpec) -> SpectrumResult:
    """The singlet sector's ground level and its six numbers, by Lanczos; for
    L <= 6 the energy is checked against the minimum of the balanced sector,
    which is the minimum of the full space.

    The gap is the sector's second level minus the first, ``inf`` for a
    sector of one state.  One Krylov space holds one vector of a degenerate
    level, so the second level is the lowest of ``H + 2L x x^T``, from another
    start vector: ``||H|| <= L`` lifts ``x`` above every level, and a
    degenerate partner of ``x`` stays at ``e0``.  A gap below
    ``_DEGENERACY_TOL`` raises, and so does a ``<P12>`` off ``E0/L``.
    """
    ham = Hamiltonian(spec.L)
    e0, x, residual, iters = _lanczos_ground(ham.matvec, ham.dim)
    gap = np.inf
    if ham.dim > 1:
        lift = 2 * spec.L
        e1 = _lanczos_ground(
            lambda v: ham.matvec(v) + lift * (x @ v) * x, ham.dim, _GAP_START
        )[0]
        gap = e1 - e0
    if not gap >= _DEGENERACY_TOL:
        raise RuntimeError(f"degenerate singlet ground level; gap {gap}")
    if spec.L <= _DENSE_LIMIT:
        global_min = _balanced_minimum(spec.L)
        if not abs(global_min - e0) <= 1e-10:
            raise RuntimeError(
                f"singlet sector misses the global minimum: {e0} vs {global_min}"
            )
    # <I>, <P12>, <P23>, <P13>, <P12 P23>, <P23 P12> with P12 = s_1 and
    # P23 = s_2 symmetric, so <s_1 s_2 s_1> = (s_1 x).(s_2 s_1 x)
    s1, s2 = ham._swap(x, 0), ham._swap(x, 1)
    v = np.array([x @ x, x @ s1, x @ s2, s1 @ ham._swap(s1, 1), s1 @ s2, s2 @ s1])
    per_bond = e0 / spec.L
    if not abs(v[1] - per_bond) <= 1e-12:
        raise RuntimeError(
            f"translation invariance violated: <P12> = {float(v[1])}, E0/L = {per_bond}"
        )
    return SpectrumResult(
        ground_energy=e0,
        energy_per_bond=per_bond,
        residual_norm=residual,
        iterations=iters,
        singlet_dimension=ham.dim,
        singlet_gap=gap,
        v=v,
    )
