"""Exact diagonalization of the periodic SU(3) permutation chain.

Basis states are base-3 digit strings packed into machine integers (site 0 is
the most significant digit), and ``H = sum_j P_{j,j+1}`` (periodic, including
the wrap bond) acts matrix-free by swapping adjacent digits.  The ground
state lives in the balanced color sector (L/3 sites of each color, dimension
90 for L=6, 1680 for L=9 and 34650 for L=12) and is translation invariant, so
H is solved in the zero-momentum block of that sector (Sandvik,
arXiv:1101.3281, section 4): one basis vector per translation orbit, weighted
by the orbit sizes, of dimension 2, 16, 188 and 2896 for L = 3, 6, 9, 12.
Blocks up to 3^6 are solved dense, and for L <= 6 the block's minimum is
verified against the minimum of ``full_hamiltonian``, the dense matrix on
all 3^L states; the L = 12 block is solved by a Lanczos iteration with full
reorthogonalization, a fixed seed and fixed tolerances.  The
reported degeneracy and gap are those of the block; the chain's lowest
excitation may lie in another momentum block (at L = 12 the block's gap is
1.86, the balanced sector's 0.70).

The sector is enumerated from combinations of the sites of each color, and a
bond swap changes a state by ``(d_k - d_j)(3^(L-1-j) - 3^(L-1-k))`` for its
two digits ``d_j``, ``d_k``; the swapped state is ranked by binary search in
the ascending state list.  The three-site density matrix is contracted over
the configurations of the other L - 3 sites that occur in the sector.  So no
array of size 3^L is built for L >= 9.

The equivalent spin-1 form ``H = sum_j [S.S + (S.S)^2]`` differs from the
permutation form by ``L`` times the identity, because ``S.S + (S.S)^2 = P + 1``
on a bond (checked in the tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .tensors import expectations, from_expectations

#: published finite-size reference values: L -> (energy per bond, <P12 P23>)
REFERENCE_TABLE1 = {
    3: (-1.000000000000000, 1.000000000000000),
    6: (-0.767591879243998, 0.309579305659537),
    9: (-0.731082881703061, 0.239661721591669),
}

_DENSE_LIMIT = 6  # largest L of a dense 3^L x 3^L matrix; blocks up to 3^6 go dense
_DEGENERACY_TOL = 1e-10
_LANCZOS_SEED = 7
_LANCZOS_MAX_ITER = 400
_LANCZOS_EIG_TOL = 1e-14  # Ritz value movement between iterations
_LANCZOS_RESID_TOL = 1e-12  # explicit residual norm
_LANCZOS_BLOCK = 32  # Lanczos basis rows allocated at a time


@dataclass(frozen=True)
class ChainSpec:
    """Periodic SU(3) chain of L sites (L divisible by 3, 3 <= L <= 12)."""

    L: int

    def __post_init__(self):
        if not (3 <= self.L <= 12):
            raise ValueError("L must be in 3..12 (Hilbert space size)")
        if self.L % 3:
            raise ValueError("L must be divisible by 3 (balanced color sector)")


@dataclass
class SpectrumResult:
    """Ground-state data of a finite chain.

    ``degeneracy``, ``k0_dimension`` and ``k0_gap`` describe the
    zero-momentum block of the balanced sector that was solved: the number
    of its ground vectors, its dimension and the distance from its ground
    level to its next level.  The chain's own gap may be smaller, in another
    momentum block.
    """

    L: int
    method: str
    ground_energy: float
    energy_per_bond: float
    residual_norm: float
    degeneracy: int
    iterations: int
    k0_dimension: int
    k0_gap: float
    observables: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# state bookkeeping
# ---------------------------------------------------------------------------

def balanced_sector(L: int) -> np.ndarray:
    """All states with exactly L/3 sites of each color, ascending.

    Built from the sites of each color, never from the 3^L states: the
    positions of color 0 run over ``combinations(range(L), L/3)``, those of
    color 1 over the same number of the remaining sites, and every other
    site holds color 2, so the state is ``2 sum(pw) - 2 sum(pw[c0]) -
    sum(pw[c1])`` for the place values ``pw``.
    """
    k = L // 3
    pw = 3 ** np.arange(L - 1, -1, -1, dtype=np.int64)
    c0 = np.array(list(combinations(range(L), k)))
    free = np.ones((len(c0), L), dtype=bool)
    free[np.arange(len(c0))[:, None], c0] = False
    rest = np.nonzero(free)[1].reshape(len(c0), L - k)
    c1 = np.array(list(combinations(range(L - k), k)))
    zero = pw[c0].sum(axis=1)
    one = pw[rest[:, c1]].sum(axis=2)
    states = 2 * pw.sum() - 2 * zero[:, None] - one
    return np.sort(states.ravel())


class Hamiltonian:
    """H = sum_j P_{j,j+1} in the zero-momentum block of a list of states.

    The states must be ascending and closed under the one-site translation
    and under every bond swap; a list that is not raises.  The block has one
    basis vector per translation orbit, ``|r~> = n_r^(-1/2) sum_t |t>`` over
    the ``n_r`` states ``t`` of the orbit, represented by its smallest state
    ``r`` (``reps``).  For each orbit and bond the representative ``s`` of the
    bond-swapped state is precomputed, so ``matvec`` is the fixed-order
    weighted gather ``out[r] = sum_bonds sqrt(n_r / n_s) v[s]``, and results
    are independent of any outer parallelism.
    """

    def __init__(self, L: int, states: np.ndarray):
        self.L = L
        self.states = states
        top = 3 ** (L - 1)
        rep, rotated = states, states
        fixed = np.zeros(len(states), dtype=np.int64)  # translations fixing each
        for _ in range(L):
            rotated = rotated % top * 3 + rotated // top
            rep = np.minimum(rep, rotated)
            fixed += rotated == states
        self.reps, self.orbit = np.unique(rep, return_inverse=True)
        self.dim = len(self.reps)
        self.size = np.zeros(self.dim, dtype=np.int64)
        self.size[self.orbit] = L // fixed
        if not np.array_equal(np.bincount(self.orbit), self.size):
            raise RuntimeError("translation left the state list (sector broken)")
        pw = 3 ** np.arange(L - 1, -1, -1, dtype=np.int64)
        self.bond_targets = []
        self.bond_weights = []
        for j in range(L):
            k = (j + 1) % L
            d_j = self.reps // pw[j] % 3
            d_k = self.reps // pw[k] % 3
            swapped = self.reps + (d_k - d_j) * (pw[j] - pw[k])
            rank = np.minimum(np.searchsorted(states, swapped), len(states) - 1)
            if (states[rank] != swapped).any():
                raise RuntimeError("bond swap left the state list (sector broken)")
            target = self.orbit[rank]
            self.bond_targets.append(target)
            self.bond_weights.append(np.sqrt(self.size / self.size[target]))

    def matvec(self, v: np.ndarray) -> np.ndarray:
        out = np.zeros_like(v)
        for target, weight in zip(self.bond_targets, self.bond_weights):
            out += weight * v[target]
        return out

    def dense(self) -> np.ndarray:
        if self.dim > 3**_DENSE_LIMIT:
            raise ValueError(f"refusing to materialize a {self.dim}-dim matrix")
        h = np.zeros((self.dim, self.dim))
        rows = np.arange(self.dim)
        for target, weight in zip(self.bond_targets, self.bond_weights):
            h[rows, target] += weight
        return h

    def expand(self, v: np.ndarray) -> np.ndarray:
        """Amplitudes on ``states`` of the block vector ``v``."""
        return v[self.orbit] / np.sqrt(self.size[self.orbit])


def build_hamiltonian(spec: ChainSpec) -> Hamiltonian:
    """The matrix-free zero-momentum block of the balanced color sector."""
    return Hamiltonian(spec.L, balanced_sector(spec.L))


def full_hamiltonian(spec: ChainSpec) -> np.ndarray:
    """H as a dense matrix on all 3^L states, for L <= 6 only."""
    if spec.L > _DENSE_LIMIT:
        raise ValueError("the full space is materialized dense, L <= 6 only")
    dim = 3**spec.L
    # bond (j, j+1) sends each state to the one with tensor axes j, j+1 swapped
    index = np.arange(dim).reshape((3,) * spec.L)
    rows = np.arange(dim)
    h = np.zeros((dim, dim))
    for j in range(spec.L):
        h[rows, np.swapaxes(index, j, (j + 1) % spec.L).ravel()] += 1.0
    return h


# ---------------------------------------------------------------------------
# eigensolvers
# ---------------------------------------------------------------------------

def _lanczos_ground(matvec, dim: int):
    """Lowest eigenpair by Lanczos with full reorthogonalization.

    Converged when the Ritz value moves by less than ``_LANCZOS_EIG_TOL``
    between iterations and the explicit residual norm is below
    ``_LANCZOS_RESID_TOL``.
    Returns (eigenvalue, vector, residual, iterations, gap) where ``gap`` is
    the distance to the second Ritz value.  The basis grows by
    ``_LANCZOS_BLOCK`` rows at a time, so its memory follows the iterations
    run, not ``_LANCZOS_MAX_ITER``.
    """
    rng = np.random.default_rng(_LANCZOS_SEED)
    q = rng.standard_normal(dim)
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
                gap = float(evals[1] - evals[0]) if len(evals) > 1 else np.inf
                return float(theta), x, residual, j + 1, gap
        theta_prev = theta
        betas.append(b)
        if j + 1 == len(basis):
            grown = np.empty((len(basis) + _LANCZOS_BLOCK, dim))
            grown[: j + 1] = basis
            basis = grown
        basis[j + 1] = w / b
    raise RuntimeError(
        f"Lanczos did not converge in {_LANCZOS_MAX_ITER} iterations "
        f"(last Ritz value {theta_prev})"
    )


def _ground_space(spec: ChainSpec):
    """(block, energy, orthonormal ground vectors, method, residual, iters, gap).

    Works in the zero-momentum block of the balanced sector.  Dense path for
    blocks up to 3^6 (with a check that the block attains the global minimum
    of the full space when that is also small); Lanczos otherwise.
    Degeneracies within 1e-10 are resolved by the dense solve so that
    observables can be projector-averaged; ``gap`` is the distance from the
    ground level to the next level of the block.
    """
    ham = build_hamiltonian(spec)
    if ham.dim <= 3**_DENSE_LIMIT:
        evals, evecs = np.linalg.eigh(ham.dense())
        if spec.L <= _DENSE_LIMIT:
            global_min = float(np.linalg.eigvalsh(full_hamiltonian(spec))[0])
            if abs(global_min - evals[0]) > 1e-10:
                raise RuntimeError(
                    f"zero-momentum block misses the global minimum: "
                    f"{evals[0]} vs {global_min}"
                )
        mask = evals - evals[0] < _DEGENERACY_TOL
        vecs = evecs[:, mask].T
        e0 = float(evals[0])
        gap = float(evals[len(vecs)] - e0) if len(vecs) < ham.dim else np.inf
        residual = float(
            max(np.linalg.norm(ham.matvec(v) - e0 * v) for v in vecs)
        )
        return ham, e0, vecs, "dense", residual, ham.dim, gap
    e0, x, residual, iters, gap = _lanczos_ground(ham.matvec, ham.dim)
    if gap < _DEGENERACY_TOL:
        raise RuntimeError(
            "degenerate ground space detected beyond the dense fallback size; "
            f"gap {gap}"
        )
    return ham, e0, x[None, :], "lanczos", residual, iters, gap


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------

def _rdm3_from_vectors(ham: Hamiltonian, vecs: np.ndarray) -> np.ndarray:
    """Reduced density matrix of sites (0,1,2), projector-averaged over vecs.

    Each block vector is expanded to the sector and laid out as a 27 x m
    matrix: the digits of sites 0-2 by the m configurations of the other
    sites that occur in the sector.
    """
    head, tail = np.divmod(ham.states, 3 ** (ham.L - 3))
    tails, column = np.unique(tail, return_inverse=True)
    rdm = np.zeros((27, 27))
    for v in vecs:
        a = np.zeros((27, len(tails)))
        a[head, column] = ham.expand(v)
        rdm += a @ a.T
    return rdm / len(vecs)


def ground_state(spec: ChainSpec) -> SpectrumResult:
    """Ground-state energy and correlation observables of a finite chain."""
    ham, e0, vecs, method, residual, iters, gap = _ground_space(spec)
    rdm3 = _rdm3_from_vectors(ham, vecs)
    # <I>, <P12>, <P23>, <P13>, <P12 P23>, <P23 P12>; the first two fix rdm2
    v = expectations(rdm3)
    p12, p12p23 = float(v[1]), float(v[4])
    rdm2 = from_expectations(v[:2])
    per_bond = e0 / spec.L
    if abs(p12 - per_bond) > 1e-12:
        raise RuntimeError(
            f"translation invariance violated: <P12> = {p12}, E0/L = {per_bond}"
        )
    return SpectrumResult(
        L=spec.L,
        method=method,
        ground_energy=e0,
        energy_per_bond=per_bond,
        residual_norm=residual,
        degeneracy=len(vecs),
        iterations=iters,
        k0_dimension=ham.dim,
        k0_gap=gap,
        observables={
            "p12": p12,
            "p12p23": p12p23,
            "rdm2": rdm2,
            "rdm3": rdm3,
        },
    )
