"""Exact diagonalization of the periodic SU(3) permutation chain.

Basis states are base-3 digit strings packed into machine integers (site 0 is
the most significant digit), and ``H = sum_j P_{j,j+1}`` (periodic, including
the wrap bond) acts matrix-free by swapping adjacent digits.  The ground
state lives in the balanced color sector (L/3 sites of each color, dimension
90 for L=6, 1680 for L=9 and 34650 for L=12); for L <= 6 this is verified
against the full-spectrum minimum, for larger L a Lanczos iteration with full
reorthogonalization and a fixed seed is used inside the sector.

The sector is enumerated from combinations of the sites of each color, and a
bond swap changes a state by ``(d_k - d_j)(3^(L-1-j) - 3^(L-1-k))`` for its
two digits ``d_j``, ``d_k``; the swapped state is ranked by binary search in
the ascending state list.  So building the sector and its Hamiltonian stores
nothing of size 3^L (4.5 MiB traced at L=12).

The equivalent spin-1 form ``H = sum_j [S.S + (S.S)^2]`` differs from the
permutation form by ``L`` times the identity (P = S.S + (S.S)^2 - 1 on a
bond), which is checked entrywise for small chains.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .tensors import pie

#: published finite-size reference values: L -> (energy per bond, <P12 P23>)
REFERENCE_TABLE1 = {
    3: (-1.000000000000000, 1.000000000000000),
    6: (-0.767591879243998, 0.309579305659537),
    9: (-0.731082881703061, 0.239661721591669),
}

_DENSE_LIMIT = 6  # largest L materialized as a full 3^L x 3^L matrix
_DEGENERACY_TOL = 1e-10
_LANCZOS_SEED = 7


@dataclass(frozen=True)
class ChainSpec:
    """Periodic SU(3) chain of L sites (L divisible by 3, 3 <= L <= 12)."""

    L: int
    boundary: str = "periodic"
    n: int = 3

    def __post_init__(self):
        if self.boundary != "periodic":
            raise ValueError("only periodic chains are supported")
        if self.n != 3:
            raise ValueError("only n = 3 is supported")
        if not (3 <= self.L <= 12):
            raise ValueError("L must be in 3..12 (Hilbert space size)")
        if self.L % 3:
            raise ValueError("L must be divisible by 3 (balanced color sector)")


@dataclass
class SpectrumResult:
    """Ground-state data of a finite chain."""

    L: int
    method: str
    ground_energy: float
    energy_per_bond: float
    residual_norm: float
    degeneracy: int
    iterations: int
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
    """Matrix-free H = sum_j P_{j,j+1} restricted to a list of basis states.

    Precomputes, for each bond, the permutation of the state list induced by
    swapping the two adjacent digits; ``matvec`` is then a fixed-order sum of
    gathers, so results are independent of any outer parallelism.  The
    states must be ascending: each swapped state is ranked by binary search
    in the list, and one that is not in it raises.
    """

    def __init__(self, L: int, states: np.ndarray):
        self.L = L
        self.states = states
        self.dim = len(states)
        pw = 3 ** np.arange(L - 1, -1, -1, dtype=np.int64)
        self.bond_targets = []
        for j in range(L):
            k = (j + 1) % L
            d_j = states // pw[j] % 3
            d_k = states // pw[k] % 3
            swapped = states + (d_k - d_j) * (pw[j] - pw[k])
            target = np.minimum(np.searchsorted(states, swapped), self.dim - 1)
            if (states[target] != swapped).any():
                raise RuntimeError("bond swap left the state list (sector broken)")
            self.bond_targets.append(target)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        out = np.zeros_like(v)
        for target in self.bond_targets:
            out += v[target]
        return out

    def dense(self) -> np.ndarray:
        if self.dim > 3**_DENSE_LIMIT:
            raise ValueError(f"refusing to materialize a {self.dim}-dim matrix")
        h = np.zeros((self.dim, self.dim))
        rows = np.arange(self.dim)
        for target in self.bond_targets:
            h[rows, target] += 1.0
        return h


def spin1_matrices():
    """Spin-1 operators (Sx, Sy, Sz) in the Sz eigenbasis."""
    sx = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / np.sqrt(2)
    sy = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex) / np.sqrt(2)
    sz = np.diag([1.0, 0.0, -1.0]).astype(complex)
    return sx, sy, sz

def _spin1_bond() -> np.ndarray:
    """S.S + (S.S)^2 on two sites (9 x 9); equals P + identity."""
    ss = sum(np.kron(s, s) for s in spin1_matrices())
    return (ss + ss @ ss).real


def _apply_two_site(op9: np.ndarray, mat: np.ndarray, L: int, j: int) -> np.ndarray:
    """Apply a two-site operator on sites (j, j+1 mod L) to columns of mat."""
    k = (j + 1) % L
    t = mat.reshape((3,) * L + (-1,))
    t = np.moveaxis(t, (j, k), (0, 1))
    shape = t.shape
    t = (op9 @ t.reshape(9, -1)).reshape(shape)
    t = np.moveaxis(t, (0, 1), (j, k))
    return t.reshape(3**L, -1)


def build_hamiltonian(spec: ChainSpec, form: str = "permutation", sector: str = "balanced"):
    """Hamiltonian handle (matrix-free for permutation form, dense for spin-1).

    ``sector`` selects the balanced color sector or the full Hilbert space.
    The spin-1 form is available dense on the full space for L <= 6 only.
    """
    if form == "permutation":
        if sector == "balanced":
            return Hamiltonian(spec.L, balanced_sector(spec.L))
        if sector == "full":
            return Hamiltonian(spec.L, np.arange(3**spec.L, dtype=np.int64))
        raise ValueError(f"unknown sector {sector!r}")
    if form == "spin1":
        if spec.L > _DENSE_LIMIT:
            raise ValueError("spin-1 form is materialized dense, L <= 6 only")
        op = _spin1_bond()
        h = np.zeros((3**spec.L, 3**spec.L))
        eye = np.eye(3**spec.L)
        for j in range(spec.L):
            h += _apply_two_site(op, eye, spec.L, j)
        return h
    raise ValueError(f"unknown form {form!r}")


# ---------------------------------------------------------------------------
# eigensolvers
# ---------------------------------------------------------------------------

def _lanczos_ground(
    matvec,
    dim: int,
    seed: int = _LANCZOS_SEED,
    max_iter: int = 400,
    eig_tol: float = 1e-14,
    resid_tol: float = 1e-12,
):
    """Lowest eigenpair by Lanczos with full reorthogonalization.

    Converged when the Ritz value moves by less than ``eig_tol`` between
    iterations and the explicit residual norm is below ``resid_tol``.
    Returns (eigenvalue, vector, residual, iterations, gap) where ``gap`` is
    the distance to the second Ritz value.
    """
    rng = np.random.default_rng(seed)
    q = rng.standard_normal(dim)
    q /= np.linalg.norm(q)
    basis = np.zeros((max_iter + 1, dim))
    basis[0] = q
    alphas: list[float] = []
    betas: list[float] = []
    theta_prev = None
    for j in range(max_iter):
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
        if theta_prev is not None and abs(theta - theta_prev) < eig_tol and j >= 2:
            x = basis[: j + 1].T @ evecs[:, 0]
            x /= np.linalg.norm(x)
            residual = float(np.linalg.norm(matvec(x) - theta * x))
            if residual < resid_tol:
                gap = float(evals[1] - evals[0]) if len(evals) > 1 else np.inf
                return float(theta), x, residual, j + 1, gap
        theta_prev = theta
        b = float(np.linalg.norm(w))
        if b < 1e-14:  # invariant subspace exhausted
            x = basis[: j + 1].T @ evecs[:, 0]
            x /= np.linalg.norm(x)
            residual = float(np.linalg.norm(matvec(x) - theta * x))
            gap = float(evals[1] - evals[0]) if len(evals) > 1 else np.inf
            return float(theta), x, residual, j + 1, gap
        betas.append(b)
        basis[j + 1] = w / b
    raise RuntimeError(
        f"Lanczos did not converge in {max_iter} iterations "
        f"(last Ritz value {theta_prev})"
    )


def _ground_space(spec: ChainSpec):
    """(energy, orthonormal ground vectors in sector, method, residual, iters).

    Dense path for small sectors (with a full-spectrum check that the
    balanced sector attains the global minimum when the full space is also
    small); Lanczos otherwise.  Degeneracies within 1e-10 are resolved by a
    dense solve so that observables can be projector-averaged.
    """
    ham = build_hamiltonian(spec, "permutation", "balanced")
    if ham.dim <= 3**_DENSE_LIMIT:
        evals, evecs = np.linalg.eigh(ham.dense())
        if 3**spec.L <= 3**_DENSE_LIMIT:
            full = build_hamiltonian(spec, "permutation", "full")
            global_min = float(np.linalg.eigvalsh(full.dense())[0])
            if abs(global_min - evals[0]) > 1e-10:
                raise RuntimeError(
                    f"balanced sector misses the global minimum: "
                    f"{evals[0]} vs {global_min}"
                )
        mask = evals - evals[0] < _DEGENERACY_TOL
        vecs = evecs[:, mask].T
        e0 = float(evals[0])
        residual = float(
            max(np.linalg.norm(ham.matvec(v) - e0 * v) for v in vecs)
        )
        return ham, e0, vecs, "dense", residual, ham.dim
    e0, x, residual, iters, gap = _lanczos_ground(ham.matvec, ham.dim)
    if gap < _DEGENERACY_TOL:
        raise RuntimeError(
            "degenerate ground space detected beyond the dense fallback size; "
            f"gap {gap}"
        )
    return ham, e0, x[None, :], "lanczos", residual, iters


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------

def _rdm3_from_vectors(L: int, states: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Reduced density matrix of sites (0,1,2), projector-averaged over vecs."""
    rdm = np.zeros((27, 27))
    for v in vecs:
        full = np.zeros(3**L)
        full[states] = v
        a = full.reshape(27, -1)
        rdm += a @ a.T
    return rdm / len(vecs)


def ground_state(spec: ChainSpec) -> SpectrumResult:
    """Ground-state energy and correlation observables of a finite chain."""
    ham, e0, vecs, method, residual, iters = _ground_space(spec)
    rdm3 = _rdm3_from_vectors(spec.L, ham.states, vecs)
    rdm2 = rdm3.reshape(9, 3, 9, 3).trace(axis1=1, axis2=3)
    p9 = pie(3)[0].transpose(2, 3, 0, 1).reshape(9, 9)
    p12 = float(np.trace(rdm2 @ p9))
    p12f = np.kron(p9, np.eye(3))
    p23f = np.kron(np.eye(3), p9)
    p12p23 = float(np.trace(rdm3 @ p12f @ p23f))
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
        observables={
            "p12": p12,
            "p12p23": p12p23,
            "rdm2": rdm2,
            "rdm3": rdm3,
        },
    )


def observables(spec: ChainSpec, which: set[str] | None = None) -> dict:
    """Selected ground-state observables: p12, p12p23, rdm2, rdm3."""
    allowed = {"p12", "p12p23", "rdm2", "rdm3"}
    which = set(which) if which is not None else allowed
    unknown = which - allowed
    if unknown:
        raise ValueError(f"unknown observables {sorted(unknown)}")
    result = ground_state(spec)
    return {name: result.observables[name] for name in sorted(which)}
