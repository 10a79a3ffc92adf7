"""Rational R-matrices of the SU(n) chain and executable identity checks.

The two-space R-matrices, acting on a pair of local spaces each carrying the
fundamental (F) or anti-fundamental (A) representation, are

    FF / AA :  R(lam) = I + lam * P
    FA / AF :  R(lam) = lam * P - E

with the structural tensors of :mod:`su3chain.tensors` in slot order
``(i, k, j, l)``.  The mixed operator is fixed by requiring that *all* of the
identities below hold simultaneously (special unitarity with its stated scalar
factors, the shifted Yang-Baxter relation, the fusion relations and the
singlet-basis difference-equation matrices); the commonly written ``E + lam*P``
differs from it by the sign convention implicit in the arrow-reversed line of
the graphical notation and satisfies none of them with these component
conventions.

All checks return residuals (and, where applicable, the expected scalar
factor) instead of booleans, so degenerate parameter points remain reportable.
They take scalar or array parameters: an array is one batch of stacked
operators, and the residual is the maximum over its points.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .tensors import levi_civita, pie


class RKind(Enum):
    FF = "FF"
    FA = "FA"
    AF = "AF"
    AA = "AA"

    @property
    def types(self) -> tuple[str, str]:
        return (self.value[0], self.value[1])

    @property
    def mixed(self) -> bool:
        return self.value[0] != self.value[1]


def r_operator(kind: RKind, n: int, lam) -> np.ndarray:
    """R-matrix as an ``n^2 x n^2`` operator: row index ``(j, l)``, column ``(i, k)``.

    FF/AA give ``I + lam*P``; FA/AF give ``lam*P - E``.  An array ``lam``
    gives the stacked operators, of shape ``lam.shape + (n^2, n^2)``.
    """
    P, I, E = (t.transpose(2, 3, 0, 1).reshape(n * n, n * n) for t in pie(n))
    lam = np.asarray(lam)[..., None, None]
    return lam * P - E if kind.mixed else I + lam * P


def _on_12(m: np.ndarray, n: int) -> np.ndarray:
    """``kron(m, eye(n))`` for each operator of a stack."""
    out = np.einsum("...ab,pq->...apbq", m, np.eye(n))
    return out.reshape(m.shape[:-2] + (n**3, n**3))


def _on_23(m: np.ndarray, n: int) -> np.ndarray:
    """``kron(eye(n), m)`` for each operator of a stack."""
    out = np.einsum("pq,...ab->...paqb", np.eye(n), m)
    return out.reshape(m.shape[:-2] + (n**3, n**3))


_STANDARD_TYPE_TRIPLES = [
    ("F", "F", "F"),
    ("F", "F", "A"),
    ("F", "A", "A"),
    ("A", "A", "A"),
    ("A", "A", "F"),
    ("A", "F", "F"),
]
_SPECIAL_TYPE_TRIPLES = [("F", "A", "F"), ("A", "F", "A")]


def _infer_line_types(r1: RKind, r2: RKind, r3: RKind) -> tuple[str, str, str]:
    """Recover the three line types from the three R-matrix kinds.

    The first matrix intertwines lines (1, 2), the second lines (1, 3), the
    third lines (2, 3); the kinds must be mutually consistent.
    """
    t1, t2 = r1.types
    t1b, t3 = r2.types
    t2b, t3b = r3.types
    if (t1, t2, t3) != (t1b, t2b, t3b):
        raise ValueError(
            f"inconsistent kind triple ({r1.value}, {r2.value}, {r3.value}): "
            f"lines (1,2)/(1,3)/(2,3) must carry consistent representations"
        )
    return (t1, t2, t3)


def standard_kind_triples() -> list[tuple[RKind, RKind, RKind]]:
    """The six kind triples satisfying the unshifted Yang-Baxter equation."""
    return [
        (RKind(t1 + t2), RKind(t1 + t3), RKind(t2 + t3))
        for t1, t2, t3 in _STANDARD_TYPE_TRIPLES
    ]


def special_kind_triples() -> list[tuple[RKind, RKind, RKind]]:
    """The two kind triples requiring the +n shift on the intertwiner."""
    return [
        (RKind(t1 + t2), RKind(t1 + t3), RKind(t2 + t3))
        for t1, t2, t3 in _SPECIAL_TYPE_TRIPLES
    ]


def check_yang_baxter(
    r1: RKind,
    r2: RKind,
    r3: RKind,
    lam,
    mu,
    nu,
    n: int = 3,
    shift: complex | None = None,
) -> float:
    """Max-abs residual of the Yang-Baxter equation in braid form.

    The checked relation is::

        R12[r1](a) R23[r2](lam - nu) R12[r3](mu - nu)
          = R23[r3](mu - nu) R12[r2](lam - nu) R23[r1](a)

    with ``a = lam - mu`` for the six standard triples and
    ``a = lam - mu + n`` for the two special triples (where line 3 carries the
    same representation as line 1 but line 2 the opposite one).  ``shift``
    overrides the automatic choice; pass ``shift=0`` to evaluate a special
    triple without the shift (which demonstrably fails).  The parameters may
    be arrays; the residual is then the maximum over all their points.
    """
    types = _infer_line_types(r1, r2, r3)
    if shift is None:
        shift = n if types in _SPECIAL_TYPE_TRIPLES else 0
    lam, mu, nu = np.asarray(lam), np.asarray(mu), np.asarray(nu)
    m1 = r_operator(r1, n, lam - mu + shift)
    m2 = r_operator(r2, n, lam - nu)
    m3 = r_operator(r3, n, mu - nu)
    left = _on_12(m1, n) @ _on_23(m2, n) @ _on_12(m3, n)
    right = _on_23(m3, n) @ _on_12(m2, n) @ _on_23(m1, n)
    return float(np.abs(left - right).max())


def check_unitarity(kind: str, n: int, lam, mu) -> tuple[float, np.ndarray]:
    """Residual and expected scalar of a unitarity relation.

    ``standard``   : R[FF](lam-mu) R[FF](mu-lam) = (1 - (lam-mu)^2) I
    ``special-1``  : R[FA](mu-lam) R[AF](lam-mu+n) = (mu-lam)(lam-mu+n) I
    ``special-2``  : R[FA](lam-mu) R[AF](mu-lam+n) = (lam-mu)(mu-lam+n) I

    The scalar is returned, not divided out, so degenerate points where it
    vanishes stay reportable.  The parameters may be arrays: the residual is
    the maximum over their points and the scalar has their broadcast shape.
    """
    d = np.asarray(lam) - np.asarray(mu)
    if kind == "standard":
        prod = r_operator(RKind.FF, n, d) @ r_operator(RKind.FF, n, -d)
        scalar = 1 - d**2
    elif kind == "special-1":
        prod = r_operator(RKind.FA, n, -d) @ r_operator(RKind.AF, n, d + n)
        scalar = (-d) * (d + n)
    elif kind == "special-2":
        prod = r_operator(RKind.FA, n, d) @ r_operator(RKind.AF, n, -d + n)
        scalar = d * (-d + n)
    else:
        raise ValueError(f"unknown unitarity kind {kind!r}")
    expected = np.asarray(scalar)[..., None, None] * np.eye(n * n)
    return float(np.abs(prod - expected).max()), scalar


def check_fusion(n: int, lam, mu, direction: str) -> tuple[float, np.ndarray]:
    """Residual and scalar of the fusion (antisymmetrizer sliding) relations.

    A column of three R-matrices with arguments ``lam - mu``, ``lam + 1 - mu``,
    ``lam + 2 - mu`` is contracted against the Levi-Civita tensor; the result
    is the Levi-Civita tensor on the free ends times a scalar:

    ``up``   : mixed R content, scalar (lam + 2 - mu)(1 - (lam - mu)^2)
    ``down`` : FF content,      scalar (mu - lam)(1 - (lam + 2 - mu)^2)

    The parameters may be arrays, as in :func:`check_unitarity`.
    """
    if n != 3:
        raise ValueError("fusion relations are implemented for n = 3 only")
    P, I, E = pie(n)
    eps = levi_civita(n)
    lam, mu = np.asarray(lam), np.asarray(mu)
    args = [(lam + k - mu)[..., None, None, None, None] for k in range(3)]
    if direction == "up":
        rs = [a * P - E for a in args]
        scalar = (lam + 2 - mu) * (1 - (lam - mu) ** 2)
        rhs_eps = eps
    elif direction == "down":
        rs = [I + a * P for a in args]
        scalar = (mu - lam) * (1 - (lam + 2 - mu) ** 2)
        rhs_eps = eps.transpose(0, 2, 1)
    else:
        raise ValueError(f"unknown fusion direction {direction!r}")
    left = np.einsum(
        "...fwxa,...gvwb,...huvc,cba->...fghux", *rs, eps, optimize=True
    )
    right = np.einsum("abc,uv->abcuv", rhs_eps, np.eye(n))
    expected = np.asarray(scalar)[..., None, None, None, None, None] * right
    return float(np.abs(left - expected).max()), scalar


EDGE_POINTS = [0.0, 1.0, -1.0, 2.0, -2.0, 3.0, -3.0]

#: parameter points per call of each check in :func:`identity_suite`, so that
#: its memory does not grow with the number of samples
_BLOCK = 64


def sample_parameters(count: int, seed: int = 7) -> np.ndarray:
    """Deterministic complex sample points for identity checks."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-3, 3, size=(count, 2)).view(complex).ravel()


def identity_suite(seed: int = 7, samples: int = 50) -> dict[str, float]:
    """Run every SU(3) identity check and return max residuals by name.

    Covers the six standard Yang-Baxter triples, the shifted special triples,
    standard and special unitarity, both fusion directions, and the epsilon /
    delta contraction identities, over ``samples`` fixed-seed complex points
    plus the deterministic edge points 0, +-1, +-2, +-3.  Each check runs
    once per block of ``_BLOCK`` points.
    """
    pts = sample_parameters(3 * samples, seed=seed)
    edges = np.array(EDGE_POINTS, dtype=complex)
    # Yang-Baxter triples (lam, mu, nu) and unitarity/fusion pairs (lam2, mu2)
    lam = np.concatenate([pts[0::3], edges])
    mu = np.concatenate([pts[1::3], np.full_like(edges, 0.31 - 0.12j)])
    nu = np.concatenate([pts[2::3], np.full_like(edges, -1.44 + 0.77j)])
    lam2 = np.concatenate([pts[0 : 2 * samples : 2], edges])
    mu2 = np.concatenate([pts[1 : 2 * samples : 2], np.zeros_like(edges)])
    triples_std = standard_kind_triples()
    triples_special = special_kind_triples()
    res: dict[str, float] = {}

    def record(name, value):
        res[name] = max(res.get(name, 0.0), float(value))

    for start in range(0, len(lam), _BLOCK):
        block = slice(start, start + _BLOCK)
        triple = (lam[block], mu[block], nu[block])
        pair = (lam2[block], mu2[block])
        for t in triples_std:
            name = "ybe_" + "".join(k.value for k in t)
            record(name, check_yang_baxter(*t, *triple))
        for t in triples_special:
            name = "ybe_special_" + "".join(k.value for k in t)
            record(name, check_yang_baxter(*t, *triple))
        for kind in ("standard", "special-1", "special-2"):
            record("unitarity_" + kind, check_unitarity(kind, 3, *pair)[0])
        for direction in ("up", "down"):
            record("fusion_" + direction, check_fusion(3, *pair, direction)[0])

    eps = levi_civita(3)
    eye = np.eye(3)
    record("eps_eps_full", abs(np.einsum("ijk,ijk->", eps, eps) - 6))
    record("delta_trace", abs(np.trace(eye) - 3))
    record(
        "eps_eps_two",
        np.abs(np.einsum("ijk,jkl->il", eps, eps) - 2 * eye).max(),
    )
    expected = np.einsum("il,jm->ijlm", eye, eye) - np.einsum(
        "im,jl->ijlm", eye, eye
    )
    record(
        "eps_eps_one",
        np.abs(np.einsum("ijk,klm->ijlm", eps, eps) - expected).max(),
    )
    return res
