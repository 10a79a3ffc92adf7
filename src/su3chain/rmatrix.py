"""Rational R-matrices of the SU(3) chain and executable identity checks.

Each line of the graphical notation carries the fundamental (``"F"``) or the
anti-fundamental (``"A"``) representation.  The R-matrix of two lines is
named by their two types, ``"FF"``, ``"FA"``, ``"AF"`` or ``"AA"``:

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

A Yang-Baxter case is named by its three line types, one of
:data:`LINE_TRIPLES`.  All checks return residuals instead of booleans, so
degenerate parameter points remain reportable.  They take scalar or array
parameters: an array is one batch of stacked operators, and the residual is
the maximum over its points.
"""

from __future__ import annotations

import numpy as np

from .tensors import levi_civita, pie

N = 3

#: every triple of line types; the last two, where line 3 carries the type of
#: line 1 and line 2 the opposite one, need the +N shift
LINE_TRIPLES = ("FFF", "FFA", "FAA", "AAA", "AAF", "AFF", "FAF", "AFA")

_KINDS = ("FF", "FA", "AF", "AA")


def r_operator(kind: str, lam) -> np.ndarray:
    """R-matrix as a ``9 x 9`` operator: row index ``(j, l)``, column ``(i, k)``.

    ``kind`` is one of ``"FF"``, ``"FA"``, ``"AF"``, ``"AA"``: FF/AA give
    ``I + lam*P``; FA/AF give ``lam*P - E``.  An array ``lam`` gives the
    stacked operators, of shape ``lam.shape + (9, 9)``.
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown R-matrix kind {kind!r}: expected one of {_KINDS}")
    P, I, E = (t.transpose(2, 3, 0, 1).reshape(N * N, N * N) for t in pie(N))
    lam = np.asarray(lam)[..., None, None]
    return lam * P - E if kind[0] != kind[1] else I + lam * P


def _on_12(m: np.ndarray) -> np.ndarray:
    """``kron(m, eye(3))`` for each operator of a stack."""
    out = np.einsum("...ab,pq->...apbq", m, np.eye(N))
    return out.reshape(m.shape[:-2] + (N**3, N**3))


def _on_23(m: np.ndarray) -> np.ndarray:
    """``kron(eye(3), m)`` for each operator of a stack."""
    out = np.einsum("pq,...ab->...paqb", np.eye(N), m)
    return out.reshape(m.shape[:-2] + (N**3, N**3))


def _shifted(lines: str) -> bool:
    """Whether line 3 carries the type of line 1 and line 2 the opposite one."""
    a, b, c = lines
    return a == c != b


def check_yang_baxter(lines: str, lam, mu, nu, shift: complex | None = None) -> float:
    """Max-abs residual of the Yang-Baxter equation in braid form.

    ``lines = a b c`` gives the types of lines 1, 2 and 3, so the three
    R-matrices intertwine lines (1, 2), (1, 3) and (2, 3) and have the kinds
    ``r1 = a+b``, ``r2 = a+c`` and ``r3 = b+c``.  The checked relation is::

        R12[r1](s) R23[r2](lam - nu) R12[r3](mu - nu)
          = R23[r3](mu - nu) R12[r2](lam - nu) R23[r1](s)

    with ``s = lam - mu + 3`` when line 3 carries the type of line 1 and
    line 2 the opposite one (``"FAF"``, ``"AFA"``), and ``s = lam - mu``
    otherwise.  ``shift`` overrides that choice; ``shift=0`` evaluates a
    shifted triple without its shift (which demonstrably fails).  The
    parameters may be arrays; the residual is then the maximum over all
    their points.
    """
    if lines not in LINE_TRIPLES:
        raise ValueError(f"unknown line types {lines!r}: expected one of {LINE_TRIPLES}")
    a, b, c = lines
    if shift is None:
        shift = N if _shifted(lines) else 0
    lam, mu, nu = np.asarray(lam), np.asarray(mu), np.asarray(nu)
    m1 = r_operator(a + b, lam - mu + shift)
    m2 = r_operator(a + c, lam - nu)
    m3 = r_operator(b + c, mu - nu)
    left = _on_12(m1) @ _on_23(m2) @ _on_12(m3)
    right = _on_23(m3) @ _on_12(m2) @ _on_23(m1)
    return float(np.abs(left - right).max())


def check_unitarity(kind: str, lam, mu) -> float:
    """Residual of a unitarity relation, against its scalar times the identity.

    ``standard``   : R[FF](lam-mu) R[FF](mu-lam) = (1 - (lam-mu)^2) I
    ``special-1``  : R[FA](mu-lam) R[AF](lam-mu+3) = (mu-lam)(lam-mu+3) I
    ``special-2``  : R[FA](lam-mu) R[AF](mu-lam+3) = (lam-mu)(mu-lam+3) I

    The scalar is not divided out, so degenerate points where it vanishes
    stay reportable.  The parameters may be arrays: the residual is the
    maximum over their points.
    """
    d = np.asarray(lam) - np.asarray(mu)
    if kind == "standard":
        prod = r_operator("FF", d) @ r_operator("FF", -d)
        scalar = 1 - d**2
    elif kind == "special-1":
        prod = r_operator("FA", -d) @ r_operator("AF", d + N)
        scalar = (-d) * (d + N)
    elif kind == "special-2":
        prod = r_operator("FA", d) @ r_operator("AF", -d + N)
        scalar = d * (-d + N)
    else:
        raise ValueError(f"unknown unitarity kind {kind!r}")
    expected = np.asarray(scalar)[..., None, None] * np.eye(N * N)
    return float(np.abs(prod - expected).max())


def check_fusion(lam, mu, direction: str) -> float:
    """Residual of a fusion (antisymmetrizer sliding) relation.

    A column of three R-matrices with arguments ``lam - mu``, ``lam + 1 - mu``,
    ``lam + 2 - mu`` is contracted against the Levi-Civita tensor; the result
    is the Levi-Civita tensor on the free ends times a scalar:

    ``up``   : mixed R content, scalar (lam + 2 - mu)(1 - (lam - mu)^2)
    ``down`` : FF content,      scalar (mu - lam)(1 - (lam + 2 - mu)^2)

    The parameters may be arrays, as in :func:`check_unitarity`.
    """
    P, I, E = pie(N)
    eps = levi_civita(N)
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
    right = np.einsum("abc,uv->abcuv", rhs_eps, np.eye(N))
    expected = np.asarray(scalar)[..., None, None, None, None, None] * right
    return float(np.abs(left - expected).max())


EDGE_POINTS = [0.0, 1.0, -1.0, 2.0, -2.0, 3.0, -3.0]

#: parameter points per call of each check in :func:`identity_suite`, so that
#: its memory does not grow with the number of samples
_BLOCK = 64


def sample_parameters(count: int, seed: int = 7) -> np.ndarray:
    """Deterministic complex sample points for identity checks."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-3, 3, size=(count, 2)).view(complex).ravel()


def _ybe_name(lines: str) -> str:
    """``ybe_`` (``ybe_special_`` if shifted) and the kinds of the three R-matrices."""
    a, b, c = lines
    return ("ybe_special_" if _shifted(lines) else "ybe_") + a + b + a + c + b + c


def identity_suite(seed: int = 7, samples: int = 50) -> dict[str, float]:
    """Run every SU(3) identity check and return max residuals by name.

    Covers the eight Yang-Baxter line triples (the two shifted ones named
    ``ybe_special_...``), standard and special unitarity, both fusion
    directions, and the epsilon / delta contraction identities, over
    ``samples`` fixed-seed complex points plus the deterministic edge points
    0, +-1, +-2, +-3.  Each check runs once per block of ``_BLOCK`` points.
    """
    pts = sample_parameters(3 * samples, seed=seed)
    edges = np.array(EDGE_POINTS, dtype=complex)
    # Yang-Baxter triples (lam, mu, nu) and unitarity/fusion pairs (lam2, mu2)
    lam = np.concatenate([pts[0::3], edges])
    mu = np.concatenate([pts[1::3], np.full_like(edges, 0.31 - 0.12j)])
    nu = np.concatenate([pts[2::3], np.full_like(edges, -1.44 + 0.77j)])
    lam2 = np.concatenate([pts[0 : 2 * samples : 2], edges])
    mu2 = np.concatenate([pts[1 : 2 * samples : 2], np.zeros_like(edges)])
    res: dict[str, float] = {}

    def record(name, value):
        res[name] = max(res.get(name, 0.0), float(value))

    for start in range(0, len(lam), _BLOCK):
        block = slice(start, start + _BLOCK)
        triple = (lam[block], mu[block], nu[block])
        pair = (lam2[block], mu2[block])
        for lines in LINE_TRIPLES:
            record(_ybe_name(lines), check_yang_baxter(lines, *triple))
        for kind in ("standard", "special-1", "special-2"):
            record("unitarity_" + kind, check_unitarity(kind, *pair))
        for direction in ("up", "down"):
            record("fusion_" + direction, check_fusion(*pair, direction))

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
