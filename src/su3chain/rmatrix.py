"""Rational R-matrices of the SU(3) chain and executable identity checks.

Each line of the graphical notation carries the fundamental (``"F"``) or the
anti-fundamental (``"A"``) representation.  The R-matrix of two lines is
named by their two types, ``"FF"``, ``"FA"``, ``"AF"`` or ``"AA"``, and
:data:`R_PARTS` states each kind once, as its four-leg (constant, linear)
parts in the structural tensors of :mod:`su3chain.tensors`, slot order
``(i, k, j, l)``.  :func:`r_operator`, :func:`check_fusion` and the chain of
:mod:`su3chain.basis` all build their R-matrices from that table.  The mixed
operator is fixed by requiring that *all* of the identities below hold
simultaneously (special unitarity with its stated scalar factors, the shifted
Yang-Baxter relation, the fusion relations and the singlet-basis
difference-equation matrices); the commonly written ``E + lam*P`` differs
from it by the sign convention implicit in the arrow-reversed line of the
graphical notation and satisfies none of them with these component
conventions.

A Yang-Baxter case is named by its three line types, one of
:data:`LINE_TRIPLES`.  All checks return residuals instead of booleans, so
degenerate parameter points remain reportable.  They take scalar or array
parameters: an array is one batch of stacked operators, and the residual is
the maximum over its points.  :func:`identity_suite` runs them all on seeded
points from :func:`uniform_square`, the one stream that
:func:`su3chain.basis.matrix_suite` draws from too.
"""

from __future__ import annotations

import random

import numpy as np

from .tensors import N, as_operator, levi_civita, pie

_P, _I, _E = pie()

#: each R-matrix kind as its four-leg (constant, linear) parts, R(lam) =
#: constant + lam * linear:
#:
#:     FF / AA :  R(lam) = I + lam * P
#:     FA / AF :  R(lam) = lam * P - E
R_PARTS = {"FF": (_I, _P), "FA": (-_E, _P), "AF": (-_E, _P), "AA": (_I, _P)}

#: every triple of line types; the last two, where line 3 carries the type of
#: line 1 and line 2 the opposite one, need the +N shift
LINE_TRIPLES = ("FFF", "FFA", "FAA", "AAA", "AAF", "AFF", "FAF", "AFA")


def r_operator(kind: str, lam) -> np.ndarray:
    """R-matrix as a ``9 x 9`` operator: row index ``(j, l)``, column ``(i, k)``.

    ``kind`` is a key of :data:`R_PARTS`.  An array ``lam`` gives the
    stacked operators, of shape ``lam.shape + (9, 9)``.
    """
    if kind not in R_PARTS:
        raise ValueError(f"unknown R-matrix kind {kind!r}: expected one of {tuple(R_PARTS)}")
    constant, linear = map(as_operator, R_PARTS[kind])
    return constant + np.asarray(lam)[..., None, None] * linear


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

    ``up``   : FA content, scalar (lam + 2 - mu)(1 - (lam - mu)^2)
    ``down`` : FF content, scalar (mu - lam)(1 - (lam + 2 - mu)^2)

    The parameters may be arrays, as in :func:`check_unitarity`.
    """
    eps = levi_civita()
    lam, mu = np.asarray(lam), np.asarray(mu)
    if direction == "up":
        kind = "FA"
        scalar = (lam + 2 - mu) * (1 - (lam - mu) ** 2)
        rhs_eps = eps
    elif direction == "down":
        kind = "FF"
        scalar = (mu - lam) * (1 - (lam + 2 - mu) ** 2)
        rhs_eps = eps.transpose(0, 2, 1)
    else:
        raise ValueError(f"unknown fusion direction {direction!r}")
    constant, linear = R_PARTS[kind]
    rs = [constant + (lam + k - mu)[..., None, None, None, None] * linear for k in range(3)]
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


def uniform_square(rng: random.Random, count: int) -> np.ndarray:
    """The next ``count`` complex points of ``rng``, uniform in [-3, 3)^2: the
    seeded stream of both verify suites.

    Each coordinate is 8 bytes of ``rng.randbytes``, read as a little-endian
    integer whose top 53 bits make a double in [0, 1), so the points do not
    depend on the platform or on numpy.random (the tests pin the first ones).
    """
    bits = np.frombuffer(rng.randbytes(16 * count), "<u8") >> 11
    return (-3 + 6 * (bits * 2.0**-53)).view(complex)


def _ybe_name(lines: str) -> str:
    """``ybe_`` (``ybe_special_`` if shifted) and the kinds of the three R-matrices."""
    a, b, c = lines
    return ("ybe_special_" if _shifted(lines) else "ybe_") + a + b + a + c + b + c


def identity_suite(seed: int, samples: int) -> dict[str, float]:
    """Run every SU(3) identity check and return max residuals by name.

    Covers the eight Yang-Baxter line triples (the two shifted ones named
    ``ybe_special_...``), standard and special unitarity, both fusion
    directions, and the epsilon / delta contraction identities, over
    ``samples`` points of :func:`uniform_square` at ``seed`` plus the
    deterministic edge points 0, +-1, +-2, +-3.  Each check runs once per
    block of ``_BLOCK`` points.
    """
    pts = uniform_square(random.Random(seed), 3 * samples)
    edges = np.array(EDGE_POINTS, dtype=complex)
    # Yang-Baxter triples (lam, mu, nu) and unitarity/fusion pairs (lam2, mu2)
    lam = np.concatenate([pts[0::3], edges])
    mu = np.concatenate([pts[1::3], np.full_like(edges, 0.31 - 0.12j)])
    nu = np.concatenate([pts[2::3], np.full_like(edges, -1.44 + 0.77j)])
    lam2 = np.concatenate([pts[0 : 2 * samples : 2], edges])
    mu2 = np.concatenate([pts[1 : 2 * samples : 2], np.zeros_like(edges)])
    res: dict[str, float] = {}

    def record(name, value):
        # np.maximum keeps a NaN, which the builtin max(0.0, nan) would drop
        res[name] = float(np.maximum(res.get(name, 0.0), value))

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

    eps = levi_civita()
    eye = np.eye(N)
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
