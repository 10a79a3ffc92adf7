"""Singlet bases for the two- and three-site density operators.

The invariant (singlet) subspace relevant for ``m`` adjacent physical sites
plus the auxiliary bunch is spanned by products of one Levi-Civita tensor and
Kronecker deltas:

* ``m = 2``: 3 elements on legs ``(i1, i2, i3, r1, s1)``::

      P1 = eps(i1, i2, i3) d(r1, s1)
      P2 = eps(i1, i2, r1) d(i3, s1)
      P3 = eps(r1, i2, i3) d(i1, s1)

* ``m = 3``: 11 elements on legs ``(i1, i2, i3, r1, r2, s1, s2)``; each is
  ``eps`` over three of the five lower legs, with the remaining two paired
  with ``(s1, s2)`` either in order (pairing 0) or swapped (pairing 1).  The
  ordering of ``_BASIS_SPEC`` is the unique assignment (up to a global sign)
  that reproduces *both* the integer Gram matrix and the closed-form
  difference equation matrix A3.

One table, ``_BASIS_SPEC``, lists both bases as ``(eps slots, pairing)``
entries; :func:`build_basis` turns each entry into one ``einsum`` of ``eps``
and ``m - 1`` deltas and checks the result against ``GRAM_m``.

The difference-equation matrix ``A`` is computed from first principles as
``A = M^{-1} W / gauge`` where ``W_{jk} = <P_j, T P_k>`` and ``T`` is the
chain of 2(m-1) R-matrices coupling the auxiliary legs.  ``W`` is a
polynomial in the chain parameters with integer coefficients, built once.
Its row 0 is exactly the scalar gauge (``lam(lam+3)`` for m=2 and
``x(3+x) y(3+y)`` for m=3) times the normalization row of the Gram matrix,
so that row is a left eigenvector of ``A`` with eigenvalue 1.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .tensors import levi_civita, pie

N = 3

_EYE = np.eye(N)
_P4, _I4, _E4 = pie(N)
_EPS = levi_civita(N)

GRAM_2 = np.array([[18, 6, 6], [6, 18, -6], [6, -6, 18]], dtype=np.int64)

GRAM_3 = np.array(
    [
        [54, 18, 18, 18, 6, 6, 18, 6, 18, 6, 6],
        [18, 54, 6, 6, 18, 18, -18, -6, 6, -6, -6],
        [18, 6, 54, 6, 18, 18, 6, -6, 6, 18, 18],
        [18, 6, 6, 54, 18, 18, 6, 18, -18, -6, -6],
        [6, 18, 18, 18, 54, 6, -6, -18, -6, -18, 6],
        [6, 18, 18, 18, 6, 54, -6, 6, -6, 6, -18],
        [18, -18, 6, 6, -6, -6, 54, -6, 6, 18, 18],
        [6, -6, -6, 18, -18, 6, -6, 54, -6, 6, 6],
        [18, 6, 6, -18, -6, -6, 6, -6, 54, 18, 18],
        [6, -6, 18, -6, -18, 6, 18, 6, 18, 54, 6],
        [6, -6, 18, -6, 6, -18, 18, 6, 18, 6, 54],
    ],
    dtype=np.int64,
)

#: each element as (epsilon slots among the lower legs, pairing): the lower
#: legs left over are joined to the upper legs by deltas, in order (pairing 0)
#: or swapped (pairing 1)
_BASIS_SPEC = {
    2: [((0, 1, 2), 0), ((0, 1, 3), 0), ((3, 1, 2), 0)],
    3: [
        ((0, 1, 2), 0),
        ((0, 1, 3), 0),
        ((0, 1, 2), 1),
        ((0, 1, 4), 1),
        ((0, 1, 3), 1),
        ((0, 1, 4), 0),
        ((1, 2, 3), 0),
        ((0, 3, 4), 0),
        ((1, 2, 4), 1),
        ((1, 2, 3), 1),
        ((1, 2, 4), 0),
    ],
}
_GRAM = {2: GRAM_2, 3: GRAM_3}
#: the least common denominator of the entries of GRAM_m^-1
_GRAM_DENOMINATOR = {2: 24, 3: 360}


def _element(m: int, eps_slots: tuple[int, int, int], pairing: int) -> np.ndarray:
    """One basis element: eps over ``eps_slots``, deltas to the upper legs."""
    lower, upper = "abcde"[: m + 2], "vw"[: m - 1]
    rest = [leg for k, leg in enumerate(lower) if k not in eps_slots]
    deltas = [leg + up for leg, up in zip(rest, upper[::-1] if pairing else upper)]
    eps = "".join(lower[k] for k in eps_slots)
    spec = ",".join([eps, *deltas]) + "->" + lower + upper
    return np.einsum(spec, _EPS, *[_EYE] * (m - 1))


_CACHE: dict[int, np.ndarray] = {}


def build_basis(m: int) -> np.ndarray:
    """The singlet basis for ``m`` in {2, 3}, as a ``(dim, 3, ..., 3)`` array.

    Element ``j`` is ``basis[j]``, with legs as in the module doc.  Built once
    per ``m`` and shared, so it is read-only; it raises unless the elements'
    contraction reproduces the integer Gram matrix exactly.
    """
    if m in _CACHE:
        return _CACHE[m]
    if m not in _BASIS_SPEC:
        raise ValueError(f"m must be 2 or 3, got {m}")
    basis = np.array([_element(m, *entry) for entry in _BASIS_SPEC[m]])
    flat = basis.reshape(len(basis), -1)
    if not np.array_equal(flat @ flat.T, _GRAM[m]):
        raise AssertionError("singlet-basis Gram matrix mismatch")
    basis.flags.writeable = False
    _CACHE[m] = basis
    return basis


@cache
def gram_inverse(m: int) -> np.ndarray:
    """The exact inverse of the Gram matrix for ``m`` in {2, 3}, as floats.

    Every entry is an integer over ``D = 24`` (m = 2) or ``D = 360``
    (m = 3): the float inverse times ``D``, rounded, must give ``GRAM @ S =
    D I`` exactly in integers, and ``S / D`` is the correctly rounded image
    of the rational inverse.  Every caller shares the returned array, so it
    is read-only.
    """
    if m not in _GRAM:
        raise ValueError(f"m must be 2 or 3, got {m}")
    gram, d = _GRAM[m], _GRAM_DENOMINATOR[m]
    scaled = np.rint(np.linalg.inv(gram) * d).astype(np.int64)
    if not np.array_equal(gram @ scaled, d * np.eye(len(gram), dtype=np.int64)):
        raise AssertionError(f"GRAM_{m}^-1 is not an integer matrix over {d}")
    out = scaled / d
    out.flags.writeable = False
    return out


class SingularParameterError(ValueError):
    """Raised when the difference-equation matrix is requested at a pole."""


def _reject_singular(name: str, value: complex):
    for bad in (0.0, -3.0):
        if abs(value - bad) < 1e-10:
            raise SingularParameterError(
                f"denominator {name} ({name} + 3) vanishes: {name} = {value}"
            )


@cache
def _chain_polynomial(m: int) -> np.ndarray:
    """Integer coefficients ``C`` of ``W_jk = <P_j, T P_k>`` in the chain parameters.

    ``W = sum_d C[d] lam^d`` for m = 2 and ``W = sum_pq C[p, q] x^p y^q`` for
    m = 3.  Each R-matrix of ``T`` is linear in its parameter ``t`` and is
    split into its (constant, linear) parts, ``I + tP -> (I, P)`` and
    ``(t + 3)P - E -> (3P - E, P)``: one contraction per basis element gives
    every product of parts, and the products are summed by degree.
    """
    elements = build_basis(m)
    ff = np.stack([_I4, _P4])  # I + t P
    mx = np.stack([3 * _P4 - _E4, _P4])  # (t + 3) P - E
    # deg[d, a, b] = 1 where a + b = d: sums the parts' powers by degree
    deg = np.array([np.add.outer([0, 1], [0, 1]) == d for d in range(3)], float)
    gauge = np.array([0, 3, 1])  # t (t + 3) by ascending powers of t
    if m == 2:
        chain, factors = "AcRru,BuSsJ,Jabrs->ABabcRS", (ff, mx)
        by_degree, degs = "dAB,ABjk->djk", (deg,)
    else:  # the factors carry y, x, x, y
        chain = "AcRru,BuTtv,CvSsw,DwQqJ,Jabrtqs->ABCDabcRTQS"
        factors = (ff, ff, mx, mx)
        by_degree, degs = "pBC,qAD,ABCDjk->pqjk", (deg, deg)
        gauge = np.multiply.outer(gauge, gauge)
    flat = elements.reshape(len(elements), -1)
    parts = []
    for pk in elements:  # one at a time: a batched contraction raises the peak memory
        image = np.einsum(chain, *factors, pk, optimize=True)
        parts.append(image.reshape((2,) * len(factors) + (-1,)) @ flat.T)
    coef = np.einsum(by_degree, *degs, np.stack(parts, axis=-1))
    # small integers, so the float contraction is exact; GRAM[0] @ GRAM^-1 is
    # e_0, so row 0 of W must be the gauge times GRAM[0]
    if not (
        np.array_equal(coef, np.rint(coef))
        and np.array_equal(coef[..., 0, :], np.multiply.outer(gauge, _GRAM[m][0]))
    ):
        raise AssertionError("chain polynomial is not integral or breaks the gauge")
    exact = coef.astype(np.int64)
    exact.flags.writeable = False
    return exact


def a_matrix(m: int, lam1: complex, lam2: complex, lam3: complex | None = None):
    """Difference-equation matrix ``A = GRAM^-1 W / gauge`` for ``m`` in {2, 3}.

    For ``m = 2`` it depends on ``lam = lam1 - lam2``, with gauge
    ``lam (lam + 3)``; for ``m = 3`` on ``x = lam1 - lam3`` and
    ``y = lam1 - lam2``, with gauge ``x (3 + x) y (3 + y)``, and it is finite
    at ``x = y``.  ``W`` is :func:`_chain_polynomial` at the point, whose
    row 0 makes the normalization row of the Gram matrix an exact left
    eigenvector of ``A`` with eigenvalue 1.
    """
    if m == 2:
        lam = lam1 - lam2
        _reject_singular("lam", lam)
        powers = lam ** np.arange(3)
        gauge = lam * (lam + 3)
    elif m == 3:
        if lam3 is None:
            raise ValueError("m = 3 requires lam3")
        x = lam1 - lam3
        y = lam1 - lam2
        _reject_singular("x", x)
        _reject_singular("y", y)
        powers = np.multiply.outer(x ** np.arange(3), y ** np.arange(3))
        gauge = x * (3 + x) * y * (3 + y)
    else:
        raise ValueError(f"m must be 2 or 3, got {m}")
    w = np.tensordot(powers, _chain_polynomial(m), axes=powers.ndim)
    return gram_inverse(m) @ w / gauge


def a2_closed_form(lam: complex) -> np.ndarray:
    """The printed closed form of A for m = 2."""
    la = lam
    return np.array(
        [
            [
                (-1 + 3 * la + la**2) / (la * (la + 3)),
                (-2 + 2 * la + la**2) / (la * (la + 3)),
                1 / (la + 3),
            ],
            [
                3 / (la * (la + 3)),
                -(-3 + la + la**2) / (la * (la + 3)),
                la / (la + 3),
            ],
            [0, -(-1 + la) / la, 0],
        ],
        dtype=complex,
    )


def a3_closed_form(x: complex, y: complex) -> np.ndarray:
    """The printed closed form of A for m = 3 (entries not listed are zero)."""
    A = np.zeros((11, 11), dtype=complex)
    A[0, 0] = (-1 + 3 * x + x**2) * (-1 + 3 * y + y**2) / (x * (3 + x) * y * (3 + y))
    A[0, 1] = (-1 + 3 * x + x**2) * (-2 + 2 * y + y**2) / (x * (3 + x) * y * (3 + y))
    A[0, 2] = -3 / (x * (3 + x) * y * (3 + y))
    A[0, 3] = (1 + y) * (-8 + 3 * x + 2 * x**2 - 2 * y + 2 * x * y + x**2 * y) / (
        x * (3 + x) * y * (3 + y)
    )
    A[0, 4] = (1 + y) * (-7 + x**2 - 3 * y - x * y) / (x * (3 + x) * y * (3 + y))
    A[0, 5] = (-3 + y + y**2) / (x * (3 + x) * y * (3 + y))
    A[0, 6] = (-1 + 3 * x + x**2) / (x * (3 + x) * (3 + y))
    A[0, 7] = (-1 + 3 * x + x**2 + y + 3 * x * y + x**2 * y) / (
        x * (3 + x) * y * (3 + y)
    )
    A[0, 8] = (1 + 3 * x + x * y) / (x * (3 + x) * (3 + y))
    A[0, 9] = -(-1 + x**2 - x * y) / (x * (3 + x) * y * (3 + y))
    A[0, 10] = -y / (x * (3 + x) * (3 + y))
    A[1, 0] = 3 * (-1 + 3 * x + x**2) / (x * (3 + x) * y * (3 + y))
    A[1, 1] = -(-1 + 3 * x + x**2) * (-3 + y + y**2) / (x * (3 + x) * y * (3 + y))
    A[1, 2] = -(-1 + 3 * y + y**2) / (x * (3 + x) * y * (3 + y))
    A[1, 3] = 2 * (1 + y) / (x * (3 + x) * y * (3 + y))
    A[1, 4] = (1 + y) ** 2 / (x * (3 + x) * y * (3 + y))
    A[1, 5] = -(-2 + 2 * y + y**2) / (x * (3 + x) * y * (3 + y))
    A[1, 6] = (-1 + 3 * x + x**2) * y / (x * (3 + x) * (3 + y))
    A[1, 7] = -(-1 + y) / (x * (3 + x) * y * (3 + y))
    A[1, 8] = (1 + 3 * x + x * y) / (x * (3 + x) * y * (3 + y))
    A[1, 9] = -(-1 + x**2 - x * y) / (x * (3 + x) * (3 + y))
    A[1, 10] = -1 / (x * (3 + x) * (3 + y))
    A[2, 0] = -3 / (x * (3 + x) * y * (3 + y))
    A[2, 1] = -3 * (2 + y) / (x * (3 + x) * y * (3 + y))
    A[2, 2] = (
        -3 * x - 3 * y + 7 * x * y + 3 * x**2 * y + 3 * x * y**2 + x**2 * y**2
    ) / (x * (3 + x) * y * (3 + y))
    A[2, 3] = -(-6 + 6 * x + 3 * x**2 - 6 * y - 2 * x * y) / (
        x * (3 + x) * y * (3 + y)
    )
    A[2, 4] = (
        3 - 6 * x - 3 * x**2 + 6 * y + 6 * x * y + x**2 * y + 3 * y**2
        + 4 * x * y**2 + x**2 * y**2
    ) / (x * (3 + x) * y * (3 + y))
    A[2, 5] = (
        -3 * x - 6 * y + 6 * x * y + 3 * x**2 * y - 3 * y**2 + 2 * x * y**2
        + x**2 * y**2
    ) / (x * (3 + x) * y * (3 + y))
    A[2, 6] = 3 / (x * (3 + x) * (3 + y))
    A[2, 7] = -(-3 + 3 * y + 4 * x * y + x**2 * y) / (x * (3 + x) * y * (3 + y))
    A[2, 8] = -1 / (x * (3 + y))
    A[2, 9] = (-3 + 3 * x**2 + x**2 * y) / (x * (3 + x) * y * (3 + y))
    A[2, 10] = y / (x * (3 + y))
    A[3, 0] = 3 / (x * (3 + x))
    A[3, 2] = -(-9 + x**2 - 3 * y - 2 * x * y) / (x * (3 + x) * y * (3 + y))
    A[3, 3] = -(
        -3 * x - x**2 - 9 * y + 3 * x * y + 3 * x**2 * y - 3 * y**2
        + x * y**2 + x**2 * y**2
    ) / (x * (3 + x) * y * (3 + y))
    A[3, 4] = -(-3 + x - y) / (x * y * (3 + y))
    A[3, 5] = (3 + x - y) / ((3 + x) * y * (3 + y))
    A[3, 7] = -(
        9 - 3 * x - 2 * x**2 - 6 * y + x * y + 2 * x**2 * y - 3 * y**2
        + x * y**2 + x**2 * y**2
    ) / (x * (3 + x) * y * (3 + y))
    A[3, 8] = (-3 - x + y + 3 * x * y + x * y**2) / ((3 + x) * y * (3 + y))
    A[3, 10] = (3 + x - y) / ((3 + x) * (3 + y))
    A[4, 0] = -3 / (x * (3 + x) * (3 + y))
    A[4, 1] = 3 / (x * (3 + x) * (3 + y))
    A[4, 2] = (-3 + 8 * x + 3 * x**2 + x**2 * y - x * y**2) / (
        x * (3 + x) * y * (3 + y)
    )
    A[4, 3] = -(-1 + y) / (x * y * (3 + y))
    A[4, 4] = -(
        3 - 8 * x - 3 * x**2 - 3 * y + 2 * x * y + 2 * x**2 * y + 2 * x * y**2
        + x**2 * y**2
    ) / (x * (3 + x) * y * (3 + y))
    A[4, 5] = 1 / (x * y * (3 + y))
    A[4, 6] = 3 * y / (x * (3 + x) * (3 + y))
    A[4, 7] = (
        6 - 7 * x - 3 * x**2 - 3 * y + 2 * x * y + 2 * x**2 * y - 3 * y**2
        + x * y**2 + x**2 * y**2
    ) / (x * (3 + x) * y * (3 + y))
    A[4, 8] = -1 / (x * y * (3 + y))
    A[4, 9] = (-3 + 3 * x**2 + x**2 * y) / (x * (3 + x) * (3 + y))
    A[4, 10] = 1 / (x * (3 + y))
    A[5, 0] = 3 / (x * (3 + x) * y)
    A[5, 1] = 3 / (x * (3 + x) * y)
    A[5, 2] = -(-x - 9 * y + x**2 * y - 3 * y**2 - x * y**2) / (
        x * (3 + x) * y * (3 + y)
    )
    A[5, 3] = (2 + y) / ((3 + x) * y * (3 + y))
    A[5, 4] = 1 / ((3 + x) * y * (3 + y))
    A[5, 5] = -(
        -2 * x - 9 * y + 2 * x * y + 2 * x**2 * y - 3 * y**2 + 2 * x * y**2
        + x**2 * y**2
    ) / (x * (3 + x) * y * (3 + y))
    A[5, 7] = 1 / ((3 + x) * y * (3 + y))
    A[5, 8] = (1 + 3 * x - 3 * y) / ((3 + x) * y * (3 + y))
    A[5, 10] = (-1 + 3 * y + x * y) / ((3 + x) * (3 + y))
    A[6, 1] = -(-1 + 3 * x + x**2) * (-1 + y) / (x * (3 + x) * y)
    A[6, 3] = -(-8 + 6 * x + 3 * x**2 - 4 * y - x * y) / (x * (3 + x) * y * (3 + y))
    A[6, 4] = -(-1 - 8 * y + x**2 * y - 3 * y**2 - x * y**2) / (
        x * (3 + x) * y * (3 + y)
    )
    A[6, 5] = -(-1 + y) / (x * (3 + x) * y)
    A[6, 7] = (
        7 - 6 * x - 3 * x**2 - 5 * y + x * y + x**2 * y - 2 * y**2
        + 2 * x * y**2 + x**2 * y**2
    ) / (x * (3 + x) * y * (3 + y))
    A[7, 1] = 3 / (x * (3 + x))
    A[7, 3] = -3 * (-3 + 2 * x + x**2 - y) / (x * (3 + x) * y * (3 + y))
    A[7, 4] = -(-9 - x + x**2 - 3 * y - x * y) / (x * (3 + x) * (3 + y))
    A[7, 5] = -(-3 + 2 * x + x**2 - x * y) / (x * (3 + x) * y)
    A[7, 7] = (
        9 - 6 * x - 3 * x**2 - 6 * y - x * y + x**2 * y - 3 * y**2
        + x * y**2 + x**2 * y**2
    ) / (x * (3 + x) * y * (3 + y))
    A[8, 3] = (1 + y) * (3 - 2 * x + y - x * y) / (x * y * (3 + y))
    A[8, 4] = (3 - x + y) * (1 + y) / (x * y * (3 + y))
    A[8, 7] = -(1 + y) / (y * (3 + y))
    A[9, 3] = (-2 + 3 * x - 2 * y) / (x * y * (3 + y))
    A[9, 4] = -(1 - 3 * x + 2 * y + x * y + y**2 + x * y**2) / (x * y * (3 + y))
    A[9, 7] = (-1 + y + x * y) / (x * y * (3 + y))
    A[10, 1] = 3 / (x * (3 + x) * y)
    A[10, 3] = (-9 + 5 * x + 3 * x**2 - 3 * y - x * y) / (x * (3 + x) * y * (3 + y))
    A[10, 4] = (x - 9 * y + x**2 * y - 3 * y**2 - x * y**2) / (
        x * (3 + x) * y * (3 + y)
    )
    A[10, 5] = -(-x - 3 * y + 2 * x * y + x**2 * y) / (x * (3 + x) * y)
    A[10, 7] = -(
        9 - 4 * x - 3 * x**2 - 6 * y + 2 * x * y + x**2 * y - 3 * y**2
        + 2 * x * y**2 + x**2 * y**2
    ) / (x * (3 + x) * y * (3 + y))
    return A


def a3_printed_zero_pattern() -> np.ndarray:
    """Boolean mask of the entries that are identically zero in A3."""
    probe = a3_closed_form(0.731, 0.244)
    return probe == 0


# ---------------------------------------------------------------------------
# reduction to physical density operators
# ---------------------------------------------------------------------------


def _site_ops(m: int):
    """Identity/permutation operators on (C^3)^{tensor m} as dense matrices."""
    P = _P4.transpose(2, 3, 0, 1).reshape(N * N, N * N)
    if m == 2:
        return {"I": np.eye(N**2), "P12": P}
    eye = np.eye(N**3)
    P12 = np.kron(P, _EYE)
    P23 = np.kron(_EYE, P)
    ops = {
        "I": eye,
        "P12": P12,
        "P23": P23,
        "P13": P12 @ P23 @ P12,
        "P12P23": P12 @ P23,
        "P23P12": P23 @ P12,
    }
    return ops


def reduce_to_physical(m: int, rho) -> np.ndarray:
    """Physical density operator on (C^3)^m from the singlet coefficients.

    m = 2:  D2 = (2 rho1 + rho3) I + (2 rho2 - rho3) P12
    m = 3:  D3 = (2 rho1 + rho7 + rho9) I + (2 rho2 - rho7) P12
                + (2 rho3 + rho10 + rho11) P23 + (2 rho4 + rho8 - rho9) P13
                + (2 rho5 - rho8 - rho10) P12 P23 + (2 rho6 - rho11) P23 P12

    The coefficients are obtained by contracting the wing legs with the
    Levi-Civita tensor (the same partial anti-symmetrization that defines the
    m = 2 map): site 1 is formed from the three wing legs via
    ``D[(a, r...), (b, s...)] = eps(b, c, d) v[c, d, a, r..., s...]``, under
    which every basis element lands in the span of the six site-permutation
    operators.  With these signs the trace functional ``tr(B_j)`` coincides
    with row 1 of the Gram matrix, so ``tr D_m = f_1`` identically.
    """
    rho = np.asarray(rho, dtype=complex)
    ops = _site_ops(m)
    if m == 2:
        if rho.shape != (3,):
            raise ValueError("m = 2 requires 3 coefficients")
        r1, r2, r3 = rho
        return (2 * r1 + r3) * ops["I"] + (2 * r2 - r3) * ops["P12"]
    if m == 3:
        if rho.shape != (11,):
            raise ValueError("m = 3 requires 11 coefficients")
        r = rho
        return (
            (2 * r[0] + r[6] + r[8]) * ops["I"]
            + (2 * r[1] - r[6]) * ops["P12"]
            + (2 * r[2] + r[9] + r[10]) * ops["P23"]
            + (2 * r[3] + r[7] - r[8]) * ops["P13"]
            + (2 * r[4] - r[7] - r[9]) * ops["P12P23"]
            + (2 * r[5] - r[10]) * ops["P23P12"]
        )
    raise ValueError(f"m must be 2 or 3, got {m}")
