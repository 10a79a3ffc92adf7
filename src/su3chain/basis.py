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
:func:`a_matrix` takes the printed closed forms' own arguments,
``a_matrix(lam)`` and ``a_matrix(x, y)``, and broadcasts over arrays as
they do.  The R-matrices of ``T`` come from the table of (constant, linear)
parts in :mod:`su3chain.rmatrix`.

:func:`matrix_suite` is ``verify-matrices``, as
:func:`su3chain.rmatrix.identity_suite` is ``verify-algebra``: it checks the
Gram matrices, draws its points from the same seeded stream,
:func:`su3chain.rmatrix.uniform_square`, clear of the poles ``_POLES`` that
:func:`a_matrix` rejects, and meets the closed forms one block of points at
a time.
"""

from __future__ import annotations

import math
import random
from functools import cache

import numpy as np

from .rmatrix import R_PARTS, uniform_square
from .tensors import N, exact_inverse, from_expectations, levi_civita

_EYE = np.eye(N)

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


def _element(m: int, eps_slots: tuple[int, int, int], pairing: int) -> np.ndarray:
    """One basis element: eps over ``eps_slots``, deltas to the upper legs."""
    lower, upper = "abcde"[: m + 2], "vw"[: m - 1]
    rest = [leg for k, leg in enumerate(lower) if k not in eps_slots]
    deltas = [leg + up for leg, up in zip(rest, upper[::-1] if pairing else upper)]
    eps = "".join(lower[k] for k in eps_slots)
    spec = ",".join([eps, *deltas]) + "->" + lower + upper
    return np.einsum(spec, levi_civita(), *[_EYE] * (m - 1))


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
        raise RuntimeError("singlet-basis Gram matrix mismatch")
    basis.flags.writeable = False
    _CACHE[m] = basis
    return basis


@cache
def gram_inverse(m: int) -> np.ndarray:
    """The exact inverse of the Gram matrix for ``m`` in {2, 3}, as read-only
    floats: an integer matrix over 24 (m = 2) or 360 (m = 3)."""
    if m not in _GRAM:
        raise ValueError(f"m must be 2 or 3, got {m}")
    return exact_inverse(_GRAM[m], {2: 24, 3: 360}[m])


class SingularParameterError(ValueError):
    """Raised when the difference-equation matrix is requested at a pole."""


#: the poles of the A matrices in each chain parameter, where the gauge
#: lam (lam + 3), or x (3 + x) y (3 + y), vanishes
_POLES = (0.0, -3.0)


def _reject_singular(name: str, values: np.ndarray):
    for bad in _POLES:
        hit = np.abs(values - bad) < 1e-10
        if hit.any():
            raise SingularParameterError(
                f"denominator {name} ({name} + 3) vanishes: {name} = {values[hit][0]}"
            )


@cache
def _chain_polynomial(m: int) -> np.ndarray:
    """Integer coefficients ``C`` of ``W_jk = <P_j, T P_k>`` in the chain parameters.

    ``W = sum_d C[d] lam^d`` for m = 2 and ``W = sum_pq C[p, q] x^p y^q`` for
    m = 3.  Each R-matrix of ``T`` is linear in its parameter ``t``, so it is
    its (constant, linear) parts of ``rmatrix.R_PARTS``: those of FF as they
    stand, and those of the mixed R taken at the shift ``t + N``.  One
    contraction per basis element gives every product of parts, and the
    products are summed by degree.
    """
    elements = build_basis(m)
    ff = np.stack(R_PARTS["FF"])
    constant, linear = R_PARTS["FA"]
    mx = np.stack([constant + N * linear, linear])
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
        raise RuntimeError("chain polynomial is not integral or breaks the gauge")
    exact = coef.astype(np.int64)
    exact.flags.writeable = False
    return exact


def _lift(*params) -> tuple[tuple, list[np.ndarray]]:
    """The broadcast shape of ``params``, and each as a complex array of at
    least one dimension, so that one point takes the array arithmetic of a
    batch, bit for bit: scalar complex products round differently."""
    shape = np.broadcast_shapes(*map(np.shape, params))
    return shape, [np.atleast_1d(np.asarray(v, dtype=complex)) for v in params]


def a_matrix(*params) -> np.ndarray:
    """Difference-equation matrix ``A = GRAM^-1 W / gauge``: ``a_matrix(lam)``
    for two sites and ``a_matrix(x, y)`` for three.

    The arguments are those of :func:`a2_closed_form` and
    :func:`a3_closed_form` and broadcast like them, the matrices filling the
    last two axes.  The gauge is ``lam (lam + 3)``, or ``x (3 + x) y (3 + y)``,
    and A3 is finite at ``x = y``.  ``W`` is :func:`_chain_polynomial` at each
    point, whose row 0 makes the normalization row of the Gram matrix an exact
    left eigenvector of ``A`` with eigenvalue 1.
    """
    m = len(params) + 1
    if m not in _GRAM:
        raise TypeError(f"a_matrix takes lam, or x and y; got {len(params)} arguments")
    shape, params = _lift(*params)
    for name, values in zip(("lam",) if m == 2 else ("x", "y"), params):
        _reject_singular(name, values)
    # lam^d, or x^p y^q with p major, in the order of the coefficients
    monomials = [1]
    for v in params:
        monomials = [mono * v**d for mono in monomials for d in range(3)]
    coef = _chain_polynomial(m)
    coef = coef.reshape(len(monomials), *coef.shape[-2:])
    w = sum(mono[..., None, None] * c for mono, c in zip(monomials, coef))
    gauge = math.prod(v * (v + 3) for v in params)
    a = gram_inverse(m) @ w / gauge[..., None, None]
    return a.reshape(shape + a.shape[-2:])


def a2_closed_form(lam) -> np.ndarray:
    """The printed closed form of A for m = 2, broadcast over ``lam`` like
    :func:`a3_closed_form`: shape ``lam.shape + (3, 3)``."""
    shape, (la,) = _lift(lam)
    A = np.zeros(la.shape + (3, 3), dtype=complex)
    A[..., 0, 0] = (-1 + 3 * la + la**2) / (la * (la + 3))
    A[..., 0, 1] = (-2 + 2 * la + la**2) / (la * (la + 3))
    A[..., 0, 2] = 1 / (la + 3)
    A[..., 1, 0] = 3 / (la * (la + 3))
    A[..., 1, 1] = -(-3 + la + la**2) / (la * (la + 3))
    A[..., 1, 2] = la / (la + 3)
    A[..., 2, 1] = -(-1 + la) / la
    return A.reshape(shape + (3, 3))


def a3_closed_form(x, y) -> np.ndarray:
    """The printed closed form of A for m = 3 (entries not listed are zero).

    ``x`` and ``y`` broadcast against each other, and the matrices fill the
    last two axes: arrays of points give shape ``x.shape + (11, 11)``.
    """
    shape, (x, y) = _lift(x, y)
    A = np.zeros(np.broadcast_shapes(x.shape, y.shape) + (11, 11), dtype=complex)
    A[..., 0, 0] = (-1 + 3 * x + x**2) * (-1 + 3 * y + y**2) / (
        x * (3 + x) * y * (3 + y)
    )
    A[..., 0, 1] = (-1 + 3 * x + x**2) * (-2 + 2 * y + y**2) / (
        x * (3 + x) * y * (3 + y)
    )
    A[..., 0, 2] = -3 / (x * (3 + x) * y * (3 + y))
    A[..., 0, 3] = (1 + y) * (-8 + 3 * x + 2 * x**2 - 2 * y + 2 * x * y + x**2 * y) / (
        x * (3 + x) * y * (3 + y)
    )
    A[..., 0, 4] = (1 + y) * (-7 + x**2 - 3 * y - x * y) / (x * (3 + x) * y * (3 + y))
    A[..., 0, 5] = (-3 + y + y**2) / (x * (3 + x) * y * (3 + y))
    A[..., 0, 6] = (-1 + 3 * x + x**2) / (x * (3 + x) * (3 + y))
    A[..., 0, 7] = (-1 + 3 * x + x**2 + y + 3 * x * y + x**2 * y) / (
        x * (3 + x) * y * (3 + y)
    )
    A[..., 0, 8] = (1 + 3 * x + x * y) / (x * (3 + x) * (3 + y))
    A[..., 0, 9] = -(-1 + x**2 - x * y) / (x * (3 + x) * y * (3 + y))
    A[..., 0, 10] = -y / (x * (3 + x) * (3 + y))
    A[..., 1, 0] = 3 * (-1 + 3 * x + x**2) / (x * (3 + x) * y * (3 + y))
    A[..., 1, 1] = -(-1 + 3 * x + x**2) * (-3 + y + y**2) / (x * (3 + x) * y * (3 + y))
    A[..., 1, 2] = -(-1 + 3 * y + y**2) / (x * (3 + x) * y * (3 + y))
    A[..., 1, 3] = 2 * (1 + y) / (x * (3 + x) * y * (3 + y))
    A[..., 1, 4] = (1 + y) ** 2 / (x * (3 + x) * y * (3 + y))
    A[..., 1, 5] = -(-2 + 2 * y + y**2) / (x * (3 + x) * y * (3 + y))
    A[..., 1, 6] = (-1 + 3 * x + x**2) * y / (x * (3 + x) * (3 + y))
    A[..., 1, 7] = -(-1 + y) / (x * (3 + x) * y * (3 + y))
    A[..., 1, 8] = (1 + 3 * x + x * y) / (x * (3 + x) * y * (3 + y))
    A[..., 1, 9] = -(-1 + x**2 - x * y) / (x * (3 + x) * (3 + y))
    A[..., 1, 10] = -1 / (x * (3 + x) * (3 + y))
    A[..., 2, 0] = -3 / (x * (3 + x) * y * (3 + y))
    A[..., 2, 1] = -3 * (2 + y) / (x * (3 + x) * y * (3 + y))
    A[..., 2, 2] = (
        -3 * x - 3 * y + 7 * x * y + 3 * x**2 * y + 3 * x * y**2 + x**2 * y**2
    ) / (x * (3 + x) * y * (3 + y))
    A[..., 2, 3] = -(-6 + 6 * x + 3 * x**2 - 6 * y - 2 * x * y) / (
        x * (3 + x) * y * (3 + y)
    )
    A[..., 2, 4] = (
        3 - 6 * x - 3 * x**2 + 6 * y + 6 * x * y + x**2 * y + 3 * y**2
        + 4 * x * y**2 + x**2 * y**2
    ) / (x * (3 + x) * y * (3 + y))
    A[..., 2, 5] = (
        -3 * x - 6 * y + 6 * x * y + 3 * x**2 * y - 3 * y**2 + 2 * x * y**2
        + x**2 * y**2
    ) / (x * (3 + x) * y * (3 + y))
    A[..., 2, 6] = 3 / (x * (3 + x) * (3 + y))
    A[..., 2, 7] = -(-3 + 3 * y + 4 * x * y + x**2 * y) / (x * (3 + x) * y * (3 + y))
    A[..., 2, 8] = -1 / (x * (3 + y))
    A[..., 2, 9] = (-3 + 3 * x**2 + x**2 * y) / (x * (3 + x) * y * (3 + y))
    A[..., 2, 10] = y / (x * (3 + y))
    A[..., 3, 0] = 3 / (x * (3 + x))
    A[..., 3, 2] = -(-9 + x**2 - 3 * y - 2 * x * y) / (x * (3 + x) * y * (3 + y))
    A[..., 3, 3] = -(
        -3 * x - x**2 - 9 * y + 3 * x * y + 3 * x**2 * y - 3 * y**2
        + x * y**2 + x**2 * y**2
    ) / (x * (3 + x) * y * (3 + y))
    A[..., 3, 4] = -(-3 + x - y) / (x * y * (3 + y))
    A[..., 3, 5] = (3 + x - y) / ((3 + x) * y * (3 + y))
    A[..., 3, 7] = -(
        9 - 3 * x - 2 * x**2 - 6 * y + x * y + 2 * x**2 * y - 3 * y**2
        + x * y**2 + x**2 * y**2
    ) / (x * (3 + x) * y * (3 + y))
    A[..., 3, 8] = (-3 - x + y + 3 * x * y + x * y**2) / ((3 + x) * y * (3 + y))
    A[..., 3, 10] = (3 + x - y) / ((3 + x) * (3 + y))
    A[..., 4, 0] = -3 / (x * (3 + x) * (3 + y))
    A[..., 4, 1] = 3 / (x * (3 + x) * (3 + y))
    A[..., 4, 2] = (-3 + 8 * x + 3 * x**2 + x**2 * y - x * y**2) / (
        x * (3 + x) * y * (3 + y)
    )
    A[..., 4, 3] = -(-1 + y) / (x * y * (3 + y))
    A[..., 4, 4] = -(
        3 - 8 * x - 3 * x**2 - 3 * y + 2 * x * y + 2 * x**2 * y + 2 * x * y**2
        + x**2 * y**2
    ) / (x * (3 + x) * y * (3 + y))
    A[..., 4, 5] = 1 / (x * y * (3 + y))
    A[..., 4, 6] = 3 * y / (x * (3 + x) * (3 + y))
    A[..., 4, 7] = (
        6 - 7 * x - 3 * x**2 - 3 * y + 2 * x * y + 2 * x**2 * y - 3 * y**2
        + x * y**2 + x**2 * y**2
    ) / (x * (3 + x) * y * (3 + y))
    A[..., 4, 8] = -1 / (x * y * (3 + y))
    A[..., 4, 9] = (-3 + 3 * x**2 + x**2 * y) / (x * (3 + x) * (3 + y))
    A[..., 4, 10] = 1 / (x * (3 + y))
    A[..., 5, 0] = 3 / (x * (3 + x) * y)
    A[..., 5, 1] = 3 / (x * (3 + x) * y)
    A[..., 5, 2] = -(-x - 9 * y + x**2 * y - 3 * y**2 - x * y**2) / (
        x * (3 + x) * y * (3 + y)
    )
    A[..., 5, 3] = (2 + y) / ((3 + x) * y * (3 + y))
    A[..., 5, 4] = 1 / ((3 + x) * y * (3 + y))
    A[..., 5, 5] = -(
        -2 * x - 9 * y + 2 * x * y + 2 * x**2 * y - 3 * y**2 + 2 * x * y**2
        + x**2 * y**2
    ) / (x * (3 + x) * y * (3 + y))
    A[..., 5, 7] = 1 / ((3 + x) * y * (3 + y))
    A[..., 5, 8] = (1 + 3 * x - 3 * y) / ((3 + x) * y * (3 + y))
    A[..., 5, 10] = (-1 + 3 * y + x * y) / ((3 + x) * (3 + y))
    A[..., 6, 1] = -(-1 + 3 * x + x**2) * (-1 + y) / (x * (3 + x) * y)
    A[..., 6, 3] = -(-8 + 6 * x + 3 * x**2 - 4 * y - x * y) / (x * (3 + x) * y * (3 + y))
    A[..., 6, 4] = -(-1 - 8 * y + x**2 * y - 3 * y**2 - x * y**2) / (
        x * (3 + x) * y * (3 + y)
    )
    A[..., 6, 5] = -(-1 + y) / (x * (3 + x) * y)
    A[..., 6, 7] = (
        7 - 6 * x - 3 * x**2 - 5 * y + x * y + x**2 * y - 2 * y**2
        + 2 * x * y**2 + x**2 * y**2
    ) / (x * (3 + x) * y * (3 + y))
    A[..., 7, 1] = 3 / (x * (3 + x))
    A[..., 7, 3] = -3 * (-3 + 2 * x + x**2 - y) / (x * (3 + x) * y * (3 + y))
    A[..., 7, 4] = -(-9 - x + x**2 - 3 * y - x * y) / (x * (3 + x) * (3 + y))
    A[..., 7, 5] = -(-3 + 2 * x + x**2 - x * y) / (x * (3 + x) * y)
    A[..., 7, 7] = (
        9 - 6 * x - 3 * x**2 - 6 * y - x * y + x**2 * y - 3 * y**2
        + x * y**2 + x**2 * y**2
    ) / (x * (3 + x) * y * (3 + y))
    A[..., 8, 3] = (1 + y) * (3 - 2 * x + y - x * y) / (x * y * (3 + y))
    A[..., 8, 4] = (3 - x + y) * (1 + y) / (x * y * (3 + y))
    A[..., 8, 7] = -(1 + y) / (y * (3 + y))
    A[..., 9, 3] = (-2 + 3 * x - 2 * y) / (x * y * (3 + y))
    A[..., 9, 4] = -(1 - 3 * x + 2 * y + x * y + y**2 + x * y**2) / (x * y * (3 + y))
    A[..., 9, 7] = (-1 + y + x * y) / (x * y * (3 + y))
    A[..., 10, 1] = 3 / (x * (3 + x) * y)
    A[..., 10, 3] = (-9 + 5 * x + 3 * x**2 - 3 * y - x * y) / (x * (3 + x) * y * (3 + y))
    A[..., 10, 4] = (x - 9 * y + x**2 * y - 3 * y**2 - x * y**2) / (
        x * (3 + x) * y * (3 + y)
    )
    A[..., 10, 5] = -(-x - 3 * y + 2 * x * y + x**2 * y) / (x * (3 + x) * y)
    A[..., 10, 7] = -(
        9 - 4 * x - 3 * x**2 - 6 * y + 2 * x * y + x**2 * y - 3 * y**2
        + 2 * x * y**2 + x**2 * y**2
    ) / (x * (3 + x) * y * (3 + y))
    return A.reshape(shape + (11, 11))


def a3_printed_zero_pattern() -> np.ndarray:
    """Boolean mask of the entries that are identically zero in A3."""
    probe = a3_closed_form(0.731, 0.244)
    return probe == 0


def _random_points(rng: random.Random, count: int) -> np.ndarray:
    """``count`` points of :func:`su3chain.rmatrix.uniform_square` more than
    0.2 from every pole; the draws are those of a loop that redraws each
    rejected point."""
    pts = np.empty(0, dtype=complex)
    while len(pts) < count:
        # one (re, im) draw per missing point: none lies past the last point kept
        z = uniform_square(rng, count - len(pts))
        clear = np.min([abs(z - pole) for pole in _POLES], axis=0) > 0.2
        pts = np.concatenate([pts, z[clear]])
    return pts


#: points per array call: the matrices of one block, not of all points, are held
_MATRIX_BLOCK = 256


def matrix_suite(seed: int, points: int) -> dict[str, bool | float]:
    """Check the singlet bases and both A matrices, and return the results by
    name: ``gram_2_exact`` and ``gram_3_exact``, then the deviations.

    :func:`build_basis` raises unless both Gram matrices come out exactly.
    Then ``lam``, ``x`` and ``y`` are ``points`` draws each of
    ``random.Random(seed)``, clear of the poles, and :func:`a_matrix` meets
    :func:`a2_closed_form` and :func:`a3_closed_form` at them, and the
    printed zeros of A3, one block of ``_MATRIX_BLOCK`` points at a time, so
    the memory does not grow with ``points``.
    """
    for m in _GRAM:
        build_basis(m)
    rng = random.Random(seed)
    lam, x, y = (_random_points(rng, points) for _ in range(3))
    zero_pattern = a3_printed_zero_pattern()
    res = dict.fromkeys(("a2_max_deviation", "a3_max_deviation", "a3_zero_entries_max"), 0.0)
    for start in range(0, points, _MATRIX_BLOCK):
        block = slice(start, start + _MATRIX_BLOCK)
        a2, a3 = a_matrix(lam[block]), a_matrix(x[block], y[block])
        deviations = (
            a2 - a2_closed_form(lam[block]),
            a3 - a3_closed_form(x[block], y[block]),
            a3[:, zero_pattern],
        )
        for name, dev in zip(res, deviations):
            # np.maximum keeps a NaN, which then fails its check
            res[name] = float(np.maximum(res[name], np.abs(dev).max()))
    # build_basis has raised unless each Gram matrix came out exactly
    return {"gram_2_exact": True, "gram_3_exact": True, **res}


# ---------------------------------------------------------------------------
# reduction to physical density operators
# ---------------------------------------------------------------------------


#: the Gram rows that are the site-permutation expectations (I, P12 and I,
#: P12, P23, P13, P12 P23, P23 P12) of the singlet amplitudes' images
_EXPECTATION_ROWS = {2: [0, 1], 3: [0, 1, 2, 3, 5, 4]}


def reduce_to_physical(m: int, rho) -> np.ndarray:
    """Physical density operator on (C^3)^m from the singlet coefficients
    ``rho``: the invariant operator whose expectations ``tr(D s)`` are
    ``GRAM_m[_EXPECTATION_ROWS[m]] @ rho``.

    Element ``j`` reaches physical space by closing its wing legs with the
    Levi-Civita tensor, ``D[(a, r...), (b, s...)] = eps(b, c, d) v[c, d, a,
    r..., s...]``, and the expectations of that image are exactly column
    ``j`` of those Gram rows.  Row 0 is the normalization row, so
    ``tr D_m = (GRAM_m @ rho)[0] = f_1`` identically.
    """
    if m not in _EXPECTATION_ROWS:
        raise ValueError(f"m must be 2 or 3, got {m}")
    rho = np.asarray(rho, dtype=complex)
    rows = _GRAM[m][_EXPECTATION_ROWS[m]]
    if rho.shape != (rows.shape[1],):
        raise ValueError(f"m = {m} requires {rows.shape[1]} coefficients")
    return from_expectations(rows @ rho)
