"""The structural tensors of the SU(3) graphical calculus, as plain arrays.

The local dimension ``N``, 3, is assigned here once, and the R-matrix and
basis modules import it.  The four-leg tensors have slots ordered
``(i, k, j, l)`` (``i, k`` incoming, ``j, l`` outgoing):

    P[i, k, j, l] = delta(i, l) * delta(j, k)     (permutation)
    I[i, k, j, l] = delta(i, j) * delta(k, l)     (identity)
    E[i, k, j, l] = delta(i, k) * delta(j, l)     (Temperley-Lieb)

As an ``N^2 x N^2`` operator with row index ``(j, l)`` and column ``(i, k)``
(:func:`as_operator`), ``P`` is the swap of the two tensor factors.  The
Levi-Civita tensor is normalized by ``eps[0, 1, 2] = +1``.  Each is built on
its first use and then shared, read-only; :mod:`su3chain.rmatrix` states the
R-matrices in terms of them.

An SU(3)-invariant operator ``D`` on 2 or 3 sites of the chain is a sum
``sum_s c_s s`` over the site permutations ``s``, so it is fixed by the 2 or 6
numbers ``v_s = tr(D s)``: ``c = G^-1 v`` with ``G_st = tr(s t) = 3^cycles(s t)``.
"""

from __future__ import annotations

import itertools
from functools import cache

import numpy as np

#: the local dimension of the chain
N = 3


@cache
def pie() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The four-leg tensors ``(P, I, E)``.

    Built once; every caller shares the arrays, so they are read-only.
    """
    eye = np.eye(N)
    tensors = (
        np.einsum("il,jk->ikjl", eye, eye),
        np.einsum("ij,kl->ikjl", eye, eye),
        np.einsum("ik,jl->ikjl", eye, eye),
    )
    for t in tensors:
        t.flags.writeable = False
    return tensors


def as_operator(t: np.ndarray) -> np.ndarray:
    """The four-leg tensor ``t`` as an ``N^2 x N^2`` operator: row ``(j, l)``,
    column ``(i, k)``."""
    return t.transpose(2, 3, 0, 1).reshape(N * N, N * N)


def exact_inverse(gram: np.ndarray, denominator: int) -> np.ndarray:
    """``gram^-1`` as read-only floats, checked to be an integer matrix over
    ``denominator`` (so correctly rounded): the rounded ``S = denominator
    gram^-1`` must give ``gram S = denominator I`` exactly in integers."""
    scaled = np.rint(np.linalg.inv(gram) * denominator).astype(np.int64)
    if not np.array_equal(gram @ scaled, denominator * np.eye(len(gram), dtype=np.int64)):
        raise RuntimeError(f"the inverse is not an integer matrix over {denominator}")
    out = scaled / denominator
    out.flags.writeable = False
    return out


#: each site permutation p, which sends |i_0 ... i_(m-1)> to |i_p(0) ... i_p(m-1)>:
#: I, P12 and I, P12, P23, P13, P12 P23, P23 P12 (matrix products)
_SITE_PERMUTATIONS = {
    2: [(0, 1), (1, 0)],
    3: [(0, 1, 2), (1, 0, 2), (0, 2, 1), (2, 1, 0), (2, 0, 1), (1, 2, 0)],
}


@cache
def site_permutations(m: int) -> np.ndarray:
    """The site permutations of ``m`` in {2, 3} sites of the chain as a stack of
    ``3^m x 3^m`` operators, in the order of ``_SITE_PERMUTATIONS``.  Built
    once per ``m``; every caller shares the stack, so it is read-only."""
    if m not in _SITE_PERMUTATIONS:
        raise ValueError(f"m must be 2 or 3, got {m}")
    digits = np.arange(3**m).reshape((3,) * m)
    ops = np.eye(3**m)[[digits.transpose(p).ravel() for p in _SITE_PERMUTATIONS[m]]]
    ops.flags.writeable = False
    return ops


@cache
def _permutation_gram(m: int) -> tuple[np.ndarray, np.ndarray]:
    """``G_st = tr(s t)`` over the site permutations and its exact inverse, an
    integer matrix over 24 (m = 2) or 120 (m = 3)."""
    gram = np.array([expectations(s) for s in site_permutations(m)]).astype(np.int64)
    return gram, exact_inverse(gram, {2: 24, 3: 120}[m])


def expectations(d: np.ndarray) -> np.ndarray:
    """``v_s = tr(d s)`` for the site permutations ``s`` of a 9 x 9 or 27 x 27 ``d``."""
    return np.array([np.vdot(s, d.T) for s in site_permutations({9: 2, 27: 3}[len(d)])])


def from_expectations(v) -> np.ndarray:
    """The operator ``sum_s c_s s`` whose :func:`expectations` are ``v`` (2 or 6
    numbers): ``c = G^-1 v``."""
    m = {2: 2, 6: 3}[len(v)]
    return np.tensordot(_permutation_gram(m)[1] @ v, site_permutations(m), 1)


@cache
def levi_civita() -> np.ndarray:
    """Fully antisymmetric tensor with ``eps[0, 1, 2] = +1``, built once and
    shared, so read-only."""
    eps = np.zeros((N,) * N)
    for perm in itertools.permutations(range(N)):
        # the sign of perm: the determinant of its permutation matrix, which
        # LU factorization finds by row exchanges alone, so exactly +-1
        eps[perm] = np.linalg.det(np.eye(N)[list(perm)])
    eps.flags.writeable = False
    return eps
