"""The structural tensors of the SU(n) graphical calculus, as plain arrays.

The four-leg tensors have slots ordered ``(i, k, j, l)`` (``i, k`` incoming,
``j, l`` outgoing):

    P[i, k, j, l] = delta(i, l) * delta(j, k)     (permutation)
    I[i, k, j, l] = delta(i, j) * delta(k, l)     (identity)
    E[i, k, j, l] = delta(i, k) * delta(j, l)     (Temperley-Lieb)

As an ``n^2 x n^2`` operator with row index ``(j, l)`` and column ``(i, k)``
(:func:`as_operator`), ``P`` is the swap of the two tensor factors.  The
Levi-Civita tensor is normalized by ``eps[0, 1, ..., n-1] = +1``.  The
partial traces reduce a three-site operator to its two-site marginals.
"""

from __future__ import annotations

import itertools
from functools import cache

import numpy as np


@cache
def pie(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The four-leg tensors ``(P, I, E)`` for local dimension ``n``.

    Built once per ``n``; every caller shares the arrays, so they are
    read-only.
    """
    if n < 2:
        raise ValueError(f"local dimension must be >= 2, got {n}")
    eye = np.eye(n)
    tensors = (
        np.einsum("il,jk->ikjl", eye, eye),
        np.einsum("ij,kl->ikjl", eye, eye),
        np.einsum("ik,jl->ikjl", eye, eye),
    )
    for t in tensors:
        t.flags.writeable = False
    return tensors


def as_operator(t: np.ndarray) -> np.ndarray:
    """The four-leg tensor ``t`` as an ``n^2 x n^2`` operator: row ``(j, l)``,
    column ``(i, k)``."""
    n = t.shape[0]
    return t.transpose(2, 3, 0, 1).reshape(n * n, n * n)


def partial_trace_last_site(d3: np.ndarray) -> np.ndarray:
    """Trace out the third site of an ``n^3 x n^3`` operator, giving ``n^2 x n^2``."""
    n = round(len(d3) ** (1 / 3))
    return np.einsum("abkcdk->abcd", d3.reshape((n,) * 6)).reshape(n * n, n * n)


def partial_trace_first_site(d3: np.ndarray) -> np.ndarray:
    """Trace out the first site of an ``n^3 x n^3`` operator, giving ``n^2 x n^2``."""
    n = round(len(d3) ** (1 / 3))
    return np.einsum("kabkcd->abcd", d3.reshape((n,) * 6)).reshape(n * n, n * n)


def levi_civita(n: int) -> np.ndarray:
    """Fully antisymmetric tensor with ``eps[0, 1, ..., n-1] = +1``."""
    eps = np.zeros((n,) * n)
    for perm in itertools.permutations(range(n)):
        eps[perm] = _perm_sign(perm)
    return eps


def _perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign
