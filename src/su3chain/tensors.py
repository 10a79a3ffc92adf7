"""The structural tensors of the SU(n) graphical calculus, as plain arrays.

The four-leg tensors have slots ordered ``(i, k, j, l)`` (``i, k`` incoming,
``j, l`` outgoing):

    P[i, k, j, l] = delta(i, l) * delta(j, k)     (permutation)
    I[i, k, j, l] = delta(i, j) * delta(k, l)     (identity)
    E[i, k, j, l] = delta(i, k) * delta(j, l)     (Temperley-Lieb)

As an ``n^2 x n^2`` operator with row index ``(j, l)`` and column ``(i, k)``,
``P.transpose(2, 3, 0, 1).reshape(n * n, n * n)`` is the swap of the two
tensor factors.  The Levi-Civita tensor is normalized by
``eps[0, 1, ..., n-1] = +1``.
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
