"""Digamma, its first two derivatives and Hurwitz zeta, implemented from scratch.

One kernel gives the polygamma functions of orders 0, 1 and 2 from the same
shifted argument.  Arguments left of ``Re z = 1/2`` are reflected to
``1 - z`` (DLMF §5.15), so that accuracy is uniform near the negative real
axis; an upward recurrence then shifts the argument until the asymptotic
(Bernoulli) expansion of DLMF §5.11 applies (``|z| >= 10`` with
non-negative real part).  The arithmetic follows the input's precision:
``np.clongdouble`` (or ``np.longdouble``) arguments are evaluated in long
double, anything else in complex128.  The Hurwitz zeta function
``sum_k (k + a)^(-s)`` of integer order ``s >= 2`` uses its own upward shift
followed by the Euler-Maclaurin tail, in complex128.

The ``*_array`` functions take and return arrays and do no pole guarding;
callers that must fail closed at a pole raise :class:`PoleError` themselves.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache

import numpy as np

#: Bernoulli numbers B_2, B_4, ..., B_16, exact
BERNOULLI_EVEN = (
    Fraction(1, 6),
    Fraction(-1, 30),
    Fraction(1, 42),
    Fraction(-1, 30),
    Fraction(5, 66),
    Fraction(-691, 2730),
    Fraction(7, 6),
    Fraction(-3617, 510),
)
_BERNOULLI = [float(b) for b in BERNOULLI_EVEN]

_ASYMPTOTIC_RADIUS = 10.0


class PoleError(ValueError):
    """Raised when an argument lies too close to a pole of the function asked for."""


def _complex(z) -> np.ndarray:
    """``z`` as a complex array of at least one dimension: ``np.clongdouble``
    for long-double input, complex128 for anything else."""
    z = np.atleast_1d(np.asarray(z))
    return z.astype(np.promote_types(z.dtype, complex), copy=False)


def _like(z, out):
    """``out`` itself for an array ``z``; for a scalar ``z``, its one value as a
    python complex."""
    return out if np.ndim(z) else complex(out[0])


@cache
def real_pi(real) -> np.floating:
    """pi rounded to the real dtype ``real`` (``np.pi`` itself for float64)."""
    return 4 * np.arctan(np.dtype(real).type(1))


@cache
def _psi_horner(real) -> tuple[list, list, list]:
    """Asymptotic coefficients of psi, psi' and psi'' in powers of 1/z^2, highest first.

    ``psi ~ ln z - 1/(2z) - sum_k B_2k / (2k z^2k)``,
    ``psi' ~ 1/z + 1/(2z^2) + sum_k B_2k / z^(2k+1)`` and
    ``psi'' ~ -1/z^2 - 1/z^3 - sum_k (2k+1) B_2k / z^(2k+2)``.
    ``B_2k`` and ``(2k+1) B_2k`` are each rounded once from their exact
    fractions to ``real``, so float64 gets ``float(B_2k)`` bit for bit and
    long double its own precision.
    """
    one = np.dtype(real).type(1)
    bern = [one * b.numerator / b.denominator for b in BERNOULLI_EVEN]
    odd = [(2 * k + 1) * b for k, b in enumerate(BERNOULLI_EVEN, start=1)]
    return (
        [b / (2 * k) for k, b in enumerate(bern, start=1)][::-1],
        bern[::-1],
        [one * c.numerator / c.denominator for c in odd][::-1],
    )


def _polygamma(z, orders: tuple[int, ...]) -> list[np.ndarray]:
    """``psi^(n)(z)`` for each order ``n`` in ``orders``, a subset of 0, 1, 2.

    The orders share the reflection mask, the upward shift loop, ``1/z`` and
    the reflection's ``cot(pi z)``; each order takes one Horner pass in
    ``1/z^2``.  An order not asked for adds nothing to the shift loop or the
    Horner passes.  The reflection is written in powers of ``cot``, which
    tends to ``-+i`` where ``sin(pi z)`` overflows (``|Im z| > ~113``).
    """
    z = _complex(z)
    pi = real_pi(z.real.dtype)
    reflect = z.real < 0.5
    zr = np.where(reflect, 1 - z, z)
    psi = {n: np.zeros_like(zr) for n in orders}
    # psi^(n)(z) = psi^(n)(z + 1) + (-1)^(n+1) n! / z^(n+1)
    while True:
        small = np.abs(zr) < _ASYMPTOTIC_RADIUS
        if not small.any():
            break
        inv = 1 / zr[small]
        if 0 in psi:
            psi[0][small] -= inv
        if 1 in psi:
            psi[1][small] += inv * inv
        if 2 in psi:
            psi[2][small] -= 2 * inv * inv * inv
        zr[small] += 1
    inv = 1 / zr
    inv2 = inv * inv
    horner = {}
    for n in psi:
        coeffs = _psi_horner(zr.real.dtype)[n]
        horner[n] = np.full_like(zr, coeffs[0])
        for c in coeffs[1:]:
            horner[n] = horner[n] * inv2 + c
    if 0 in psi:
        psi[0] += np.log(zr) - inv / 2 - inv2 * horner[0]
    if 1 in psi:
        psi[1] += inv + inv2 / 2 + inv * inv2 * horner[1]
    if 2 in psi:
        psi[2] -= inv2 + inv * inv2 + inv2 * inv2 * horner[2]
    # psi(z) = psi(1 - z) - pi cot(pi z), psi'(z) = -psi'(1 - z) + pi^2 (1 + cot^2)
    # and psi''(z) = psi''(1 - z) - 2 pi^3 cot (1 + cot^2)
    cot = 1 / np.tan(pi * z[reflect])
    csc2 = 1 + cot**2
    if 0 in psi:
        psi[0][reflect] -= pi * cot
    if 1 in psi:
        psi[1][reflect] = pi**2 * csc2 - psi[1][reflect]
    if 2 in psi:
        psi[2][reflect] -= 2 * pi**3 * cot * csc2
    return [psi[n] for n in orders]


def digamma_array(z) -> np.ndarray:
    """Digamma at complex arguments."""
    return _polygamma(z, (0,))[0]


def trigamma_array(z) -> np.ndarray:
    """Trigamma (first derivative of digamma) at complex arguments."""
    return _polygamma(z, (1,))[0]


def tetragamma_array(z) -> np.ndarray:
    """psi'' (second derivative of digamma) at complex arguments."""
    return _polygamma(z, (2,))[0]


def digamma_trigamma_array(z) -> tuple[np.ndarray, np.ndarray]:
    """Digamma and trigamma together at complex arguments, from one kernel pass."""
    psi, psi1 = _polygamma(z, (0, 1))
    return psi, psi1


def hurwitz_zeta_array(s: int, a) -> np.ndarray:
    """Vectorized Hurwitz zeta ``sum_k (k + a)^(-s)`` for integer ``s >= 2``."""
    if int(s) != s or s < 2:
        raise ValueError(f"hurwitz_zeta requires integer s >= 2, got {s}")
    s = int(s)
    a = np.atleast_1d(np.asarray(a, dtype=complex)).copy()
    acc = np.zeros_like(a)
    while True:
        small = a.real < _ASYMPTOTIC_RADIUS + 6
        if not small.any():
            break
        acc[small] += a[small] ** (-s)
        a[small] += 1
    # Euler-Maclaurin tail at the shifted argument
    out = a ** (1 - s) / (s - 1) + a ** (-s) / 2
    poch = float(s)
    fac = a ** (-s - 1)
    for k, b in enumerate(_BERNOULLI, start=1):
        out += b / math.factorial(2 * k) * poch * fac
        poch *= (s + 2 * k - 1) * (s + 2 * k)
        fac /= a * a
    return out + acc
