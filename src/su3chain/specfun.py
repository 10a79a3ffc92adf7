"""Digamma, its first two derivatives and Hurwitz zeta, implemented from scratch.

Strategy: upward recurrence shifts the argument until the asymptotic
(Bernoulli) expansion applies (``|z| >= 10`` with non-negative shifted real
part), plus a reflection step for arguments left of ``Re z = 1/2`` so that
accuracy is uniform near the negative real axis.  The Hurwitz zeta function
``sum_k (k + a)^(-s)`` of integer order ``s >= 2`` uses the same upward
shift followed by the Euler-Maclaurin tail.

Scalar entry points return a :class:`SpecialValue` carrying the value together
with an estimated error; the vectorized ``*_array`` variants (used in the hot
loops of the three-site solver) return bare complex arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
POLE_TOLERANCE = 1e-8


class PoleError(ValueError):
    """Raised when an argument is within POLE_TOLERANCE of a pole."""


@dataclass(frozen=True)
class SpecialValue:
    value: complex
    estimated_error: float

    def __complex__(self):
        return complex(self.value)

    def __float__(self):
        return float(self.value.real)


def _check_pole(z: complex, what: str):
    zr = complex(z)
    nearest = round(zr.real)
    if nearest <= 0 and abs(zr - nearest) < POLE_TOLERANCE:
        raise PoleError(
            f"{what} evaluated within {POLE_TOLERANCE} of its pole at {nearest}"
        )


def digamma_array(z) -> np.ndarray:
    """Vectorized digamma for complex arguments (no pole guarding)."""
    z = np.atleast_1d(np.asarray(z, dtype=complex)).copy()
    reflect = z.real < 0.5
    zr = np.where(reflect, 1 - z, z)
    acc = np.zeros_like(zr)
    while True:
        small = np.abs(zr) < _ASYMPTOTIC_RADIUS
        if not small.any():
            break
        acc[small] -= 1 / zr[small]
        zr[small] += 1
    out = np.log(zr) - 1 / (2 * zr)
    z2 = zr * zr
    term = 1 / z2
    for k, b in enumerate(_BERNOULLI, start=1):
        out -= b / (2 * k) * term
        term /= z2
    out = out + acc
    # psi(1 - z) = psi(z) + pi * cot(pi z)
    out = np.where(reflect, out - np.pi / np.tan(np.pi * z), out)
    return out


def trigamma_array(z) -> np.ndarray:
    """Vectorized trigamma for complex arguments (no pole guarding)."""
    z = np.atleast_1d(np.asarray(z, dtype=complex)).copy()
    reflect = z.real < 0.5
    zr = np.where(reflect, 1 - z, z)
    acc = np.zeros_like(zr)
    while True:
        small = np.abs(zr) < _ASYMPTOTIC_RADIUS
        if not small.any():
            break
        acc[small] += 1 / zr[small] ** 2
        zr[small] += 1
    z2 = zr * zr
    out = 1 / zr + 1 / (2 * z2)
    term = 1 / (zr * z2)
    for b in _BERNOULLI:
        out += b * term
        term /= z2
    out = out + acc
    # psi_1(1 - z) = -psi_1(z) + pi^2 / sin^2(pi z), with the reflection term
    # written as pi^2 (1 + cot^2): sin overflows for |Im z| > ~113, cot -> -+i
    cot = 1 / np.tan(np.pi * z)
    out = np.where(reflect, -out + np.pi**2 * (1 + cot**2), out)
    return out


def tetragamma_array(z) -> np.ndarray:
    """Vectorized psi_2 (second derivative of digamma) for complex arguments."""
    z = np.atleast_1d(np.asarray(z, dtype=complex)).copy()
    reflect = z.real < 0.5
    zr = np.where(reflect, 1 - z, z)
    acc = np.zeros_like(zr)
    while True:
        small = np.abs(zr) < _ASYMPTOTIC_RADIUS
        if not small.any():
            break
        acc[small] -= 2 / zr[small] ** 3
        zr[small] += 1
    z2 = zr * zr
    out = -1 / z2 - 1 / (zr * z2)
    term = 1 / (z2 * z2)
    for k, b in enumerate(_BERNOULLI, start=1):
        out -= (2 * k + 1) * b * term
        term /= z2
    out = out + acc
    # psi_2(z) = psi_2(1 - z) - 2 pi^3 cos(pi z)/sin^3(pi z), in the
    # overflow-free form 2 pi^3 cot (1 + cot^2)
    cot = 1 / np.tan(np.pi * z)
    out = np.where(reflect, out - 2 * np.pi**3 * cot * (1 + cot**2), out)
    return out


@cache
def real_pi(real) -> np.floating:
    """pi rounded to the real dtype ``real`` (``np.pi`` itself for float64)."""
    return 4 * np.arctan(np.dtype(real).type(1))


@cache
def _psi_horner(real) -> tuple[list, list]:
    """Asymptotic coefficients of psi and psi' in powers of 1/z^2, highest first.

    ``psi ~ ln z - 1/(2z) - sum_k B_2k / (2k z^2k)`` and
    ``psi' ~ 1/z + 1/(2z^2) + sum_k B_2k / z^(2k+1)``.  Each ``B_2k`` is
    rounded once from its exact fraction to ``real``, so float64 gets
    ``float(B_2k)`` bit for bit and long double its own precision.
    """
    one = np.dtype(real).type(1)
    bern = [one * b.numerator / b.denominator for b in BERNOULLI_EVEN]
    return [b / (2 * k) for k, b in enumerate(bern, start=1)][::-1], bern[::-1]


def digamma_trigamma_array(z) -> tuple[np.ndarray, np.ndarray]:
    """Digamma and trigamma together at complex arguments (no pole guarding).

    The two orders share the reflection mask, the upward shift loop, ``1/z``
    and one Horner pass in ``1/z^2`` over the Bernoulli coefficients.  The
    arithmetic follows the input's precision: ``np.clongdouble`` (or
    ``np.longdouble``) arguments are evaluated in long double, anything else
    in complex128.
    """
    z = np.atleast_1d(np.asarray(z))
    z = z.astype(np.promote_types(z.dtype, complex), copy=False)
    pi = real_pi(z.real.dtype)
    psi_horner, psi1_horner = _psi_horner(z.real.dtype)
    reflect = z.real < 0.5
    zr = np.where(reflect, 1 - z, z)
    psi = np.zeros_like(zr)
    psi1 = np.zeros_like(zr)
    while True:
        small = np.abs(zr) < _ASYMPTOTIC_RADIUS
        if not small.any():
            break
        inv = 1 / zr[small]
        psi[small] -= inv
        psi1[small] += inv * inv
        zr[small] += 1
    inv = 1 / zr
    inv2 = inv * inv
    p0 = np.full_like(zr, psi_horner[0])
    p1 = np.full_like(zr, psi1_horner[0])
    for c0, c1 in zip(psi_horner[1:], psi1_horner[1:]):
        p0 = p0 * inv2 + c0
        p1 = p1 * inv2 + c1
    psi += np.log(zr) - inv / 2 - inv2 * p0
    psi1 += inv + inv2 / 2 + inv * inv2 * p1
    # psi(z) = psi(1 - z) - pi cot(pi z); psi'(z) = -psi'(1 - z) + pi^2 (1 + cot^2)
    cot = 1 / np.tan(pi * z[reflect])
    psi[reflect] -= pi * cot
    psi1[reflect] = pi**2 * (1 + cot**2) - psi1[reflect]
    return psi, psi1


def digamma(z: complex) -> SpecialValue:
    """Digamma function with pole guarding and an error estimate."""
    _check_pole(z, "digamma")
    val = complex(digamma_array(z)[0])
    # the truncated Bernoulli tail at the shifted argument is ~1e-16 relative;
    # each recurrence step adds one rounding error
    err = 5e-16 * max(1.0, abs(val))
    return SpecialValue(val, err)


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


def hurwitz_zeta(s: int, a: complex) -> SpecialValue:
    """Hurwitz zeta with pole guarding on ``a`` and an error estimate."""
    _check_pole(a, "hurwitz_zeta")
    val = complex(hurwitz_zeta_array(s, a)[0])
    err = 5e-16 * max(1.0, abs(val))
    return SpecialValue(val, err)
