"""Digamma, its derivatives and Hurwitz zeta, implemented from scratch.

One kernel gives ``psi^(n)`` of any order ``n >= 0``, every order asked for
from the same argument, shifted upwards (DLMF 5.15.5) until the asymptotic
expansion of DLMF 5.11.2 and 5.15.8 applies: at ``|z| >= 10`` for orders
0-2 and ``|z| >= 16`` above, right of ``Re z = 1/2``.  Each order keeps its
own radius, so its value does not depend on which other orders are asked
for in the same call.  Digamma and its first two derivatives reflect
arguments left of 1/2 to ``1 - z`` (DLMF 5.15.6), so that accuracy is
uniform near the negative real axis; higher orders have no reflection
formula and are summed from ``z`` itself.  Hurwitz zeta of integer order
``s >= 2`` is the kernel's order ``s - 1``, ``(-1)^s psi^(s-1)(a) / (s-1)!``
(DLMF 25.11.12), summed from ``a`` itself; a tuple of orders takes one
kernel pass.
The arithmetic follows the input's precision: ``np.clongdouble`` (or
``np.longdouble``) arguments are evaluated in long double, anything else in
complex128.

The ``*_array`` functions take and return arrays and do no pole guarding;
callers that must fail closed at a pole raise :class:`PoleError` themselves.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

#: Bernoulli numbers B_2, B_4, ..., B_16, exact, as (numerator, denominator)
BERNOULLI_EVEN = (
    (1, 6),
    (-1, 30),
    (1, 42),
    (-1, 30),
    (5, 66),
    (-691, 2730),
    (7, 6),
    (-3617, 510),
)

_ASYMPTOTIC_RADIUS = 10.0
_HIGH_ORDER_RADIUS = 16.0


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
def _psi_horner(real, n: int) -> list:
    """Asymptotic coefficients of ``psi^(n)`` in powers of 1/z^2, highest first.

    ``psi ~ ln z - 1/(2z) - sum_k c_k / z^2k`` and, for ``n >= 1``,
    ``psi^(n) ~ (-1)^(n+1) [(n-1)!/z^n + n!/(2 z^(n+1)) + sum_k c_k / z^(2k+n)]``
    (DLMF 5.11.2, 5.15.8), with ``c_k = B_2k (2k+n-1)!/(2k)!`` rounded to
    ``real`` from its exact fraction.
    """
    one = np.dtype(real).type(1)
    coeffs = []
    for k, (p, q) in enumerate(BERNOULLI_EVEN, start=1):
        num, den = p * math.factorial(2 * k + n - 1), q * math.factorial(2 * k)
        g = math.gcd(num, den)
        coeffs.append(one * (num // g) / (den // g))
    return coeffs[::-1]


def _power(x, m: int):
    """``x**m`` for an integer ``m >= 1`` by binary powering: exactly ``x * x``
    at ``m = 2``, and cheaper than numpy's complex power on short arrays."""
    if m == 1:
        return x
    half = _power(x * x, m // 2)
    return half * x if m % 2 else half


def _times(c: int, x):
    """``c * x``, sparing the pass over ``x`` when ``c`` is 1 (``0! = 1! = 1``)."""
    return x if c == 1 else c * x


def _polygamma(z, orders: tuple[int, ...], *, reflect: bool = True) -> list[np.ndarray]:
    """``psi^(n)(z)`` for each order ``n >= 0`` in ``orders``.

    Each order keeps its own radius: orders 0-2 share one upward shift loop
    to ``|z| >= 10``, higher orders another to ``|z| >= 16``, so ``psi^(n)``
    is bit for bit the same whichever other orders are asked for with it.
    The orders of one radius share the shift loop and ``1/z``, orders 0-2
    the reflection mask and ``cot(pi z)``; each order takes one Horner pass
    in ``1/z^2``.  An order not asked for adds nothing to the shift loops or
    the Horner passes.  The reflection is written in powers of ``cot``, which
    tends to ``-+i`` where ``sin(pi z)`` overflows (``|Im z| > ~113``), and
    is stated for orders 0-2 only: higher orders are summed from ``z``
    itself, shifted right of 1/2, whatever ``reflect`` says.  Hurwitz zeta
    passes ``reflect=False`` and sums orders 0-2 from ``z`` too:
    ``zeta(3, -3.3 + 0.7i)`` through the reflected order 2 is 8.4e-15 off,
    summed directly 7e-17.
    """
    z = _complex(z)
    pi = real_pi(z.real.dtype)
    left = reflect & (z.real < 0.5)
    psi = {n: np.zeros_like(z) for n in orders}
    # psi^(n)(z) = psi^(n)(z + 1) + (-1)^(n+1) n! / z^(n+1); signed[n] adds
    # with that sign, here and for the asymptotic series below
    signed = {n: np.add if n % 2 else np.subtract for n in orders}
    # the asymptotic coefficients grow with the order; only orders 0-2 have
    # a reflection formula, so higher orders are always summed from z
    for radius, group, mirror in (
        (_ASYMPTOTIC_RADIUS, [n for n in psi if n <= 2], reflect),
        (_HIGH_ORDER_RADIUS, [n for n in psi if n > 2], False),
    ):
        if not group:
            continue
        zr = np.where(left, 1 - z, z) if mirror else z.copy()
        while True:
            small = np.abs(zr) < radius
            if not mirror:  # a reflected argument already lies right of 1/2
                small |= zr.real < 0.5
            if not small.any():
                break
            inv = 1 / zr[small]
            for n in group:
                term = _times(math.factorial(n), _power(inv, n + 1))
                psi[n][small] = signed[n](psi[n][small], term)
            zr[small] += 1
        inv = 1 / zr
        inv2 = inv * inv
        for n in group:
            acc = psi[n]
            coeffs = _psi_horner(zr.real.dtype, n)
            horner = np.full_like(zr, coeffs[0])
            for c in coeffs[1:]:
                horner = horner * inv2 + c
            if n == 0:
                acc += np.log(zr) - inv / 2 - inv2 * horner
                continue
            lead = _power(inv, n)
            series = (_times(math.factorial(n - 1), lead) + lead * inv * (math.factorial(n) / 2)
                      + lead * inv2 * horner)
            signed[n](acc, series, out=acc)
    # psi(z) = psi(1 - z) - pi cot(pi z), psi'(z) = -psi'(1 - z) + pi^2 (1 + cot^2)
    # and psi''(z) = psi''(1 - z) - 2 pi^3 cot (1 + cot^2)
    cot = 1 / np.tan(pi * z[left])
    csc2 = 1 + cot**2
    if 0 in psi:
        psi[0][left] -= pi * cot
    if 1 in psi:
        psi[1][left] = pi**2 * csc2 - psi[1][left]
    if 2 in psi:
        psi[2][left] -= 2 * pi**3 * cot * csc2
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


def hurwitz_zeta_array(s, a) -> np.ndarray:
    """Hurwitz zeta ``sum_k (k + a)^(-s)`` for integer ``s >= 2``, as
    ``(-1)^s psi^(s-1)(a) / (s-1)!`` (DLMF 25.11.12).

    ``s`` may be a tuple of orders, evaluated in one kernel pass and
    returned stacked along a new first axis; each equals its single-order
    value bit for bit.
    """
    orders = s if isinstance(s, tuple) else (s,)
    if not orders or not all(math.isfinite(v) and int(v) == v and v >= 2 for v in orders):
        raise ValueError(f"hurwitz_zeta requires integer s >= 2, got {s}")
    ns = tuple(int(v) - 1 for v in orders)
    values = _polygamma(a, ns, reflect=False)
    zeta = np.stack([v / ((-1) ** (n + 1) * math.factorial(n)) for n, v in zip(ns, values)])
    return zeta if isinstance(s, tuple) else zeta[0]
