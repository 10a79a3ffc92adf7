"""Closed-form zero-temperature two-site solution for the SU(3) chain.

The nearest-neighbour correlation data is carried by a single even function
``sigma`` solving the three-term difference equation

    sigma(lam+1) + sigma(lam) + sigma(lam-1)
        = (lam^2 + 2) / ((lam^2 - 4)(lam^2 - 1)),

with the closed form (digamma differences minus ``1/(lam^2 - 1)``)::

    sigma(lam) = (1/3) [psi0(1 - lam/3) + psi0(1 + lam/3)
                        - psi0(4/3 + lam/3) - psi0(4/3 - lam/3)]
                 - 1/(lam^2 - 1).

Derived objects:

    omega33(lam)     = (lam^2 - 1) sigma(lam)            (evaluated pole-free)
    omega_bar33(lam) = (lam*omega33(lam) - 1)(lam + 3)/(lam^2 - 1)
    alpha33(lam)     = (omega33(lam) - 1/3)/8
    G(lam)           = (omega33(lam) + 1)/(lam^2 - 1)

``omega33`` is computed as ``(lam^2-1)*G(lam) - 1``, where ``G`` is exactly
sigma's digamma part; it is regular everywhere off the digamma poles, and in
particular ``omega33(+-1) = -1`` (the explicit ``-1/(lam^2-1)`` term of sigma
survives the prefactor).  ``omega_bar33`` has a genuine simple pole at ``+1``
and a removable 0/0 point at ``-1`` where its value is ``1 + omega33'(-1)``.

Every evaluator of ``lam`` takes complex scalars or arrays: a scalar gives a
python complex, an array of any shape an array of the same shape.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .specfun import (
    PoleError,
    _complex,
    _like,
    digamma_array,
    digamma_trigamma_array,
    hurwitz_zeta_array,
    real_pi,
)


@cache
def omega33_homogeneous(real=np.float64):
    """omega33(0,0) = 1 - pi/(3 sqrt 3) - log 3, rounded to the real dtype ``real``."""
    three = np.dtype(real).type(3)
    return 1 - real_pi(real) / (3 * np.sqrt(three)) - np.log(three)


#: the ground-state energy per bond
OMEGA33_HOMOGENEOUS = omega33_homogeneous()

def _stacked_arguments(lam):
    """The four digamma arguments ``1 -+ lam/3`` and ``4/3 +- lam/3`` of sigma, stacked."""
    third = _complex(lam) / 3
    return np.stack((1 - third, 1 + third, 4 / 3 + third, 4 / 3 - third))


def _part(psi):
    """sigma's digamma part from psi at the four stacked arguments."""
    return (psi[0] + psi[1] - psi[2] - psi[3]) / 3


def generating_function(lam):
    """G(lam) = (omega33(lam) + 1)/(lam^2 - 1): sigma's digamma part, regular at +-1."""
    return _like(lam, _part(digamma_array(_stacked_arguments(lam))))


def digamma_parts(lam):
    """``(G, G')`` from one kernel pass; G is bit for bit ``generating_function``."""
    psi, psi1 = digamma_trigamma_array(_stacked_arguments(lam))
    # each argument moves by -+lam/3, so G' takes psi' at the same four with 1/9
    part_prime = (-psi1[0] + psi1[1] - psi1[2] + psi1[3]) / 9
    return _like(lam, _part(psi)), _like(lam, part_prime)


def sigma(lam):
    """sigma(lam); simple poles at lam = +-1 from the rational term."""
    l = _complex(lam)
    return _like(lam, generating_function(l) - 1 / (l**2 - 1))


def omega33(lam):
    """omega33(lam) = (lam^2 - 1) sigma(lam), evaluated pole-free."""
    l = _complex(lam)
    return _like(lam, (l**2 - 1) * generating_function(l) - 1)


def omega_bar33(lam):
    """omega_bar33 = (lam*omega33(lam) - 1)(lam + 3)/(lam^2 - 1).

    The numerator factors exactly: lam*omega33 - 1
    = lam(lam^2 - 1) G(lam) - (lam + 1), so dividing by (lam + 1) leaves
    lam(lam - 1) G(lam) - 1 with no cancellation.  The only genuine pole is
    at lam = +1; the point lam = -1 is removable with value
    1 + omega33'(-1).
    """
    l = _complex(lam)
    return _like(lam, (l * (l - 1) * generating_function(l) - 1) * (l + 3) / (l - 1))


def alpha33(lam):
    return _like(lam, (omega33(_complex(lam)) - 1 / 3) / 8)


# ---- expansions and residual checks --------------------------------------

def zeta_expansion(K: int):
    """Taylor coefficients c_0..c_K of G(lam) in powers of lam^2.

    c_0 = (2/3)[psi0(1) - psi0(4/3)];
    c_k = -(2/3)[zeta(2k+1, 1) - zeta(2k+1, 4/3)]/3^(2k) for k >= 1,
    so that G(lam) = sum_k c_k lam^(2k).  The minus sign follows from
    psi_2k(z) = -(2k)! zeta(2k+1, z) applied to the Taylor series of the
    digamma form of G.
    """
    if K < 0 or K > 20:
        raise ValueError("K must be in 0..20 (double-precision limit)")
    a = (1.0, 4 / 3)
    psi = digamma_array(a).real
    coeffs = [(2 / 3) * (psi[0] - psi[1])]
    for k in range(1, K + 1):
        zeta = hurwitz_zeta_array(2 * k + 1, a).real
        coeffs.append(-(2 / 3) * (zeta[0] - zeta[1]) / 3 ** (2 * k))
    return coeffs


def check_difference_equations(lam: complex):
    """Residuals (res1, res2) of the two coupled difference equations.

    res1:  omega33(lam) - (lam^2-1)/(lam(lam+3)) * omega_bar33(lam) - 1/lam
    res2:  omega_bar33(lam-1) + (lam-1)/lam * omega33(lam+1)
           + (lam-1)(lam+2)/(lam(lam+3)) * omega_bar33(lam) - (lam-1)/lam
    """
    lam = _off_integers(lam, "difference-equation check")
    w = omega33(lam)
    wb = omega_bar33(lam)
    res1 = abs(w - (lam**2 - 1) / (lam * (lam + 3)) * wb - 1 / lam)
    res2 = abs(
        omega_bar33(lam - 1)
        + (lam - 1) * (lam + 3) / (lam * (lam + 3)) * omega33(lam + 1)
        + (lam - 1) * (lam + 2) / (lam * (lam + 3)) * wb
        - (lam - 1) / lam
    )
    return res1, res2


def check_three_term(lam: complex) -> float:
    """Residual of the three-term equation for sigma at ``lam``."""
    lam = _off_integers(lam, "three-term check")
    lhs = sigma(lam + 1) + sigma(lam) + sigma(lam - 1)
    rhs = (lam**2 + 2) / ((lam**2 - 4) * (lam**2 - 1))
    return abs(lhs - rhs)


def _off_integers(lam, what: str) -> complex:
    """``lam`` as a complex, or PoleError if it is within 1e-6 of an integer.

    The residual checks evaluate the two-site functions at ``lam`` and
    ``lam +- 1`` and divide by rational factors: the three-term check is
    singular at every integer, the difference-equation check at every
    integer but -1.
    """
    lam = complex(lam)
    nearest = round(lam.real)
    if abs(lam - nearest) < 1e-6:
        raise PoleError(f"{what} at {lam} is within 1e-6 of the pole at {nearest:g}")
    return lam
