"""Zero-temperature three-site solution of the discrete functional equations.

The next-to-nearest correlation data is carried by a single function ``G1``
solving the inhomogeneous step-3 recursion

    G1(lam) = G1(lam + 3) + phi(lam),          G1(lam) = O(lam^2) at 0,

where ``phi`` is an explicit combination of the two-site functions.  The
obvious one-sided comb ``sum_j phi(lam + 3j)`` does *not* satisfy the
analyticity normalization (it has poles at 0 and a wrong principal part at
-2); the solver therefore builds

    G1(lam) = phi_c(lam) + sum_{j=1..J} phi_c(lam + 3j) - (lam/3) tau(lam)
              + P3(lam)

with ``tau`` the exact 3-periodic part of ``phi`` (a cotangent difference),
``phi_c = phi - tau``, and ``P3`` a 3-periodic correction spanned by
``1, cot(pi lam/3), cot^2(pi lam/3), cot(pi(lam-1)/3), cot^2(pi(lam-1)/3)``.
The five coefficients are fixed by six linear analyticity conditions
(Laurent coefficients on circles around 0 and -2 computed by discrete
Fourier transform); the system is overdetermined by one, and the
least-squares defect is kept as a consistency diagnostic.

``phi_c`` is never formed as the difference ``phi - tau``, which loses all
digits for large ``|lam|``.  ``phi`` holds eight digammas and four trigammas
of ``1 +- lam/3`` and ``4/3 +- lam/3``; by ``psi(1 + a) = psi(a) + 1/a`` and
the reflection ``psi(1 - a) = psi(a) + pi cot(pi a)`` (DLMF 5.5) they need
only the three arguments ``a = lam/3``, ``b = (lam - 1)/3`` and
``c = (lam + 4)/3``, plus cotangents.  The cotangents make up exactly
``tau`` and its derivative ``tau'``: two-site's ``sigma`` is
``sigma_d - tau/12`` and ``sigma'`` is ``sigma_d' - tau'/12``, where
``sigma_d = [2 psi(a) + 3/lam - psi(b) - psi(c)]/3 - 1/(lam^2 - 1)`` decays
to the right.  ``-12 sigma`` contributes ``tau`` to ``phi``, and dropping it
leaves ``phi_c``.  One ``digamma_trigamma_array`` call gives ``psi`` and
``psi'`` at the three arguments; ``tau`` and ``tau'`` are 3-periodic, so the
comb computes them once per point, not once per term.

The comb is a head of ``J = comb_terms`` terms, evaluated in one broadcast,
plus its tail beyond ``J`` in closed form.  Write
``phi_c = A + tau B + tau' C`` with the rational ``B(l) = l/(3(l^2-1)^2)``
and ``C(l) = 1/(6(l^2-1))``; ``A`` is ``phi_c`` with ``tau = tau' = 0``, a
pure power series ``sum_k a_k l^-k``, which is ``_PHI_SERIES`` (``tau`` and
``tau'`` vanish up the imaginary axis, where that series was expanded).
``tau`` and ``tau'`` are 3-periodic, so with ``x = z/3 + J + 1``

    sum_{j>J} B(z+3j) = [psi'(x - 1/3) - psi'(x + 1/3)] / 108,
    sum_{j>J} C(z+3j) = [psi(x + 1/3) - psi(x - 1/3)] / 36,
    sum_{j>J} A(z+3j) = sum_k a_k 3^-k zeta(k, x)        (DLMF 25.11),

the last truncated at ``k = 16``; its last term, largest over the sample
points, is reported as ``tail_bound`` (3e-17 at ``J = 12``).
``comb_terms`` (default 12), a keyword of ``G1Solver`` and
``three_site_correlator``, is the handle of the tests that prove the tail
converged; every result runs the default.  The Laurent circles, the step
and offset of the convolution transform below and the Cauchy circle of the
density solve are module constants.

The samples of ``K`` are formed in ``np.clongdouble`` and rounded to
complex128 once.  On the Laurent circles around 0 and -2, ``phi_c`` and
``(lam/3) tau`` are large and cancel (and the first comb term around -2 sits
next to the pole at 1), so in float64 the samples carry rounding errors up
to 1e-13, which the fit passes on to ``F2``; in long double they stay below
float64 rounding.  The tail is small and smooth and stays in float64.  On a
platform whose long double is float64 the same code runs in float64.
``G1`` is linear in the comb, so one ``G1`` serves both the correlator and
the density operator below.

Physical outputs:  ``<P12 P23> = c2 / 2`` where ``c2`` is the ``lam^2``
Taylor coefficient of ``G1`` at 0, and the boundary values ``F1 = 4 c2``,
``F2 = 4 G1(1)``, ``F3 = G1(2)`` feed the three-site density operator.

An independent construction of the same solution is the convolution
transform ``solve_g``: the decoupled components ``g_l`` are obtained by
integrating ``phi`` against the closed-form kernels ``h_l`` along a vertical
line half a unit to the left of the evaluation point (the kernels pair a
shift by +1 with multiplication by ``w^l e^k`` only under this rotated
contour; on horizontal lines the integral does not even converge because
``phi`` keeps an O(1) oscillating part there).  The trapezoid nodes are
uniform in a sum of two ``asinh`` coordinates: dense near the real axis,
where ``phi`` has its poles, and near the evaluation point, where the
kernels have theirs, and sparse far up and down the line.  The kernels decay exponentially
away from the evaluation point (``h_0`` only downwards), so the rule visits
only the nodes where the kernel is above rounding.  ``h_0`` tends to a
constant upwards; there the ``l = 0`` integral stops at ``nu = 50`` and the
rest is summed exactly from the asymptotic series of ``phi`` in ``1/mu``,
whose coefficients follow from the Bernoulli polynomials.
The transform fixes the additive constant of the ``l = 0`` zero mode
differently from the normalization ``G1 -> 2`` at imaginary infinity; the
constant offset between the two constructions is itself a strong
cross-check that no genuinely periodic ambiguity is left.

The density operator at the homogeneous point is assembled from the
eleven functional equations for its singlet amplitudes.  It is only ever
needed on the diagonal of spectral parameters, where two pairs of the
eleven coincide, so the solver writes down the nine distinct diagonal
equations.  A single point gives rank 9 in the eleven amplitudes; the
solver couples three consecutive diagonal points ``lam, lam+1, lam+2``
through the difference-equation matrix ``A3`` into a 49 x 33 full-rank
least-squares problem.  The amplitudes are analytic at ``lam = 0``, so
their value there is recovered as the mean over a small circle (the Cauchy
integral), which converges geometrically in the number of circle points;
the systems of all circle points are solved as one stack.  Trace one,
Hermiticity, positivity and the partial-trace collapse onto the two-site
operator are all *emergent* here - none of them is imposed - and serve as
end-to-end validation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

import numpy as np

from .basis import a3_closed_form, gram_inverse, reduce_to_physical
from .specfun import (
    BERNOULLI_EVEN,
    _complex,
    _like,
    digamma_trigamma_array,
    hurwitz_zeta_array,
    real_pi,
)
from .twosite import (
    OMEGA33_HOMOGENEOUS,
    digamma_parts,
    omega33,
    omega33_homogeneous,
    omega_bar33,
)


def _cot(z):
    return 1 / np.tan(z)


# ---------------------------------------------------------------------------
# inhomogeneities and their decompositions
# ---------------------------------------------------------------------------

def phi(lam):
    """Inhomogeneity of the step-3 recursion for G1 (poles at 0, +-1)."""
    l = _complex(lam)
    part, part_prime = digamma_parts(l)
    s = part - 1 / (l**2 - 1)
    sp = part_prime + 2 * l / (l**2 - 1) ** 2
    om = (l**2 - 1) * s
    omp = 2 * l * s + (l**2 - 1) * sp
    out = (
        -12 / (l**2 - 1) * om
        - 2 / (l**2 - 1) ** 2 * omp
        + 4 * l / (l**2 - 1) ** 2 * OMEGA33_HOMOGENEOUS
        + 2 * (4 * l**4 + 6 * l**3 - l**2 - 6 * l - 1) / (l**2 * (l**2 - 1) ** 2)
    )
    return _like(lam, out)


def _tau_and_slope(l):
    """tau and tau' = (4 pi^2/3) [cot^2(pi l/3) - cot^2(pi(l-1)/3)], both 3-periodic.

    Evaluated in the precision of ``l``, with pi rounded to it.
    """
    pi = real_pi(l.real.dtype)
    ca = _cot(pi * l / 3)
    cb = _cot(pi * (l - 1) / 3)
    return -4 * pi * (ca - cb), 4 * pi**2 / 3 * (ca**2 - cb**2)


def phi_c(lam, *, periodic=None):
    """phi - tau in analytically cancelled form (no large-argument blowup).

    The shift and reflection identities put all of phi's digamma and
    trigamma terms at the three arguments ``lam/3``, ``(lam-1)/3`` and
    ``(lam+4)/3``, evaluated in one ``digamma_trigamma_array`` call; the
    reflections leave ``tau`` and ``tau'``.  ``periodic`` passes
    ``(tau(lam), tau'(lam))`` when the caller has them already, as the comb
    does: both are 3-periodic, so ``lam - 3j`` gives the same values.
    The arithmetic, pi and ``OMEGA33_HOMOGENEOUS`` follow the precision of
    ``lam``: long double for ``np.clongdouble`` input, else complex128.
    """
    l = _complex(lam)
    psi, psi1 = digamma_trigamma_array(np.stack((l / 3, (l - 1) / 3, (l + 4) / 3)))
    t, tp = _tau_and_slope(l) if periodic is None else periodic
    # sigma = s_d - tau/12 and sigma' = s_d' - tau'/12, with the parts s_d,
    # s_d' that decay to the right
    s_d = (2 * psi[0] + 3 / l - psi[1] - psi[2]) / 3 - 1 / (l**2 - 1)
    sp_d = (2 * psi1[0] - psi1[1] - psi1[2]) / 9 - 1 / l**2 + 2 * l / (l**2 - 1) ** 2
    s = s_d - t / 12
    sp = sp_d - tp / 12
    out = (
        -12 * s_d
        - 4 * l * s / (l**2 - 1) ** 2
        - 2 * sp / (l**2 - 1)
        + 4 * l * omega33_homogeneous(l.real.dtype) / (l**2 - 1) ** 2
        + 2 * (4 * l**4 + 6 * l**3 - l**2 - 6 * l - 1) / (l**2 * (l**2 - 1) ** 2)
    )
    return _like(lam, out)


def _kernel_rate(l: int) -> float:
    """``a`` in ``h_l(z) = -2 pi i e^(a z) / (e^(2 pi z) - 1)``."""
    return {0: 0.0, 1: 2 * np.pi / 3, -1: 4 * np.pi / 3}[(l + 1) % 3 - 1]


def h_kernel(l: int, z):
    """Closed form of the transform kernels h_l for l in {-1, 0, 1}.

    h_0(z)  = -2 pi i / (e^(2 pi z) - 1)
    h_1(z)  = -2 pi i e^(2 pi z/3) / (e^(2 pi z) - 1)
    h_-1(z) = -2 pi i e^(4 pi z/3) / (e^(2 pi z) - 1)

    Evaluated in two overflow-free branches: for Re z > 0 both numerator and
    denominator are rescaled by e^(-2 pi z); for Re z <= 0 the denominator
    uses expm1 so small |z| keeps full relative accuracy.
    """
    a = _kernel_rate(l)
    x = _complex(z)
    out = np.empty_like(x)
    pos = x.real > 0
    xp = x[pos]
    out[pos] = np.exp((a - 2 * np.pi) * xp) / (1 - np.exp(-2 * np.pi * xp))
    xn = x[~pos]
    out[~pos] = np.exp(a * xn) / np.expm1(2 * np.pi * xn)
    out *= -2j * np.pi
    return _like(z, out)


# ---------------------------------------------------------------------------
# numerical parameters and the convolution transform
# ---------------------------------------------------------------------------

#: solve_g: trapezoid step in its asinh coordinate u along the vertical
#: contour, which runs _CONV_OFFSET to the left of the evaluation point
_CONV_STEP = 0.004
_CONV_OFFSET = 0.5


def _phi_series() -> np.ndarray:
    """Coefficients ``a_0..a_16`` of ``phi(mu) ~ sum_k a_k mu^-k`` off the real axis.

    With ``psi(z + a) ~ ln z + sum_n (-1)^(n+1) B_n(a) / (n z^n)`` the
    logarithms of ``psi(1 +- mu/3) - psi(4/3 +- mu/3)`` cancel and so do the
    odd orders, leaving the digamma part of sigma as
    ``-(2/3) sum_{even n} 3^n (B_n(1) - B_n(4/3)) / (n mu^n)``.  The rest of
    ``phi`` is rational in ``mu``; everything is expanded in ``x = 1/mu`` in
    exact fractions, the ``OMEGA33_HOMOGENEOUS`` term apart.  The order, 16,
    is that of the last Bernoulli number specfun holds.
    """
    order = 2 * len(BERNOULLI_EVEN)
    n = order + 1

    def mul(p, q):
        return [sum(p[i] * q[k - i] for i in range(k + 1)) for k in range(n)]

    def shift(p, m):
        return ([0] * m + list(p) + [0] * n)[:n]

    def lin(*terms):
        return [sum(c * p[k] for c, p in terms) for k in range(n)]

    bern = [Fraction(1), Fraction(-1, 2)] + [0] * (order - 1)
    bern[2::2] = BERNOULLI_EVEN

    def bernoulli_poly(m, t):
        return sum(comb(m, j) * bern[j] * t ** (m - j) for j in range(m + 1))

    digamma_part = [0] * n
    digamma_prime = [0] * (n + 1)
    for m in range(2, n, 2):
        c = -Fraction(2, 3) * 3**m * (bern[m] - bernoulli_poly(m, Fraction(4, 3))) / m
        digamma_part[m] = c
        digamma_prime[m + 1] = -m * c
    geo = [1 - k % 2 for k in range(n)]  # 1 / (1 - x^2)
    geo2 = mul(geo, geo)
    inv = shift(geo, 2)  # 1 / (mu^2 - 1)
    mu_inv2 = shift(geo2, 3)  # mu / (mu^2 - 1)^2
    s = lin((1, digamma_part), (-1, inv))
    sp = lin((1, digamma_prime), (2, mu_inv2))
    rational = lin(
        (-12, s),
        (-4, mul(mu_inv2, s)),
        (-2, mul(inv, sp)),
        (2, mul(shift((4, 6, -1, -6, -1), 2), geo2)),
    )
    return np.array(rational, dtype=float) + 4 * OMEGA33_HOMOGENEOUS * np.array(
        mu_inv2, dtype=float
    )


#: phi's asymptotic series through mu^-16; a_16 50^-16 = 1.5e-19 at |mu| = 50
_PHI_SERIES = _phi_series()

#: solve_g skips the nodes where |h_l| has decayed below e^(-_KERNEL_CUTOFF)
#: of its peak.  e^-50 = 2e-22: even summed over the whole window, the
#: skipped terms stay below 1e-16 |phi|, under rounding
_KERNEL_CUTOFF = 50.0

#: the l = 0 contour switches to phi's asymptotic series at nu = 50
_TAIL_START = 50.0


def _series_tail(m: complex):
    """``phi(m)``, ``phi'(m)`` and ``int_m^(m + i inf) phi`` from ``_PHI_SERIES``."""
    k = np.arange(2, len(_PHI_SERIES))
    a = _PHI_SERIES[2:]
    value = np.sum(a * m ** (-k))
    slope = np.sum(-k * a * m ** (-k - 1.0))
    integral = np.sum(a * m ** (1.0 - k) / (k - 1))
    return complex(value), complex(slope), complex(integral)


def solve_g(l: int, lam: complex) -> complex:
    """Decoupled component g_l by convolution of phi with the kernel h_l.

    Evaluates ``g_l(lam) = (1/2 pi) int h_l(-i(lam - mu)) phi(mu) d nu`` over
    the vertical line ``mu = c + i nu`` with ``c = Re(lam) - _CONV_OFFSET``.
    Under the rotated argument the kernel turns a shift of ``lam`` by +1 into
    multiplication by ``w^l`` (w = e^(2 pi i/3)), so the result satisfies

        g_l(lam) - w^l g_l(lam + 1) = phi(lam)

    wherever no pole of ``phi`` (the real points 0, +-1, 3, 4, ...) lies
    between the two contours - e.g. throughout ``Re lam in (1.5, 2.5)``.

    The trapezoid nodes are uniform in ``u = (asinh(nu) + asinh(nu - s))/2``
    with ``s = Im lam``, ``_CONV_STEP`` apart, with weight ``dnu/du``; the map
    inverts in closed form, ``nu = sinh(u + asinh(s / (2 cosh u)))``, and is
    ``nu = sinh u`` for real ``lam``.  The integrand's singularities sit
    near two points of the line: the poles of ``phi`` on the imaginary
    ``nu`` axis, at distance ``|p - c|`` for each real pole ``p``, and those
    of the kernel at ``nu = s - i(k + 1/2)``.  The map keeps a node spacing
    of at most ``2 _CONV_STEP`` next to both and widens it as ``|nu|`` and
    ``|nu - s|`` grow, so the rule converges geometrically with few nodes
    for any ``Im lam``.

    Only the kernel window is integrated: with ``t = s - nu`` the kernel
    falls as ``e^(-(2 pi - a) t)`` below ``s`` and as ``e^(a t)`` above it
    (``a`` as in ``h_kernel``), and the window ends where that decay reaches
    ``e^(-_KERNEL_CUTOFF)``.  For ``l = 0`` the kernel tends to ``2 pi i`` up
    the contour instead, so the window stops at ``nu = _TAIL_START`` (or
    where the kernel is that constant to rounding, if higher) and the rest,
    ``i int phi d nu``, is summed exactly from ``phi``'s asymptotic series,
    together with the trapezoid rule's Euler-Maclaurin term at that end,
    ``-(_CONV_STEP^2 / 12) dF/du`` for the integrand ``F`` in ``u``.

    The transform normalizes the ``l = 0`` zero mode by decay at infinity
    rather than by ``G1 -> 2``, so ``(g_0 + g_1 + g_-1)/3`` differs from the
    comb-constructed ``G1`` by the constant -2 (a useful cross-check).
    """
    lam = complex(lam)
    c = lam.real - _CONV_OFFSET
    step = _CONV_STEP
    s = lam.imag
    a = _kernel_rate(l)
    lo = s - _KERNEL_CUTOFF / (2 * np.pi - a)
    if a > 0:
        hi = s + _KERNEL_CUTOFF / a
    else:
        hi = max(_TAIL_START, s + _KERNEL_CUTOFF / (2 * np.pi))
    top, bottom = ((np.arcsinh(x) + np.arcsinh(x - s)) / 2 for x in (hi, lo))
    u = top - step * np.arange(int(np.ceil((top - bottom) / step)) + 1)
    nu = np.sinh(u + np.arcsinh(s / (2 * np.cosh(u))))
    dudnu = (1 / np.hypot(1, nu) + 1 / np.hypot(1, nu - s)) / 2
    mu = c + 1j * nu
    f = h_kernel(l, -1j * (lam - mu)) * phi(mu) / dudnu / (2 * np.pi)
    out = step * (f.sum() - (f[0] + f[-1]) / 2)
    if a == 0:
        # above the top node F(u) = i phi(mu) dnu/du to rounding
        m, dnu = nu[0], 1 / dudnu[0]
        d2nu = (m / np.hypot(1, m) ** 3 + (m - s) / np.hypot(1, m - s) ** 3) / 2 * dnu**3
        value, slope, integral = _series_tail(mu[0])
        dfdu = 1j * (1j * dnu**2 * slope + d2nu * value)
        out += integral - step**2 / 12 * dfdu
    return complex(out)


def solve_g_recursion_residual(l: int, lam: complex) -> float:
    """|g_l(lam) - w^l g_l(lam+1) - phi(lam)| with g_l from the convolution."""
    w = np.exp(2j * np.pi / 3)
    g0 = solve_g(l, lam)
    g1 = solve_g(l, complex(lam) + 1)
    return float(abs(g0 - w**l * g1 - phi(complex(lam))))


# ---------------------------------------------------------------------------
# comb construction of G1
# ---------------------------------------------------------------------------

#: head length J of the comb; the tail beyond it is summed in closed form
_COMB_TERMS = 12
#: Laurent orders kept on the circles around the fit centers
_KS = np.arange(-4, 7)
_CENTERS = (0.0, -2.0)
#: points and radius of those circles
_LAURENT_POINTS = 256
_LAURENT_RADIUS = 0.45
#: analyticity of G1 as vanishing Laurent coefficients: orders -3..1 at 0
#: (the double zero) and -3..-1 at -2 (regularity)
_VANISHING = np.array([(_KS >= -3) & (_KS <= 1), (_KS >= -3) & (_KS <= -1)])


def _cot_basis(z):
    """1, cot and cot^2 around the 0- and 1-chains of poles (period 3), stacked
    along a new first axis."""
    ca, cb = _cot(np.pi * z / 3), _cot(np.pi * (z - 1) / 3)
    return np.stack((np.ones_like(z), ca, cb, ca**2, cb**2))


def _series_term(k: int, x):
    """``a_k 3^-k zeta(k, x)``: with ``x = z/3 + J + 1``, term k of the
    series of ``sum_{j>J} A(z + 3j)``."""
    return _PHI_SERIES[k] / 3.0**k * hurwitz_zeta_array(k, x)


def _comb_tail(z, t, tp, terms: int):
    """``sum_{j > terms} phi_c(z + 3j)`` in complex128, from the closed forms.

    ``t`` and ``tp`` are ``tau(z)`` and ``tau'(z)``; see the module docstring.
    """
    z, t, tp = (np.asarray(v, dtype=complex) for v in (z, t, tp))
    x = z / 3 + (terms + 1)
    psi, psi1 = digamma_trigamma_array(np.stack((x - 1 / 3, x + 1 / 3)))
    series = sum(_series_term(k, x) for k in range(2, len(_PHI_SERIES)))
    return series + t * (psi1[0] - psi1[1]) / 108 + tp * (psi[1] - psi[0]) / 36


class G1Solver:
    """G1 from the one-sided comb plus its fitted 3-periodic correction.

    ``k_function`` is sampled on the Laurent circles around 0 and -2, and
    the cotangent coefficients ``periodic_coefficients`` are fitted to cancel
    its forbidden Laurent data; ``consistency_residual`` is the defect of
    that fit.  ``tail_bound`` is the largest magnitude, over the samples, of
    the last term kept in the series of the comb's tail.

    ``comb_terms`` is the head length ``J``.  Every result uses the default;
    the tests vary it to show that the head plus the closed-form tail has
    converged (``J`` = 1..6, ``J`` doubled, and 4, 8, 16).
    """

    def __init__(self, *, comb_terms: int = _COMB_TERMS):
        if comb_terms < 1:
            raise ValueError(f"comb_terms must be >= 1, got {comb_terms}")
        self.comb_terms = comb_terms
        n, r = _LAURENT_POINTS, _LAURENT_RADIUS
        th = 2 * np.pi * np.arange(n) / n
        self._circle = r * np.exp(1j * th)
        z = np.array(_CENTERS)[:, None] + self._circle
        dft = np.exp(-1j * np.outer(th, _KS)) / (n * r**_KS)
        # Laurent coefficients (center, k) of the particular solution
        self._k_coef = self.k_function(z) @ dft
        self._b_coef = _cot_basis(z) @ dft
        # least-squares cotangent coefficients cancelling the forbidden data
        mat = self._b_coef[:, _VANISHING].T
        rhs = -self._k_coef[_VANISHING]
        x, *_ = np.linalg.lstsq(mat, rhs, rcond=None)
        self.periodic_coefficients = x
        self.consistency_residual = float(np.abs(mat @ x - rhs).max())
        tail_x = z / 3 + (comb_terms + 1)
        last = len(_PHI_SERIES) - 1
        self.tail_bound = float(np.abs(_series_term(last, tail_x)).max())

    def taylor_coefficient(self, k: int) -> complex:
        """Laurent/Taylor coefficient of G1 around 0 (k in -4..6)."""
        if not _KS[0] <= k <= _KS[-1]:
            raise ValueError(f"k must be in {_KS[0]}..{_KS[-1]}, got {k}")
        i = k - _KS[0]
        x = self.periodic_coefficients
        return complex(self._k_coef[0, i] + self._b_coef[:, 0, i] @ x)

    def _comb(self, z, start: int):
        """``sum_{j>=start} phi_c(z + 3j)`` and ``tau(z)`` at long-double ``z``.

        The terms ``j = start..J`` are one broadcast in long double; the tail
        beyond ``J`` is added in complex128.
        """
        terms = self.comb_terms
        t, tp = _tau_and_slope(z)
        j3 = 3 * np.arange(start, terms + 1)
        head = phi_c(z[..., None] + j3, periodic=(t[..., None], tp[..., None]))
        return head.sum(axis=-1) + _comb_tail(z, t, tp, terms), t

    def k_function(self, z):
        """Particular solution of the step-3 recursion, ``sum_{j>=0} phi_c(z + 3j)
        - (z/3) tau(z)``, formed in long double and rounded to complex128 once.
        """
        z = _complex(z).astype(np.clongdouble)
        comb, t = self._comb(z, 0)
        return (comb - z / 3 * t).astype(complex)

    def value(self, z):
        """G1 at arbitrary points (vectorized)."""
        basis = _cot_basis(_complex(z))
        periodic = sum(c * b for c, b in zip(self.periodic_coefficients, basis))
        return _like(z, self.k_function(z) + periodic)

    def circle_average(self, center: complex) -> complex:
        """Value at a removable point as the mean over the Laurent circle around it."""
        return complex(self.value(center + self._circle).mean())


# ---------------------------------------------------------------------------
# correlators
# ---------------------------------------------------------------------------

@dataclass
class ThreeSiteSolution:
    p12p23: float
    f1: float
    f2: float
    f3: float
    diagnostics: dict = field(default_factory=dict)


def three_site_correlator(*, comb_terms: int = _COMB_TERMS) -> ThreeSiteSolution:
    """<P12 P23> and the boundary values F1, F2, F3 from the comb-built G1.

    Diagnostics: the head length of the comb, the fit defects (one list
    entry, the periodic fit's), ``|Im c2|`` and the comb's ``tail_bound``.
    ``comb_terms`` is passed to ``G1Solver``; the CLI runs the default, and
    acceptance criterion 2 compares the results at 12 and 24.
    """
    solver = G1Solver(comb_terms=comb_terms)
    c2 = solver.taylor_coefficient(2)
    diag = {
        "comb_terms": solver.comb_terms,
        "lstsq_residuals": [solver.consistency_residual],
        "c2_imag": float(abs(c2.imag)),
        "tail_bound": solver.tail_bound,
    }
    return ThreeSiteSolution(
        p12p23=float(c2.real) / 2,
        f1=float((4 * c2).real),
        f2=float((4 * solver.circle_average(1.0)).real),
        f3=float(solver.value(2.0).real),
        diagnostics=diag,
    )


# ---------------------------------------------------------------------------
# density operators
# ---------------------------------------------------------------------------

def density_matrix_two_site(lam: complex = 0.0) -> np.ndarray:
    """Two-site reduced density operator D2(lam, 0) as a 9 x 9 matrix.

    Built from the two-site singlet amplitudes
    ``(1, omega33(lam), omega_bar33(lam - 1))``.
    """
    f = np.array([1.0, omega33(lam), omega_bar33(lam - 1)], dtype=complex)
    rho = gram_inverse(2) @ f
    d2 = reduce_to_physical(2, rho)
    return d2.real if abs(complex(lam).imag) < 1e-14 else d2


def _diagonal_equations(x, g):
    """The nine distinct equations for the singlet amplitudes f at diagonal points.

    The eleven printed equations in two spectral parameters ``(x, y)``,
    taken at ``y = x``: there the two pairs (5, 3) and (6, 4) coincide, so
    only rows 0-4 and 7-10 are kept, in that order.  ``x`` has any shape and
    ``g`` holds ``G1(x + (0, 1, 2))`` along one more, last axis; it gives the
    boundary values F1, F2, F3 of rows 8-10.  Returns the coefficients,
    shape ``x.shape + (9, 11)``, and the right sides, ``x.shape + (9,)``,
    with each two-site function evaluated once over all of ``x``.
    """
    x = np.asarray(x, dtype=complex)
    A = np.zeros(x.shape + (9, 11), dtype=complex)
    A[..., 0, 0] = 1
    A[..., 1, 1] = 1
    A[..., 2, 6] = 1
    A[..., 3, 2] = 1
    A[..., 3, 5] = x
    A[..., 3, 4] = -x
    A[..., 3, 3] = -(x**2)
    A[..., 4, 6] = 1
    A[..., 4, 9] = -(x + 2)
    A[..., 4, 10] = x - 1
    A[..., 4, 8] = -(x - 1) * (x + 2)
    # the printed rows 7-10
    A[..., 5, 2] = 1
    A[..., 6, 0] = 2 * x * (2 + x) * x * (2 + x)
    A[..., 6, 1] = 2 * x * (2 + x) * (2 + x)
    A[..., 6, 3] = 2 * (2 + x) * x * (2 + x)
    A[..., 6, 4] = 2 * (2 + x) * (2 + x)
    A[..., 7, 0] = 2 * (-2 - x - x * (2 + x) + x * (2 + x) * x * (2 + x))
    A[..., 7, 1] = -2 * (-1 + x + x**2) * (2 + x)
    A[..., 7, 2] = 2 * (1 + x) * (2 + x)
    A[..., 7, 3] = 2 * (1 + x + (2 + x) * x - (2 + x) * x * (2 + x))
    A[..., 7, 4] = -2 * (1 + x + 2 * x + x * x)
    A[..., 7, 5] = 2 * (2 + x)
    A[..., 7, 6] = -2 * (-2 - x + x * x + x**2 * (1 + x))
    A[..., 7, 7] = 2
    A[..., 7, 8] = -2 * (1 + x) * (-2 + x + x**2)
    A[..., 7, 9] = -2 * (1 + x) * (2 + x)
    A[..., 7, 10] = -2 * x
    A[..., 8, 0] = 2 * (x**2 - 1) * (x**2 - 1)
    A[..., 8, 6] = 2 * (x**2 - 1) * (1 + x)
    A[..., 8, 8] = 2 * (1 + x) * (x**2 - 1)
    A[..., 8, 9] = 2 * (1 + x) * (1 + x)
    # right sides: the two-site data of rows 0-5, then F1, F2, F3
    w, wb = omega33(x), omega_bar33(x - 1)
    one = np.ones_like(x)
    pref = (x**2 - 1) ** 2 * (x + 2) ** 2
    f1 = g[..., 0] * pref / x**2
    f2 = g[..., 1] * pref / (x + 1) ** 2
    f3 = g[..., 2] * (x**2 - 1) ** 2
    b = (one, w, wb, w * (1 - x**2), wb * (1 - x) * (2 + x), OMEGA33_HOMOGENEOUS * one)
    return A, np.stack(b + (f1, f2, f3), axis=-1)


#: Cauchy circle around 0 averaging the homogeneous density amplitudes
_CIRCLE_POINTS = 16
_CIRCLE_RADIUS = 0.35


def three_site_density_coefficients(solver: G1Solver):
    """Singlet amplitudes rho of the homogeneous three-site density operator.

    At one diagonal point the nine distinct equations have rank 9 in the
    eleven amplitudes, so the points ``lam, lam + 1, lam + 2`` are coupled,
    neighbours linked by ``f(lam) = M A3(lam, lam) M^(-1) f(lam+1)``, into a
    full-rank 49 x 33 least-squares problem: 27 equation rows, 22 link rows.
    The rows differ in norm by two orders of magnitude, so each row and its
    right side are divided by the row's 2-norm before the solve (Higham,
    *Accuracy and Stability of Numerical Algorithms*, ch. 20); the residual
    is measured on the unscaled system.

    The solve degenerates at ``lam = 0`` (the F-weights have poles there),
    but the amplitudes are analytic, so their value at 0 is the mean of the
    solutions over a small circle - the Cauchy integral, converging
    geometrically in the number of circle points.  All circle points are
    solved as one stack through the SVD-based pseudo-inverse, with ``G1``
    and each two-site function evaluated in one call.  Returns
    ``(rho, diagnostics)`` with the discarded imaginary part and the worst
    least-squares defect as quality measures.
    """
    n, radius = _CIRCLE_POINTS, _CIRCLE_RADIUS
    angles = 2 * np.pi * (np.arange(n) + 0.5) / n
    lams = radius * np.exp(1j * angles)
    g = solver.value(lams[:, None] + np.arange(5))
    # the three coupled points of each chain, with G1 at each one's x + (0, 1, 2)
    x = lams[:, None] + np.arange(3)
    g_windows = np.lib.stride_tricks.sliding_window_view(g, 3, axis=1)
    eqs, eq_rhs = _diagonal_equations(x, g_windows)
    a3 = np.array([[a3_closed_form(xk, xk) for xk in xs] for xs in x[:, :2]])
    m_inv = gram_inverse(3)
    mat = np.zeros((n, 49, 33), dtype=complex)
    rhs = np.zeros((n, 49, 1), dtype=complex)
    for k in range(3):
        mat[:, 9 * k : 9 * k + 9, 11 * k : 11 * k + 11] = eqs[:, k]
        rhs[:, 9 * k : 9 * k + 9, 0] = eq_rhs[:, k]
    for k in range(2):
        row = 27 + 11 * k
        mat[:, row : row + 11, 11 * k : 11 * k + 11] = m_inv
        mat[:, row : row + 11, 11 * (k + 1) : 11 * (k + 1) + 11] = -a3[:, k] @ m_inv
    norms = np.linalg.norm(mat, axis=-1, keepdims=True)
    sol = np.linalg.pinv(mat / norms) @ (rhs / norms)
    residuals = np.linalg.norm(mat @ sol - rhs, axis=(1, 2))
    rho0 = (m_inv @ sol[:, :11]).mean(axis=0)[:, 0]
    diagnostics = {
        "max_imag": float(np.abs(rho0.imag).max()),
        "max_lstsq_residual": float(residuals.max()),
        "circle_points": n,
        "circle_radius": radius,
    }
    return rho0.real, diagnostics


def density_matrix_three_site(solver: G1Solver | None = None) -> np.ndarray:
    """Homogeneous three-site reduced density operator (27 x 27)."""
    solver = solver or G1Solver()
    rho, _ = three_site_density_coefficients(solver)
    return reduce_to_physical(3, rho).real


def partial_trace_last_site(d3: np.ndarray) -> np.ndarray:
    """Trace out the third site of a 27 x 27 operator, giving 9 x 9."""
    t = d3.reshape(3, 3, 3, 3, 3, 3)
    return np.einsum("abkcdk->abcd", t).reshape(9, 9)


def partial_trace_first_site(d3: np.ndarray) -> np.ndarray:
    """Trace out the first site of a 27 x 27 operator, giving 9 x 9."""
    t = d3.reshape(3, 3, 3, 3, 3, 3)
    return np.einsum("kabkcd->abcd", t).reshape(9, 9)
