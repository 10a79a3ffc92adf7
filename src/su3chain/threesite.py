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
leaves ``phi_c``.  In the comb, term ``j`` needs ``psi`` and ``psi'`` at
``a + j``, ``b + j`` and ``c + j``: three integer ladders.  One
``digamma_trigamma_array`` call gives both at the ladders' far ends
``a + J + 1`` etc. (at ``J = 12`` they exceed 11 at every point a result
samples, so the kernel neither shifts nor reflects there), and the recurrence
``psi(x) = psi(x + 1) - 1/x``, ``psi'(x) = psi'(x + 1) + 1/x^2`` (DLMF
5.5.2) walks down each ladder as a reverse cumulative sum.  ``tau`` and
``tau'`` are 3-periodic, so the comb computes them once per point, not once
per term.

The comb is a head of ``J = _COMB_TERMS`` terms plus its tail beyond ``J``
in closed form, evaluated in blocks of ``_COMB_BLOCK`` points, so its
working set does not grow with the number of points (the tracemalloc peak
of ``three_site_correlator()`` is about 1 MiB, and of ``G1Solver.value`` on
4000 points 1.4 MiB).  Write
``phi_c = A + tau B + tau' C`` with the rational ``B(l) = l/(3(l^2-1)^2)``
and ``C(l) = 1/(6(l^2-1))``; ``A`` is ``phi_c`` with ``tau = tau' = 0``, a
pure power series ``sum_k a_k l^-k``, which is ``_PHI_SERIES`` (``tau`` and
``tau'`` vanish up the imaginary axis, where that series was expanded).
``tau`` and ``tau'`` are 3-periodic, so with ``x = z/3 + J + 1``

    sum_{j>J} B(z+3j) = [psi'(x - 1/3) - psi'(x + 1/3)] / 108,
    sum_{j>J} C(z+3j) = [psi(x + 1/3) - psi(x - 1/3)] / 36,
    sum_{j>J} A(z+3j) = sum_k a_k 3^-k zeta(k, x)        (DLMF 25.11),

the last truncated at ``k = 16`` and its fifteen zetas taken from one
kernel pass; its last term, from that pass and largest over the Laurent
samples, is reported as ``tail_bound`` (3e-17 at ``J = 12``).
``J``, the Laurent circles, the step and offset of the convolution
transform below and the Cauchy circle of the density solve are module
constants; the tests that prove the tail converged patch ``_COMB_TERMS``.

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
``G1(1)`` is a removable point, so ``F2`` is four times the mean of ``G1``
over the Laurent circle around 1, sampled in the same call as ``G1(2)``.

An independent construction of the same solution is the convolution
transform ``solve_g``: the decoupled components ``g_l`` are obtained by
integrating ``phi`` against the closed-form kernels ``h_l`` along a vertical
line half a unit to the left of the evaluation point (the kernels pair a
shift by +1 with multiplication by ``w^l e^k`` only under this rotated
contour; on horizontal lines the integral does not even converge because
``phi`` keeps an O(1) oscillating part there).  The trapezoid nodes lie
on one lattice, uniform in a sum of two ``asinh`` coordinates: dense near
the real axis, where ``phi`` has its poles, and near the evaluation point,
where the kernels have theirs, and sparse far up and down the line.  The
kernels decay exponentially away from the evaluation point (``h_0`` only
downwards), so each kernel sums only its window of nodes where it is above
rounding; the windows of ``l = 0, +-1`` are slices of one line, and ``phi``
is evaluated on that line once for all three.  ``h_0`` tends to a constant
upwards; there the ``l = 0`` integral stops at ``nu = 50`` and the rest is
summed exactly from the asymptotic series of ``phi`` in ``1/mu`` (its
coefficients follow from the Bernoulli polynomials), together with the
trapezoid rule's end terms through the fourth power of the step.
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

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .specfun import (
    PoleError,
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
    """Inhomogeneity of the step-3 recursion for G1 (poles at 0, +-1, +-3, +-4, ...).

    Where ``|Im lam| >= _SERIES_HEIGHT`` it is summed from its asymptotic
    series ``_PHI_SERIES`` instead: there the closed form's four digammas,
    each near ``log |lam|``, cancel to ``phi ~ 4/lam^2`` and leave about 5e-15
    of rounding, while the series' first omitted term is about 1e-15.
    """
    l = _complex(lam)
    out = np.empty_like(l)
    far = np.abs(l.imag) >= _SERIES_HEIGHT
    if far.any():
        out[far] = np.polyval(_PHI_SERIES[::-1], 1 / l[far])
    l = l[~far]
    part, part_prime = digamma_parts(l)
    s = part - 1 / (l**2 - 1)
    sp = part_prime + 2 * l / (l**2 - 1) ** 2
    om = (l**2 - 1) * s
    omp = 2 * l * s + (l**2 - 1) * sp
    out[~far] = (
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


def phi_c(lam, *, periodic=None, polygamma=None):
    """phi - tau in analytically cancelled form (no large-argument blowup).

    The shift and reflection identities put all of phi's digamma and
    trigamma terms at the three arguments ``lam/3``, ``(lam-1)/3`` and
    ``(lam+4)/3``, evaluated in one ``digamma_trigamma_array`` call; the
    reflections leave ``tau`` and ``tau'``.  Two keywords pass values the
    caller has already, as the comb does.  ``periodic`` passes
    ``(tau(lam), tau'(lam))``: both are 3-periodic, so ``lam - 3j`` gives
    the same values.  ``polygamma`` passes ``(psi, psi')`` at the three
    arguments, stacked along a new first axis, which the comb takes from its
    ladders.
    The arithmetic, pi and ``OMEGA33_HOMOGENEOUS`` follow the precision of
    ``lam``: long double for ``np.clongdouble`` input, else complex128.
    """
    l = _complex(lam)
    if polygamma is None:
        polygamma = digamma_trigamma_array(np.stack((l / 3, (l - 1) / 3, (l + 4) / 3)))
    psi, psi1 = polygamma
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
#: contour, which runs _CONV_OFFSET to the left of the evaluation point.  The
#: l = +-1 windows converge geometrically in it and the l = 0 window as its
#: sixth power (see solve_g)
_CONV_STEP = 0.01
_CONV_OFFSET = 0.5

#: phi's asymptotic series ``sum_k a_k mu^-k`` off the real axis, a_0..a_16
#: (tests/test_threesite.py rederives them from the Bernoulli polynomials);
#: a_16 50^-16 = 1.5e-19 at |mu| = 50
_PHI_SERIES = np.array([
    0.0, 0.0, 4.0, 9.18715169301527, -6.0, 6.374303386030541,
    40.666666666666664, 8.894788412379144, -318.0, -17.029171005716695,
    5382.0, 319.7135362428541, -134496.66666666666, -6938.210423175241,
    4782990.0, 218941.64339518445, -228970542.0,
])

#: phi sums its series at |Im lam| >= 25, where the first omitted term,
#: a_18 mu^-18, is about 9e-16
_SERIES_HEIGHT = 25.0

#: solve_g skips the nodes where |h_l| has decayed below e^(-_KERNEL_CUTOFF)
#: of its peak.  e^-50 = 2e-22: even summed over the whole window, the
#: skipped terms stay below 1e-16 |phi|, under rounding
_KERNEL_CUTOFF = 50.0

#: the l = 0 contour switches to phi's asymptotic series at nu = 50
_TAIL_START = 50.0


def _window(l: int, s: float, step: float) -> tuple[int, int]:
    """First and last lattice index ``k`` of ``h_l``'s window, for ``Im lam = s``."""
    a = _kernel_rate(l)
    lo = s - _KERNEL_CUTOFF / (2 * np.pi - a)
    hi = s + _KERNEL_CUTOFF / a if a else max(_TAIL_START, s + _KERNEL_CUTOFF / (2 * np.pi))
    bottom, top = ((math.asinh(x) + math.asinh(x - s)) / (2 * step) for x in (lo, hi))
    return math.floor(bottom), math.ceil(top)


@lru_cache(maxsize=4)
def _contour_line(c: float, s: float, step: float):
    """``solve_g``'s nodes on the line ``Re mu = c`` for ``Im lam = s``, with phi.

    The nodes are ``u = k step`` for every integer ``k`` in the windows of
    all three kernels, from ``first`` up.  Returns ``first``, ``mu`` and
    ``phi(mu) (dnu/du) / 2 pi``, the arrays read-only: a window of any ``l``
    is a slice of this one line, so ``phi`` is evaluated once per line.
    """
    firsts, lasts = zip(*(_window(l, s, step) for l in (0, 1, -1)))
    first = min(firsts)
    u = step * np.arange(first, max(lasts) + 1)
    nu = np.sinh(u + np.arcsinh(s / (2 * np.cosh(u))))
    dudnu = (1 / np.hypot(1, nu) + 1 / np.hypot(1, nu - s)) / 2
    mu = c + 1j * nu
    weighted = phi(mu) / dudnu / (2 * np.pi)
    mu.flags.writeable = weighted.flags.writeable = False
    return first, mu, weighted


def _asinh_derivatives(x: float) -> tuple[float, float, float, float]:
    """The first four derivatives of ``asinh`` at ``x``."""
    r = 1 / (1 + x * x)
    q = math.sqrt(r)
    return q, -x * q * r, (2 * x * x - 1) * q * r * r, (9 - 6 * x * x) * x * q * r**3


def _top_end(m: complex, s: float, step: float) -> complex:
    """The ``l = 0`` integral above its window's top node ``mu = m``, plus
    the trapezoid rule's Euler-Maclaurin terms at that end.

    Above ``m`` the integrand in ``u`` is ``F = phi(mu) dmu/du`` to rounding.
    Its integral up the line is summed from ``_PHI_SERIES``, and so are
    ``phi``'s derivatives ``p_j`` at ``m``, which with those of the node map
    give ``F' = (Phi o mu)''`` and ``F''' = (Phi o mu)''''`` (Faa di Bruno,
    ``Phi' = phi``).  What is left is ``-(step^6 / 30240) F^(5)``.
    """
    k = np.arange(2, len(_PHI_SERIES))
    # int_m^(m + i inf) phi, then p_0..p_3
    integral, p0, p1, p2, p3 = np.array([
        m / (k - 1), np.ones(len(k)), -k / m, k * (k + 1) / m**2, -k * (k + 1) * (k + 2) / m**3
    ]) @ (_PHI_SERIES[2:] * m ** -k)
    # derivatives of u = (asinh nu + asinh(nu - s))/2 in nu, then of nu in u
    u1, u2, u3, u4 = (
        (a + b) / 2 for a, b in zip(_asinh_derivatives(m.imag), _asinh_derivatives(m.imag - s))
    )
    n1 = 1 / u1
    n2 = -u2 * n1**3
    n3 = (3 * u2**2 - u1 * u3) * n1**5
    n4 = (10 * u1 * u2 * u3 - 15 * u2**3 - u1**2 * u4) * n1**7
    m1, m2, m3, m4 = 1j * n1, 1j * n2, 1j * n3, 1j * n4
    f1 = p1 * m1**2 + p0 * m2
    f3 = p0 * m4 + p1 * (4 * m1 * m3 + 3 * m2**2) + 6 * p2 * m1**2 * m2 + p3 * m1**4
    return complex(integral - step**2 / 12 * f1 + step**4 / 720 * f3)


def solve_g(l: int, lam: complex) -> complex:
    """Decoupled component g_l by convolution of phi with the kernel h_l.

    Evaluates ``g_l(lam) = (1/2 pi) int h_l(-i(lam - mu)) phi(mu) d nu`` over
    the vertical line ``mu = c + i nu`` with ``c = Re(lam) - _CONV_OFFSET``.
    Under the rotated argument the kernel turns a shift of ``lam`` by +1 into
    multiplication by ``w^l`` (w = e^(2 pi i/3)), so the result satisfies

        g_l(lam) - w^l g_l(lam + 1) = phi(lam)

    wherever no pole of ``phi`` (the real points 0, +-1, +-3, +-4, ...) lies
    between the two contours - e.g. throughout ``Re lam in (1.5, 2.5)``.  A
    non-finite ``lam``, or one whose line runs within 1e-6 of a pole, raises
    a ``ValueError`` (``PoleError`` for the pole) that names both.

    The trapezoid nodes lie on the lattice ``u = k _CONV_STEP``, integer
    ``k``, of ``u = (asinh(nu) + asinh(nu - s))/2`` with ``s = Im lam``, with
    weight ``dnu/du``; the map inverts in closed form,
    ``nu = sinh(u + asinh(s / (2 cosh u)))``, and is ``nu = sinh u`` for real
    ``lam``.  The integrand's singularities sit near two points of the line:
    the poles of ``phi`` on the imaginary ``nu`` axis, at distance ``|p - c|``
    for each real pole ``p``, and those of the kernel at
    ``nu = s - i(k + 1/2)``.  The map keeps a node spacing of at most
    ``2 _CONV_STEP`` next to both and widens it as ``|nu|`` and ``|nu - s|``
    grow, so few nodes serve any ``Im lam``.

    Only the kernel window is integrated: with ``t = s - nu`` the kernel
    falls as ``e^(-(2 pi - a) t)`` below ``s`` and as ``e^(a t)`` above it
    (``a`` as in ``h_kernel``), and the window ends at the first lattice node
    past where that decay reaches ``e^(-_KERNEL_CUTOFF)``.  For ``l = 0`` the
    kernel tends to ``2 pi i`` up the contour instead, so the window stops at
    ``nu = _TAIL_START`` (or where the kernel is that constant to rounding,
    if higher) and the rest is summed exactly from ``phi``'s asymptotic
    series, with the trapezoid rule's Euler-Maclaurin terms in ``step^2`` and
    ``step^4`` at that end (``_top_end``).  The windows of l = 0, +-1 are
    slices of one line, on which ``_contour_line`` evaluates ``phi`` once and
    keeps the last four lines; each ``g_l`` depends only on its own slice, so
    it is the same whatever that memo holds.  At ``_CONV_STEP = 0.01``,
    against the 30-digit quadrature at 1.6 + 0.1i and 2.3 + 0.45i, ``l = 0``
    is 9.4e-15 and 2.5e-14 off and ``l = +-1`` at most 3.6e-15; halving the
    step moves no ``l`` by more than 6e-15 there.

    The transform normalizes the ``l = 0`` zero mode by decay at infinity
    rather than by ``G1 -> 2``, so ``(g_0 + g_1 + g_-1)/3`` differs from the
    comb-constructed ``G1`` by the constant -2 (a useful cross-check).
    """
    lam = complex(lam)
    if not (math.isfinite(lam.real) and math.isfinite(lam.imag)):
        raise ValueError(f"solve_g: lam = {lam} is not finite")
    c = lam.real - _CONV_OFFSET
    pole = round(c)
    if abs(c - pole) < 1e-6 and abs(pole) % 3 != 2:
        raise PoleError(
            f"solve_g: the contour of lam = {lam} runs within 1e-6 of the pole of phi at {pole}"
        )
    step = _CONV_STEP
    first, mu, weighted = _contour_line(c, lam.imag, step)
    lo, hi = _window(l, lam.imag, step)
    window = slice(lo - first, hi - first + 1)
    f = h_kernel(l, -1j * (lam - mu[window])) * weighted[window]
    out = step * (f.sum() - (f[0] + f[-1]) / 2)
    if _kernel_rate(l) == 0:
        out += _top_end(mu[hi - first], lam.imag, step)
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
#: points per comb call: the head's temporaries hold 3 x 13 long-double values
#: per point each.  three-site's peak RSS is the same at blocks of 32, 64 and
#: 128 points and 1.1 MB higher at 256 or with no blocks
_COMB_BLOCK = 128
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


def _comb_tail(z, t, tp, terms: int):
    """``sum_{j > terms} phi_c(z + 3j)`` in complex128, from the closed forms,
    and the last term kept in the series of ``sum_{j>J} A(z + 3j)``.

    ``t`` and ``tp`` are ``tau(z)`` and ``tau'(z)``; see the module docstring.
    Two kernel passes serve it: ``psi`` and ``psi'`` at ``x -+ 1/3``, and
    the zetas of orders 2-16 at ``x``, each times its ``a_k 3^-k``.
    """
    z, t, tp = (np.asarray(v, dtype=complex) for v in (z, t, tp))
    x = z / 3 + (terms + 1)
    psi, psi1 = digamma_trigamma_array(np.stack((x - 1 / 3, x + 1 / 3)))
    ks = tuple(range(2, len(_PHI_SERIES)))
    series = [_PHI_SERIES[k] / 3.0**k * v for k, v in zip(ks, hurwitz_zeta_array(ks, x))]
    tail = sum(series) + t * (psi1[0] - psi1[1]) / 108 + tp * (psi[1] - psi[0]) / 36
    return tail, series[-1]


class G1Solver:
    """G1 from the one-sided comb plus its fitted 3-periodic correction.

    ``k_function`` is sampled on the Laurent circles around 0 and -2, and
    the cotangent coefficients ``periodic_coefficients`` are fitted to cancel
    its forbidden Laurent data; ``consistency_residual`` is the defect of
    that fit.  ``tail_bound`` is the largest magnitude, over the samples, of
    the last term kept in the series of the comb's tail.

    The head length ``J`` is ``_COMB_TERMS``, read once here, so the comb
    and ``tail_bound`` use the same one.
    """

    def __init__(self):
        self._terms = _COMB_TERMS
        self._tail_max = 0.0
        n, r = _LAURENT_POINTS, _LAURENT_RADIUS
        th = 2 * np.pi * np.arange(n) / n
        self._circle = r * np.exp(1j * th)
        z = np.array(_CENTERS)[:, None] + self._circle
        dft = np.exp(-1j * np.outer(th, _KS)) / (n * r**_KS)
        # Laurent coefficients (center, k) of the particular solution
        self._k_coef = self.k_function(z) @ dft
        self.tail_bound = self._tail_max  # over the Laurent samples alone
        self._b_coef = _cot_basis(z) @ dft
        # least-squares cotangent coefficients cancelling the forbidden data
        mat = self._b_coef[:, _VANISHING].T
        rhs = -self._k_coef[_VANISHING]
        x, *_ = np.linalg.lstsq(mat, rhs, rcond=None)
        self.periodic_coefficients = x
        self.consistency_residual = float(np.abs(mat @ x - rhs).max())

    def taylor_coefficient(self, k: int) -> complex:
        """Laurent/Taylor coefficient of G1 around 0 (k in -4..6)."""
        if not _KS[0] <= k <= _KS[-1]:
            raise ValueError(f"k must be in {_KS[0]}..{_KS[-1]}, got {k}")
        i = k - _KS[0]
        x = self.periodic_coefficients
        return complex(self._k_coef[0, i] + self._b_coef[:, 0, i] @ x)

    def _comb(self, z):
        """``sum_{j>=0} phi_c(z + 3j)`` and ``tau(z)`` at long-double ``z``.

        The terms ``j = 0..J`` are one broadcast in long double; the tail
        beyond ``J`` is added in complex128.  The terms' ``psi`` and ``psi'``
        come from one kernel call at the far ends ``base + J + 1`` of the
        ladders ``base + j``, ``base`` being ``z/3``, ``(z - 1)/3`` and
        ``(z + 4)/3``, and the downward recurrence: ``psi(base + j)`` is
        ``psi(base + J + 1) - sum_{k=j..J} 1/(base + k)``, and ``psi'`` the
        same with ``+ 1/(base + k)^2``.  Complex128 ``z`` runs the same code
        in complex128.
        """
        terms = self._terms
        t, tp = _tau_and_slope(z)
        j = np.arange(terms + 1)
        base = np.stack((z / 3, (z - 1) / 3, (z + 4) / 3))
        psi_end, psi1_end = digamma_trigamma_array(base + (terms + 1))
        # down the ladders: psi(x) = psi(x + 1) - 1/x, psi'(x) = psi'(x + 1) + 1/x^2;
        # built in place, and inv dropped before phi_c, to keep the block's
        # working set to the arrays phi_c needs
        inv = 1 / (base[..., None] + j[::-1])
        psi = np.cumsum(inv, axis=-1)[..., ::-1]
        np.subtract(psi_end[..., None], psi, out=psi)
        psi1 = np.cumsum(np.multiply(inv, inv, out=inv), axis=-1)[..., ::-1]
        del inv
        np.add(psi1_end[..., None], psi1, out=psi1)
        head = phi_c(
            z[..., None] + 3 * j,
            periodic=(t[..., None], tp[..., None]),
            polygamma=(psi, psi1),
        )
        tail, last = _comb_tail(z, t, tp, terms)
        # the largest last series term so far, which __init__ reads as tail_bound
        self._tail_max = float(np.abs(last).max(initial=self._tail_max))
        return head.sum(axis=-1) + tail, t

    def k_function(self, z):
        """Particular solution of the step-3 recursion, ``sum_{j>=0} phi_c(z + 3j)
        - (z/3) tau(z)``, formed in long double and rounded to complex128 once.

        The comb runs on ``_COMB_BLOCK`` points at a time; every step is
        elementwise across points, so the values do not depend on the block.
        """
        z = _complex(z).astype(np.clongdouble)
        flat = z.ravel()
        out = np.empty(flat.shape, dtype=complex)
        for start in range(0, flat.size, _COMB_BLOCK):
            block = flat[start : start + _COMB_BLOCK]
            comb, t = self._comb(block)
            out[start : start + _COMB_BLOCK] = comb - block / 3 * t
        return out.reshape(z.shape)

    def value(self, z):
        """G1 at arbitrary points (vectorized)."""
        basis = _cot_basis(_complex(z))
        periodic = sum(c * b for c, b in zip(self.periodic_coefficients, basis))
        return _like(z, self.k_function(z) + periodic)


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


def three_site_correlator() -> ThreeSiteSolution:
    """<P12 P23> and the boundary values F1, F2, F3 from the comb-built G1.

    Diagnostics: the head length of the comb, the fit defects (one list
    entry, the periodic fit's), ``|Im c2|`` and the comb's ``tail_bound``.
    """
    solver = G1Solver()
    c2 = solver.taylor_coefficient(2)
    # G1(1) is a removable point: F2 is the mean over the circle around it
    g = solver.value(np.append(1 + solver._circle, 2.0))
    diag = {
        "comb_terms": solver._terms,
        "lstsq_residuals": [solver.consistency_residual],
        "c2_imag": float(abs(c2.imag)),
        "tail_bound": solver.tail_bound,
    }
    return ThreeSiteSolution(
        p12p23=float(c2.real) / 2,
        f1=float((4 * c2).real),
        f2=float((4 * g[:-1].mean()).real),
        f3=float(g[-1].real),
        diagnostics=diag,
    )


# ---------------------------------------------------------------------------
# density operators
# ---------------------------------------------------------------------------

def density_matrix_two_site(lam: complex = 0.0) -> np.ndarray:
    """Two-site reduced density operator D2(lam, 0) as a 9 x 9 matrix.

    Its expectations ``tr(D2 s)`` over ``I`` and ``P12`` are the first two
    singlet amplitudes, ``(1, omega33(lam))``; the reduction of the singlet
    amplitudes gives the third, ``omega_bar33(lam - 1)``, weight zero.
    """
    from .tensors import from_expectations

    d2 = from_expectations([1, omega33(lam)])
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
    *Accuracy and Stability of Numerical Algorithms*, ch. 20).

    The solve degenerates at ``lam = 0`` (the F-weights have poles there),
    but the amplitudes are analytic, so their value at 0 is the mean of the
    solutions over a small circle - the Cauchy integral, converging
    geometrically in the number of circle points.  All circle points are
    solved as one stack through the SVD-based pseudo-inverse, with ``G1``,
    each two-site function and the 32 link matrices ``A3`` evaluated in one
    call each.  Returns ``(rho, diagnostics)`` with the discarded imaginary
    part and, as ``max_relative_residual``, the worst least-squares defect
    ``|A x - b| / (|A| |x|)`` of the row-scaled systems (2-norms, Frobenius
    for ``A``) as quality measures.
    """
    from .basis import a3_closed_form, gram_inverse

    n, radius = _CIRCLE_POINTS, _CIRCLE_RADIUS
    angles = 2 * np.pi * (np.arange(n) + 0.5) / n
    lams = radius * np.exp(1j * angles)
    g = solver.value(lams[:, None] + np.arange(5))
    # the three coupled points of each chain, with G1 at each one's x + (0, 1, 2)
    x = lams[:, None] + np.arange(3)
    g_windows = np.lib.stride_tricks.sliding_window_view(g, 3, axis=1)
    eqs, eq_rhs = _diagonal_equations(x, g_windows)
    a3 = a3_closed_form(x[:, :2], x[:, :2])
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
    mat, rhs = mat / norms, rhs / norms
    sol = np.linalg.pinv(mat) @ rhs
    residuals = np.linalg.norm(mat @ sol - rhs, axis=(1, 2)) / (
        np.linalg.norm(mat, axis=(1, 2)) * np.linalg.norm(sol, axis=(1, 2))
    )
    rho0 = (m_inv @ sol[:, :11]).mean(axis=0)[:, 0]
    diagnostics = {
        "max_imag": float(np.abs(rho0.imag).max()),
        "max_relative_residual": float(residuals.max()),
        "circle_points": n,
        "circle_radius": radius,
    }
    return rho0.real, diagnostics


def density_matrix_three_site(solver: G1Solver | None = None) -> np.ndarray:
    """Homogeneous three-site reduced density operator (27 x 27)."""
    from .basis import reduce_to_physical

    solver = solver or G1Solver()
    rho, _ = three_site_density_coefficients(solver)
    return reduce_to_physical(3, rho).real
