"""Three-site functional equations, transform kernels, density operators."""

import inspect
import tracemalloc
from decimal import ROUND_HALF_EVEN, Decimal
from fractions import Fraction
from functools import partial
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from su3chain.basis import GRAM_3, a3_closed_form, build_basis, gram_inverse
from su3chain import threesite, twosite
from su3chain.specfun import BERNOULLI_EVEN, digamma_trigamma_array
from su3chain.tensors import levi_civita
from su3chain.twosite import OMEGA33_HOMOGENEOUS
from su3chain.threesite import (
    G1Solver,
    density_matrix_two_site,
    density_matrix_three_site,
    h_kernel,
    phi,
    phi_c,
    solve_g,
    solve_g_recursion_residual,
    three_site_correlator,
    three_site_density_coefficients,
)
from test_tensors import partial_trace_first_site, partial_trace_last_site

W = np.exp(2j * np.pi / 3)

P12P23_REFERENCE = 0.191368820116674


def _perm_ops():
    p = np.zeros((9, 9))
    for a in range(3):
        for b in range(3):
            p[3 * b + a, 3 * a + b] = 1
    eye = np.eye(3)
    return np.kron(p, eye), np.kron(eye, p)


# every public twosite function of lam; the residual checks take one point only
_TWOSITE_EVALUATORS = {
    f"twosite.{name}": f
    for name, f in vars(twosite).items()
    if inspect.isfunction(f)
    and f.__module__ == twosite.__name__
    and not name.startswith(("_", "check_"))
    and name != "zeta_expansion"
}
_EVALUATORS = {
    **_TWOSITE_EVALUATORS,
    "threesite.phi": phi,
    "threesite.phi_c": phi_c,
    "threesite.h_kernel": partial(h_kernel, 1),
    "threesite.G1Solver.value": None,  # the session's g1_solver
}


@pytest.mark.parametrize("shape", [(1,), (3,), (2, 1)])
@pytest.mark.parametrize("name", sorted(_EVALUATORS))
def test_scalar_gives_complex_and_array_gives_same_shape(request, name, shape):
    f = _EVALUATORS[name] or request.getfixturevalue("g1_solver").value
    lam = 0.4 + 0.3j  # off every pole
    scalar, array = f(lam), f(np.full(shape, lam))
    if not isinstance(scalar, tuple):  # digamma_parts gives a pair
        scalar, array = (scalar,), (array,)
    for s, a in zip(scalar, array):
        assert type(s) is complex
        assert type(a) is np.ndarray and a.shape == shape
        assert np.allclose(a, s, rtol=1e-14, atol=0)


# ---------------------------------------------------------------------------
# inhomogeneities
# ---------------------------------------------------------------------------

def _r_xy(x, y):
    """Three-point inhomogeneity as a function of the parameter differences."""
    w, wb = twosite.omega33, twosite.omega_bar33
    return (
        2 * (-1 + 2 * x**2 + 2 * y**2) / ((x**2 - 1) * (y**2 - 1))
        + 2 * (x + y) / ((x**2 - 1) * (y**2 - 1)) * w(x - y)
        + 2
        * (-1 + 3 * x + x**2 - 3 * y - 2 * x * y + y**2 - 3 * x * y**2 + 3 * y**3)
        / (x * (x + 3) * (x - y) * (y**2 - 1))
        * wb(x)
        - 2
        * (-1 - 3 * x + x**2 + 3 * x**3 + 3 * y - 2 * x * y - 3 * x**2 * y + y**2)
        / ((x**2 - 1) * (x - y) * y * (y + 3))
        * wb(y)
    )


def r_inhom(lam1, lam2, lam3):
    """Inhomogeneous three-point combination; phi(lam) is its lam2, lam3 -> 0 limit."""
    return _r_xy(lam1 - lam3, lam1 - lam2)


def test_phi_is_diagonal_limit_of_r():
    # r(lam1, lam2, lam3) -> phi(lam) as lam2, lam3 -> 0 with lam1 = lam
    for lam in (0.7 + 0.4j, -1.6 + 0.8j, 2.3 - 0.5j):
        eps = 1e-6
        approx = r_inhom(lam, eps, -eps)
        assert abs(approx - phi(lam)) < 1e-4 * max(1.0, abs(phi(lam)))


def test_phi_laurent_coefficients_at_zero():
    # phi = -2/z^2 - 12/z + O(1): the circle mean of z^2 phi kills the odd
    # -12 z term and isolates the leading coefficient
    theta = 2 * np.pi * np.arange(16) / 16
    z = 1e-3 * np.exp(1j * theta)
    vals = z**2 * phi(z)
    assert abs(np.mean(vals) - (-2.0)) < 1e-4
    assert abs(np.mean(vals * np.exp(-1j * theta)) / 1e-3 - (-12.0)) < 1e-2


def test_phi_decay_on_vertical_line():
    # phi keeps its O(1) 3-periodic cotangent part along horizontal lines but
    # decays quadratically up vertical ones (what the convolution tail uses)
    nus = np.array([30.0, 100.0, 300.0])
    vals = phi(-0.2 + 1j * nus)
    assert np.abs(nus**2 * vals).max() < 20


@settings(max_examples=30, deadline=None)
@given(st.floats(-2.5, 2.5, allow_nan=False), st.floats(0.2, 2, allow_nan=False))
def test_phi_schwarz_reflection(re, im):
    # real coefficients: phi(conj lam) = conj(phi(lam))
    lam = complex(re, im)
    assert abs(phi(np.conj(lam)) - np.conj(phi(lam))) < 1e-10 * max(
        1.0, abs(phi(lam))
    )


def test_phi_c_plus_tau_is_phi():
    for lam in (0.45 + 0.3j, -1.2 + 0.7j, 3.8 - 0.2j):
        tau, _ = threesite._tau_and_slope(np.complex128(lam))
        assert abs(phi_c(lam) + tau - phi(lam)) < 1e-10


def _phi_c_mp(lam):
    """phi - tau at 40 digits, subtracted directly from the closed forms."""
    import mpmath as mp
    from solve_g_reference import _phi_closed_form

    with mp.workdps(40):
        l = mp.mpc(lam)
        tau_mp = -4 * mp.pi * (mp.cot(mp.pi * l / 3) - mp.cot(mp.pi * (l - 1) / 3))
        return complex(_phi_closed_form(l) - tau_mp)


COMB_ORIGINS = [0.45, -2 + 0.45j, 5.5 + 3j, -2.3 + 0.1j]
COMB_STEPS = [0, 1, 2, 5, 20, 100, 399]


@pytest.mark.parametrize("j", COMB_STEPS)
@pytest.mark.parametrize("z", COMB_ORIGINS)
def test_phi_c_against_mpmath(z, j):
    lam = z + 3 * j
    assert abs(phi_c(lam) - _phi_c_mp(lam)) <= 1e-13


@pytest.mark.parametrize("z", COMB_ORIGINS)
def test_phi_c_with_periodic_part_from_comb_origin(z):
    # tau and tau' are 3-periodic, so the comb passes them from z to z + 3j
    lam = z + 3.0 * np.array(COMB_STEPS)
    periodic = threesite._tau_and_slope(np.array([z]))
    assert np.abs(phi_c(lam, periodic=periodic) - phi_c(lam)).max() <= 1e-13


def test_phi_c_decays_without_cancellation():
    # the naive phi - tau subtraction loses all digits out here
    big = np.array([3e4, 1e5]) + 0.3j
    assert np.abs(phi_c(big)).max() < 1e-7


# ---------------------------------------------------------------------------
# transform kernels and the convolution solution
# ---------------------------------------------------------------------------

def _h_defining_integral(l, z, delta=0.01, cutoff=45.0, step=0.002):
    """Quadrature of the defining k-integral along R + i*delta.

    The integrand only oscillates (no decay) towards k -> -infinity, where it
    approaches e^{ikz}; that tail is Abel-summed in closed form.
    """
    t = np.arange(-cutoff, cutoff + step / 2, step)
    k = t + 1j * delta
    integrand = np.exp(1j * k * z) / (1 - W**l * np.exp(k))
    value = np.trapezoid(integrand, t)
    value += np.exp(1j * (-cutoff + 1j * delta) * z) / (1j * z)
    return value


@pytest.mark.parametrize("l", [0, 1, -1])
@pytest.mark.parametrize("z", [0.3, 0.5, 1.2, 2.0])
def test_h_kernel_matches_defining_integral(l, z):
    assert abs(h_kernel(l, z) - _h_defining_integral(l, z)) < 5e-6


def test_h_kernel_l0_value():
    assert abs(h_kernel(0, 0.5) - (-2j * np.pi / (np.exp(np.pi) - 1))) < 1e-14


def test_h_kernel_decay_and_stability():
    # exponential decay to the right and no overflow at large arguments
    assert abs(h_kernel(0, 10.0)) < 1e-26
    assert np.isfinite(h_kernel(1, 500.0))
    assert np.isfinite(h_kernel(1, -500.0))
    # closed forms agree under shifting l by 3
    z = 0.8 + 0.3j
    assert h_kernel(0, z) == h_kernel(3, z)
    assert h_kernel(-1, z) == h_kernel(2, z)


def test_h_kernel_shift_relation():
    # e^{2 pi i / 3 * l} * h_l pairs a shift of z by -i with the recursion;
    # in kernel language: h_l(z - i) = w^{-l} h_l(z) away from the pole lattice
    for l in (0, 1, -1):
        z = 0.4 + 0.15j
        assert abs(h_kernel(l, z - 1j) - W**-l * h_kernel(l, z)) < 1e-12


@pytest.mark.parametrize("l", [0, 1, -1])
def test_solve_g_recursion_residuals(l):
    # ten points in a window where no pole of phi separates the two contours
    pts = 1.6 + 0.08 * np.arange(10) + 0.1j
    worst = max(solve_g_recursion_residual(l, p) for p in pts)
    assert worst < 1e-8, f"l = {l}: residual {worst}"


def test_solve_g_grid_self_convergence(monkeypatch):
    lam = 1.9 + 0.1j
    coarse = [solve_g(l, lam) for l in (0, 1, -1)]
    monkeypatch.setattr(threesite, "_CONV_STEP", threesite._CONV_STEP / 2)
    fine = [solve_g(l, lam) for l in (0, 1, -1)]
    assert max(abs(a - b) for a, b in zip(coarse, fine)) < 5e-12


#: g_l over the whole vertical line by 30-digit mpmath quadrature, printed by
#: tests/solve_g_reference.py (which shares no code with su3chain)
SOLVE_G_REFERENCE = {
    (0, (1.6+0.1j)): complex(25.968524316985012795, 7.8361133105647046063),
    (1, (1.6+0.1j)): complex(18.161941911580537629, -0.2629552051463777291),
    (-1, (1.6+0.1j)): complex(17.729093812706412531, -7.8452578178000870455),
    (0, (2.3+0.45j)): complex(5.4460807351520653234, 6.0986884075674728115),
    (1, (2.3+0.45j)): complex(5.8813386941877341465, 1.2148318668539014558),
    (-1, (2.3+0.45j)): complex(6.4430815235635657331, -4.7613220424383127496),
}


@pytest.mark.parametrize("lam", [1.6 + 0.1j, 2.3 + 0.45j])
@pytest.mark.parametrize("l", [0, 1, -1])
def test_solve_g_window_matches_full_grid(l, lam):
    # the kernel window plus, for l = 0, the series tail against the integral
    # over the whole line
    assert abs(solve_g(l, lam) - SOLVE_G_REFERENCE[l, lam]) < 1e-13


@pytest.mark.parametrize("l", [0, 1, -1])
def test_solve_g_evaluates_phi_once_per_window_node(monkeypatch, l):
    # the three kernels' windows are slices of one line: asked in any order,
    # they evaluate phi on that line once
    seen = []

    def counting_phi(lam):
        seen.append(np.array(lam, ndmin=1))
        return phi(lam)

    monkeypatch.setattr(threesite, "phi", counting_phi)
    threesite._contour_line.cache_clear()
    for k in (l, *{0, 1, -1} - {l}):
        solve_g(k, 1.9 + 0.2j)
    assert len(seen) == 1
    points = seen[0]
    assert len(points) == len(np.unique(points)) <= 850
    assert np.all(points.real == 1.9 - threesite._CONV_OFFSET)


def test_solve_g_is_the_same_whatever_the_memo_holds():
    lams = (1.9 + 0.2j, 2.9 + 0.2j, 1.7 + 0.45j)
    threesite._contour_line.cache_clear()
    first = {(l, lam): solve_g(l, lam) for lam in lams for l in (0, 1, -1)}
    # the other order, from an empty memo and from one that holds other lines
    for fill in ((), (2.2 + 0.3j, 2.4, 1.6 + 5j, 3.1 - 0.2j)):
        threesite._contour_line.cache_clear()
        for lam in fill:
            solve_g(1, lam)
        again = {(l, lam): solve_g(l, lam) for l in (-1, 1, 0) for lam in reversed(lams)}
        assert all(again[key] == value for key, value in first.items())


#: the contour workload's points at seed 1 (perfbench/contour_pass.py)
_CONTOUR_SEED_1 = (
    2.0094572997602054 + 0.4768922512117597j,
    2.360370957060748 + 0.19032415340471848j,
    1.715327690175707 + 0.24049690203765905j,
)


@pytest.mark.parametrize("l", [0, 1, -1])
def test_solve_g_recursion_residuals_at_rounding(l):
    # criterion 6's points and the contour workload's; the exact l = 0 tail
    # and its end terms leave only rounding
    pts = [*(1.6 + 0.08 * np.arange(10) + 0.1j), *_CONTOUR_SEED_1]
    worst = max(solve_g_recursion_residual(l, p) for p in pts)
    assert worst <= 1e-12, f"l = {l}: residual {worst}"


@pytest.mark.parametrize(
    "lam, reason",
    [
        (complex(np.nan), r"lam = \(?nan\+0j\)? is not finite"),
        (complex(2, np.inf), r"lam = \(2\+infj\) is not finite"),
        (1.5, r"lam = \(1\.5\+0j\) runs within 1e-6 of the pole of phi at 1$"),
        (-3.5 + 0.2j, r"lam = \(-3\.5\+0\.2j\) runs within 1e-6 of the pole of phi at -4$"),
        (3.5 + 4e-7 + 2j, r"the pole of phi at 3$"),
    ],
    ids=["nan", "inf", "pole-at-1", "pole-at-minus-4", "near-pole-at-3"],
)
def test_solve_g_rejects_a_line_it_cannot_integrate(lam, reason):
    with pytest.raises(ValueError, match=reason):
        solve_g(0, lam)


@pytest.mark.parametrize("lam", [2.5, -1.5 + 0.3j, 1.5 + 2e-6])
def test_solve_g_integrates_lines_off_the_poles(lam):
    # 2 and -2 are no poles of phi, and 2e-6 off a pole is off it
    assert np.isfinite(solve_g(0, lam))


@pytest.mark.parametrize("lam", [1.9 + 60j, 1.9 - 60j, 2.1 + 300j, 2.1 - 300j])
def test_solve_g_recursion_far_from_real_axis(lam):
    # the kernel's poles at nu = Im lam and phi's near nu = 0 are both resolved
    worst = max(solve_g_recursion_residual(l, lam) for l in (0, 1, -1))
    assert worst <= 1e-12


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
    bern[2::2] = [Fraction(*b) for b in BERNOULLI_EVEN]

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


def test_phi_series_is_its_exact_expansion():
    # the module holds the 17 values; they are the exact expansion, rounded
    assert threesite._PHI_SERIES.tobytes() == _phi_series().tobytes()


def test_phi_series_coefficients():
    a = threesite._PHI_SERIES
    assert a[0] == a[1] == 0
    assert a[2] == 4
    # against phi in floats beyond nu = 50, where solve_g uses the series
    for c in (1.1, 1.9):
        for nu in (50.0, 100.0):
            mu = c + 1j * nu
            series = np.sum(a * mu ** -np.arange(len(a)))
            assert abs(series - phi(mu)) < 1e-14


def test_phi_series_against_mpmath():
    from solve_g_reference import phi_mp

    a = threesite._PHI_SERIES
    # nu = 20 is below the series' range: the first omitted term,
    # a_18 mu^-18, is about 5e-14 there
    for nu, tol in ((20.0, 1e-13), (50.0, 1e-17), (100.0, 1e-17)):
        mu = 1.1 + 1j * nu
        series = np.sum(a * mu ** -np.arange(len(a)))
        assert abs(series - complex(phi_mp(mu))) < tol


def test_phi_far_from_the_real_axis_against_mpmath():
    from solve_g_reference import phi_mp

    # from |Im mu| = 25 phi is its series: the closed form's digammas cancel
    # there, and it was 2.6e-15, 1.9e-15 and 3.6e-15 off at |Im mu| = 25, 30, 60
    pts = np.array([1.3 + 25j, 2.1 - 30j, -0.4 + 40j, 3.5 - 60j])
    worst = max(abs(v - complex(phi_mp(m))) for m, v in zip(pts, phi(pts)))
    assert worst < 1.5e-15


def test_convolution_agrees_with_comb_up_to_zero_mode(g1_solver):
    # the transform normalizes the l=0 zero mode by decay at infinity instead
    # of G1 -> 2, so it reproduces the comb construction shifted by -2
    for lam in (0.3, 0.3 + 0.4j):
        conv = sum(solve_g(l, lam) for l in (0, 1, -1)) / 3
        comb = complex(g1_solver.value(lam))
        # measured 1.4e-14 at both points
        assert abs(conv + 2 - comb) < 1e-12


# ---------------------------------------------------------------------------
# comb construction of G1
# ---------------------------------------------------------------------------

def test_g1_normalization(g1_solver):
    # double zero at 0 and regularity at -2 (each measured at most 2.2e-15)
    for k in (-2, -1, 0, 1):
        assert abs(g1_solver.taylor_coefficient(k)) < 1e-13
    assert np.all(np.isfinite(g1_solver.value(-2 + g1_solver._circle)))
    assert g1_solver.consistency_residual < 1e-13


def test_one_sided_comb_violates_normalization(g1_solver):
    # the bare one-sided sum solves the recursion with the wrong boundary
    # behavior: its Laurent coefficients k=-2..1 at 0, as circle means, are
    # the documented evidence (they all vanish for the corrected G1)
    n, r = 256, 0.45
    th = 2 * np.pi * np.arange(n) / n
    bare = g1_solver.k_function(r * np.exp(1j * th))
    pole_data = [np.mean(bare * np.exp(-1j * k * th)) / r**k for k in (-2, -1, 0, 1)]
    assert max(abs(v) for v in pole_data) > 1e-2


def test_g1_step3_recursion(g1_solver):
    # G1(lam) - G1(lam+3) = phi(lam), which every g_l recursion telescopes to
    pts = np.array([0.4 + 0.3j, -0.9 + 0.6j, 1.7 - 0.2j])
    res = g1_solver.value(pts) - g1_solver.value(pts + 3) - phi(pts)
    assert np.abs(res).max() < 1e-12


#: sum_{j>=1} phi_c(z + 3j) by mpmath nsum at 30 digits (see ROADMAP)
NSUM_COMB = {
    0.45: 0.85685680317715818478,
    -2 + 0.45j: complex(-4.2852537932853530803, -8.344620901403956828),
}


def _one_sided_comb(solver, z):
    """``sum_{j>=1} phi_c(z + 3j)`` through the solver's long-double comb."""
    z = np.atleast_1d(z).astype(np.clongdouble)
    return (solver._comb(z)[0] - phi_c(z)).astype(complex)


@pytest.mark.parametrize("z", NSUM_COMB)
def test_comb_matches_nsum(g1_solver, z):
    # head of J terms plus the closed-form tail against the infinite sum
    assert abs(_one_sided_comb(g1_solver, z)[0] - NSUM_COMB[z]) <= 1e-14


def _solver_with_head(monkeypatch, terms):
    """A solver whose comb head has ``terms`` terms, not the module's 12."""
    monkeypatch.setattr(threesite, "_COMB_TERMS", terms)
    return G1Solver()


@pytest.mark.parametrize("comb_terms", range(1, 7))
def test_extrapolate_recovers_limit(monkeypatch, comb_terms):
    # the closed-form tail extrapolates a head of J terms to the infinite
    # sum; both nsum points lie on the Laurent circles, so the error stays
    # within the reported tail_bound even at heads far below the default
    solver = _solver_with_head(monkeypatch, comb_terms)
    z = np.array(list(NSUM_COMB))
    comb = _one_sided_comb(solver, z)
    err = np.abs(comb - np.array(list(NSUM_COMB.values())))
    assert err.max() <= solver.tail_bound
    # pointwise over the sample shape
    assert all(_one_sided_comb(solver, zi)[0] == ci for zi, ci in zip(z, comb))


def test_comb_head_length_converged(monkeypatch, g1_solver):
    doubled = _solver_with_head(monkeypatch, 2 * threesite._COMB_TERMS)
    assert abs(doubled.taylor_coefficient(2) - g1_solver.taylor_coefficient(2)) <= 1e-14


def test_tail_bound_below_rounding_and_falls_with_head_length(monkeypatch, g1_solver):
    assert g1_solver.tail_bound < 1e-16
    bounds = [_solver_with_head(monkeypatch, J).tail_bound for J in (4, 8, 16)]
    assert bounds[0] > bounds[1] > g1_solver.tail_bound > bounds[2]


def test_correlator_defaults(default_correlator):
    solution = default_correlator
    diagnostics = solution.diagnostics
    assert abs(solution.p12p23 - P12P23_REFERENCE) <= 1e-12
    assert diagnostics["lstsq_residuals"][-1] <= 1e-12
    assert diagnostics["comb_terms"] == 12
    assert diagnostics["tail_bound"] < 1e-16


def _laurent_circle(center):
    return center + threesite._LAURENT_RADIUS * np.exp(
        2j * np.pi * np.arange(threesite._LAURENT_POINTS) / threesite._LAURENT_POINTS
    )


#: comb origins for the digamma ladder: both Laurent circles, origins whose
#: far ends z/3 + J + 1 lie left of Re 1/2 (so the kernel reflects them), and
#: one next to the pole of psi((z + 3)/3) at z = -3
LADDER_ORIGINS = {
    "circle-0": _laurent_circle(0.0),
    "circle-2": _laurent_circle(-2.0),
    "far-left": np.array([-40 + 0.3j, -41.7 - 2j, -45.1 + 0.01j]),
    "next-to-pole": np.array([-3 + 1e-3]),
}


def _ladder_and_kernel(monkeypatch, solver, z):
    """psi and psi' that ``_comb`` passes to ``phi_c``, and the kernel's values
    at the same head arguments, all in long double."""
    seen = {}

    def spy(lam, **keywords):
        seen.update(keywords, lam=lam)
        return phi_c(lam, **keywords)

    monkeypatch.setattr(threesite, "phi_c", spy)
    solver._comb(z.astype(np.clongdouble))
    l = seen["lam"]
    kernel = digamma_trigamma_array(np.stack((l / 3, (l - 1) / 3, (l + 4) / 3)))
    return seen["polygamma"], kernel


@pytest.mark.parametrize("origin", sorted(LADDER_ORIGINS))
def test_comb_ladder_matches_kernel(monkeypatch, g1_solver, origin):
    """The downward recurrence from the far ends gives the kernel's psi, psi'.

    Measured at 8e-17 relative, all of it the kernel's own truncation of the
    asymptotic series at |z| = 10 (the ladder is within 3e-18 of mpmath, see
    below).  The bound assumes the x86-64 80-bit extended long double.
    """
    ladder, kernel = _ladder_and_kernel(monkeypatch, g1_solver, LADDER_ORIGINS[origin])
    for ours, ref in zip(ladder, kernel):
        assert ours.dtype == np.clongdouble
        assert ours.shape == (3, len(LADDER_ORIGINS[origin]), 13)
        assert np.all(np.abs(ours - ref) <= 2e-16 * np.abs(ref))


def test_comb_ladder_against_mpmath(monkeypatch, g1_solver):
    # every head argument of eight origins on the circle around -2; measured
    # 2.9e-18 (psi) and 2.2e-18 (psi') relative, the kernel 7e-17 and 5e-17
    import mpmath as mp

    def exact(v):
        ratios = (x.as_integer_ratio() for x in (v.real, v.imag))
        return mp.mpc(*(mp.mpf(n) / d for n, d in ratios))

    z = LADDER_ORIGINS["circle-2"][::32].astype(np.clongdouble)
    (psi, psi1), _ = _ladder_and_kernel(monkeypatch, g1_solver, z)
    base = np.stack((z / 3, (z - 1) / 3, (z + 4) / 3))
    with mp.workdps(30):
        for idx in np.ndindex(psi.shape):
            x = exact(base[idx[:2]] + idx[2])
            for ours, ref in ((psi[idx], mp.digamma(x)), (psi1[idx], mp.psi(1, x))):
                assert abs(exact(ours) - ref) <= 1e-17 * abs(ref)


@pytest.mark.parametrize("dtype", [complex, np.clongdouble])
def test_phi_c_with_kernel_polygamma_is_phi_c(dtype):
    lam = (np.array(COMB_ORIGINS) + 3.0 * np.arange(4)).astype(dtype)
    polygamma = digamma_trigamma_array(
        np.stack((lam / 3, (lam - 1) / 3, (lam + 4) / 3))
    )
    assert np.array_equal(phi_c(lam, polygamma=polygamma), phi_c(lam))


@pytest.mark.parametrize("center", threesite._CENTERS)
def test_float64_comb_matches_long_double(g1_solver, center):
    # the path of a platform whose long double is float64; measured 2.9e-15
    # to 1.6e-14 of the circle's largest value (1.3e-13 absolute around -2)
    z = _laurent_circle(center)
    wide = g1_solver._comb(z.astype(np.clongdouble))[0].astype(complex)
    narrow = g1_solver._comb(z)[0]
    assert narrow.dtype == complex
    assert np.abs(narrow - wide).max() <= 1e-13 * np.abs(wide).max()


def _unblocked_k(solver, z):
    """``k_function`` as one ``_comb`` call on every point, rounded once."""
    z = np.asarray(z).astype(np.clongdouble)
    comb, t = solver._comb(z)
    return (comb - z / 3 * t).astype(complex)


#: inputs of ``k_function``: the Laurent samples, the correlator's 257
#: values, 300 points (neither a multiple of the block), a single point and
#: none
BLOCK_INPUTS = {
    "laurent": np.array(threesite._CENTERS)[:, None] + _laurent_circle(0.0),
    "257": np.append(_laurent_circle(1.0), 2.0),
    "300": np.random.default_rng(5).uniform(-30, 30, 300) + 0.3j,
    "single": np.array([0.45 + 0.1j]),
    "empty": np.array([], dtype=complex),
}


@pytest.mark.parametrize("block", [5, threesite._COMB_BLOCK])
@pytest.mark.parametrize("name", sorted(BLOCK_INPUTS))
def test_comb_blocks_are_invisible(monkeypatch, g1_solver, name, block):
    # every step of the comb is elementwise across points, so evaluating it
    # a block at a time gives the unblocked values bit for bit
    monkeypatch.setattr(threesite, "_COMB_BLOCK", block)
    z = BLOCK_INPUTS[name]
    ours = g1_solver.k_function(z)
    assert ours.shape == z.shape
    assert np.array_equal(ours, _unblocked_k(g1_solver, z))


def _traced_peak(call):
    """tracemalloc's peak over ``call()``, numpy's buffers included."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_comb_memory_is_flat_in_points(g1_solver):
    # the comb runs a block of points at a time; one broadcast over all 4000
    # points held about 30 MiB of long-double temporaries (1.4 MiB measured)
    z = 1 + 0.45 * np.exp(2j * np.pi * np.arange(4000) / 4000)
    g1_solver.value(z[:3])  # the cached series coefficients
    assert _traced_peak(lambda: g1_solver.value(z)) < 4 * 2**20


def test_three_site_correlator_memory(default_correlator):
    # 512 + 257 comb points in blocks: 0.95 MiB measured, 4.1 MiB unblocked;
    # the fixture's run has filled the module caches
    assert _traced_peak(three_site_correlator) < 2 * 2**20


@pytest.mark.parametrize("k", [-5, 7])
def test_taylor_coefficient_outside_kept_orders_rejected(g1_solver, k):
    with pytest.raises(ValueError, match="-4..6"):
        g1_solver.taylor_coefficient(k)


#: <P12 P23>, F2 and F3 at 30 digits from tests/correlator_reference.py
#: (mpmath, no code shared with su3chain; its fit defect is 6e-21)
CORRELATOR_REFERENCE = {
    "p12p23": "0.19136882011667350189",
    "f2": "-1.0936108848798794755",
    "f3": "-2.4325423472550265525",
}


def test_correlator_against_30_digit_oracle(default_correlator):
    solution = default_correlator
    reference = {name: float(value) for name, value in CORRELATOR_REFERENCE.items()}
    assert abs(solution.p12p23 - reference["p12p23"]) <= 1e-14
    assert abs(solution.f3 - reference["f3"]) <= 1e-13
    assert abs(solution.f2 - reference["f2"]) <= 5e-13


def test_correlator_long_double_samples_against_oracle(default_correlator):
    """The long-double samples of K keep the fit at float64 rounding.

    Formed in float64, the samples near the poles carry rounding errors up
    to 1e-13, and F2 lands about 1e-14 from the oracle.  These bounds assume
    the x86-64 80-bit extended long double (as on Linux x86-64 runners);
    where ``np.longdouble`` is float64, only the bounds of
    ``test_correlator_against_30_digit_oracle`` hold.
    """
    solution = default_correlator
    reference = {name: float(value) for name, value in CORRELATOR_REFERENCE.items()}
    assert abs(solution.p12p23 - reference["p12p23"]) <= 2e-15
    assert abs(solution.f2 - reference["f2"]) <= 2e-14
    assert abs(solution.f3 - reference["f3"]) <= 1e-14


def test_paper_p12p23_is_oracle_correctly_rounded():
    oracle = Decimal(CORRELATOR_REFERENCE["p12p23"])
    assert oracle.quantize(Decimal("1e-15"), ROUND_HALF_EVEN) == Decimal(
        repr(P12P23_REFERENCE)
    )


def test_correlator_quick(default_correlator):
    solution = default_correlator
    assert abs(solution.p12p23 - P12P23_REFERENCE) < 1e-6
    assert abs(solution.f1 - 8 * solution.p12p23) < 1e-12
    assert solution.diagnostics["c2_imag"] < 1e-10


# ---------------------------------------------------------------------------
# density operators
# ---------------------------------------------------------------------------

def test_two_site_density_matrix_homogeneous():
    d2 = density_matrix_two_site(0.0)
    p = np.zeros((9, 9))
    for a in range(3):
        for b in range(3):
            p[3 * b + a, 3 * a + b] = 1
    assert abs(np.trace(d2) - 1) < 1e-13
    assert np.abs(d2 - d2.T.conj()).max() < 1e-13
    assert np.linalg.eigvalsh((d2 + d2.T.conj()) / 2).min() > -1e-13
    assert abs(np.trace(d2 @ p) - OMEGA33_HOMOGENEOUS) < 1e-12


def test_two_site_density_matrix_reproduces_omega_at_complex_argument():
    p = np.zeros((9, 9))
    for a in range(3):
        for b in range(3):
            p[3 * b + a, 3 * a + b] = 1
    for lam in (0.0, 0.6 + 0.4j, -1.4 + 0.9j):
        d2 = density_matrix_two_site(lam)
        assert abs(np.trace(d2) - 1) < 1e-12
        assert abs(np.trace(d2 @ p) - complex(twosite.omega33(lam))) < 1e-11
        # D2 is the wing-contraction image of all three singlet amplitudes,
        # in which omega_bar33 has weight zero (measured at most 1.4e-17)
        f = [1, twosite.omega33(lam), twosite.omega_bar33(lam - 1)]
        wing = np.einsum(
            "j,bcd,jcdars->arbs", gram_inverse(2) @ f, levi_civita(), build_basis(2)
        ).reshape(9, 9)
        assert np.abs(d2 - wing).max() < 1e-14


# The eleven printed equations for the singlet amplitudes f in two spectral
# parameters (x, y), as the library held them before it kept only the nine
# distinct ones at x = y: the oracle of that transcription.

def _inter_matrix(x, y) -> np.ndarray:
    """Coefficient matrix of the 11 equations for the singlet amplitudes f."""
    d = x - y
    A = np.zeros((11, 11), dtype=complex)
    A[0, 0] = 1
    A[1, 1] = 1
    A[2, 6] = 1
    A[3, 2] = 1
    A[3, 5] = y
    A[3, 4] = -y
    A[3, 3] = -(y**2)
    A[4, 6] = 1
    A[4, 9] = -(y + 2)
    A[4, 10] = y - 1
    A[4, 8] = -(y - 1) * (y + 2)
    A[5, 2] = 1 - d**2
    A[5, 3] = x * (x - 2 * y)
    A[5, 4] = x * (-1 + x * y - y**2)
    A[5, 5] = x * (1 - x * y + y**2)
    A[5, 1] = x * d * (-2 + x**2 - x * y)
    A[6, 6] = 1 - (-1 + x) * d - (2 + x) * d + (-1 + x) * (2 + x) * d**2
    A[6, 8] = 2 - y - y**2
    A[6, 9] = (2 + y) * (-1 + x**2 + y - x * (1 + y))
    A[6, 10] = (-1 + y) * (1 - x**2 + x * (-2 + y) + 2 * y)
    A[7, 2] = 1
    A[8, 0] = 2 * x * (2 + x) * y * (2 + y)
    A[8, 1] = 2 * x * (2 + x) * (2 + y)
    A[8, 3] = 2 * (2 + x) * y * (2 + y)
    A[8, 4] = 2 * (2 + x) * (2 + y)
    A[9, 0] = 2 * (-2 - y - x * (2 + y) + x * (2 + x) * y * (2 + y))
    A[9, 1] = -2 * (-1 + x + x**2) * (2 + y)
    A[9, 2] = 2 * (1 + x) * (2 + y)
    A[9, 3] = 2 * (1 + x + (2 + x) * y - (2 + x) * y * (2 + y))
    A[9, 4] = -2 * (1 + x + 2 * y + x * y)
    A[9, 5] = 2 * (2 + y)
    A[9, 6] = -2 * (-2 - y + x * y + x**2 * (1 + y))
    A[9, 7] = 2 * (1 + x - y)
    A[9, 8] = -2 * (1 + x) * (-2 + y + y**2)
    A[9, 9] = -2 * (1 + x) * (2 + y)
    A[9, 10] = -2 * x
    A[10, 0] = 2 * (x**2 - 1) * (y**2 - 1)
    A[10, 6] = 2 * (x**2 - 1) * (1 + y)
    A[10, 8] = 2 * (1 + x) * (y**2 - 1)
    A[10, 9] = 2 * (1 + x) * (1 + y)
    return A


def _inter_rhs(x, y, f1_val, f2_val, f3_val) -> np.ndarray:
    """Right side of the 11-equation system (two-site data and F1..F3)."""
    d = x - y
    w, wb = twosite.omega33, twosite.omega_bar33
    b = np.zeros(11, dtype=complex)
    b[0] = 1
    b[1] = w(y)
    b[2] = wb(y - 1)
    b[3] = w(x) * (1 - y**2)
    b[4] = wb(x - 1) * (1 - y) * (2 + y)
    b[5] = w(y) * (1 - x**2) * (1 - d**2)
    b[6] = wb(y - 1) * (1 - x) * (2 + x) * (1 - d**2)
    b[7] = w(d)
    b[8] = f1_val
    b[9] = f2_val
    b[10] = f3_val
    return b


def _boundary_values(g, lam: complex):
    """F1, F2, F3 at the diagonal point (lam, lam) from ``g = G1(lam + (0, 1, 2))``."""
    pref = (lam**2 - 1) ** 2 * (lam + 2) ** 2
    return (
        g[0] * pref / lam**2,
        g[1] * pref / (lam + 1) ** 2,
        g[2] * (lam**2 - 1) ** 2,
    )


#: complex diagonal points, shape (2, 4): two circle points of the density
#: solve with the shifts by 1 and 2 that its chain couples, and two points
#: away from the circle
_DIAGONAL_POINTS = np.append(
    0.35 * np.exp(1j * np.pi * np.array([1, 23]) / 16)[:, None] + np.arange(3),
    [0.4 + 0.3j, -1.4 + 0.9j],
).reshape(2, 4)


def _equation_gap(a, b):
    """Largest difference of two stacks of equations, each an augmented row
    (coefficients, then right side), relative to the row's largest entry."""
    return float((np.abs(a - b).max(axis=-1) / np.abs(b).max(axis=-1)).max())


def _augmented(x, g):
    """The oracle's eleven equations at ``(x, x)`` as an 11 x 12 array."""
    rhs = _inter_rhs(x, x, *_boundary_values(g, x))
    return np.column_stack((_inter_matrix(x, x), rhs))


def test_diagonal_equations_are_the_printed_rows_at_x_equals_y():
    # row 7's right side is OMEGA33_HOMOGENEOUS where the oracle evaluates
    # omega33(0), 3.5 ulp away; every other entry agrees to about 1 ulp
    rng = np.random.default_rng(0)
    g = rng.standard_normal((2, 4, 3)) + 1j * rng.standard_normal((2, 4, 3))
    eqs, rhs = threesite._diagonal_equations(_DIAGONAL_POINTS, g)
    assert eqs.shape == (2, 4, 9, 11) and rhs.shape == (2, 4, 9)
    ours = np.concatenate((eqs, rhs[..., None]), axis=-1).reshape(-1, 9, 12)
    kept = [0, 1, 2, 3, 4, 7, 8, 9, 10]
    for x, gx, eq in zip(_DIAGONAL_POINTS.ravel(), g.reshape(-1, 3), ours):
        assert _equation_gap(eq, _augmented(x, gx)[kept]) <= 1e-15


def test_printed_rows_5_and_6_repeat_rows_3_and_4_at_x_equals_y():
    # the fact that lets the density solve drop rows 5 and 6
    for x in _DIAGONAL_POINTS.ravel():
        full = _augmented(x, np.ones(3))
        assert _equation_gap(full[5:7], full[3:5]) <= 1e-15


def _per_point_rho(solver):
    """rho from the oracle's eleven equations, one row-scaled 55 x 33 lstsq
    per circle point, averaged: the solve that the stacked one replaced."""
    n, radius = threesite._CIRCLE_POINTS, threesite._CIRCLE_RADIUS
    lams = radius * np.exp(2j * np.pi * (np.arange(n) + 0.5) / n)
    m_inv, zero = gram_inverse(3), np.zeros((11, 11))
    rhos = []
    for lam, g in zip(lams, solver.value(lams[:, None] + np.arange(5))):
        aug = [_augmented(lam + k, g[k : k + 3]) for k in range(3)]
        a3 = [a3_closed_form(lam + k, lam + k) for k in range(2)]
        mat = np.zeros((55, 33), dtype=complex)
        for k in range(3):
            mat[11 * k : 11 * k + 11, 11 * k : 11 * k + 11] = aug[k][:, :11]
        mat[33:] = np.block([[m_inv, -a3[0] @ m_inv, zero], [zero, m_inv, -a3[1] @ m_inv]])
        rhs = np.concatenate([a[:, 11] for a in aug] + [np.zeros(22)])
        norms = np.linalg.norm(mat, axis=1)
        sol, *_ = np.linalg.lstsq(mat / norms[:, None], rhs / norms, rcond=None)
        rhos.append(m_inv @ sol[:11])
    return np.mean(rhos, axis=0)


def test_stacked_solve_matches_per_point_solve(g1_solver):
    rho, _ = three_site_density_coefficients(g1_solver)
    assert np.abs(rho - _per_point_rho(g1_solver)).max() <= 1e-14


def test_three_site_coefficients_diagnostics(g1_solver):
    rho, diagnostics = three_site_density_coefficients(g1_solver)
    assert rho.shape == (11,)
    assert diagnostics["max_imag"] < 1e-9
    assert diagnostics["max_relative_residual"] < 1e-6
    # the defect relative to |A| |x| of the row-scaled systems is rounding:
    # 1.93e-16 at the defaults, and the bound is ten times that
    assert diagnostics["max_relative_residual"] <= 1.9e-15
    # normalization amplitude f1 = (GRAM_3 rho)_1 must be 1
    assert abs((GRAM_3 @ rho)[0] - 1) < 1e-9


def test_three_site_density_matrix_properties(d3):
    p12, p23 = _perm_ops()
    assert abs(np.trace(d3) - 1) < 1e-12
    assert np.abs(d3 - d3.T.conj()).max() < 1e-9
    assert np.linalg.eigvalsh((d3 + d3.T.conj()) / 2).min() > -1e-8
    assert abs(np.trace(d3 @ p12) - OMEGA33_HOMOGENEOUS) < 1e-9
    assert abs(np.trace(d3 @ p12 @ p23) - P12P23_REFERENCE) < 1e-7


def test_three_site_density_matrix_at_comb_accuracy(d3, g1_solver):
    # the row-scaled chain solve carries D3 to within 5e-14 of the comb's c2
    # and of the two-site omega
    p12, p23 = _perm_ops()
    c2 = g1_solver.taylor_coefficient(2).real
    assert abs(np.trace(d3 @ p12 @ p23) - c2 / 2) <= 5e-14
    assert abs(np.trace(d3 @ p12) - OMEGA33_HOMOGENEOUS) <= 5e-14


def test_partial_traces_collapse_to_two_site(d3):
    d2 = density_matrix_two_site(0.0)
    assert np.abs(partial_trace_last_site(d3) - d2).max() < 1e-5
    assert np.abs(partial_trace_first_site(d3) - d2).max() < 1e-5
    # the two partial traces agree with each other much more tightly
    assert np.abs(
        partial_trace_last_site(d3) - partial_trace_first_site(d3)
    ).max() < 1e-8


def test_partial_traces_at_circle_knee(d3):
    # 16 circle points resolve the Cauchy average: at 12 the last-site gap
    # was 4e-12
    d2 = density_matrix_two_site(0.0)
    assert np.abs(partial_trace_last_site(d3) - d2).max() <= 1e-13
    assert np.abs(partial_trace_first_site(d3) - d2).max() <= 1e-13


#: <P13> at the defaults from the per-point 55 x 33 solve that the stacked
#: 49 x 33 solve replaced: a regression pin, not an oracle.  ROADMAP item 1's
#: mpmath solve of D3 is to replace it.
P13_PIN = 0.04470820335774554


def test_three_site_density_matrix_p13_pin(d3):
    p12, p23 = _perm_ops()
    assert abs(np.trace(d3 @ p12 @ p23 @ p12) - P13_PIN) <= 5e-14


def _omega33_taylor():
    """``W_k``, the Taylor coefficients of omega33 in powers of lam^2:
    ``W_0 = omega33(0)`` as the correctly rounded constant, and
    ``W_k = c_(k-1) - c_k`` from ``zeta_expansion``, since
    ``omega33 = (lam^2 - 1) G - 1``."""
    c = twosite.zeta_expansion(6)
    return [float(OMEGA33_HOMOGENEOUS)] + [c[k - 1] - c[k] for k in range(1, 7)]


@pytest.mark.parametrize(
    "k, weights",
    # g_3 = 4 W_0 - 4 W_1 and g_5 = 8 W_0 - 4 W_1 - 6 W_2, found by PSLQ at
    # 30 digits (ROADMAP item 8); measured: 8.4e-15 and 0.0 (real), 9.4e-15
    # and 2.5e-14 (imaginary)
    [(3, (4, -4)), (5, (8, -4, -6))],
)
def test_odd_taylor_coefficients_are_two_site_data(g1_solver, k, weights):
    expected = sum(a * w for a, w in zip(weights, _omega33_taylor()))
    got = g1_solver.taylor_coefficient(k)
    assert abs(got.real - expected) <= 1e-13
    assert abs(got.imag) <= 1e-13


def test_p13_meets_its_closed_form(d3):
    # <P13> = W_0 - 3 W_1 = 1 - 4 pi/(3 sqrt 3) - 4 ln 3 + 8 zeta(3)/3
    # + 4 pi^3/(27 sqrt 3), by zeta(3, 1/3) = 13 zeta(3) + 2 pi^3/(3 sqrt 3);
    # measured: D3 -5.1e-15 off, the Taylor data -2.4e-15
    import mpmath as mp

    with mp.workdps(30):
        root3 = mp.sqrt(3)
        exact = float(
            1 - 4 * mp.pi / (3 * root3) - 4 * mp.log(3) + 8 * mp.zeta(3) / 3
            + 4 * mp.pi**3 / (27 * root3)
        )
    p12, p23 = _perm_ops()
    assert abs(np.trace(d3 @ p12 @ p23 @ p12) - exact) <= 2e-14
    w = _omega33_taylor()
    assert abs(w[0] - 3 * w[1] - exact) <= 1e-14
