"""Special functions against mpmath and their defining recurrences."""

import math
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from su3chain.specfun import (
    BERNOULLI_EVEN,
    _polygamma,
    _psi_horner,
    digamma_array,
    digamma_trigamma_array,
    hurwitz_zeta_array,
    tetragamma_array,
    trigamma_array,
)

mp.mp.dps = 30

SAMPLE_POINTS = [
    0.3 + 0.0j,
    1.0 + 0.0j,
    4 / 3 + 0.0j,
    -2.4 + 0.7j,
    5.5 - 3.2j,
    -0.45 - 0.05j,
    17.0 + 0.0j,
    0.01 + 2j,
]


@pytest.mark.parametrize("z", SAMPLE_POINTS)
def test_digamma_against_mpmath(z):
    ours = complex(digamma_array(z)[0])
    ref = complex(mp.digamma(mp.mpc(z)))
    assert abs(ours - ref) < 1e-13 * max(1.0, abs(ref))


@pytest.mark.parametrize("z", SAMPLE_POINTS)
def test_trigamma_against_mpmath(z):
    ours = complex(trigamma_array(z)[0])
    ref = complex(mp.polygamma(1, mp.mpc(z)))
    assert abs(ours - ref) < 1e-13 * max(1.0, abs(ref))


@pytest.mark.parametrize("z", SAMPLE_POINTS)
def test_tetragamma_against_mpmath(z):
    ours = complex(tetragamma_array(z)[0])
    ref = complex(mp.polygamma(2, mp.mpc(z)))
    assert abs(ours - ref) < 1e-12 * max(1.0, abs(ref))


#: left of Re z = 1/2, where the reflection applies, and far enough off the
#: real axis that sin(pi z) overflows (|Im z| > ~113)
FAR_REFLECTED_POINTS = [
    0.2 + 120j,
    0.2 - 120j,
    -0.5 + 2000j,
    -3.3 - 500j,
    -3.3 + 500j,
    0.2 + 1e4j,
    0.2 - 1e4j,
    -7.9 - 1e4j,
]


@pytest.mark.parametrize("z", FAR_REFLECTED_POINTS)
@pytest.mark.parametrize(
    "order, fn", [(0, digamma_array), (1, trigamma_array), (2, tetragamma_array)]
)
def test_reflection_far_off_axis_against_mpmath(order, fn, z):
    # tan(pi z) underflows harmlessly towards +-i; nothing may overflow
    with np.errstate(over="raise", invalid="raise"):
        ours = complex(fn(z)[0])
    ref = complex(mp.polygamma(order, mp.mpc(z)))
    assert abs(ours - ref) < 1e-13 * abs(ref)


#: both sides of the reflection at Re z = 1/2, near the poles, in the
#: asymptotic region and far off the real axis
FUSED_POINTS = [
    0.3 + 0.2j,
    -2.7 + 0.01j,
    -0.5 + 3j,
    -15.5 + 0.3j,
    0.49 + 0j,
    0.51 + 0j,
    12 + 0.5j,
    0.2 + 1e4j,
    0.2 - 1e4j,
    -3.3 - 500j,
    1e3 + 1e3j,
]


@pytest.mark.parametrize("z", FUSED_POINTS)
def test_digamma_trigamma_against_mpmath(z):
    with np.errstate(over="raise", invalid="raise"):
        psi, psi1 = (complex(v[0]) for v in digamma_trigamma_array(z))
    for ours, ref in (
        (psi, complex(mp.digamma(mp.mpc(z)))),
        (psi1, complex(mp.psi(1, mp.mpc(z)))),
    ):
        assert abs(ours - ref) < 1e-13 * max(1.0, abs(ref))


def _mp_from_long_double(x):
    return mp.mpc(
        *(mp.mpf(np.format_float_scientific(v, unique=True)) for v in (x.real, x.imag))
    )


@pytest.mark.parametrize("z", FUSED_POINTS)
def test_digamma_trigamma_long_double_against_mpmath(z):
    """Long-double input is evaluated in long double, for orders 0, 1 and 2.

    The bounds assume the x86-64 80-bit extended long double (as on Linux
    x86-64); where ``np.longdouble`` is float64 they cannot hold.  Order 2
    gets 5e-17: its reflection term ``2 pi^3 cot (1 + cot^2)`` cancels in
    ``1 + cot^2`` a few units off the real axis, and measures 1.5e-17 at
    ``-0.5 + 3j``.  Both bounds lie below complex128's rounding.
    """
    x = np.array([z], dtype=np.clongdouble)
    with np.errstate(over="raise", invalid="raise"):
        psi, psi1 = digamma_trigamma_array(x)
        psi2 = tetragamma_array(x)
    assert psi.dtype == psi1.dtype == psi2.dtype == np.clongdouble
    for ours, ref, bound in (
        (psi[0], mp.digamma(z), 2e-17),
        (psi1[0], mp.psi(1, z), 2e-17),
        (psi2[0], mp.psi(2, z), 5e-17),
    ):
        assert abs(_mp_from_long_double(ours) - ref) < bound * max(1, abs(ref))


def test_digamma_trigamma_agrees_with_separate_kernels():
    rng = np.random.default_rng(7)
    z = rng.uniform(-20, 20, (100, 100)) + 1j * rng.uniform(-20, 20, (100, 100))
    psi, psi1 = digamma_trigamma_array(z)
    assert psi.shape == psi1.shape == z.shape
    for ours, ref in ((psi, digamma_array(z)), (psi1, trigamma_array(z))):
        assert np.all(np.abs(ours - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))


def _off_axis(re, im, sign):
    return complex(re, sign * im)


#: Complex128 regions where the fixed bounds hold.  Near the negative real
#: axis the absolute error of ``tan(pi z)`` grows like ``|z| eps`` and the
#: reflected values with it, so left of ``Re z = 1/2`` the samples keep
#: ``|Im z| >= 1``.
POLYGAMMA_REGIONS = {
    "off-axis": st.builds(
        _off_axis, st.floats(-1e3, 1e4), st.floats(1, 1e4), st.sampled_from((-1, 1))
    ),
    "right-half": st.builds(
        complex, st.floats(0.5, 1e4), st.floats(-1, 1, exclude_min=True, exclude_max=True)
    ),
}


@pytest.mark.parametrize("region", sorted(POLYGAMMA_REGIONS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_polygamma_orders_against_mpmath(region, data):
    z = data.draw(POLYGAMMA_REGIONS[region])
    with np.errstate(over="raise", invalid="raise"):
        values = (digamma_array(z), trigamma_array(z), tetragamma_array(z))
    for order, (ours, bound) in enumerate(zip(values, (1e-13, 1e-13, 1e-12))):
        ref = complex(mp.polygamma(order, mp.mpc(z)))
        assert abs(complex(ours[0]) - ref) < bound * max(1.0, abs(ref)), (order, z)


@pytest.mark.parametrize("s", [2, 3, 5, 7, 11])
@pytest.mark.parametrize("a", [1.0, 4 / 3, 0.25 + 0.5j, 6.0 - 2.0j])
def test_hurwitz_zeta_against_mpmath(s, a):
    ours = complex(hurwitz_zeta_array(s, a)[0])
    ref = complex(mp.zeta(s, mp.mpc(a)))
    assert abs(ours - ref) < 1e-13 * max(1.0, abs(ref))


#: where the library sums Hurwitz zeta: x = z/3 + 13 on the comb's Laurent
#: circles of radius 0.45 around 0 and -2 (ten points each)
COMB_TAIL_ARGUMENTS = [
    center / 3 + 13 + 0.15 * np.exp(2j * np.pi * (k + 0.5) / 10)
    for center in (0, -2)
    for k in range(10)
]


@pytest.mark.parametrize("s", range(2, 17))
def test_hurwitz_zeta_relative_on_comb_tail(s):
    # the values are 2e-18..0.09, mostly below the absolute floor of the test
    # above; the asymptotic series' truncation grows with s, to 1.3e-13 at 16
    ours = hurwitz_zeta_array(s, np.array(COMB_TAIL_ARGUMENTS))
    ref = np.array([complex(mp.zeta(s, mp.mpc(x))) for x in COMB_TAIL_ARGUMENTS])
    assert np.all(np.abs(ours - ref) <= 2e-13 * np.abs(ref))


#: arguments near the origin, on both sides of Re z = 1/2, where the kernel
#: shifts (and with ``reflect`` reflects) before its asymptotic series
NEAR_ORIGIN_ARGUMENTS = [0.3 + 0.2j, -2.7 + 0.01j, -0.5 + 3j, 0.49, 0.51, 1.5 - 0.4j, 7 + 6j]


@pytest.mark.parametrize("reflect", [True, False])
@pytest.mark.parametrize(
    "orders", [(0, 3), (1, 2, 15), tuple(range(1, 16))], ids=["0-3", "1-2-15", "1-to-15"]
)
def test_polygamma_orders_do_not_interact(orders, reflect):
    # orders 0-2 and the higher ones each keep their own radius, so an order
    # asked for together with others is its single-order value bit for bit
    z = np.array(COMB_TAIL_ARGUMENTS + NEAR_ORIGIN_ARGUMENTS)
    together = _polygamma(z, orders, reflect=reflect)
    for n, value in zip(orders, together):
        assert np.array_equal(value, _polygamma(z, (n,), reflect=reflect)[0]), n


@pytest.mark.parametrize("n", [3, 4, 7])
@pytest.mark.parametrize("z", [-0.5 + 3j, -3.3 + 0.7j, 0.2 - 0.1j])
def test_high_orders_are_summed_not_reflected(n, z):
    # only orders 0-2 have a reflection formula, so left of 1/2 an order
    # above 2 is summed from z whatever reflect says; measured 2.2e-15 at most
    ours = _polygamma(z, (n,))[0]
    assert np.array_equal(ours, _polygamma(z, (n,), reflect=False)[0])
    ref = complex(mp.polygamma(n, mp.mpc(z)))
    assert abs(complex(ours[0]) - ref) <= 4e-15 * abs(ref)


def test_hurwitz_zeta_orders_in_one_pass():
    a = np.array(COMB_TAIL_ARGUMENTS + NEAR_ORIGIN_ARGUMENTS)
    orders = tuple(range(2, 17))
    zeta = hurwitz_zeta_array(orders, a)
    assert zeta.shape == (len(orders), len(a))
    for k, s in enumerate(orders):
        assert np.array_equal(zeta[k], hurwitz_zeta_array(s, a))


@pytest.mark.parametrize("s", [3, 7, 11])
@pytest.mark.parametrize("a", [0.25 + 0.5j, -3.3 + 0.7j])
def test_hurwitz_zeta_left_of_one_half(s, a):
    # summed from a itself, not reflected: a reflected order 2 (s = 3) loses
    # digits to the derivatives of cot, 8.4e-15 at -3.3 + 0.7i
    ours = complex(hurwitz_zeta_array(s, a)[0])
    ref = complex(mp.zeta(s, mp.mpc(a)))
    assert abs(ours - ref) <= 4e-15 * abs(ref)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(-8, 8, allow_nan=False),
    st.floats(0.1, 8, allow_nan=False),
)
def test_digamma_recurrence(re, im):
    z = complex(re, im)  # off the real axis, so never at a pole
    lhs = complex(digamma_array(z + 1)[0] - digamma_array(z)[0])
    assert abs(lhs - 1 / z) < 1e-12 * max(1.0, abs(1 / z))


@settings(max_examples=40, deadline=None)
@given(st.floats(0.5, 8, allow_nan=False), st.floats(0.1, 8, allow_nan=False))
def test_trigamma_is_derivative_of_digamma(re, im):
    z = complex(re, im)
    h = 1e-5
    stencil = (
        complex(digamma_array(z - 2 * h)[0])
        - 8 * complex(digamma_array(z - h)[0])
        + 8 * complex(digamma_array(z + h)[0])
        - complex(digamma_array(z + 2 * h)[0])
    ) / (12 * h)
    assert abs(stencil - complex(trigamma_array(z)[0])) < 1e-8


def test_hurwitz_zeta_rejects_bad_s():
    with pytest.raises(ValueError):
        hurwitz_zeta_array(1, 2.0)
    with pytest.raises(ValueError):
        hurwitz_zeta_array(2.5, 2.0)
    for s in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match=f"integer s >= 2, got {s}"):
            hurwitz_zeta_array(s, 2.0)
    for s in ((2, 1), (3, 2.5), (2, float("nan")), ()):
        with pytest.raises(ValueError, match=re.escape(f"integer s >= 2, got {s}")):
            hurwitz_zeta_array(s, 2.0)


@pytest.mark.parametrize("real", [np.float64, np.longdouble])
@pytest.mark.parametrize("n", [0, 1, 2, 5, 15])
def test_psi_horner_is_the_exact_coefficient_rounded(real, n):
    one = np.dtype(real).type(1)
    exact = [
        Fraction(*b) * Fraction(math.factorial(2 * k + n - 1), math.factorial(2 * k))
        for k, b in enumerate(BERNOULLI_EVEN, start=1)
    ]
    held = _psi_horner(real, n)
    assert [np.dtype(type(c)) for c in held] == [np.dtype(real)] * len(exact)
    assert held == [one * c.numerator / c.denominator for c in exact][::-1]


def test_the_kernels_import_without_fractions():
    # fractions loads decimal's C extension; the float kernels need neither
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import su3chain.threesite; "
        "print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    )
    child = subprocess.run(
        [sys.executable, "-c", code, src], capture_output=True, text=True, timeout=120
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.split() == ["[]"]
