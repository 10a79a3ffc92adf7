"""Closed-form two-site solution: values, equations, expansions."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from su3chain import twosite
from su3chain.specfun import PoleError
from su3chain.twosite import OMEGA33_HOMOGENEOUS

#: alpha33(0,0) = (2 - pi/sqrt(3) - 3 log 3)/24
ALPHA33_HOMOGENEOUS = (2 - np.pi / np.sqrt(3) - 3 * np.log(3)) / 24


def test_homogeneous_values():
    assert abs(complex(twosite.omega33(0.0)) - OMEGA33_HOMOGENEOUS) < 1e-14
    assert abs(complex(twosite.alpha33(0.0)) - ALPHA33_HOMOGENEOUS) < 1e-14
    # closed constants against their published decimal forms
    assert abs(OMEGA33_HOMOGENEOUS - (-0.703212076746182)) < 1e-12
    assert abs(ALPHA33_HOMOGENEOUS - (-0.12956817625994)) < 1e-12


def test_omega33_at_unit_arguments():
    # the rational part of sigma survives the (lam^2 - 1) prefactor
    assert abs(complex(twosite.omega33(1.0)) + 1) < 1e-14
    assert abs(complex(twosite.omega33(-1.0)) + 1) < 1e-14


@settings(max_examples=40, deadline=None)
@given(st.floats(-2.5, 2.5, allow_nan=False), st.floats(0.05, 2, allow_nan=False))
def test_omega33_is_even(re, im):
    lam = complex(re, im)
    assert abs(complex(twosite.omega33(lam)) - complex(twosite.omega33(-lam))) < 1e-11


def test_difference_equations_on_grid():
    # the residual grid backing the functional-equation acceptance check
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        lam = complex(rng.uniform(-2.5, 2.5), rng.uniform(0.2, 2.0))
        res1, res2 = twosite.check_difference_equations(lam)
        worst = max(worst, res1, res2)
    assert worst < 1e-11


def test_three_term_equation():
    rng = np.random.default_rng(12)
    for _ in range(50):
        lam = complex(rng.uniform(-2.0, 2.0), rng.uniform(0.3, 2.0))
        assert twosite.check_three_term(lam) < 1e-11


def test_difference_equation_check_guards_poles():
    with pytest.raises(PoleError):
        twosite.check_difference_equations(1.0)


def test_omega_bar_removable_point():
    # omega_bar33 at -1 equals 1 + omega33'(-1); with omega33 = (lam^2 - 1) G - 1
    # that derivative is 2 lam G + (lam^2 - 1) G', which is -2 G(-1) at -1;
    # cross-check by circle mean
    direct = complex(twosite.omega_bar33(-1.0))
    expected = 1 - 2 * complex(twosite.generating_function(-1.0))
    theta = 2 * np.pi * np.arange(64) / 64
    circle = np.mean(twosite.omega_bar33(-1.0 + 0.05 * np.exp(1j * theta)))
    assert abs(direct - expected) < 1e-12
    assert abs(direct - circle) < 1e-10


def test_generating_function_forms_agree():
    for lam in (0.4 + 0.2j, 2.2 - 1.0j, -0.7 + 0.9j):
        a = complex(twosite.generating_function(lam))
        b = (complex(twosite.omega33(lam)) + 1) / (lam**2 - 1)
        assert abs(a - b) < 1e-12


def test_zeta_expansion_matches_numerical_taylor():
    K = 5
    coeffs = twosite.zeta_expansion(K)
    r = 1.2
    m = 512
    theta = 2 * np.pi * np.arange(m) / m
    values = twosite.generating_function(r * np.exp(1j * theta))
    for k in range(K + 1):
        numeric = np.mean(values * np.exp(-2j * k * theta)) / r ** (2 * k)
        assert abs(numeric - coeffs[k]) < 1e-8, f"k = {k}"


def test_zeta_expansion_bounds():
    with pytest.raises(ValueError):
        twosite.zeta_expansion(-1)
    with pytest.raises(ValueError):
        twosite.zeta_expansion(21)


def test_digamma_part_derivative_matches_stencil():
    # G', the derivative phi takes from digamma_parts, against a five-point
    # stencil of G itself
    lam = 0.45 + 0.35j
    h = 1e-4
    stencil = (
        complex(twosite.generating_function(lam - 2 * h))
        - 8 * complex(twosite.generating_function(lam - h))
        + 8 * complex(twosite.generating_function(lam + h))
        - complex(twosite.generating_function(lam + 2 * h))
    ) / (12 * h)
    assert abs(stencil - twosite.digamma_parts(lam)[1]) < 1e-9


def test_digamma_parts_are_bit_identical_to_the_separate_parts():
    # each kernel order is computed on its own, so taking G' from the same
    # pass (what threesite.phi does) changes no bit of G
    rng = np.random.default_rng(2024)
    lam = rng.uniform(-6, 6, 20_000) + 1j * rng.uniform(-6, 6, 20_000)
    part, _ = twosite.digamma_parts(lam)
    assert np.array_equal(part, twosite.generating_function(lam))
