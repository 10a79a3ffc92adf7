"""R-matrix identities: Yang-Baxter, unitarity, fusion, contraction rules."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from su3chain.rmatrix import (
    RKind,
    check_fusion,
    check_unitarity,
    check_yang_baxter,
    identity_suite,
    r_operator,
    special_kind_triples,
    standard_kind_triples,
)

TOL = 1e-12

finite = st.floats(-3, 3, allow_nan=False)


def test_regularity_ff_at_zero_is_identity():
    assert np.allclose(r_operator(RKind.FF, 3, 0.0), np.eye(9))


def test_ff_operator_form():
    lam = 0.7 - 0.2j
    p = np.zeros((9, 9))
    for a in range(3):
        for b in range(3):
            p[3 * b + a, 3 * a + b] = 1
    assert np.allclose(r_operator(RKind.FF, 3, lam), np.eye(9) + lam * p)


def test_identity_suite_all_below_tolerance():
    residuals = identity_suite(seed=7, samples=50)
    assert residuals, "suite returned no checks"
    for name, res in residuals.items():
        assert res < TOL, f"{name}: residual {res}"


@settings(max_examples=25, deadline=None)
@given(finite, finite, finite, finite, finite, finite)
def test_standard_ybe_property(a, b, c, d, e, f):
    lam, mu, nu = complex(a, b), complex(c, d), complex(e, f)
    for triple in standard_kind_triples():
        assert check_yang_baxter(*triple, lam, mu, nu) < 1e-10


def test_special_ybe_needs_the_shift():
    lam, mu, nu = 0.37 + 0.11j, -0.82 + 0.4j, 0.05 - 0.6j
    for triple in special_kind_triples():
        shifted = check_yang_baxter(*triple, lam, mu, nu)
        unshifted = check_yang_baxter(*triple, lam, mu, nu, shift=0)
        assert shifted < TOL
        assert unshifted > 1e-2, "unshifted special YBE unexpectedly holds"


@pytest.mark.parametrize("kind,scalar_fn", [
    ("standard", lambda d: 1 - d**2),
    ("special-1", lambda d: (-d) * (d + 3)),
    ("special-2", lambda d: d * (-d + 3)),
])
def test_unitarity_scalars(kind, scalar_fn):
    lam, mu = 1.3 - 0.7j, -0.4 + 0.2j
    residual, scalar = check_unitarity(kind, 3, lam, mu)
    assert residual < TOL
    assert abs(scalar - scalar_fn(lam - mu)) < TOL


@pytest.mark.parametrize("direction,scalar_fn", [
    ("up", lambda lam, mu: (lam + 2 - mu) * (1 - (lam - mu) ** 2)),
    ("down", lambda lam, mu: (mu - lam) * (1 - (lam + 2 - mu) ** 2)),
])
def test_fusion_scalars(direction, scalar_fn):
    lam, mu = 0.9 + 0.3j, -1.1 - 0.5j
    residual, scalar = check_fusion(3, lam, mu, direction)
    assert residual < TOL
    assert abs(scalar - scalar_fn(lam, mu)) < TOL


def test_fusion_rejects_other_n():
    with pytest.raises(ValueError):
        check_fusion(2, 0.1, 0.2, "up")


def test_unitarity_reports_degenerate_scalar():
    # at lam = mu the standard scalar is 1 and the product is the identity
    residual, scalar = check_unitarity("standard", 3, 0.5, 0.5)
    assert scalar == 1
    assert residual < TOL


def _all_checks():
    """The 13 checks of the identity suite, each as ``f(lam, mu, nu)``."""
    checks = {}
    for t in standard_kind_triples() + special_kind_triples():
        name = "ybe_" + "".join(k.value for k in t)
        checks[name] = lambda lam, mu, nu, t=t: check_yang_baxter(*t, lam, mu, nu)
    for kind in ("standard", "special-1", "special-2"):
        checks["unitarity_" + kind] = (
            lambda lam, mu, nu, kind=kind: check_unitarity(kind, 3, lam, mu)[0]
        )
    for direction in ("up", "down"):
        checks["fusion_" + direction] = (
            lambda lam, mu, nu, d=direction: check_fusion(3, lam, mu, d)[0]
        )
    return checks


def test_array_checks_match_scalar_calls():
    rng = np.random.default_rng(2024)
    lam, mu, nu = rng.uniform(-3, 3, (3, 20)) + 1j * rng.uniform(-3, 3, (3, 20))
    checks = _all_checks()
    assert len(checks) == 13
    for name, check in checks.items():
        batched = check(lam, mu, nu)
        scalar = max(check(*point) for point in zip(lam, mu, nu))
        assert abs(batched - scalar) < 1e-13, name
        assert batched < TOL and scalar < TOL, name
    for triple in special_kind_triples():
        assert check_yang_baxter(*triple, lam, mu, nu, shift=0) > 1e-2


def test_array_scalars_have_parameter_shape():
    lam = np.array([1.3 - 0.7j, 0.2 + 0.1j])
    _, scalar = check_unitarity("standard", 3, lam, 0.0)
    assert np.allclose(scalar, 1 - lam**2)
    _, scalar = check_fusion(3, lam, 0.0, "down")
    assert np.allclose(scalar, -lam * (1 - (lam + 2) ** 2))
    assert r_operator(RKind.FA, 3, lam.reshape(2, 1)).shape == (2, 1, 9, 9)


def test_identity_suite_memory_is_blocked():
    # each check runs on blocks of a fixed 64 points, so the peak does not
    # grow with the sample count (unblocked, 500 samples take about 24 MiB)
    tracemalloc.start()
    try:
        identity_suite(seed=7, samples=500)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
