"""Acceptance suite: one pass/fail line per stated criterion.

Each test prints a single summary line (visible with ``pytest -rA`` or on
failure) and asserts the criterion at its stated tolerance.
"""

import time

import numpy as np

from su3chain import ed, twosite
from su3chain.basis import (
    GRAM_2,
    GRAM_3,
    a2_closed_form,
    a3_closed_form,
    a3_printed_zero_pattern,
    a_matrix,
    build_basis,
)
from su3chain.cli import main as cli_main
from su3chain.rmatrix import identity_suite
from su3chain.threesite import density_matrix_two_site, solve_g_recursion_residual

OMEGA33_REF = -0.703212076746182
ALPHA33_REF = -0.12956817625994
P12P23_REF = 0.191368820116674



def _report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_two_site_closed_form():
    start = time.perf_counter()
    omega = complex(twosite.omega33(0.0)).real
    alpha = complex(twosite.alpha33(0.0)).real
    elapsed = time.perf_counter() - start
    d_omega = abs(omega - OMEGA33_REF)
    d_alpha = abs(alpha - ALPHA33_REF)
    ok = d_omega < 1e-12 and d_alpha < 1e-12 and elapsed < 1.0
    _report(
        "criterion 1 (two-site closed form)",
        ok,
        f"|d omega33| = {d_omega:.2e}, |d alpha33| = {d_alpha:.2e}, "
        f"runtime {elapsed * 1e3:.2f} ms",
    )


def test_criterion_2_three_site_correlator(three_site_pair):
    solutions, elapsed = three_site_pair
    coarse, fine = (solutions[J] for J in sorted(solutions))
    delta = abs(fine.p12p23 - P12P23_REF)
    drift = abs(fine.p12p23 - coarse.p12p23)
    ok = delta < 1e-6 and drift < 1e-7 and elapsed < 300
    _report(
        "criterion 2 (three-site correlator)",
        ok,
        f"|d p12p23| = {delta:.2e} (stretch 1e-9: "
        f"{'met' if delta < 1e-9 else 'missed'}), grid-doubling drift = "
        f"{drift:.2e}, runtime {elapsed:.1f} s",
    )


def test_criterion_3_table1(ed_results, l9_full_space_energy):
    start = time.perf_counter()
    fresh_l9 = ed.ground_state(ed.ChainSpec(9))
    l9_seconds = time.perf_counter() - start
    # The published L=9 energy per bond lies below the ground-state energy of
    # the chain, so no state reaches it (variational principle).  That cell is
    # replaced by the independent full-space ground state; the erratum itself
    # is asserted below and printed on the summary line.
    independent_w9 = l9_full_space_energy / 9
    published_w9 = ed.REFERENCE_TABLE1[9][0]
    checks = []
    for L, tol in ((3, 1e-12), (6, 1e-10), (9, 1e-8)):
        result = ed_results[L]
        ref_w, ref_pp = ed.REFERENCE_TABLE1[L]
        w_name = f"L={L} omega33"
        if L == 9:
            ref_w, w_name = independent_w9, "L=9 omega33 vs full-space solve"
        checks.append((w_name, abs(result.energy_per_bond - ref_w), tol))
        checks.append(
            (f"L={L} p12p23", abs(result.observables["p12p23"] - ref_pp), tol)
        )
    checks.append(("L=9 runtime (s, limit 60)", l9_seconds, 60.0))
    failures = [
        f"{name} = {value:.3e}" for name, value, tol in checks if not (value < tol)
    ]
    # premise of the exception: the published cell is unattainable
    if not (published_w9 - independent_w9 < -1e-8):
        failures.append("published L=9 omega33 is not below the ground state")
    detail = "; ".join(f"{name}: {value:.2e}" for name, value, tol in checks)
    detail += (
        f" | L=9 independent E0/L = {independent_w9:.16f}, "
        f"ED - independent = {ed_results[9].energy_per_bond - independent_w9:.2e}, "
        f"published - independent = {published_w9 - independent_w9:.2e}"
    )
    _report("criterion 3 (finite-size table)", not failures, detail)


def test_criterion_4_matrix_verification():
    gram_ok = True
    for m, gram in ((2, GRAM_2), (3, GRAM_3)):
        flat = build_basis(m).reshape(len(gram), -1)
        gram_ok = gram_ok and np.array_equal(flat @ flat.T, gram)
    rng = np.random.default_rng(29)

    def draw():
        while True:
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if min(abs(z), abs(z + 3)) > 0.2:
                return z

    dev2 = max(
        np.abs(a_matrix(2, lam, 0.0) - a2_closed_form(lam)).max()
        for lam in (draw() for _ in range(20))
    )
    dev3 = 0.0
    zero_dev = 0.0
    pattern = a3_printed_zero_pattern()
    for _ in range(20):
        x = draw()
        y = draw()
        while abs(x - y) < 0.2:
            y = draw()
        computed = a_matrix(3, x, x - y, 0.0)
        dev3 = max(dev3, np.abs(computed - a3_closed_form(x, y)).max())
        zero_dev = max(zero_dev, np.abs(computed[pattern]).max())
    ok = gram_ok and dev2 < 1e-10 and dev3 < 1e-10 and zero_dev < 1e-10
    _report(
        "criterion 4 (matrix verification)",
        ok,
        f"gram exact = {gram_ok}, max|dA2| = {dev2:.2e}, max|dA3| = {dev3:.2e}, "
        f"printed zeros = {zero_dev:.2e} at 20 random points each",
    )


def test_criterion_5_identity_suite():
    residuals = identity_suite(seed=7, samples=50)
    worst_name = max(residuals, key=residuals.get)
    worst = residuals[worst_name]
    exit_code = cli_main(["verify-algebra"])
    ok = worst < 1e-12 and exit_code == 0
    _report(
        "criterion 5 (identity suite)",
        ok,
        f"{len(residuals)} identities, worst {worst_name} = {worst:.2e}, "
        f"CI exit code {exit_code}",
    )


def test_criterion_6_functional_equation_residuals():
    rng = np.random.default_rng(31)
    worst_two_site = 0.0
    for _ in range(100):
        lam = complex(rng.uniform(-2.5, 2.5), rng.uniform(0.2, 2.0))
        res1, res2 = twosite.check_difference_equations(lam)
        res3 = twosite.check_three_term(lam)
        worst_two_site = max(worst_two_site, res1, res2, res3)
    contour_points = 1.6 + 0.08 * np.arange(10) + 0.1j
    worst_g = max(
        solve_g_recursion_residual(l, p)
        for l in (0, 1, -1)
        for p in contour_points
    )
    ok = worst_two_site < 1e-11 and worst_g < 1e-8
    _report(
        "criterion 6 (functional-equation residuals)",
        ok,
        f"two-site worst = {worst_two_site:.2e} on 100 points, "
        f"g_l recursion worst = {worst_g:.2e} at 10 contour points per l",
    )


def test_criterion_7_structural_invariants(d3):
    d2 = density_matrix_two_site(0.0)
    trace2 = abs(np.trace(d2) - 1)
    trace3 = abs(np.trace(d3) - 1)
    herm2 = np.abs(d2 - d2.T.conj()).max()
    herm3 = np.abs(d3 - d3.T.conj()).max()
    eig2 = np.linalg.eigvalsh((d2 + d2.T.conj()) / 2).min()
    eig3 = np.linalg.eigvalsh((d3 + d3.T.conj()) / 2).min()
    ptrace = np.abs(
        d3.reshape(9, 3, 9, 3).trace(axis1=1, axis2=3) - d2
    ).max()
    coeffs = twosite.zeta_expansion(5)
    r, m = 1.2, 512
    theta = 2 * np.pi * np.arange(m) / m
    g_values = twosite.generating_function(r * np.exp(1j * theta))
    zeta_dev = max(
        abs(np.mean(g_values * np.exp(-2j * k * theta)) / r ** (2 * k) - coeffs[k])
        for k in range(1, 6)
    )
    ok = (
        trace2 < 1e-12
        and trace3 < 1e-12
        and herm2 < 1e-12
        and herm3 < 1e-8
        and eig2 > -1e-8
        and eig3 > -1e-8
        and ptrace < 1e-5
        and zeta_dev < 1e-8
    )
    _report(
        "criterion 7 (structural invariants)",
        ok,
        f"trace defects {trace2:.1e}/{trace3:.1e}, hermiticity "
        f"{herm2:.1e}/{herm3:.1e}, min eigenvalues {eig2:.1e}/{eig3:.1e}, "
        f"partial-trace gap {ptrace:.2e}, zeta-expansion k=1..5 deviation "
        f"{zeta_dev:.2e}",
    )
