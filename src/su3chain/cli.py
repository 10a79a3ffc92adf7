"""Command-line interface.

Subcommands::

    verify-algebra    run the R-matrix identity suite (YBE, unitarity, fusion,
                      epsilon/delta contractions); exit 1 if any residual
                      exceeds tolerance
    verify-matrices   check the singlet Gram matrices (exact integers) and the
                      difference-equation matrices against their closed forms
                      at randomized non-singular points
    two-site          closed-form nearest-neighbour functions at a given lambda
    three-site        next-to-nearest correlator <P12 P23> from the
                      functional-equation solver
    ed                exact diagonalization of a finite periodic chain
    report-table1     finite-size versus thermodynamic comparison table

Output is JSON by default (stable key order, byte-identical for identical
invocations and seeds) with the top-level layout
{"command", "inputs", "results", "diagnostics", "paper_reference_values"};
``--format text`` gives key: value lines, and ``report-table1`` also supports
``--format csv``.  A plain ``key = value`` config file can preload any option;
explicit flags win, options of other subcommands are ignored, and a key that
no subcommand has is a usage error naming it.  The merged options are checked
before any work: ``--samples`` and ``--points`` lie in 1..100000, ``--seed``
is non-negative and ``--comb-terms`` lies in 1..100 (each comb term costs
about 0.5 MB, and 12 already leave a tail term of 3e-17); a violation is a
usage error naming the option.

Exit codes: 0 success, 1 verification failure (the failing check is named),
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

# Each handler imports the layers it runs, so a process compiles and loads
# only its own command's modules.  ed stays here: every payload carries its
# REFERENCE_TABLE1.
from . import ed as ed_mod

EXIT_OK, EXIT_VERIFY, EXIT_USAGE = 0, 1, 2

#: published reference values, embedded so result diffing needs no lookup
PAPER_REFERENCE_VALUES = {
    "omega33_homogeneous": -0.703212076746182,
    "alpha33_homogeneous": -0.12956817625994,
    "p12p23_thermodynamic": 0.191368820116674,
    "table1": {str(L): list(v) for L, v in ed_mod.REFERENCE_TABLE1.items()},
}

_ALGEBRA_TOL = 1e-12
_MATRIX_TOL = 1e-10


def _emit(payload: dict, fmt: str) -> None:
    """Print the payload; a reader that closes the pipe early is no error."""
    try:
        if fmt == "json":
            print(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False))
        elif fmt == "text":
            for section in ("command", "inputs", "results", "diagnostics"):
                print(f"[{section}]")
                value = payload[section]
                if isinstance(value, dict):
                    for k in sorted(value):
                        print(f"{k} = {value[k]}")
                else:
                    print(value)
        else:  # csv, which _usage_error allows for report-table1 only
            rows = payload["results"]["rows"]
            print(",".join(rows[0].keys()))
            for row in rows:
                print(",".join(str(v) for v in row.values()))
        sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit, so send it nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _payload(command: str, inputs: dict, results: dict, diagnostics: dict) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "results": results,
        "diagnostics": diagnostics,
        "paper_reference_values": PAPER_REFERENCE_VALUES,
    }


def _fail(fmt: str, payload: dict, message: str) -> int:
    # named first: a non-finite value makes _emit itself raise
    print(f"verification failed: {message}", file=sys.stderr)
    _emit(payload, fmt)
    return EXIT_VERIFY


_MAX_POINTS = 100_000
#: the ``comb_terms`` default of ``threesite.three_site_correlator``, written
#: out so that building the parser imports no threesite; a test holds the two
#: together
_COMB_TERMS = 12
_MAX_COMB_TERMS = 100
_FORMATS = ("json", "text", "csv")


def _usage_error(args) -> str | None:
    """Why the merged options are invalid, checked before any work is done.

    Argparse casts config values with each option's type but does not check
    them against its choices, so every rule is applied here, after the merge.
    """
    for name in ("samples", "points"):
        value = getattr(args, name, None)
        if value is not None and not 1 <= value <= _MAX_POINTS:
            return f"--{name} must be in 1..{_MAX_POINTS}, got {value}"
    seed = getattr(args, "seed", None)
    if seed is not None and seed < 0:
        return f"--seed must be >= 0, got {seed}"
    comb_terms = getattr(args, "comb_terms", None)
    if comb_terms is not None and not 1 <= comb_terms <= _MAX_COMB_TERMS:
        return f"--comb-terms must be in 1..{_MAX_COMB_TERMS}, got {comb_terms}"
    if args.format not in _FORMATS:
        return f"--format must be one of {', '.join(_FORMATS)}, got {args.format!r}"
    if args.format == "csv" and args.command != "report-table1":
        return "--format csv is only available for report-table1"
    return None


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def _cmd_verify_algebra(args) -> int:
    from . import rmatrix

    residuals = rmatrix.identity_suite(seed=args.seed, samples=args.samples)
    worst = max(residuals, key=residuals.get)
    results = {name: float(res) for name, res in sorted(residuals.items())}
    payload = _payload(
        "verify-algebra",
        {"seed": args.seed, "samples": args.samples, "tolerance": _ALGEBRA_TOL},
        results,
        {"worst_identity": worst, "worst_residual": float(residuals[worst])},
    )
    if not (residuals[worst] <= _ALGEBRA_TOL):
        return _fail(
            args.format, payload, f"identity {worst!r} residual {residuals[worst]:.3e}"
        )
    _emit(payload, args.format)
    return EXIT_OK


def _random_points(rng, count):
    pts = []
    while len(pts) < count:
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        # keep clear of the singular sets lam in {0, -3}
        if min(abs(z), abs(z + 3)) > 0.2:
            pts.append(z)
    return pts


def _cmd_verify_matrices(args) -> int:
    from . import basis as basis_mod

    rng = np.random.default_rng(args.seed)
    diagnostics: dict = {}
    # Gram matrices: build_basis raises if contraction != printed integers
    for m in (2, 3):
        basis_mod.build_basis(m)
    results: dict = {"gram_2_exact": True, "gram_3_exact": True}
    dev2 = 0.0
    for lam in _random_points(rng, args.points):
        a = basis_mod.a_matrix(2, lam, 0.0)
        dev2 = max(dev2, float(np.abs(a - basis_mod.a2_closed_form(lam)).max()))
    dev3 = 0.0
    zero_dev = 0.0
    zero_pattern = basis_mod.a3_printed_zero_pattern()
    for x in _random_points(rng, args.points):
        y = _random_points(rng, 1)[0]
        # A3 is finite at x = y; the margin only keeps the seeded points unchanged
        while abs(x - y) < 0.2:
            y = _random_points(rng, 1)[0]
        a = basis_mod.a_matrix(3, x, x - y, x - x)
        closed = basis_mod.a3_closed_form(x, y)
        dev3 = max(dev3, float(np.abs(a - closed).max()))
        zero_dev = max(zero_dev, float(np.abs(a[zero_pattern]).max()))
    results.update(
        {
            "a2_max_deviation": dev2,
            "a3_max_deviation": dev3,
            "a3_zero_entries_max": zero_dev,
        }
    )
    diagnostics["points_per_matrix"] = args.points
    payload = _payload(
        "verify-matrices",
        {"seed": args.seed, "points": args.points, "tolerance": _MATRIX_TOL},
        results,
        diagnostics,
    )
    for name in ("a2_max_deviation", "a3_max_deviation", "a3_zero_entries_max"):
        if not (results[name] <= _MATRIX_TOL):
            return _fail(args.format, payload, f"{name} = {results[name]:.3e}")
    _emit(payload, args.format)
    return EXIT_OK


# a non-finite value fails the residual gate or the strict JSON emit, with
# the reason on stderr, so numpy's floating-point warnings would only add noise
@np.errstate(all="ignore")
def _cmd_two_site(args) -> int:
    from . import twosite
    from .specfun import PoleError

    lam = complex(args.lam)
    if not np.isfinite(lam):
        print(f"usage error: --lambda must be finite, got {args.lam}", file=sys.stderr)
        return EXIT_USAGE
    # the residuals are checked at lam itself, except at the physical points
    # 0, +-1, where the check formulas are singular
    check_point = lam if min(abs(lam), abs(lam - 1), abs(lam + 1)) > 1e-3 else 0.4 + 0.3j
    try:
        res1, res2 = twosite.check_difference_equations(check_point)
        three_term = twosite.check_three_term(check_point)
    except PoleError as exc:
        print(f"usage error: --lambda: {exc}", file=sys.stderr)
        return EXIT_USAGE
    values = {"omega33": twosite.omega33(lam), "alpha33": twosite.alpha33(lam)}
    if lam.imag == 0:
        results = {k: v.real for k, v in values.items()}
    else:
        results = {k: [v.real, v.imag] for k, v in values.items()}
    diagnostics = {
        "difference_equation_residuals": [float(res1), float(res2)],
        "three_term_residual": float(three_term),
    }
    if lam == 0:
        for k in values:
            diagnostics[f"{k}_delta_vs_reference"] = (
                values[k].real - PAPER_REFERENCE_VALUES[f"{k}_homogeneous"]
            )
    payload = _payload(
        "two-site",
        {"lambda": [lam.real, lam.imag]},
        results,
        diagnostics,
    )
    if not (res1 <= 1e-11 and res2 <= 1e-11):
        return _fail(
            args.format, payload, f"difference-equation residuals {res1:.3e}, {res2:.3e}"
        )
    _emit(payload, args.format)
    return EXIT_OK


def _cmd_three_site(args) -> int:
    from . import threesite

    solution = threesite.three_site_correlator(comb_terms=args.comb_terms)
    results = {
        "p12p23": solution.p12p23,
        "f1": solution.f1,
        "f2": solution.f2,
        "f3": solution.f3,
    }
    diagnostics = dict(solution.diagnostics)
    diagnostics["p12p23_delta_vs_reference"] = float(
        solution.p12p23 - PAPER_REFERENCE_VALUES["p12p23_thermodynamic"]
    )
    payload = _payload(
        "three-site",
        {"comb_terms": args.comb_terms},
        results,
        diagnostics,
    )
    if not (abs(diagnostics["p12p23_delta_vs_reference"]) <= 1e-6):
        return _fail(
            args.format,
            payload,
            f"p12p23 off reference by {diagnostics['p12p23_delta_vs_reference']:.3e}",
        )
    _emit(payload, args.format)
    return EXIT_OK


def _cmd_ed(args) -> int:
    try:
        spec = ed_mod.ChainSpec(args.L)
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    result = ed_mod.ground_state(spec)
    rdm2 = result.observables["rdm2"]
    trace_defect = float(abs(np.trace(rdm2) - 1))
    min_eig = float(np.linalg.eigvalsh((rdm2 + rdm2.T) / 2).min())
    results = {
        "energy_per_bond": result.energy_per_bond,
        "ground_energy": result.ground_energy,
        "p12": result.observables["p12"],
        "p12p23": result.observables["p12p23"],
    }
    diagnostics = {
        "method": result.method,
        "iterations": result.iterations,
        "residual_norm": result.residual_norm,
        "degeneracy": result.degeneracy,
        "k0_dimension": result.k0_dimension,
        "k0_gap": result.k0_gap,
        "rdm2_trace_defect": trace_defect,
        "rdm2_min_eigenvalue": min_eig,
    }
    if args.L in ed_mod.REFERENCE_TABLE1:
        ref = ed_mod.REFERENCE_TABLE1[args.L]
        diagnostics["energy_per_bond_delta_vs_reference"] = float(
            result.energy_per_bond - ref[0]
        )
        diagnostics["p12p23_delta_vs_reference"] = float(
            result.observables["p12p23"] - ref[1]
        )
    payload = _payload("ed", {"L": args.L}, results, diagnostics)
    if not (result.residual_norm <= 1e-10):
        return _fail(args.format, payload, f"eigenresidual {result.residual_norm:.3e}")
    if not (trace_defect <= 1e-12 and min_eig >= -1e-12):
        return _fail(
            args.format,
            payload,
            f"rdm2 trace defect {trace_defect:.3e}, min eigenvalue {min_eig:.3e}",
        )
    _emit(payload, args.format)
    return EXIT_OK


def _cmd_report_table1(args) -> int:
    from . import threesite, twosite

    rows = []
    for L in (3, 6, 9):
        result = ed_mod.ground_state(ed_mod.ChainSpec(L))
        ref = ed_mod.REFERENCE_TABLE1[L]
        rows.append(
            {
                "length": f"L={L}",
                "omega33": result.energy_per_bond,
                "p12p23": result.observables["p12p23"],
                "omega33_reference": ref[0],
                "p12p23_reference": ref[1],
                "omega33_delta": result.energy_per_bond - ref[0],
                "p12p23_delta": result.observables["p12p23"] - ref[1],
            }
        )
    omega_inf = float(np.real(twosite.omega33(0.0)))
    solution = threesite.three_site_correlator(comb_terms=args.comb_terms)
    rows.append(
        {
            "length": "thermodynamic",
            "omega33": omega_inf,
            "p12p23": solution.p12p23,
            "omega33_reference": PAPER_REFERENCE_VALUES["omega33_homogeneous"],
            "p12p23_reference": PAPER_REFERENCE_VALUES["p12p23_thermodynamic"],
            "omega33_delta": omega_inf
            - PAPER_REFERENCE_VALUES["omega33_homogeneous"],
            "p12p23_delta": solution.p12p23
            - PAPER_REFERENCE_VALUES["p12p23_thermodynamic"],
        }
    )
    payload = _payload(
        "report-table1",
        {"comb_terms": args.comb_terms},
        {"rows": rows},
        {"three_site_diagnostics": {
            "tail_bound": solution.diagnostics["tail_bound"],
        }},
    )
    _emit(payload, args.format)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

def _load_config(path: str) -> dict:
    values = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"malformed config line: {line!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            values[key.replace("-", "_")] = val
    return values


def _preload_config(parser: argparse.ArgumentParser, path: str) -> str | None:
    """Make a config file's values the subcommands' defaults, or say why not.

    A key names an option by its flag without its dashes or by its
    destination, with ``-`` read as ``_`` (``comb_terms``; ``lambda`` and
    ``lam``).  The values stay strings: argparse casts a string default with
    the option's type, and a flag given on the command line, abbreviated or
    not, wins over it.  An option of another subcommand is ignored.
    """
    try:
        values = _load_config(path)
    except (OSError, ValueError) as exc:
        return str(exc)
    # the subcommand, its handler and the config file come from argv only
    for key in ("command", "func", "config"):
        if key in values:
            return f"{key!r} cannot be set in a config file"
    (commands,) = (a for a in parser._actions if a.dest == "command")
    known = set()
    for sub in commands.choices.values():
        dests = {
            name.lstrip("-").replace("-", "_"): action.dest
            for action in sub._actions
            if action.default is not argparse.SUPPRESS  # --help
            for name in (action.dest, *action.option_strings)
        }
        sub.set_defaults(**{dests[k]: v for k, v in values.items() if k in dests})
        known |= dests.keys()
    unknown = [key for key in values if key not in known]
    if unknown:
        return f"unknown key {unknown[0]!r}: no subcommand has this option"
    return None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="su3chain",
        description="correlation functions of the integrable SU(3) spin chain",
    )
    parser.add_argument("--config", help="key = value file preloading any option")
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--format", choices=_FORMATS, default="json")

    p = sub.add_parser("verify-algebra", help="run the R-matrix identity suite")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--samples", type=int, default=50)
    common(p)
    p.set_defaults(func=_cmd_verify_algebra)

    p = sub.add_parser("verify-matrices", help="check Gram and difference matrices")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--points", type=int, default=20)
    common(p)
    p.set_defaults(func=_cmd_verify_matrices)

    p = sub.add_parser("two-site", help="closed-form two-site functions")
    p.add_argument("--lambda", dest="lam", type=complex, default=0.0)
    common(p)
    p.set_defaults(func=_cmd_two_site)

    p = sub.add_parser("three-site", help="<P12 P23> from the functional equations")
    p.add_argument("--comb-terms", type=int, default=_COMB_TERMS,
                   help="comb terms summed before the closed-form tail")
    common(p)
    p.set_defaults(func=_cmd_three_site)

    p = sub.add_parser("ed", help="exact diagonalization of a finite chain")
    p.add_argument("--L", type=int, default=6)
    common(p)
    p.set_defaults(func=_cmd_ed)

    p = sub.add_parser("report-table1", help="finite-size comparison table")
    p.add_argument("--comb-terms", type=int, default=_COMB_TERMS,
                   help="comb terms summed before the closed-form tail")
    common(p)
    p.set_defaults(func=_cmd_report_table1)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is not None and args.config:
            error = _preload_config(parser, args.config)
            if error:
                print(f"config error: {error}", file=sys.stderr)
                return EXIT_USAGE
            args = parser.parse_args(argv)  # with the file's values as defaults
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    usage = _usage_error(args)
    if usage:
        print(f"usage error: {usage}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
