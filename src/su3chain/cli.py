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
    report-table1     the paper's Table 1: ed's rows at L = 3, 6, 9 and a
                      thermodynamic row from three-site; exit 1 if one of
                      their checks fails or a gated cell is off its
                      published value

Output is JSON by default (stable key order, byte-identical for identical
invocations and seeds) with the top-level layout
{"command", "inputs", "results", "diagnostics", "paper_reference_values"};
``--format text`` gives ``key = value`` lines, a nested value spelled out as
``key.subkey = value`` (``rows.0.length``), and ``report-table1`` also
supports ``--format csv``.  A plain ``key = value`` config file can preload
any option; explicit flags win, options of other subcommands are ignored,
and a key that no subcommand has, or two lines that set one option, is a
usage error naming the key.  Each option's parser checks its value, from a
flag or the config file alike, before any work: ``--samples`` and
``--points`` lie in 1..100000, ``--seed`` is non-negative, ``--lambda``
finite, ``--L`` a length ``ed.ChainSpec`` accepts, and ``--format`` one its
subcommand writes.  A violation is a usage error naming the option, worded
the same for both sources.  No option sets a numerical parameter:
``three-site`` and ``report-table1`` run the library's defaults.

Each handler returns ``(inputs, results, diagnostics, checks)``, a check
being ``(passed, reason)`` written so that NaN fails (``value <= tol``).
``two-site`` raises ``_UsageError`` for a ``--lambda`` whose check point
lies on a pole, which only its computation finds, and names ``--lambda`` in
an ``OverflowError``.  ``main`` alone turns that into output and an exit
code: it names the first failed check on stderr as ``verification failed:
<reason>`` before it emits the payload, and exits 1, NaN included (strict
JSON then refuses the payload, so stdout stays empty and ``error: ...``
follows).

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


def _text_lines(value, prefix=""):
    """``key = value`` lines of a dict, with nested dicts and lists of them
    spelled out by key path: dict keys sorted, list entries by index."""
    if isinstance(value, dict):
        items = sorted(value.items())
    elif isinstance(value, list) and any(isinstance(x, (dict, list)) for x in value):
        items = enumerate(value)
    else:  # a scalar, or a list of numbers, inline
        return [f"{prefix} = {value}"]
    return [
        line
        for key, item in items
        for line in _text_lines(item, f"{prefix}.{key}" if prefix else str(key))
    ]


def _emit(payload: dict, fmt: str) -> None:
    """Print the payload; a reader that closes the pipe early is no error."""
    try:
        if fmt == "json":
            print(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False))
        elif fmt == "text":
            for section in ("command", "inputs", "results", "diagnostics"):
                print(f"[{section}]")
                value = payload[section]
                for line in _text_lines(value) if isinstance(value, dict) else [value]:
                    print(line)
        else:  # csv, which only report-table1's --format accepts
            rows = payload["results"]["rows"]
            print(",".join(rows[0].keys()))
            for row in rows:
                print(",".join(str(v) for v in row.values()))
        sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit, so send it nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


class _UsageError(ValueError):
    """A usage error found by a handler, after parsing: exit 2."""


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def _cmd_verify_algebra(args):
    from . import rmatrix

    residuals = rmatrix.identity_suite(seed=args.seed, samples=args.samples)
    # argmax picks the first NaN, where max(key=...) would skip it
    worst = list(residuals)[int(np.argmax(list(residuals.values())))]
    res = float(residuals[worst])
    return (
        {"seed": args.seed, "samples": args.samples, "tolerance": _ALGEBRA_TOL},
        {name: float(value) for name, value in sorted(residuals.items())},
        {"worst_identity": worst, "worst_residual": res},
        [(res <= _ALGEBRA_TOL, f"identity {worst!r} residual {res:.3e}")],
    )


def _cmd_verify_matrices(args):
    from . import basis

    deviations = basis.matrix_suite(seed=args.seed, points=args.points)
    return (
        {"seed": args.seed, "points": args.points, "tolerance": _MATRIX_TOL},
        {"gram_2_exact": True, "gram_3_exact": True, **deviations},
        {"points_per_matrix": args.points},
        [(v <= _MATRIX_TOL, f"{k} = {v:.3e}") for k, v in deviations.items()],
    )


# a non-finite value fails the residual gate or the strict JSON emit, with
# the reason on stderr, so numpy's floating-point warnings would only add noise
@np.errstate(all="ignore")
def _cmd_two_site(args):
    from . import twosite
    from .specfun import PoleError

    lam = args.lam
    # the residuals are checked at lam itself, except at the physical points
    # 0, +-1, where the check formulas are singular
    check_point = lam if min(abs(lam), abs(lam - 1), abs(lam + 1)) > 1e-3 else 0.4 + 0.3j
    try:
        res1, res2 = twosite.check_difference_equations(check_point)
        three_term = twosite.check_three_term(check_point)
        values = {"omega33": twosite.omega33(lam), "alpha33": twosite.alpha33(lam)}
    except PoleError as exc:
        raise _UsageError(f"--lambda: {exc}") from exc
    except OverflowError as exc:  # a finite --lambda too large to compute with
        raise OverflowError(f"--lambda {lam}: {exc}") from exc
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
    return (
        {"lambda": [lam.real, lam.imag]},
        results,
        diagnostics,
        [(
            res1 <= 1e-11 and res2 <= 1e-11,
            f"difference-equation residuals {res1:.3e}, {res2:.3e}",
        )],
    )


def _cmd_three_site(args):
    from . import threesite

    solution = threesite.three_site_correlator()
    delta = float(solution.p12p23 - PAPER_REFERENCE_VALUES["p12p23_thermodynamic"])
    return (
        {},
        {
            "p12p23": solution.p12p23,
            "f1": solution.f1,
            "f2": solution.f2,
            "f3": solution.f3,
        },
        {**solution.diagnostics, "p12p23_delta_vs_reference": delta},
        [(abs(delta) <= 1e-6, f"p12p23 off reference by {delta:.3e}")],
    )


def _cmd_ed(args):
    from .tensors import from_expectations

    result = ed_mod.ground_state(ed_mod.ChainSpec(args.L))
    p12, p12p23 = float(result.v[1]), float(result.v[4])
    rdm2 = from_expectations(result.v[:2])
    trace_defect = float(abs(np.trace(rdm2) - 1))
    min_eig = float(np.linalg.eigvalsh((rdm2 + rdm2.T) / 2).min())
    results = {
        "energy_per_bond": result.energy_per_bond,
        "ground_energy": result.ground_energy,
        "p12": p12,
        "p12p23": p12p23,
    }
    diagnostics = {
        "method": "lanczos",
        "iterations": result.iterations,
        "residual_norm": result.residual_norm,
        "singlet_dimension": result.singlet_dimension,
        # a sector of one state (L = 3) has no next level
        "singlet_gap": None if np.isinf(result.singlet_gap) else result.singlet_gap,
        "rdm2_trace_defect": trace_defect,
        "rdm2_min_eigenvalue": min_eig,
    }
    if args.L in ed_mod.REFERENCE_TABLE1:
        ref = ed_mod.REFERENCE_TABLE1[args.L]
        diagnostics["energy_per_bond_delta_vs_reference"] = float(
            result.energy_per_bond - ref[0]
        )
        diagnostics["p12p23_delta_vs_reference"] = float(p12p23 - ref[1])
    return (
        {"L": args.L},
        results,
        diagnostics,
        [
            (result.residual_norm <= 1e-10, f"eigenresidual {result.residual_norm:.3e}"),
            (
                trace_defect <= 1e-12 and min_eig >= -1e-12,
                f"rdm2 trace defect {trace_defect:.3e}, min eigenvalue {min_eig:.3e}",
            ),
        ],
    )


#: report-table1's gated cells as (row, column, tolerance).  The L=9 omega33
#: cell is the published erratum: it lies below the chain's ground-state
#: energy, so it is printed with its delta but not gated.  The thermodynamic
#: p12p23 cell is gated by three-site's own check.
_TABLE1_GATES = (
    ("L=3", "omega33", 1e-12),
    ("L=3", "p12p23", 1e-12),
    ("L=6", "omega33", 1e-10),
    ("L=6", "p12p23", 1e-10),
    ("L=9", "p12p23", 1e-8),
)


def _table1_row(length, omega33, p12p23, reference, command_checks):
    """A Table 1 row, in the CSV's column order, and its checks: those of the
    command that computed it, then its gated cells, each named with the row."""
    row = {
        "length": length,
        "omega33": omega33,
        "p12p23": p12p23,
        "omega33_reference": reference[0],
        "p12p23_reference": reference[1],
        "omega33_delta": omega33 - reference[0],
        "p12p23_delta": p12p23 - reference[1],
    }
    checks = [(passed, f"{length} {reason}") for passed, reason in command_checks]
    for gated, column, tol in _TABLE1_GATES:
        if gated == length:
            delta = row[f"{column}_delta"]
            reason = f"{length} {column} off reference by {delta:.3e}"
            checks.append((abs(delta) <= tol, reason))
    return row, checks


def _cmd_report_table1(args):
    from . import twosite

    rows = []
    for L in (3, 6, 9):
        _, results, _, checks = _cmd_ed(argparse.Namespace(L=L))
        rows.append(_table1_row(
            f"L={L}", results["energy_per_bond"], results["p12p23"],
            ed_mod.REFERENCE_TABLE1[L], checks,
        ))
    _, results, diagnostics, checks = _cmd_three_site(args)
    reference = [
        PAPER_REFERENCE_VALUES[key]
        for key in ("omega33_homogeneous", "p12p23_thermodynamic")
    ]
    rows.append(_table1_row(
        "thermodynamic", float(twosite.OMEGA33_HOMOGENEOUS), results["p12p23"],
        reference, checks,
    ))
    return (
        {},
        {"rows": [row for row, _ in rows]},
        {"three_site_diagnostics": {"tail_bound": diagnostics["tail_bound"]}},
        [check for _, row_checks in rows for check in row_checks],
    )


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

def _checked(parse, check):
    """An argparse ``type``, which argparse runs on a flag and a string default
    (a config value) alike: ``parse`` the text, then ``check`` the value, whose
    ``ValueError`` is the usage error.  Named after ``parse``, it keeps
    argparse's ``invalid int value: 'x'`` for unparsable text."""
    def convert(text):
        value = parse(text)
        try:
            check(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    convert.__name__ = parse.__name__
    return convert


def _rule(holds, words: str):
    """A check that raises ``ValueError`` in ``words`` unless ``holds(value)``."""
    def check(value):
        if not holds(value):
            raise ValueError(f"{words}, got {value!r}")

    return check


def _load_config(path: str) -> list[tuple[str, str]]:
    """The file's ``(key, value)`` pairs in order, a repeated key kept twice."""
    values = []
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"malformed config line: {line!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            values.append((key.replace("-", "_"), val))
    return values


def _preload_config(parser: argparse.ArgumentParser, path: str) -> str | None:
    """Make a config file's values the subcommands' defaults, or say why not.

    A key names an option by its flag without its dashes or by its
    destination, with ``-`` read as ``_`` (``lambda`` and ``lam``).  An
    option may be set once, under either name.  The values stay strings:
    argparse casts a string default with the option's type, and a flag given
    on the command line, abbreviated or not, wins over it.  An option of
    another subcommand is ignored.
    """
    try:
        values = _load_config(path)
    except (OSError, ValueError) as exc:
        return str(exc)
    # the subcommand, its handler and the config file come from argv only
    for key, _ in values:
        if key in ("command", "func", "config"):
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
        keys = {}  # option destination -> the key that set it
        for key, value in values:
            if key not in dests:
                continue
            dest = dests[key]
            if dest in keys:
                if keys[dest] == key:
                    return f"key {key!r} is set twice"
                return f"keys {keys[dest]!r} and {key!r} set the same option"
            keys[dest] = key
            sub.set_defaults(**{dest: value})
        known |= dests.keys()
    unknown = [key for key, _ in values if key not in known]
    if unknown:
        return f"unknown key {unknown[0]!r}: no subcommand has this option"
    return None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="su3chain",
        description="correlation functions of the integrable SU(3) spin chain",
    )
    parser.add_argument("--config", help="key = value file preloading any option")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=("json", "text")):
        rule = _rule(formats.__contains__, f"must be one of {', '.join(formats)}")
        p.add_argument("--format", type=_checked(str, rule), default="json",
                       metavar=f"{{{','.join(formats)}}}")

    seed = _checked(int, _rule(lambda n: n >= 0, "must be >= 0"))
    count = _checked(int, _rule(lambda n: 1 <= n <= 100_000, "must be in 1..100000"))
    finite = _checked(complex, _rule(np.isfinite, "must be finite"))
    p = sub.add_parser("verify-algebra", help="run the R-matrix identity suite")
    p.add_argument("--seed", type=seed, default=7)
    p.add_argument("--samples", type=count, default=50)
    common(p)
    p.set_defaults(func=_cmd_verify_algebra)

    p = sub.add_parser("verify-matrices", help="check Gram and difference matrices")
    p.add_argument("--seed", type=seed, default=7)
    p.add_argument("--points", type=count, default=20)
    common(p)
    p.set_defaults(func=_cmd_verify_matrices)

    p = sub.add_parser("two-site", help="closed-form two-site functions")
    p.add_argument("--lambda", dest="lam", type=finite, default=0j)
    common(p)
    p.set_defaults(func=_cmd_two_site)

    p = sub.add_parser("three-site", help="<P12 P23> from the functional equations")
    common(p)
    p.set_defaults(func=_cmd_three_site)

    p = sub.add_parser("ed", help="exact diagonalization of a finite chain")
    p.add_argument("--L", type=_checked(int, ed_mod.ChainSpec), default=6)
    common(p)
    p.set_defaults(func=_cmd_ed)

    p = sub.add_parser("report-table1", help="finite-size comparison table")
    common(p, ("json", "text", "csv"))
    p.set_defaults(func=_cmd_report_table1)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            error = _preload_config(parser, args.config)
            if error:
                print(f"config error: {error}", file=sys.stderr)
                return EXIT_USAGE
            args = parser.parse_args(argv)  # with the file's values as defaults
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        inputs, results, diagnostics, checks = args.func(args)
        failed = [reason for passed, reason in checks if not passed]
        if failed:
            # named first: a non-finite value makes _emit itself raise
            print(f"verification failed: {failed[0]}", file=sys.stderr)
        payload = {
            "command": args.command,
            "inputs": inputs,
            "results": results,
            "diagnostics": diagnostics,
            "paper_reference_values": PAPER_REFERENCE_VALUES,
        }
        _emit(payload, args.format)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_VERIFY if failed else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
