"""Benchmark of the su3chain library and CLI.

Run from the root of a checkout::

    python3 perfbench/run.py --workload correlator --seed 7 --seconds 15 --trace 0

Workloads (see ``BENCHMARK.json`` and ``perfbench/README.md``):

* ``correlator``: ``su3chain three-site`` at its defaults, one subprocess per
  pass.  It has no free input, so it ignores ``--seed``.
* ``contour``: one subprocess running ``contour_pass.py``: the two-site
  density operator and the g_l recursion check at seeded contour points.
* ``ci_gates``: six CLI subprocesses, the commands a CI job gates on.

With ``--trace 0`` the run repeats whole passes until ``--seconds`` have
passed (at least one pass) and reports the median pass, operation by
operation.  With ``--trace 1``
it runs one pass in-process with spans around every call into the library
(``tracer.py``) and reports the per-layer metrics.  Every output is checked;
the last line of stdout is the JSON result, the line before it holds the
details (environment, problem sizes, per-pass numbers, accuracy, failures).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import selectors
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: every process of the benchmark runs with single-threaded BLAS
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

WORKLOADS = ("correlator", "contour", "ci_gates")

#: published values the outputs must reproduce (the paper's Table 1 and text);
#: kept here so that no check trusts a reference the program prints itself
P12P23_REF = 0.191368820116674
OMEGA33_REF = -0.703212076746182
ALPHA33_REF = -0.12956817625994
TABLE1 = {
    6: (-0.767591879243998, 0.309579305659537),
    9: (-0.731082881703061, 0.239661721591669),
}
#: Table 1 tolerances of the acceptance suite (criterion 3); the L = 9 energy
#: is off by 3.45e-5 because the published entry is wrong, so it is reported
#: and not gated
TABLE1_TOL = {6: 1e-10, 9: 1e-8}

#: a run must end within 180 s; passes and children stop short of this
RUN_BUDGET_S = 165.0
SETUP_SAMPLES = 7
TRACE_SETUP_SAMPLES = 3
IMPORT_ARGV = ("-c", "import su3chain.cli")


@dataclass(frozen=True)
class Op:
    """One operation: a CLI call (``cli=True``) or a contour library pass."""

    name: str
    argv: tuple[str, ...]
    cli: bool = True

    def command(self) -> list[str]:
        if self.cli:
            return [sys.executable, "-m", "su3chain.cli", *self.argv]
        return [sys.executable, str(HERE / "contour_pass.py"), *self.argv]


def workload_ops(workload: str, seed: int) -> list[Op]:
    """The operations of one pass.  Only defaults, ``--seed`` and ``--L``."""
    if workload == "correlator":
        return [Op("three-site", ("three-site",))]
    if workload == "contour":
        return [Op("contour", ("--seed", str(seed)), cli=False)]
    if workload == "ci_gates":
        return [
            Op("verify-algebra", ("verify-algebra", "--seed", str(seed))),
            Op("verify-matrices", ("verify-matrices", "--seed", str(seed))),
            Op("two-site", ("two-site",)),
            Op("ed --L 6", ("ed", "--L", "6")),
            Op("ed --L 9", ("ed", "--L", "9")),
            Op("ed --L 12", ("ed", "--L", "12")),
        ]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# running children
# ---------------------------------------------------------------------------

@dataclass
class Child:
    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    rss_mb: float


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    env.pop("SU3CHAIN_THREADS", None)
    paths = [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_child(argv: list[str], timeout: float) -> Child:
    """Run one process to completion; wall, CPU and peak RSS from its own rusage."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    chunks = {proc.stdout: [], proc.stderr: []}
    killed = False
    with selectors.DefaultSelector() as sel:
        for pipe in chunks:
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            remaining = start + timeout - time.perf_counter()
            if remaining <= 0:
                proc.kill()
                killed = True
                break
            for key, _ in sel.select(remaining):
                data = os.read(key.fd, 65536)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    for pipe in chunks:
        pipe.close()
    stderr = b"".join(chunks[proc.stderr]).decode(errors="replace")
    if killed:
        stderr += f"\nkilled after {timeout:.0f} s"
    return Child(
        returncode=proc.returncode,
        stdout=b"".join(chunks[proc.stdout]).decode(errors="replace"),
        stderr=stderr,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
    )


# ---------------------------------------------------------------------------
# correctness checks (fail closed)
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    """Result of checking one operation's output."""

    name: str
    failures: list[str] = field(default_factory=list)
    #: |output - reference| for each reproduced published value
    errors: dict[str, float] = field(default_factory=dict)
    details: dict[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    def gate(self, label: str, value, tol: float) -> None:
        """Fail unless ``|value| <= tol``; NaN, inf and non-numbers fail too."""
        if not (_is_number(value) and abs(value) <= tol):
            self.failures.append(f"{label} = {value!r} (tolerance {tol:g})")

    def gate_min(self, label: str, value, floor: float) -> None:
        if not (_is_number(value) and value >= floor):
            self.failures.append(f"{label} = {value!r} (must be >= {floor:g})")

    def reference(self, label: str, value, ref: float, tol: float) -> None:
        """Gate ``|value - ref| <= tol`` and record the deviation."""
        if not _is_number(value):
            self.failures.append(f"{label} = {value!r} is not a number")
            return
        delta = abs(value - ref)
        self.errors[label] = delta
        self.gate(f"|{label} - reference|", delta, tol)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def strict_json(text: str):
    """Parse JSON, rejecting the non-standard constants NaN and +-Infinity."""

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def process_outcome(name: str, returncode: int, stderr: str) -> Outcome:
    """Fail on a non-zero exit or a traceback on stderr."""
    out = Outcome(name)
    if returncode != 0:
        out.failures.append(f"exit code {returncode}")
    if "Traceback (most recent call last)" in stderr:
        out.failures.append("traceback on stderr")
    return out


def evaluate(name: str, returncode: int, stdout: str, stderr: str) -> Outcome:
    """Check one operation: exit code, stderr, strict JSON, then its values."""
    out = process_outcome(name, returncode, stderr)
    try:
        payload = strict_json(stdout)
    except ValueError as exc:
        out.failures.append(f"stdout is not strict JSON: {exc}")
        return out
    try:
        _CHECKS[name.split()[0]](payload, out)
    except (KeyError, IndexError, TypeError, AttributeError) as exc:
        out.failures.append(f"output lacks an expected field: {exc!r}")
    return out


def _check_three_site(payload, out: Outcome) -> None:
    # criterion 2 gate
    out.reference("p12p23", payload["results"]["p12p23"], P12P23_REF, 1e-6)
    diag = payload["diagnostics"]
    out.details["threesite.last_level_shift"] = diag.get("last_level_shift")
    residuals = diag.get("lstsq_residuals") or [None]
    out.details["threesite.consistency_residual"] = residuals[-1]
    out.details["threesite.comb_ladder"] = diag.get("comb_terms")


def _check_contour(payload, out: Outcome) -> None:
    d2 = payload["d2"]
    # criterion 7 tolerances for the two-site operator
    out.gate("d2.trace_defect", d2["trace_defect"], 1e-12)
    out.gate("d2.hermiticity", d2["hermiticity"], 1e-12)
    out.gate_min("d2.min_eig", d2["min_eig"], -1e-8)
    out.reference("tr(D2 P12)", d2["p12"], OMEGA33_REF, 1e-12)
    residuals = payload["g_residuals"]
    if len(residuals) < 3:
        out.failures.append(f"only {len(residuals)} g_l residuals")
    worst = 0.0
    for row in residuals:
        label = f"g_{row['l']} residual at {row['lam']}"
        out.gate(label, row["residual"], 1e-8)  # criterion 6
        if _is_number(row["residual"]):
            worst = max(worst, row["residual"])
    # the transform must reproduce phi, the paper's inhomogeneity
    out.errors["g_recursion_residual"] = worst
    out.details["threesite.g_recursion_residual"] = worst
    out.details["d2"] = d2


def _check_verify_algebra(payload, out: Outcome) -> None:
    worst = 0.0
    for name, residual in payload["results"].items():
        out.gate(f"identity {name}", residual, 1e-12)
        if _is_number(residual):
            worst = max(worst, residual)
    out.details["rmatrix.worst_residual"] = worst


def _check_verify_matrices(payload, out: Outcome) -> None:
    res = payload["results"]
    for flag in ("gram_2_exact", "gram_3_exact"):
        if res[flag] is not True:
            out.failures.append(f"{flag} = {res[flag]!r}")
    for name in ("a2_max_deviation", "a3_max_deviation", "a3_zero_entries_max"):
        out.gate(name, res[name], 1e-10)
    out.details["basis.a3_max_deviation"] = res["a3_max_deviation"]


def _check_two_site(payload, out: Outcome) -> None:
    res = payload["results"]
    # criterion 1
    out.reference("omega33(0)", res["omega33"], OMEGA33_REF, 1e-12)
    out.reference("alpha33(0)", res["alpha33"], ALPHA33_REF, 1e-12)
    diag = payload["diagnostics"]
    for i, residual in enumerate(diag["difference_equation_residuals"]):
        out.gate(f"difference-equation residual {i + 1}", residual, 1e-11)
    out.gate("three-term residual", diag["three_term_residual"], 1e-11)


def _check_ed(payload, out: Outcome) -> None:
    L = payload["inputs"]["L"]
    res, diag = payload["results"], payload["diagnostics"]
    out.gate(f"L={L} eigenresidual", diag["residual_norm"], 1e-10)
    out.gate(f"L={L} rdm2 trace defect", diag["rdm2_trace_defect"], 1e-12)
    out.gate_min(f"L={L} rdm2 min eigenvalue", diag["rdm2_min_eigenvalue"], -1e-8)
    if L in TABLE1:
        energy_ref, p12p23_ref = TABLE1[L]
        out.reference(f"L={L} p12p23", res["p12p23"], p12p23_ref, TABLE1_TOL[L])
        if L == 9:
            out.details["ed.L9.energy_delta_vs_table1"] = res["energy_per_bond"] - energy_ref
        else:
            out.reference(f"L={L} energy per bond", res["energy_per_bond"], energy_ref, TABLE1_TOL[L])
    out.details[f"ed.L{L}"] = {
        "method": diag["method"],
        "iterations": diag["iterations"],
        "residual_norm": diag["residual_norm"],
    }


_CHECKS = {
    "three-site": _check_three_site,
    "contour": _check_contour,
    "verify-algebra": _check_verify_algebra,
    "verify-matrices": _check_verify_matrices,
    "two-site": _check_two_site,
    "ed": _check_ed,
}


def tally(outcomes: list[Outcome]) -> tuple[int, int]:
    """(attempted, failed) operations; failed_frac is their ratio."""
    return len(outcomes), sum(not o.ok for o in outcomes)


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics
# ---------------------------------------------------------------------------

def measure_setup(samples: int, deadline: float, outcomes: list[Outcome]) -> list[float]:
    """Wall times of fresh interpreters importing su3chain.cli (after one warm-up)."""
    times = []
    for i in range(samples + 1):
        child = run_child([sys.executable, *IMPORT_ARGV], max(1.0, deadline - time.perf_counter()))
        outcomes.append(process_outcome("import su3chain.cli", child.returncode, child.stderr))
        if i:
            times.append(child.wall_s)
    return times


def run_untraced(workload: str, seed: int, seconds: int) -> tuple[dict, dict, list[Outcome]]:
    start = time.perf_counter()
    deadline = start + RUN_BUDGET_S
    ops = workload_ops(workload, seed)
    outcomes: list[Outcome] = []
    setup = measure_setup(SETUP_SAMPLES, deadline, outcomes)
    passes = []
    measure_start = time.perf_counter()
    while not passes or (
        time.perf_counter() - measure_start < seconds
        and time.perf_counter() + passes[-1]["wall_s"] < deadline
    ):
        t0 = time.perf_counter()
        children, errors = {}, {}
        for op in ops:
            child = run_child(op.command(), max(1.0, deadline - time.perf_counter()))
            outcome = evaluate(op.name, child.returncode, child.stdout, child.stderr)
            outcomes.append(outcome)
            children[op.name] = child
            errors.update(outcome.errors)
        passes.append(
            {
                "wall_s": time.perf_counter() - t0,
                "op_wall_s": {name: c.wall_s for name, c in children.items()},
                "op_cpu_s": {name: c.cpu_s for name, c in children.items()},
                "rss_mb": max(c.rss_mb for c in children.values()),
                "ref_abs_err": max(errors.values()) if errors else None,
            }
        )
    # The median pass is taken operation by operation: a slow spell of the
    # machine that hits one short CLI call in each pass then leaves no trace.
    metrics = {
        "run_s": sum(statistics.median(p["op_wall_s"][op.name] for p in passes) for op in ops),
        "cpu_s": sum(statistics.median(p["op_cpu_s"][op.name] for p in passes) for op in ops),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }
    errs = [p["ref_abs_err"] for p in passes if p["ref_abs_err"] is not None]
    if errs:
        metrics["ref_abs_err"] = max(errs)
    details = {"setup_samples_s": setup, "passes": passes}
    return metrics, details, outcomes


# ---------------------------------------------------------------------------
# traced run: per-layer metrics
# ---------------------------------------------------------------------------

def call_in_process(op: Op) -> tuple[int, str, str]:
    """Call the op's ``main(argv)`` with stdout and stderr captured."""
    if op.cli:
        from su3chain.cli import main
    else:
        from contour_pass import main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(op.argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # the run must go on and count the failure
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def run_traced(workload: str, seed: int) -> tuple[dict, dict, list[Outcome]]:
    start = time.perf_counter()
    outcomes: list[Outcome] = []
    setup = measure_setup(TRACE_SETUP_SAMPLES, start + RUN_BUDGET_S, outcomes)
    sys.path[:0] = [str(SRC), str(HERE)]
    import tracer as tracing

    ops = workload_ops(workload, seed)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    cost = tracing.per_span_cost()
    t0 = time.perf_counter()
    for op in ops:
        span = f"cli.{op.argv[0]}" if op.cli else f"bench.{op.name}"
        with tracer.span(span):
            code, stdout, stderr = call_in_process(op)
        outcomes.append(evaluate(op.name, code, stdout, stderr))
    run_s = time.perf_counter() - t0

    metrics = tracer.metrics()
    rows = tracer.per_name()
    for name in ("three-site", "verify-algebra", "verify-matrices", "two-site", "ed"):
        metrics[f"cli.{name}.s"] = rows.get(f"cli.{name}", {}).get("s", 0.0)
    startup = statistics.median(setup) * len(ops)
    metrics["trace.run_s"] = run_s
    metrics["trace.overhead_s"] = cost * metrics["trace.spans"]
    metrics["trace.startup_s"] = startup
    total = run_s + startup
    shares = {
        layer: metrics[f"{layer}.self_s"] / total for layer in tracing.LAYERS
    }
    shares["startup"] = startup / total
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans_file = out_dir / f"trace_{workload}_seed{seed}.json"
    spans_file.write_text(json.dumps(tracer.dump()))
    details = {
        "per_span_cost_s": cost,
        "shares_of_run_plus_startup": shares,
        "spans_file": str(spans_file.relative_to(ROOT)),
    }
    return metrics, details, outcomes


# ---------------------------------------------------------------------------
# environment and problem sizes
# ---------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform

    return platform.processor() or "unknown"


def environment() -> dict:
    import platform

    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": 1,
    }


def problem_sizes(workload: str) -> dict:
    """Problem sizes at the library defaults the workload runs with."""
    if workload == "ci_gates":
        sector = {
            L: math.factorial(L) // math.factorial(L // 3) ** 3 for L in (6, 9, 12)
        }
        return {"ed_balanced_sector_dim": sector}
    sys.path.insert(0, str(SRC))
    try:
        from su3chain import threesite

        problem = threesite.ThreeSiteProblem()
    except Exception as exc:  # sizes are a record only; the run must go on
        return {"unavailable": repr(exc)}
    fields = {
        "correlator": ("comb_terms", "laurent_points", "laurent_radius", "richardson_levels"),
        "contour": ("conv_step", "conv_halfwidth", "conv_offset"),
    }[workload]
    sizes = {name: getattr(problem, name, None) for name in fields}
    if workload == "contour":
        from contour_pass import POINTS_PER_PASS

        sizes["points_per_pass"] = POINTS_PER_PASS
        step, half = sizes["conv_step"], sizes["conv_halfwidth"]
        if step and half:
            sizes["contour_nodes"] = int(round(2 * half / step)) + 1
    return sizes


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="su3chain benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "su3chain" / "cli.py").is_file():
        print(f"error: no su3chain sources under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    for var in BLAS_THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    os.environ.pop("SU3CHAIN_THREADS", None)

    if args.trace:
        metrics, details, outcomes = run_traced(args.workload, args.seed)
        wanted = spec["per_layer"]
    else:
        metrics, details, outcomes = run_untraced(args.workload, args.seed, args.seconds)
        wanted = spec["end_to_end"]
    attempted, failed = tally(outcomes)
    accuracy = {}
    for outcome in outcomes:
        accuracy.update(outcome.details)
    details.update(
        {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "environment": environment(),
            "problem": problem_sizes(args.workload),
            "accuracy": accuracy,
            "failed_frac": failed / attempted,
            "failures": {o.name: o.failures for o in outcomes if o.failures},
        }
    )
    print(json.dumps(details, default=repr))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in wanted
            if m["name"] in metrics
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
