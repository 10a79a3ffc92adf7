"""The benchmark's traced run can still report every per-layer metric it declares.

``perfbench/tracer.py`` wraps only the public functions and methods defined
in each library module, and a span metric on a name it did not wrap is
absent from the traced result.  A library change that deletes, renames or
aliases a traced name therefore drops metrics that ``BENCHMARK.json`` lists,
while the run still exits 0.  The tracer is installed in a child process,
because its wrappers rebind module attributes that other tests import.  The
benchmark's files are only read.
"""

import ast
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"

_CHILD = """
import json, sys
sys.path[:0] = sys.argv[1:]
import tracer
traced = tracer.Tracer()
tracer.install(traced)
print(json.dumps({
    "wrapped": sorted(traced.wrapped),
    "layers": list(tracer.LAYERS),
    "span_metrics": {name: span for name, (span, _) in tracer.SPAN_METRICS.items()},
}))
"""


@pytest.fixture(scope="module")
def installed():
    child = subprocess.run(
        [sys.executable, "-c", _CHILD, str(ROOT / "src"), str(PERFBENCH)],
        capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout)


def _cli_command_metrics(source: str) -> set[str]:
    """``cli.<command>.s`` for each command that ``run.py`` loops over."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.For) and isinstance(node.target, ast.Name):
            pattern = f"f'cli.{{{node.target.id}}}.s'"
            if any(ast.unparse(n) == pattern for n in ast.walk(node) if isinstance(n, ast.JoinedStr)):
                out |= {f"cli.{command}.s" for command in ast.literal_eval(node.iter)}
    return out


def _literal_keys(source: str) -> set[str]:
    """Metric names that a source file assigns as string literals."""
    return set(re.findall(r'(?:out|metrics)\["([\w.]+)"\] =', source))


def test_every_span_metric_is_wrapped(installed):
    missing = sorted(set(installed["span_metrics"].values()) - set(installed["wrapped"]))
    assert not missing, f"the tracer wraps none of {missing}"


def test_every_declared_per_layer_metric_can_be_produced(installed):
    producible = {f"{layer}.{f}" for layer in installed["layers"] for f in ("self_s", "calls")}
    producible |= _cli_command_metrics((PERFBENCH / "run.py").read_text())
    for source in ("run.py", "tracer.py"):
        producible |= _literal_keys((PERFBENCH / source).read_text())
    wrapped = set(installed["wrapped"])
    producible |= {m for m, span in installed["span_metrics"].items() if span in wrapped}
    declared = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    missing = [name for name in declared if name not in producible]
    assert not missing, f"no traced run can report {missing}"


def test_every_library_layer_has_a_wrapped_name(installed):
    # a layer whose names all moved out of the tracer's reach would report
    # self_s = calls = 0, which reads as a speed-up
    layers = {name.split(".", 1)[0] for name in installed["wrapped"]}
    bare = [layer for layer in installed["layers"][1:] if layer not in layers]
    assert not bare, f"the tracer wraps no name of {bare}"


def test_contour_pass_runs_on_the_library(monkeypatch):
    # the contour workload calls the library in process; a signature it
    # relies on that changes fails here, not only in the benchmark's run
    import importlib.util

    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("contour_pass", PERFBENCH / "contour_pass.py")
    contour_pass = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(contour_pass)
    out = contour_pass.run_pass(1)
    assert set(out) == {"d2", "g_residuals"}
    assert all(math.isfinite(v) for v in out["d2"].values())
    residuals = [row["residual"] for row in out["g_residuals"]]
    assert len(residuals) == 9
    assert all(math.isfinite(r) for r in residuals)
