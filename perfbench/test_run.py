"""Self-test of the benchmark harness: faults must count as failed operations.

Run with ``python3 -m pytest perfbench/test_run.py``.  Each fault is injected
into otherwise valid ``two-site`` output, produced by a real child process,
and the harness's own ``run_child``/``evaluate``/``tally`` path decides.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

VALID = {
    "results": {"omega33": run.OMEGA33_REF, "alpha33": run.ALPHA33_REF},
    "diagnostics": {
        "difference_equation_residuals": [1e-16, 2e-16],
        "three_term_residual": 1e-16,
    },
}


def _child_script(payload: dict, exit_code: int = 0, traceback: bool = False) -> list[str]:
    text = json.dumps(payload)  # allow_nan: NaN is written as the bare NaN token
    lines = [f"print({text!r})"]
    if traceback:
        lines.append("import traceback, sys")
        lines.append("try:\n    1 / 0\nexcept ZeroDivisionError:\n    traceback.print_exc()")
    lines.append(f"raise SystemExit({exit_code})")
    return [sys.executable, "-c", "\n".join(lines)]


def _outcome(argv: list[str]) -> run.Outcome:
    child = run.run_child(argv, timeout=60)
    return run.evaluate("two-site", child.returncode, child.stdout, child.stderr)


def test_valid_output_passes():
    assert _outcome(_child_script(VALID)).ok


def test_nan_on_exit_zero_fails():
    bad = json.loads(json.dumps(VALID))
    bad["results"]["omega33"] = float("nan")
    outcome = _outcome(_child_script(bad))
    assert not outcome.ok
    assert any("strict JSON" in f for f in outcome.failures)


def test_nonfinite_value_fails_its_gate():
    outcome = run.Outcome("gate")
    outcome.gate("x", float("nan"), 1e-8)
    outcome.gate("y", float("inf"), 1e-8)
    outcome.gate_min("z", float("nan"), -1e-8)
    assert len(outcome.failures) == 3


def test_nonzero_exit_fails():
    outcome = _outcome(_child_script(VALID, exit_code=1))
    assert outcome.failures == ["exit code 1"]


def test_traceback_on_stderr_fails():
    outcome = _outcome(_child_script(VALID, traceback=True))
    assert outcome.failures == ["traceback on stderr"]


def test_each_fault_counts_in_failed_frac():
    nan_payload = json.loads(json.dumps(VALID))
    nan_payload["results"]["alpha33"] = float("nan")
    outcomes = [
        _outcome(_child_script(VALID)),
        _outcome(_child_script(nan_payload)),
        _outcome(_child_script(VALID, exit_code=1)),
        _outcome(_child_script(VALID, traceback=True)),
    ]
    attempted, failed = run.tally(outcomes)
    assert (attempted, failed) == (4, 3)
