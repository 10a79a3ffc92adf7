"""Command-line interface: outputs, exit codes, config handling."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from su3chain import ed as ed_mod
from su3chain.cli import EXIT_OK, EXIT_USAGE, EXIT_VERIFY, _text_lines, main
from su3chain.twosite import OMEGA33_HOMOGENEOUS
from test_ed import _nan_first_bond, _raised_singlet_sector, _tilted_first_bond


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_no_subcommand_is_usage_error(capsys):
    code, _, err = run(capsys, [])
    assert code == EXIT_USAGE


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, _ = run(capsys, ["bogus"])
    assert code == EXIT_USAGE


def test_two_site_lambda_zero(capsys):
    code, out, _ = run(capsys, ["two-site", "--lambda", "0"])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert set(payload) == {"command", "inputs", "results", "diagnostics"}
    assert payload["results"]["omega33"] == pytest.approx(
        -0.703212076746182, abs=1e-12
    )
    assert payload["results"]["alpha33"] == pytest.approx(
        -0.12956817625994, abs=1e-12
    )


def test_verify_algebra_passes_and_is_deterministic(capsys):
    code1, out1, _ = run(capsys, ["verify-algebra", "--seed", "7"])
    code2, out2, _ = run(capsys, ["verify-algebra", "--seed", "7"])
    assert code1 == code2 == EXIT_OK
    assert out1 == out2  # byte-identical JSON for identical seeds
    payload = json.loads(out1)
    assert payload["diagnostics"]["worst_residual"] < 1e-12


def test_verify_algebra_other_seed(capsys):
    code, out, _ = run(capsys, ["verify-algebra", "--seed", "123", "--samples", "10"])
    assert code == EXIT_OK
    assert json.loads(out)["inputs"]["seed"] == 123


def test_verify_matrices(capsys):
    code, out, _ = run(capsys, ["verify-matrices"])
    assert code == EXIT_OK
    results = json.loads(out)["results"]
    assert results["gram_2_exact"] and results["gram_3_exact"]
    assert results["a2_max_deviation"] < 1e-10
    assert results["a3_max_deviation"] < 1e-10
    assert results["a3_zero_entries_max"] < 1e-10


def test_verify_matrices_gram_mismatch_fails_closed(monkeypatch, capsys):
    # a bumped Gram matrix with fresh caches, so that nothing built from the
    # true one is reused; monkeypatch restores the shared ones afterwards
    from su3chain import basis

    gram = basis.GRAM_2.copy()
    gram[0, 0] += 1
    monkeypatch.setitem(basis._GRAM, 2, gram)
    monkeypatch.setattr(basis, "_CACHE", {})
    for name in ("_chain_polynomial", "gram_inverse"):
        monkeypatch.setattr(basis, name, cache(getattr(basis, name).__wrapped__))
    code, out, err = run(capsys, ["verify-matrices"])
    assert code == EXIT_VERIFY
    assert out == ""
    assert err == "error: singlet-basis Gram matrix mismatch\n"
    assert "Traceback" not in err


def test_verify_matrices_memory_is_flat_in_points(capsys):
    # the points are checked a block at a time; one array call on all 4000
    # would hold about 25 MB of 11 x 11 matrices and their temporaries
    run(capsys, ["verify-matrices", "--points", "3"])  # the cached bases
    tracemalloc.start()
    try:
        code, _, _ = run(capsys, ["verify-matrices", "--points", "4000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    assert peak < 5e6


def test_ed_l3(capsys):
    code, out, _ = run(capsys, ["ed", "--L", "3"])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["results"]["energy_per_bond"] == pytest.approx(-1.0, abs=1e-13)
    assert payload["results"]["p12p23"] == pytest.approx(1.0, abs=1e-12)
    assert payload["diagnostics"]["method"] == "lanczos"
    # one singlet state, so no next level: null, not a non-standard Infinity
    assert payload["diagnostics"]["singlet_dimension"] == 1
    assert payload["diagnostics"]["singlet_gap"] is None


@pytest.mark.parametrize("L, dimension, gap", [(6, 5, 2.6056), (9, 42, 1.5838), (12, 462, 1.1343)])
def test_ed_reports_the_singlet_sector(capsys, L, dimension, gap):
    code, out, _ = run(capsys, ["ed", "--L", str(L)])
    code2, out2, _ = run(capsys, ["ed", "--L", str(L)])
    assert code == code2 == EXIT_OK
    assert out == out2  # byte-identical JSON
    diagnostics = json.loads(out)["diagnostics"]
    assert diagnostics["method"] == "lanczos"
    assert diagnostics["singlet_dimension"] == dimension
    assert diagnostics["singlet_gap"] == pytest.approx(gap, abs=1e-3)


def test_ed_invalid_length(capsys):
    # checked after parsing, in the words argparse gives a failed --L type
    code, _, err = run(capsys, ["ed", "--L", "5"])
    assert code == EXIT_USAGE
    assert err == (
        "usage: su3chain ed [-h] [--L L] [--format {json,text}]\n"
        "su3chain ed: error: argument --L: L must be divisible by 3 (balanced color sector)\n"
    )


def test_text_format(capsys):
    code, out, _ = run(capsys, ["two-site", "--lambda", "0", "--format", "text"])
    assert code == EXIT_OK
    assert "[results]" in out
    assert "omega33" in out


def test_report_table1_text_spells_out_nested_values(capsys):
    code, out, _ = run(capsys, ["report-table1"])
    code2, text, _ = run(capsys, ["report-table1", "--format", "text"])
    assert code == code2 == EXIT_OK
    rows = json.loads(out)["results"]["rows"]
    assert "{" not in text
    cells = [line.split(" = ", 1) for line in text.splitlines() if line.startswith("rows.")]
    assert len(cells) == 4 * 7
    for key, value in cells:
        _, index, column = key.split(".")
        assert value == str(rows[int(index)][column])
    assert "\nthree_site_diagnostics.tail_bound = " in text
    # list entries by index, past the tenth too; a list of numbers stays inline
    lines = _text_lines({"rows": [{"a": i} for i in range(11)], "x": [0.5, 1]})
    assert lines == [f"rows.{i}.a = {i}" for i in range(11)] + ["x = [0.5, 1]"]


def test_config_file_preloads_options(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("samples = 5\nseed = 11  # inline comment\n")
    code, out, _ = run(capsys, ["--config", str(cfg), "verify-algebra"])
    assert code == EXIT_OK
    inputs = json.loads(out)["inputs"]
    assert inputs["samples"] == 5
    assert inputs["seed"] == 11


def test_flags_win_over_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 11\n")
    code, out, _ = run(capsys, ["--config", str(cfg), "verify-algebra", "--seed", "7"])
    assert code == EXIT_OK
    assert json.loads(out)["inputs"]["seed"] == 7


def test_abbreviated_flag_wins_over_config(tmp_path, capsys):
    # argparse accepts a unique prefix of a flag; it must win like the full name
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 3\n")
    argv = ["--config", str(cfg), "verify-algebra", "--se", "9", "--samples", "2"]
    code, out, _ = run(capsys, argv)
    assert code == EXIT_OK
    assert json.loads(out)["inputs"]["seed"] == 9


def test_empty_config_path_is_usage_error(capsys):
    # an empty path is a path that cannot be opened, not "no config file"
    code, out, err = run(capsys, ["--config", "", "verify-algebra"])
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("config error: ")


@pytest.mark.parametrize(
    "command, config, key",
    [
        ("verify-algebra", "seed = 3\nseed = 4\n", "'seed'"),
        # --lambda stores to "lam": two names of one option
        ("two-site", "lam = 0.5\nlambda = 0.25\n", "'lambda'"),
        ("two-site", "lambda = 0.25\nlam = 0.5\n", "'lam'"),
        # a repeat is an error even when the values agree
        ("verify-algebra", "seed = 3\nseed = 3\n", "'seed'"),
        # every subcommand shares --format
        ("verify-matrices", "format = json\nformat = text\n", "'format'"),
        # the whole file is checked, not only the chosen subcommand's keys
        ("verify-algebra", "L = 3\nL = 6\n", "'L'"),
    ],
    ids=[
        "same-key", "two-names", "two-names-reversed", "same-value",
        "shared-option", "other-subcommand",
    ],
)
def test_config_setting_an_option_twice_is_usage_error(
    tmp_path, capsys, command, config, key
):
    # the last value would otherwise win without a word
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    code, out, err = run(capsys, ["--config", str(cfg), command])
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("config error: ")
    assert key in err


def test_malformed_config_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("this is not a key value line\n")
    code, _, err = run(capsys, ["--config", str(cfg), "verify-algebra"])
    assert code == EXIT_USAGE
    assert "config error" in err


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    # "sed" is a typo for "seed": no subcommand has it, so nothing is run
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sed = 11\n")
    code, out, err = run(capsys, ["--config", str(cfg), "verify-algebra"])
    assert code == EXIT_USAGE
    assert out == ""
    assert "config error" in err
    assert "'sed'" in err


def test_config_keys_of_other_subcommands_are_ignored(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("L = 9\nlambda = 0.5\npoints = 3\nsamples = 5\n")
    code, out, _ = run(capsys, ["--config", str(cfg), "verify-algebra", "--samples", "2"])
    assert code == EXIT_OK
    assert json.loads(out)["inputs"]["samples"] == 2


def test_config_names_an_option_by_its_flag(tmp_path, capsys):
    # --lambda stores to "lam"; the file may use either name
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lambda = 0.5\n")
    code, out, _ = run(capsys, ["--config", str(cfg), "two-site"])
    assert code == EXIT_OK
    assert json.loads(out)["inputs"]["lambda"] == [0.5, 0.0]
    code, out, _ = run(capsys, ["--config", str(cfg), "two-site", "--lambda", "0.25"])
    assert json.loads(out)["inputs"]["lambda"] == [0.25, 0.0]


_LOADED = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from su3chain.cli import main
code = None  # a bare import runs nothing
if sys.argv[2:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(sys.argv[2:])
loaded = [m for m in sys.modules if m.startswith("su3chain.") or m == "numpy"]
print(json.dumps([code, sorted(loaded)]))
"""

#: every module of the package but cli
_LAYERS = {
    path.stem for path in (Path(__file__).resolve().parents[1] / "src" / "su3chain").glob("*.py")
} - {"__init__", "cli"}


@pytest.mark.parametrize(
    "argv, not_loaded",
    [
        (["ed", "--L", "3"], {"basis", "rmatrix", "threesite", "twosite", "specfun"}),
        (["verify-algebra", "--samples", "2"], {"basis", "threesite", "twosite", "ed"}),
        (["two-site"], {"basis", "rmatrix", "threesite", "tensors", "ed"}),
        (["three-site"], {"basis", "rmatrix", "tensors", "ed"}),
        (["verify-matrices", "--points", "2"], {"threesite", "twosite", "specfun", "ed"}),
        ([], _LAYERS | {"numpy"}),
    ],
)
def test_subcommand_imports_only_its_own_layers(argv, not_loaded):
    # a fresh process, since this one has imported every layer already
    src = str(Path(__file__).resolve().parents[1] / "src")
    child = subprocess.run(
        [sys.executable, "-c", _LOADED, src, *argv],
        capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    code, loaded = json.loads(child.stdout)
    assert code == (EXIT_OK if argv else None)
    assert not not_loaded & {name.removeprefix("su3chain.") for name in loaded}


_FRONT_END = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from su3chain.cli import main
runs = []
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    runs.append([code, "numpy" in sys.modules])
print(json.dumps(runs))
"""


def test_front_end_runs_without_numpy(tmp_path):
    # help and the usage errors that parsing finds need no handler, so no numpy
    cfg = tmp_path / "run.cfg"
    cfg.write_text("no_such_option = 1\n")
    argvs = [
        ["--help"],
        ["verify-algebra", "--samples", "0"],
        ["two-site", "--lambda", "inf"],
        ["--config", str(cfg), "two-site"],
    ]
    src = str(Path(__file__).resolve().parents[1] / "src")
    child = subprocess.run(
        [sys.executable, "-c", _FRONT_END, src, json.dumps(argvs)],
        capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout) == [
        [EXIT_OK, False], [EXIT_USAGE, False], [EXIT_USAGE, False], [EXIT_USAGE, False]
    ]


_GATES = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from su3chain.cli import main
codes = []
for argv in (["verify-algebra"], ["verify-matrices"], ["ed", "--L", "6"]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
print(json.dumps([codes, sorted(m for m in sys.modules if m.startswith("numpy.random"))]))
"""


def test_ci_gates_do_not_load_numpy_random():
    # numpy.random costs about 6 MB of RSS per process; the seeded points come
    # from the standard library's random, which the interpreter has loaded
    src = str(Path(__file__).resolve().parents[1] / "src")
    child = subprocess.run(
        [sys.executable, "-c", _GATES, src],
        capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    codes, loaded = json.loads(child.stdout)
    assert codes == [EXIT_OK] * 3
    assert loaded == []


def test_closed_stdout_is_no_error():
    # the read end is closed before the child starts, so its first write to
    # stdout meets a broken pipe
    src = str(Path(__file__).resolve().parents[1] / "src")
    read, write = os.pipe()
    os.close(read)
    try:
        child = subprocess.run(
            [sys.executable, "-m", "su3chain.cli", "two-site"],
            stdout=write, stderr=subprocess.PIPE, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
    finally:
        os.close(write)
    assert "Traceback" not in child.stderr
    assert child.stderr == ""
    assert child.returncode == EXIT_OK


@pytest.mark.parametrize("key", ["command", "func", "config"])
def test_config_cannot_choose_command_handler_or_config(tmp_path, capsys, key):
    # "command = report-table1" would send ed's result to the table printer
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = report-table1\nformat = csv\n")
    code, out, err = run(capsys, ["--config", str(cfg), "ed", "--L", "3"])
    assert code == EXIT_USAGE
    assert out == ""
    assert "config error" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("lam", ["-3", "3", "-2", "2"])
def test_two_site_fails_closed_at_poles(capsys, lam):
    # each is a pole of omega33 or of the residual formulas at lam
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning either
        code, out, err = run(capsys, ["two-site", "--lambda", lam])
    assert code in (EXIT_VERIFY, EXIT_USAGE)
    assert "Traceback" not in err
    assert "pole" in err
    if out:
        json.loads(out, parse_constant=lambda name: pytest.fail(f"{name} in JSON"))


def test_two_site_overflow_fails_without_traceback(capsys):
    for lam in ("1e300j", "0.5+1e300j", "1e160+0.5j"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, ["two-site", "--lambda", lam])
        assert code == EXIT_VERIFY
        assert out == ""
        # one line naming the option and its value
        assert err.startswith(f"error: --lambda {complex(lam)}: ")
        assert err.count("\n") == 1


def test_three_site_runs_the_library_comb(capsys, three_site_pair):
    # no option reaches the comb: the command reports the library's own solve
    code, out, _ = run(capsys, ["three-site"])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["inputs"] == {}
    solution = three_site_pair[0][12]
    assert payload["results"]["p12p23"] == solution.p12p23
    diagnostics = payload["diagnostics"]
    assert diagnostics["comb_terms"] == solution.diagnostics["comb_terms"] == 12
    assert diagnostics["tail_bound"] < 1e-9
    assert abs(diagnostics["p12p23_delta_vs_reference"]) <= 1e-6


def test_report_table1_json_and_csv(capsys):
    argv = ["report-table1"]
    code, out, _ = run(capsys, argv)
    assert code == EXIT_OK
    assert json.loads(out)["inputs"] == {}
    rows = json.loads(out)["results"]["rows"]
    assert [row["length"] for row in rows] == [
        "L=3", "L=6", "L=9", "thermodynamic",
    ]
    thermo = rows[-1]
    # the correctly rounded constant, not omega33(0.0), which is 3.7 ulp off
    assert thermo["omega33"] == OMEGA33_HOMOGENEOUS
    assert abs(thermo["omega33_delta"]) < 1e-12
    assert abs(thermo["p12p23_delta"]) < 1e-6
    code, out, _ = run(capsys, argv + ["--format", "csv"])
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0].startswith("length,omega33")
    assert len(lines) == 5
    assert float(lines[-1].split(",")[1]) == OMEGA33_HOMOGENEOUS


def _nan_unitarity(monkeypatch):
    from su3chain import rmatrix

    monkeypatch.setattr(rmatrix, "check_unitarity", lambda *args: float("nan"))


def _nan_fusion_down(monkeypatch):
    # one identity NaN among finite ones: the runner must name that one
    from su3chain import rmatrix

    real_check_fusion = rmatrix.check_fusion

    def check_fusion(lam, mu, direction):
        value = real_check_fusion(lam, mu, direction)
        return float("nan") if direction == "down" else value

    monkeypatch.setattr(rmatrix, "check_fusion", check_fusion)


def _nan_a_matrix_at_second_point(monkeypatch):
    # A2 a NaN at the second point of its batch only
    from su3chain import basis

    real_a_matrix = basis.a_matrix

    def a_matrix(*args):
        a = real_a_matrix(*args)
        if len(args) == 1:
            a[1] = np.nan
        return a

    monkeypatch.setattr(basis, "a_matrix", a_matrix)


def _nan_a3_closed_form(monkeypatch):
    # a NaN in the second of three checks: the first failed one is named
    from su3chain import basis

    real_a3_closed_form = basis.a3_closed_form

    def a3_closed_form(x, y):
        a = real_a3_closed_form(x, y)
        a[..., 0, 0] = np.nan  # a nonzero entry, so the printed zero pattern stays
        return a

    monkeypatch.setattr(basis, "a3_closed_form", a3_closed_form)


def _nan_difference_residual(monkeypatch):
    from su3chain import twosite

    monkeypatch.setattr(
        twosite, "check_difference_equations", lambda lam: (0.0, float("nan"))
    )


def _nan_p12p23(monkeypatch):
    from su3chain import threesite

    real_correlator = threesite.three_site_correlator

    def correlator():
        solution = real_correlator()
        solution.p12p23 = float("nan")
        return solution

    monkeypatch.setattr(threesite, "three_site_correlator", correlator)


def _nan_eigenresidual(monkeypatch):
    real_ground_state = ed_mod.ground_state

    def ground_state(spec):
        result = real_ground_state(spec)
        result.residual_norm = float("nan")
        return result

    monkeypatch.setattr(ed_mod, "ground_state", ground_state)


def _moved_table1_cell(shift):
    """A stand-in ground state that adds ``shift`` to the L=9 ``p12p23`` cell;
    a NaN shift makes the cell NaN."""

    def make(monkeypatch):
        real_ground_state = ed_mod.ground_state

        def ground_state(spec):
            result = real_ground_state(spec)
            if spec.L == 9:
                result.v[4] += shift
            return result

        monkeypatch.setattr(ed_mod, "ground_state", ground_state)

    return make


@pytest.mark.parametrize(
    "argv, make_nan, check",
    [
        (["verify-algebra", "--samples", "3"], _nan_unitarity, "unitarity_standard"),
        (["verify-matrices", "--points", "3"], _nan_a_matrix_at_second_point,
         "a2_max_deviation"),
        (["verify-algebra", "--samples", "3"], _nan_fusion_down, "fusion_down"),
        (["verify-matrices", "--points", "3"], _nan_a3_closed_form,
         "a3_max_deviation"),
        (["two-site"], _nan_difference_residual, "difference-equation residuals"),
        (["three-site"], _nan_p12p23, "p12p23 off reference"),
        (["ed", "--L", "3"], _nan_eigenresidual, "eigenresidual"),
        (["ed", "--L", "9"], _moved_table1_cell(float("nan")), "p12p23 off reference"),
        (["report-table1"], _moved_table1_cell(float("nan")), "L=9 p12p23"),
    ],
    ids=[
        "verify-algebra",
        "verify-matrices",
        "verify-algebra-one-identity",
        "verify-matrices-a3",
        "two-site",
        "three-site",
        "ed",
        "ed-table1-cell",
        "report-table1",
    ],
)
def test_nan_gated_value_fails_closed(monkeypatch, capsys, argv, make_nan, check):
    # a NaN compares false with every tolerance, so its check fails and is
    # named, even where it is not the first value a maximum is taken over
    make_nan(monkeypatch)
    code, out, err = run(capsys, argv)
    assert code == EXIT_VERIFY
    assert err.startswith("verification failed: ")
    assert check in err.splitlines()[0]
    assert "Traceback" not in err
    if out:
        json.loads(out, parse_constant=lambda name: pytest.fail(f"{name} in JSON"))


def test_ed_singlet_sector_above_the_global_minimum_fails_closed(monkeypatch, capsys):
    monkeypatch.setattr(ed_mod, "Hamiltonian", _raised_singlet_sector)
    code, out, err = run(capsys, ["ed", "--L", "6"])
    assert code == EXIT_VERIFY
    assert out == ""
    assert "singlet sector misses the global minimum" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "L, name, stand_in, reason",
    [
        (9, "Hamiltonian", _tilted_first_bond, "translation invariance violated: "),
        (12, "_LANCZOS_MAX_ITER", 3, "Lanczos did not converge in 3 iterations "),
        # a NaN passes neither gate: each compares as not (deviation <= tolerance)
        (6, "_balanced_minimum", lambda L: np.nan, "singlet sector misses the global minimum: "),
        (9, "Hamiltonian", _nan_first_bond, "translation invariance violated: <P12> = nan"),
    ],
    ids=["translation-invariance", "lanczos-not-converged", "nan-global-minimum", "nan-first-bond"],
)
def test_ed_library_gate_fails_closed(monkeypatch, capsys, L, name, stand_in, reason):
    monkeypatch.setattr(ed_mod, name, stand_in)
    code, out, err = run(capsys, ["ed", "--L", str(L)])
    assert code == EXIT_VERIFY
    assert out == ""
    assert err.startswith(f"error: {reason}")
    assert "Traceback" not in err


def _off_unitarity(monkeypatch):
    from su3chain import rmatrix

    monkeypatch.setattr(rmatrix, "check_unitarity", lambda *args: 1e-9)


def _off_a3_closed_form(monkeypatch):
    from su3chain import basis

    real_a3_closed_form = basis.a3_closed_form

    def a3_closed_form(x, y):
        a = real_a3_closed_form(x, y)
        a[..., 0, 0] += 1e-6
        return a

    monkeypatch.setattr(basis, "a3_closed_form", a3_closed_form)


def _off_difference_residual(monkeypatch):
    from su3chain import twosite

    monkeypatch.setattr(twosite, "check_difference_equations", lambda lam: (0.0, 1e-9))


def _off_omega33(monkeypatch):
    # at lambda = 0 only: the difference equations, checked at 0.4+0.3j, hold
    from su3chain import twosite

    real_omega33 = twosite.omega33
    monkeypatch.setattr(
        twosite, "omega33", lambda lam: real_omega33(lam) + (1e-9 if lam == 0 else 0)
    )


def _off_omega33_constant(monkeypatch):
    from su3chain import twosite

    monkeypatch.setattr(twosite, "OMEGA33_HOMOGENEOUS", twosite.OMEGA33_HOMOGENEOUS + 1e-9)


def _off_p12p23(monkeypatch):
    # what a one-term comb head gave: the tail series outside its range
    from su3chain import threesite

    real_correlator = threesite.three_site_correlator

    def correlator():
        solution = real_correlator()
        solution.p12p23 += 1.7e-4
        return solution

    monkeypatch.setattr(threesite, "three_site_correlator", correlator)


def _off_eigenresidual(L):
    """A stand-in ground state whose eigenresidual at length ``L`` is 1e-8."""

    def make(monkeypatch):
        real_ground_state = ed_mod.ground_state

        def ground_state(spec):
            result = real_ground_state(spec)
            if spec.L == L:
                result.residual_norm = 1e-8
            return result

        monkeypatch.setattr(ed_mod, "ground_state", ground_state)

    return make


@pytest.mark.parametrize(
    "argv, make_off, inputs, reason",
    [
        (["verify-algebra", "--samples", "3"], _off_unitarity,
         {"seed": 7, "samples": 3, "tolerance": 1e-12},
         "identity 'unitarity_standard' residual 1.000e-09"),
        (["verify-matrices", "--points", "3"], _off_a3_closed_form,
         {"seed": 7, "points": 3, "tolerance": 1e-10},
         "a3_max_deviation = 1.000e-06"),
        (["two-site"], _off_difference_residual, {"lambda": [0.0, 0.0]},
         "difference-equation residuals 0.000e+00, 1.000e-09"),
        (["two-site"], _off_omega33, {"lambda": [0.0, 0.0]},
         "omega33 off reference by 1.000e-09"),
        (["three-site"], _off_p12p23, {}, "p12p23 off reference by 1.700e-04"),
        (["ed", "--L", "3"], _off_eigenresidual(3), {"L": 3}, "eigenresidual 1.000e-08"),
        # the gate is 1e-8 and the cell's own delta -1.4e-12
        (["ed", "--L", "9"], _moved_table1_cell(1e-7), {"L": 9},
         "p12p23 off reference by 1.000e-07"),
        # report-table1 runs ed's and three-site's own checks, named by row
        (["report-table1"], _moved_table1_cell(1e-7), {},
         "L=9 p12p23 off reference by 1.000e-07"),
        (["report-table1"], _off_eigenresidual(9), {}, "L=9 eigenresidual 1.000e-08"),
        (["report-table1"], _off_p12p23, {},
         "thermodynamic p12p23 off reference by 1.700e-04"),
        # the one cell report-table1 computes itself
        (["report-table1"], _off_omega33_constant, {},
         "thermodynamic omega33 off reference by 1.000e-09"),
    ],
    ids=["verify-algebra", "verify-matrices", "two-site", "two-site-reference",
         "three-site", "ed", "ed-table1-cell", "report-table1", "report-table1-ed-check",
         "report-table1-three-site-check", "report-table1-omega33"],
)
def test_finite_gate_failure_still_emits_payload(
    monkeypatch, capsys, argv, make_off, inputs, reason
):
    # a finite value over its tolerance: exit 1, the check named first on
    # stderr, and the whole payload on stdout as strict JSON
    make_off(monkeypatch)
    code, out, err = run(capsys, argv)
    assert code == EXIT_VERIFY
    assert err.splitlines() == [f"verification failed: {reason}"]
    payload = json.loads(
        out, parse_constant=lambda name: pytest.fail(f"{name} in JSON")
    )
    assert payload["command"] == argv[0]
    assert payload["inputs"] == inputs


@pytest.mark.parametrize(
    "argv, config, option",
    [
        (["verify-algebra", "--samples", "-1"], None, "--samples"),
        (["verify-algebra", "--samples", "0"], None, "--samples"),
        (["verify-algebra", "--samples", "100000000000"], None, "--samples"),
        (["verify-algebra", "--seed", "-1"], None, "--seed"),
        (["verify-matrices", "--seed", "-1"], None, "--seed"),
        (["verify-matrices", "--points", "-2"], None, "--points"),
        (["verify-matrices", "--points", "0"], None, "--points"),
        (["verify-matrices", "--points", "100001"], None, "--points"),
        (["verify-algebra", "--format", "csv"], None, "--format"),
        (["verify-matrices", "--format", "csv"], None, "--format"),
        (["two-site", "--format", "csv"], None, "--format"),
        (["three-site", "--format", "csv"], None, "--format"),
        (["ed", "--format", "csv"], None, "--format"),
        (["verify-algebra"], "samples = -1", "--samples"),
        (["verify-algebra"], "samples = 100000000000", "--samples"),
        (["verify-algebra"], "seed = -1", "--seed"),
        (["verify-algebra"], "seed = x", "--seed"),
        (["verify-matrices"], "points = 0", "--points"),
        (["verify-matrices"], "format = csv", "--format"),
        (["verify-matrices"], "format = xml", "--format"),
        # the comb length is no option: both commands run the library's default
        (["three-site", "--comb-terms", "12"], None, "--comb-terms"),
        (["report-table1", "--comb-terms", "12"], None, "--comb-terms"),
        (["three-site"], "comb_terms = 12", "'comb_terms'"),
        (["report-table1"], "comb_terms = 12", "'comb_terms'"),
        # a key read by its flag's spelling is no more known
        (["three-site"], "comb-terms = 12", "'comb_terms'"),
    ],
)
def test_out_of_range_options_fail_closed(tmp_path, capsys, argv, config, option):
    # exit 2 naming the option, before any work: nothing reaches stdout
    if config is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config + "\n")
        argv = ["--config", str(cfg), *argv]
    code, out, err = run(capsys, argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert option in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("verify-algebra", "samples", "0"),
        ("verify-matrices", "seed", "-1"),
        ("verify-algebra", "format", "xml"),
        ("ed", "format", "csv"),
        ("two-site", "lambda", "inf"),
        ("ed", "L", "5"),
    ],
)
def test_a_bad_value_gives_one_reason_from_either_source(
    tmp_path, capsys, command, key, value
):
    # the option's parser checks a flag and a config line alike, so both
    # sources fail the same way, word for word
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n")
    flag = run(capsys, [command, f"--{key}", value])
    config = run(capsys, ["--config", str(cfg), command])
    for code, out, err in (flag, config):
        assert code == EXIT_USAGE
        assert out == ""
        assert f"--{key}" in err
        assert "Traceback" not in err
    assert flag[2] == config[2]


def _strict(name):
    raise ValueError(f"{name} in JSON")


#: values that no option accepts as a valid one, or as a costly one: no digit
#: but 0, so an integer option parses as 0 at most
_JUNK = st.text(alphabet="0 .+-ejnaxfi", max_size=5)
#: each fuzzed subcommand's options, drawn small where they are valid
_FUZZED_OPTIONS = {
    "ed": {"--L": st.integers(-5, 30).map(str)},
    "two-site": {
        "--lambda": st.complex_numbers(allow_nan=True, allow_infinity=True).map(str),
    },
    "verify-algebra": {
        "--seed": st.integers(-3, 2**70).map(str),
        "--samples": st.integers(-2, 6).map(str),
    },
    "verify-matrices": {
        "--seed": st.integers(-3, 2**70).map(str),
        "--points": st.integers(-2, 6).map(str),
    },
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_FUZZED_OPTIONS)))
    options = {
        **_FUZZED_OPTIONS[command],
        "--format": st.sampled_from(["json", "text", "csv", "xml"]),
    }
    argv = [command]
    for flag in draw(st.lists(st.sampled_from(sorted(options)), unique=True)):
        argv += [flag, draw(options[flag] | _JUNK)]
    return argv


@settings(max_examples=80, deadline=None)
@given(_argv())
def test_fuzzed_argv_keeps_the_cli_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_VERIFY, EXIT_USAGE)
    assert "Traceback" not in err.getvalue()
    fmt = dict(zip(argv[1::2], argv[2::2])).get("--format", "json")
    if code == EXIT_OK and fmt == "json":
        json.loads(out.getvalue(), parse_constant=_strict)
