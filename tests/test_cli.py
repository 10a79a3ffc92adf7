"""Command-line interface: outputs, exit codes, config handling."""

import inspect
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from su3chain import ed as ed_mod
from su3chain.cli import EXIT_OK, EXIT_USAGE, EXIT_VERIFY, _build_parser, main
from su3chain.threesite import G1Solver, three_site_correlator


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
    assert set(payload) == {
        "command", "inputs", "results", "diagnostics", "paper_reference_values",
    }
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


def test_ed_l3(capsys):
    code, out, _ = run(capsys, ["ed", "--L", "3"])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["results"]["energy_per_bond"] == pytest.approx(-1.0, abs=1e-13)
    assert payload["results"]["p12p23"] == pytest.approx(1.0, abs=1e-12)
    assert payload["diagnostics"]["method"] == "dense"


def test_ed_l12_reports_the_zero_momentum_block(capsys):
    code, out, _ = run(capsys, ["ed", "--L", "12"])
    code2, out2, _ = run(capsys, ["ed", "--L", "12"])
    assert code == code2 == EXIT_OK
    assert out == out2  # byte-identical JSON
    diagnostics = json.loads(out)["diagnostics"]
    assert diagnostics["method"] == "lanczos"
    assert diagnostics["k0_dimension"] == 2896
    assert diagnostics["degeneracy"] == 1
    assert diagnostics["k0_gap"] == pytest.approx(1.8555, abs=1e-3)


def test_ed_invalid_length(capsys):
    code, _, err = run(capsys, ["ed", "--L", "5"])
    assert code == EXIT_USAGE
    assert "error" in err


def test_text_format(capsys):
    code, out, _ = run(capsys, ["two-site", "--lambda", "0", "--format", "text"])
    assert code == EXIT_OK
    assert "[results]" in out
    assert "omega33" in out


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


def test_abbreviated_comb_terms_wins_over_config(tmp_path, capsys, monkeypatch):
    from su3chain import threesite

    seen = []

    def correlator(comb_terms):
        seen.append(comb_terms)
        raise RuntimeError("stopped before the comb")

    monkeypatch.setattr(threesite, "three_site_correlator", correlator)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("comb_terms = 3\n")
    code, _, _ = run(capsys, ["--config", str(cfg), "three-site", "--comb", "5"])
    assert code == EXIT_VERIFY
    assert seen == [5]


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
    cfg.write_text("L = 9\ncomb-terms = 4\npoints = 3\nsamples = 5\n")
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


def test_comb_terms_default_is_the_library_default():
    parser = _build_parser()
    for command in ("three-site", "report-table1"):
        for fn in (G1Solver, three_site_correlator):
            default = inspect.signature(fn).parameters["comb_terms"].default
            assert parser.parse_args([command]).comb_terms == default


_LOADED = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from su3chain.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[2:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("su3chain."))]))
"""


@pytest.mark.parametrize(
    "argv, not_loaded",
    [
        (["ed", "--L", "3"], {"basis", "rmatrix", "threesite", "twosite", "specfun"}),
        (["verify-algebra", "--samples", "2"], {"basis", "threesite", "twosite"}),
        (["two-site"], {"basis", "rmatrix", "threesite"}),
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
    assert code == EXIT_OK
    assert not not_loaded & {name.split(".", 1)[1] for name in loaded}


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
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, ["two-site", "--lambda", "1e300j"])
    assert code == EXIT_VERIFY
    assert out == ""
    assert err.startswith("error: ")


def test_report_table1_json_and_csv(capsys):
    argv = ["report-table1"]
    code, out, _ = run(capsys, argv)
    assert code == EXIT_OK
    rows = json.loads(out)["results"]["rows"]
    assert [row["length"] for row in rows] == [
        "L=3", "L=6", "L=9", "thermodynamic",
    ]
    thermo = rows[-1]
    assert abs(thermo["omega33_delta"]) < 1e-12
    assert abs(thermo["p12p23_delta"]) < 1e-6
    code, out, _ = run(capsys, argv + ["--format", "csv"])
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0].startswith("length,omega33")
    assert len(lines) == 5


@pytest.mark.parametrize(
    "argv, option",
    [
        (["--comb-terms", "0"], "--comb-terms"),
        (["--levels", "5"], "--levels"),
        (["--comb-terms", "2.5"], "--comb-terms"),
        (["--comb-terms", "-7"], "--comb-terms"),
    ],
)
def test_three_site_rejects_invalid_ladder(capsys, argv, option):
    # rejected before any comb work, with the option named; --levels no
    # longer exists, so argparse rejects it
    code, out, err = run(capsys, ["three-site", *argv])
    assert code == EXIT_USAGE
    assert out == ""
    assert option in err


def test_report_table1_rejects_short_comb(capsys):
    code, out, err = run(capsys, ["report-table1", "--comb-terms", "0"])
    assert code == EXIT_USAGE
    assert "--comb-terms" in err


def test_three_site_short_comb_fails_gate(capsys):
    # a one-term head leaves the tail series outside its range: off by
    # ~1.7e-4, so the 1e-6 gate gives exit 1
    code, out, err = run(capsys, ["three-site", "--comb-terms", "1"])
    assert code == EXIT_VERIFY
    payload = json.loads(out)
    assert payload["inputs"] == {"comb_terms": 1}
    assert "p12p23 off reference" in err


@pytest.mark.parametrize("comb_terms", ["4", "6"])
def test_three_site_other_orders(capsys, comb_terms):
    # shorter comb heads still pass the 1e-6 gate, and the JSON reports the
    # head length and its tail bound
    code, out, _ = run(capsys, ["three-site", "--comb-terms", comb_terms])
    assert code == EXIT_OK
    payload = json.loads(out)
    diagnostics = payload["diagnostics"]
    assert payload["inputs"] == {"comb_terms": int(comb_terms)}
    assert diagnostics["comb_terms"] == int(comb_terms)
    assert diagnostics["tail_bound"] < 1e-9
    assert abs(diagnostics["p12p23_delta_vs_reference"]) <= 1e-6


def test_ed_nan_residual_fails_closed(monkeypatch, capsys):
    real_ground_state = ed_mod.ground_state

    def nan_residual(spec):
        result = real_ground_state(spec)
        result.residual_norm = float("nan")
        return result

    monkeypatch.setattr(ed_mod, "ground_state", nan_residual)
    code, out, err = run(capsys, ["ed", "--L", "3"])
    assert code == EXIT_VERIFY
    assert "eigenresidual" in err
    assert "Traceback" not in err
    assert "NaN" not in out


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
        (["three-site"], "comb_terms = 0", "--comb-terms"),
        (["three-site", "--comb-terms", "101"], None, "--comb-terms"),
        (["report-table1", "--comb-terms", "101"], None, "--comb-terms"),
        (["three-site"], "comb_terms = 101", "--comb-terms"),
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
