"""Command-line interface: schemas, exit codes, and determinism."""
import argparse
import ast
import csv
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import triwave.blocks
import triwave.cli
import triwave.evolution
import triwave.states
from triwave.cli import main

# the output schema, pinned literally: columns are the record fields in order
SWEEP_HEADER = ["tau", "overlap", "eta", "purity", "delta_phi", "n_a", "n_b", "n_c", "lambda_re", "lambda_im"]
SCALING_HEADER = ["n_in", "n_out", "tau_opt", "overlap", "eta", "purity", "delta_phi", "lambda_re", "lambda_im"]
FIT_KEYS = ["prefactor", "exponent", "residual"]


def run(args):
    return main(list(args))


def test_stage2_csv_schema(tmp_path, capsys):
    out = tmp_path / "s2.csv"
    code = run(["stage2", "--n-in", "2", "--tau-max", "1.0", "--tau-steps", "5", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(SWEEP_HEADER)
    assert len(lines) == 6
    row = lines[1].split(",")
    assert len(row) == len(SWEEP_HEADER)
    assert float(row[0]) == 0.0
    assert float(row[1]) == pytest.approx(1.0, abs=1e-9)
    summary = capsys.readouterr().out
    assert summary.startswith("stage2:")

    json_out = tmp_path / "s2.json"
    assert run(["stage2", "--n-in", "2", "--tau-max", "1.0", "--tau-steps", "3", "--out", str(json_out)]) == 0
    payload = json.loads(json_out.read_text())
    assert [list(r) for r in payload["records"]] == [SWEEP_HEADER] * 3
    assert payload["fits"] == {}


def test_stage1_json_schema(tmp_path):
    out = tmp_path / "s1.json"
    code = run(["stage1", "--pump-energy", "9", "--tau-max", "0.4", "--tau-steps", "3", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"config", "records", "fits"}
    assert payload["config"]["command"] == "stage1"
    assert payload["config"]["pump_energy"] == 9.0
    assert len(payload["records"]) == 3
    first = payload["records"][0]
    assert all(list(r) == SWEEP_HEADER for r in payload["records"])
    # the two-mode marginal carries no single-phase reading
    assert first["delta_phi"] is None
    assert first["overlap"] == pytest.approx(1.0, abs=1e-9)


def test_format_flag_overrides_extension(tmp_path):
    out = tmp_path / "data.txt"
    code = run(["stage2", "--n-in", "1", "--tau-max", "0.5", "--tau-steps", "2",
                "--out", str(out), "--format", "json"])
    assert code == 0
    json.loads(out.read_text())


def test_extensionless_out_defaults_to_csv(tmp_path):
    out = tmp_path / "data"
    code = run(["stage2", "--n-in", "1", "--tau-max", "0.5", "--tau-steps", "2", "--out", str(out)])
    assert code == 0
    assert out.read_text().splitlines()[0] == ",".join(SWEEP_HEADER)


def test_repeated_runs_are_byte_identical(tmp_path):
    args = ["stage2", "--n-in", "3", "--tau-max", "1.2", "--tau-steps", "7"]
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_scaling_csv_and_json(tmp_path):
    csv_out = tmp_path / "sc.csv"
    code = run(["scaling", "--n-in-list", "1:3:1", "--eps", "1e-6", "--out", str(csv_out)])
    assert code == 0
    lines = csv_out.read_text().splitlines()
    assert lines[0] == ",".join(SCALING_HEADER)
    assert len(lines) == 4
    assert [float(row.split(",")[0]) for row in lines[1:]] == [1.0, 2.0, 3.0]

    json_out = tmp_path / "sc.json"
    code = run(["scaling", "--n-in-list", "1,2,3", "--eps", "1e-6", "--out", str(json_out)])
    assert code == 0
    payload = json.loads(json_out.read_text())
    assert set(payload["fits"]) == {"tau_opt_vs_n_in", "tau_opt_vs_n_out"}
    assert all(list(fit) == FIT_KEYS for fit in payload["fits"].values())
    assert all(list(r) == SCALING_HEADER for r in payload["records"])
    assert payload["fits"]["tau_opt_vs_n_in"]["exponent"] < 0.0
    assert [r["n_in"] for r in payload["records"]] == [1.0, 2.0, 3.0]


def test_pipeline_single_record(tmp_path):
    out = tmp_path / "pipe.json"
    alpha_sq = 9.0
    tau1 = math.atanh(math.sqrt(1.0 / 3.0)) / math.sqrt(alpha_sq)
    code = run(["pipeline", "--pump-energy", str(alpha_sq), "--tau1", str(tau1),
                "--tau2", "0.9", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload["records"]) == 1
    rec = payload["records"][0]
    assert list(rec) == SWEEP_HEADER
    assert payload["fits"] == {}
    assert rec["tau"] == 0.9
    assert rec["n_a"] is None and rec["n_b"] is None
    assert 0.0 < rec["overlap"] <= 1.0
    assert 0.0 < rec["purity"] <= 1.0


def test_block_info(capsys):
    assert run(["block-info", "--s", "4", "--k", "2"]) == 0
    text = capsys.readouterr().out
    assert "dimension 3" in text
    assert "2.0" in text
    assert "1.414" in text


@pytest.mark.parametrize("s, k", [(200000, 100000), (2 * 10**9, 10**9)])
def test_block_info_refuses_a_block_over_the_eigensystem_budget_at_once(monkeypatch, capsys, s, k):
    # dimension 100 001 keeps 37 GiB of eigensystem, over the 4 GiB budget: exit 2 before a coupling is computed
    def refuse(*args, **kwargs):
        raise AssertionError("allocated the couplings")

    monkeypatch.setattr(np, "arange", refuse)
    start = time.monotonic()
    assert run(["block-info", "--s", str(s), "--k", str(k)]) == 2
    assert time.monotonic() - start < 1.0
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: the block eigensystems of this input need ") and "over the budget of 4 GiB" in err


def test_block_info_admits_a_block_within_the_eigensystem_budget(capsys):
    # dimension 20 001 keeps 1.5 GiB of eigensystem, inside the budget, so its 2 x 20 000 couplings are printed
    assert run(["block-info", "--s", "40000", "--k", "20000"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "block (s=40000, k=20000): dimension 20001"
    assert [line.count(",") for line in lines[1:]] == [19999, 19999]


@pytest.mark.parametrize(
    "args",
    [
        ["stage1", "--pump-energy", "-4", "--tau-max", "1", "--tau-steps", "3", "--out", "x.csv"],
        ["stage2", "--n-in", "0", "--tau-max", "1", "--tau-steps", "3", "--out", "x.csv"],
        ["stage2", "--n-in", "2", "--tau-max", "1", "--tau-steps", "1", "--out", "x.csv"],
        ["stage2", "--n-in", "2", "--tau-max", "0", "--tau-steps", "3", "--out", "x.csv"],
        ["stage2", "--n-in", "2", "--tau-max", "1", "--tau-steps", "3", "--eps", "0", "--out", "x.csv"],
        ["scaling", "--n-in-list", "4:2:1", "--out", "x.csv"],
        ["scaling", "--n-in-list", "0,2,4", "--out", "x.csv"],
        ["scaling", "--n-in-list", "1,2", "--out", "x.csv"],
        ["scaling", "--n-in-list", "nope", "--out", "x.csv"],
        ["pipeline", "--pump-energy", "4", "--tau1", "-0.1", "--tau2", "0.5", "--out", "x.csv"],
        ["stage2", "--n-in", "2", "--tau-max", "nan", "--tau-steps", "3", "--out", "x.csv"],
        ["pipeline", "--pump-energy", "4", "--tau1", "nan", "--tau2", "0.5", "--out", "x.csv"],
        ["stage1", "--pump-energy", "nan", "--tau-max", "1", "--tau-steps", "3", "--out", "x.csv"],
        ["stage2", "--n-in", "inf", "--tau-max", "1", "--tau-steps", "3", "--out", "x.csv"],
        ["stage1", "--pump-energy", "4", "--pump-phase", "inf", "--tau-max", "1", "--tau-steps", "3", "--out", "x.csv"],
        ["scaling", "--n-in-list", "1,2,nan", "--out", "x.csv"],
        ["scaling", "--n-in-list", "1:inf:1", "--out", "x.csv"],
        ["scaling", "--n-in-list", "1:1e300:1e-300", "--out", "x.csv"],
        ["block-info", "--s", "2", "--k", "3"],
        # argparse's own errors: missing required flag, bad type, bad choice, unknown flag
        ["stage1", "--out", "x.csv"],
        ["stage2", "--n-in", "2", "--tau-max", "1", "--tau-steps", "x", "--out", "x.csv"],
        ["stage2", "--n-in", "2", "--tau-max", "1", "--tau-steps", "3", "--format", "xml", "--out", "x.csv"],
        ["stage1", "--pump-energy", "4", "--tau-max", "1", "--tau-steps", "3", "--phase-grid", "512", "--out", "x.csv"],
        # at tau1 = 0 stage 1 delivers no pairs, so eta would be roundoff over roundoff
        ["pipeline", "--pump-energy", "4", "--tau1", "0", "--tau2", "0.7", "--out", "x.csv"],
        # inputs the states constructors truncate to the vacuum carry no photons to convert
        ["stage1", "--pump-energy", "1e-300", "--tau-max", "1", "--tau-steps", "3", "--out", "x.csv"],
        ["stage2", "--n-in", "1e-300", "--tau-max", "1", "--tau-steps", "3", "--out", "x.csv"],
        ["pipeline", "--pump-energy", "1e-300", "--tau1", "0.3", "--tau2", "0.7", "--out", "x.csv"],
        ["scaling", "--n-in-list", "1e-300,1,2", "--out", "x.csv"],
        # a single distinct energy leaves the power-law fits rank-deficient
        ["scaling", "--n-in-list", "2,2,2", "--out", "x.csv"],
        # times past the exact domain of the input, 1.06e6 for pump 4, where the phase keeps no 1e-8
        ["stage1", "--pump-energy", "4", "--tau-max", "1e300", "--tau-steps", "2", "--out", "x.csv"],
        ["pipeline", "--pump-energy", "4", "--tau1", "0.3", "--tau2", "1e7", "--out", "x.csv"],
    ],
)
def test_config_errors_exit_2(args, capsys):
    assert run(args) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        ("2:4", "expected start:stop:step"),
        # 1e300 and 1e12 energies: counted first, never built
        ("1:1e300:1", f"the range holds more than {triwave.cli._MAX_RANGE_ENERGIES} energies"),
        ("0:1:1e-12", f"the range holds more than {triwave.cli._MAX_RANGE_ENERGIES} energies"),
    ],
)
def test_energy_range_refusals_exit_2_at_once(text, message, capsys):
    start = time.perf_counter()
    assert run(["scaling", "--n-in-list", text, "--out", "x.csv"]) == 2
    assert time.perf_counter() - start < 1.0
    assert f"error: argument --n-in-list: could not be parsed: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("steps", [triwave.cli._MAX_TAU_STEPS + 1, 10**15])
@pytest.mark.parametrize("args", [["stage1", "--pump-energy", "1"], ["stage2", "--n-in", "2"]], ids=["stage1", "stage2"])
def test_tau_steps_past_the_cap_exit_2_at_once(tmp_path, args, steps, capsys):
    # counted by argparse before np.linspace allocates the grid: 10^15 steps asked it for 7.11 PiB and exited 1
    out = tmp_path / "x.csv"
    start = time.perf_counter()
    assert run(args + ["--tau-max", "1", "--tau-steps", str(steps), "--out", str(out)]) == 2
    assert time.perf_counter() - start < 1.0
    assert f"error: argument --tau-steps: must be finite and in [2, {triwave.cli._MAX_TAU_STEPS}], got {steps}" in (
        capsys.readouterr().err)
    assert not out.exists()


def test_energy_range_bound_admits_its_own_count():
    bound = triwave.cli._MAX_RANGE_ENERGIES
    assert len(triwave.cli._energy_list(f"1:{bound}:1")) == bound
    with pytest.raises(argparse.ArgumentTypeError, match="more than"):
        triwave.cli._energy_list(f"1:{bound + 1}:1")


@pytest.mark.parametrize(
    "args",
    [
        ["stage2", "--n-in", "2", "--tau-max", "1", "--tau-steps", "3"],
        ["pipeline", "--pump-energy", "4", "--tau1", "0.3", "--tau2", "0.7"],
        ["scaling", "--n-in-list", "1,2,3"],
    ],
    ids=["stage2", "pipeline", "scaling"],
)
def test_phase_grid_is_an_unrecognized_argument(tmp_path, args, capsys):
    # the phase grid is fixed at 1024 points, so no command takes --phase-grid, not even its old default
    out = tmp_path / "x.csv"
    assert run(args + ["--phase-grid", "1024", "--out", str(out)]) == 2
    assert "error: unrecognized arguments: --phase-grid 1024" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tau1", ["1e-300", "1e-200"])
def test_pipeline_below_the_rounding_floor_exits_2(tmp_path, capsys, tau1):
    # --tau1 parses, but the pair energy stage 1 delivers is rounding: it wrote eta = 0.5331 and exited 0
    out = tmp_path / "pipe.json"
    assert run(["pipeline", "--pump-energy", "81", "--tau1", tau1, "--tau2", "0.7", "--out", str(out)]) == 2
    assert "error: stage 1 delivers no pairs" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["stage2", "--n-in", "2", "--tau-min", "0.5", "--tau-max", "0.5", "--tau-steps", "3"],
        ["stage1", "--pump-energy", "4", "--tau-max", "1", "--tau-steps", "3", "--eps", "0.5"],
        ["stage2", "--n-in", "2", "--tau-max", "1", "--tau-steps", "3", "--eps", "0.5"],
        ["pipeline", "--pump-energy", "4", "--tau1", "0.3", "--tau2", "0.7", "--eps", "0.5"],
        ["scaling", "--n-in-list", "1,2,3", "--eps", "0.5"],
        ["scaling", "--n-in-list", "0,2,4"],
        ["scaling", "--n-in-list", "1,2"],
        ["scaling", "--n-in-list", "1,2,nan"],
        ["scaling", "--n-in-list", "2,2,2"],
        ["scaling", "--n-in-list", "1e-300,1,2"],
        ["scaling", "--n-in-list", "1,2,1e-300"],
        ["stage1", "--pump-energy", "1e-300", "--tau-max", "1", "--tau-steps", "3"],
        ["stage2", "--n-in", "1e-300", "--tau-max", "1", "--tau-steps", "3"],
        ["stage1", "--pump-energy", "4", "--tau-max", "1e300", "--tau-steps", "2"],
        ["pipeline", "--pump-energy", "4", "--tau1", "0.3", "--tau2", "1e7"],
        # past 2.6e305 the pump's log-factorial weights leave the float range
        ["stage1", "--pump-energy", "1e307", "--tau-max", "1", "--tau-steps", "3"],
        ["block-info", "--s", "2", "--k", "3"],
        # N_in = 200 needs 7.9 GiB of eigensystems, over the 4 GiB budget; N_in = 100 needs 1.0 GiB
        ["scaling", "--n-in-list", "100:200:50"],
    ],
)
def test_inputs_the_library_refuses_exit_2_before_any_evolve(tmp_path, monkeypatch, capsys, args):
    # the CLI leaves these rules to the library, which refuses the input before it evolves anything
    original = triwave.evolution.evolve

    def refuse(state, tau):
        raise AssertionError("evolved")

    for name, module in list(sys.modules.items()):
        if name.startswith("triwave.") and getattr(module, "evolve", None) is original:
            monkeypatch.setattr(module, "evolve", refuse)
    out = tmp_path / "x.csv"
    assert run(args + ([] if args[0] == "block-info" else ["--out", str(out)])) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["stage2", "--n-in", "1e16", "--tau-max", "1", "--tau-steps", "3"],  # tried to allocate 737 PiB
        ["stage1", "--pump-energy", "1e12", "--tau-max", "1", "--tau-steps", "3"],
        ["pipeline", "--pump-energy", "1e5", "--tau1", "0.3", "--tau2", "0.7"],
    ],
    ids=["stage2-n-in-1e16", "stage1-pump-1e12", "pipeline-pump-1e5"],
)
def test_inputs_over_the_eigensystem_budget_exit_2_before_any_state(tmp_path, monkeypatch, capsys, args):
    def refuse(*args, **kwargs):
        raise AssertionError("allocated a state")

    monkeypatch.setattr(triwave.states, "pair_state", refuse)
    out = tmp_path / "x.csv"
    assert run(args + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the block eigensystems of this input need ") and "over the budget of 4 GiB" in err
    assert not out.exists()


def test_runtime_failure_exits_1(tmp_path, monkeypatch, capsys):
    # a failure that is not a refused input: the library raises something other than ValueError
    def fail(*args, **kwargs):
        raise RuntimeError("the runner failed")

    monkeypatch.setattr(triwave.cli, "stage2_sweep", fail)
    out = tmp_path / "x.csv"
    assert run(["stage2", "--n-in", "2", "--tau-max", "1", "--tau-steps", "3", "--out", str(out)]) == 1
    assert "error: the runner failed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args", [["--help"], ["stage1", "--help"]])
def test_help_exits_0(args, capsys):
    assert run(args) == 0
    assert "usage:" in capsys.readouterr().out


@pytest.mark.parametrize(
    "args, keys",
    [
        (["stage1", "--pump-energy", "9", "--tau-max", "0.4", "--tau-steps", "2"],
         ["command", "pump_energy", "pump_phase", "tau_min", "tau_max", "tau_steps", "eps", "out", "fmt"]),
        (["stage2", "--n-in", "2", "--tau-max", "0.5", "--tau-steps", "2"],
         ["command", "n_in", "chi_phase", "tau_min", "tau_max", "tau_steps", "eps", "out", "fmt"]),
        (["pipeline", "--pump-energy", "4", "--tau1", "0.3", "--tau2", "0.9"],
         ["command", "pump_energy", "pump_phase", "tau1", "tau2", "eps", "out", "fmt"]),
        (["scaling", "--n-in-list", "1,2,3", "--eps", "1e-6"],
         ["command", "n_in_list", "eps", "out", "fmt"]),
    ],
    ids=["stage1", "stage2", "pipeline", "scaling"],
)
def test_json_config_lists_exactly_the_command_flags(tmp_path, args, keys):
    out = tmp_path / "run.json"
    assert run(args + ["--out", str(out)]) == 0
    config = json.loads(out.read_text())["config"]
    assert list(config) == keys
    assert config["command"] == args[0]
    assert config["out"] == str(out)
    assert config["fmt"] == "json"


def test_missing_out_directory_exit_2(tmp_path, capsys):
    out = tmp_path / "no_such_dir" / "x.csv"
    code = run(["stage2", "--n-in", "2", "--tau-max", "1", "--tau-steps", "3", "--out", str(out)])
    assert code == 2
    assert "directory" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        ["stage1", "--pump-energy", "4", "--tau-max", "1", "--tau-steps", "3"],
        ["stage2", "--n-in", "2", "--tau-max", "1", "--tau-steps", "3"],
        ["pipeline", "--pump-energy", "4", "--tau1", "0.3", "--tau2", "0.7"],
        ["scaling", "--n-in-list", "1,2,3"],
    ],
    ids=["stage1", "stage2", "pipeline", "scaling"],
)
def test_out_naming_a_directory_exits_2_before_any_run(tmp_path, monkeypatch, capsys, args):
    # the run computed every record and then exited 1 with IsADirectoryError when it opened the output
    calls = []

    def runner(*args, **kwargs):
        calls.append(args)
        raise AssertionError("ran")

    for name in ("stage1_sweep", "stage2_sweep", "pipeline_record", "scaling_study"):
        monkeypatch.setattr(triwave.cli, name, runner)
    assert run(args + ["--out", str(tmp_path)]) == 2
    assert f"error: --out must name a file in an existing directory, got {tmp_path}" in capsys.readouterr().err
    assert calls == [] and list(tmp_path.iterdir()) == []


def test_csv_floats_round_trip(tmp_path):
    out = tmp_path / "rt.csv"
    run(["stage2", "--n-in", "2", "--tau-max", "0.7", "--tau-steps", "3", "--out", str(out)])
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    for row in rows:
        for cell in row:
            value = float(cell)
            assert repr(value) == cell


def test_pipeline_evolves_pump_once(tmp_path, monkeypatch):
    calls = []
    original = triwave.evolution.evolve

    def counting(state, tau):
        calls.append(tau)
        return original(state, tau)

    for name, module in list(sys.modules.items()):
        if name.startswith("triwave.") and getattr(module, "evolve", None) is original:
            monkeypatch.setattr(module, "evolve", counting)
    out = tmp_path / "pipe.csv"
    code = run(["pipeline", "--pump-energy", "4", "--tau1", "0.3", "--tau2", "0.9", "--out", str(out)])
    assert code == 0
    # stage 1 once, then every pair count in one stage-2 evolve, each at one time
    assert [np.ravel(t).tolist() for t in calls] == [[0.3], [0.9]]
    assert out.read_text().splitlines()[0] == ",".join(SWEEP_HEADER)


def test_cli_imports_no_private_triwave_name():
    # the CLI stays on the public API of the package
    tree = ast.parse(Path(triwave.cli.__file__).read_text())
    private = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").startswith("triwave")):
            parts = (node.module or "").split(".") + [alias.name for alias in node.names]
            private += [name for name in parts if name.startswith("_")]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "triwave":
                    private += [name for name in alias.name.split(".") if name.startswith("_")]
    assert private == []


def test_package_loads_no_scipy():
    # numpy serves every run; scipy is only a reference for the tests
    src = Path(triwave.cli.__file__).resolve().parents[1]
    code = ("import sys, threading, triwave, triwave.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), threading.active_count())")
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[] 1"  # and starts no thread: the block solves start theirs per evolve
    # nor later, through an import inside a function
    imported = []
    for path in (src / "triwave").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported += [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.append(node.module)
    assert [name for name in imported if name.split(".")[0] == "scipy"] == []


def _floats(lo, hi):
    return st.floats(lo, hi).map(repr)


# each flag's small accepted values, which keep an example to milliseconds
_ACCEPTED = {
    "stage1": {"--pump-energy": _floats(0.5, 4.0), "--pump-phase": _floats(-4.0, 4.0), "--tau-min": _floats(0.0, 0.5),
               "--tau-max": _floats(0.5, 1.0), "--tau-steps": st.integers(2, 5).map(str),
               "--eps": _floats(1e-10, 1e-4)},
    "stage2": {"--n-in": _floats(0.5, 4.0), "--chi-phase": _floats(-4.0, 4.0), "--tau-min": _floats(0.0, 0.5),
               "--tau-max": _floats(0.5, 1.0), "--tau-steps": st.integers(2, 5).map(str),
               "--eps": _floats(1e-10, 1e-4)},
    "pipeline": {"--pump-energy": _floats(0.5, 4.0), "--pump-phase": _floats(-4.0, 4.0), "--tau1": _floats(0.05, 1.0),
                 "--tau2": _floats(0.0, 1.0), "--eps": _floats(1e-10, 1e-4)},
    "scaling": {"--n-in-list": st.tuples(_floats(0.5, 1.0), _floats(1.5, 2.5), _floats(3.0, 4.0)).map(",".join),
                "--eps": _floats(1e-10, 1e-4)},
}
# a number flag's edge values: signed zeros, subnormals, 1e-300 .. 1e300, nan and the infinities
_EDGE = st.sampled_from(["0", "-0", "5e-324", "-5e-324", "2.2e-308", "1e-300", "1e-30", "1e30", "1e300", "-1e300",
                         "nan", "inf", "-inf"])
_EDGES = {
    "--tau-steps": st.sampled_from(["0", "-0", "1", "1e300", "nan", "inf", str(triwave.cli._MAX_TAU_STEPS + 1),
                                    str(10**15)]),
    "--n-in-list": st.one_of(st.sampled_from(["1:1e300:1", "0:1:1e-12"]), _EDGE.map("1,2,{}".format)),
}
# the columns NaN by design: no single-mode phase of the stage-1 pair marginal, no signal or idler after the pipeline
_NAN_COLUMNS = {"stage1": {"delta_phi"}, "stage2": set(), "pipeline": {"n_a", "n_b"}, "scaling": set()}


def _written_values(path):
    """{column: value} of every record, and of every fit in JSON, of a run's output file; JSON's null is NaN."""
    if path.suffix == ".json":
        payload = json.loads(path.read_text())
        rows = payload["records"] + list(payload["fits"].values())
        return [{key: math.nan if value is None else value for key, value in row.items()} for row in rows]
    with path.open(newline="") as fh:
        return [{key: float(value) for key, value in row.items()} for row in csv.DictReader(fh)]


@pytest.mark.parametrize("command, edge", [(command, edge) for command, flags in _ACCEPTED.items()
                                           for edge in (None, *flags)])
@settings(max_examples=15, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), suffix=st.sampled_from([".csv", ".json"]))
def test_every_number_flag_exits_0_with_finite_records_or_2_with_no_file(monkeypatch, command, edge, data, suffix):
    # every flag at an accepted value but the one named edge, at an edge value.  A non-finite number that argparse let
    # through would reach numpy, whose RuntimeWarning is an error under the suite's filterwarnings (exit 1), and a
    # --tau-steps past the cap would reach np.linspace (MemoryError, exit 1)
    monkeypatch.setattr(triwave.blocks, "_EIG_BUDGET_BYTES", 32 * 2**20)  # refuses 1e30 and 1e300 inputs at once
    flags = data.draw(st.fixed_dictionaries(_ACCEPTED[command]))
    if edge is not None:
        flags[edge] = data.draw(_EDGES.get(edge, _EDGE))
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / f"run{suffix}"
        code = run([command, *(f"{flag}={value}" for flag, value in flags.items()), "--out", str(out)])
        assert code in (0, 2)
        if code == 2:
            assert not out.exists()
            return
        for row in _written_values(out):
            assert all(math.isfinite(value) for column, value in row.items() if column not in _NAN_COLUMNS[command])
