"""The three benchmark workloads: inputs from the seed, set-up, and one pass.

Every workload lives in the block family (2m, m): twin beams and coherent
pumps put exactly one Fock vector in each such block, and the pipeline's
conditional branches land there too.  So one `evolve` of each input in
set-up fills the eigensystem cache for every block the pass touches, and
set-up time carries the whole eigensystem build.

Program entry points are looked up on the module at call time
(`tw.stage1_sweep`, `cli.main`), never bound here at import, so that the
trace wrappers installed by `tracing.py` see every call.

A pass returns `(records, errors, output_bytes)`: records map a stable id to
a dict of plain floats, errors are the messages of calls that raised, and
output_bytes is the size of any file the pass wrote.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import random
from pathlib import Path

SCALING_N_IN = (6.0, 30.0, 54.0)
SCALING_EPS = 1e-8

STAGE1_PUMPS = (81.0, 144.0, 196.0, 256.0)

PIPELINE_PUMP = 256.0
# Criterion 8 chooses tau1 so that the stage-1 twin beam carries N_in = 4.
PIPELINE_TAU1 = math.atanh(math.sqrt(2.0 / 3.0)) / math.sqrt(PIPELINE_PUMP)
PIPELINE_TAU2 = 0.71

WARM_TAU = 0.1  # any tau fills the cache; this one is fixed so set-up is too

WORKLOADS = ("scaling", "stage1", "pipeline")

# Why each workload is in the benchmark (mirrored in BENCHMARK.json).
WHY = {
    "scaling": "optimal-time study at N_in 6, 30, 54: large blocks, ~88 evals per optimizer run, matched overlap each eval",
    "stage1": "down-conversion sweeps and peak search for pumps 81..256: input at local index k, moments, keeps the pump-256 defect",
    "pipeline": "chained two-stage run through the CLI with JSON output: ~365 tiny branch states, per-call overhead, reduce_mode_c",
}


def input_phase(seed: int) -> float:
    """Input phase in [0, 2 pi) drawn from the workload seed."""
    return 2.0 * math.pi * random.Random(seed).random()


def seed_use(workload: str, seed: int) -> str:
    """One line saying what the seed changed in this workload."""
    if workload == "scaling":
        return f"seed {seed} leaves scaling unchanged: scaling_study takes no phase"
    what = "pump phase" if workload == "stage1" else "--pump-phase"
    return f"seed {seed} sets the {what} to {input_phase(seed)!r} rad"


def stage1_grid() -> list[float]:
    """The acceptance grid of criterion 4: 1e-4, then 24 points over 0.05..1.2."""
    import numpy as np

    return [1e-4] + [float(t) for t in np.linspace(0.05, 1.2, 24)]


def pump_alpha(energy: float, phase: float) -> complex:
    return math.sqrt(energy) * complex(math.cos(phase), math.sin(phase))


def scaling_chi(n_in: float) -> float:
    """Twin-beam amplitude scaling_study uses for input energy n_in."""
    return math.sqrt(n_in / (n_in + 2.0))


def setup(workload: str, seed: int) -> None:
    """Import the program, build the inputs and evolve each once."""
    import triwave as tw

    phase = input_phase(seed)
    if workload == "scaling":
        inputs = [tw.make_twin_beam(scaling_chi(n), SCALING_EPS) for n in SCALING_N_IN]
    elif workload == "stage1":
        inputs = [tw.make_coherent_pump(pump_alpha(e, phase)) for e in STAGE1_PUMPS]
    elif workload == "pipeline":
        import triwave.cli  # noqa: F401  (the pipeline pass enters through the CLI)

        inputs = [tw.make_coherent_pump(pump_alpha(PIPELINE_PUMP, phase))]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for state in inputs:
        tw.evolve(state, WARM_TAU)


def run_pass(workload: str, seed: int, out_dir: Path) -> tuple[dict, list[str], int]:
    """One pass of the workload; see the module docstring for the result."""
    if workload == "scaling":
        return _scaling_pass()
    if workload == "stage1":
        return _stage1_pass(input_phase(seed))
    if workload == "pipeline":
        return _pipeline_pass(input_phase(seed), out_dir)
    raise ValueError(f"unknown workload {workload!r}")


def _scaling_pass():
    import triwave as tw

    records: dict[str, dict] = {}
    errors: list[str] = []
    try:
        points, fits = tw.scaling_study(SCALING_N_IN, eps=SCALING_EPS)
    except Exception as exc:  # a failed call is counted, not fatal
        errors.append(f"scaling_study raised {type(exc).__name__}: {exc}")
        return records, errors, 0
    for p in points:
        records[f"n_in={p.n_in:g}"] = {
            "n_in": p.n_in,
            "n_out": p.n_out,
            "tau_opt": p.tau_opt,
            "overlap": p.overlap,
            "eta": p.eta,
            "purity": p.purity,
            "delta_phi": p.delta_phi,
            "lambda_re": p.matched_lambda.real,
            "lambda_im": p.matched_lambda.imag,
        }
    for name, fit in fits.items():
        records[f"fit/{name}"] = {
            "prefactor": fit.prefactor,
            "exponent": fit.exponent,
            "residual": fit.residual,
        }
    return records, errors, 0


def _stage1_pass(phase: float):
    import triwave as tw

    records: dict[str, dict] = {}
    errors: list[str] = []
    grid = stage1_grid()
    for energy in STAGE1_PUMPS:
        alpha = pump_alpha(energy, phase)
        try:
            sweep = tw.stage1_sweep(alpha, grid)
        except Exception as exc:  # the pump-256 defect lands here; counted, not fatal
            errors.append(f"pump {energy:g}: stage1_sweep raised {type(exc).__name__}: {exc}")
            sweep = []
        for i, rec in enumerate(sweep):
            records[f"pump={energy:g}/tau[{i}]"] = stage1_record(rec)
        try:
            tau_opt, eta = tw.find_peak_conversion_tau(alpha)
        except Exception as exc:
            errors.append(f"pump {energy:g}: find_peak_conversion_tau raised {type(exc).__name__}: {exc}")
            continue
        records[f"pump={energy:g}/peak"] = {"tau_opt": tau_opt, "eta": eta}
    return records, errors, 0


def stage1_record(rec) -> dict:
    """The fields of a stage-1 SweepRecord; delta_phi is always NaN there."""
    return {
        "tau": rec.tau,
        "overlap": rec.overlap,
        "eta": rec.eta,
        "purity": rec.purity,
        "n_a": rec.n_a,
        "n_b": rec.n_b,
        "n_c": rec.n_c,
        "chi_re": rec.lambda_or_chi.real,
        "chi_im": rec.lambda_or_chi.imag,
    }


def pipeline_argv(phase: float, out: Path) -> list[str]:
    return [
        "pipeline",
        "--pump-energy", repr(PIPELINE_PUMP),
        "--pump-phase", repr(phase),
        "--tau1", repr(PIPELINE_TAU1),
        "--tau2", repr(PIPELINE_TAU2),
        "--format", "json",
        "--out", str(out),
    ]


def _pipeline_pass(phase: float, out_dir: Path):
    import triwave.cli

    out = out_dir / "pipeline-out.json"
    out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = triwave.cli.main(pipeline_argv(phase, out))
    if code != 0:
        return {}, [f"triwave pipeline exited {code}: {stderr.getvalue().strip()}"], 0
    data = out.read_bytes()
    rec = json.loads(data)["records"][0]
    record = {key: rec[key] for key in ("overlap", "eta", "purity", "delta_phi", "n_c", "lambda_re", "lambda_im")}
    return {"pipeline": record}, [], len(data)
