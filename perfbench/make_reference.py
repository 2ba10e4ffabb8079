"""Record the reference outputs that `checks.py` compares runs against.

    python3 perfbench/make_reference.py [scaling|stage1|pipeline ...]

Runs each workload once at input phase 0 with the program in `src/` and
writes `perfbench/reference/<workload>.json`.  Re-record only on purpose,
when a change is meant to alter the science outputs, and say so.

Besides the records, a reference holds:

* `slopes`: d(value)/d(tau) by central difference at an optimizer-chosen
  tau, so a tau_opt that moves within the optimizer's tol moves the values
  evaluated there by a bounded amount;
* `missing`: expected records the program failed to produce, with the
  error, so they still count as expected;
* `input_weight` (stage1): n_a + n_b + 2 n_c of each pump, conserved by
  every record of its sweep.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from checks import REFERENCE_DIR, TAU_TOL  # noqa: E402

import triwave as tw  # noqa: E402


def scaling_reference() -> dict:
    records, errors, _ = workloads._scaling_pass()
    if errors:
        raise SystemExit(f"scaling reference failed: {errors}")

    def fields(n_in: float, tau: float) -> dict:
        # the per-energy record of scaling_study, evaluated at tau
        beam = tw.make_twin_beam(workloads.scaling_chi(n_in), workloads.SCALING_EPS)
        energy_in = tw.mean_photon(beam, "a") + tw.mean_photon(beam, "b")
        out = tw.evolve(beam, tau)
        rho = tw.reduce_mode_c(out)
        overlap, lam = tw.matched_pcs_overlap(out)
        return {
            "n_out": tw.mean_photon(out, "c"),
            "overlap": overlap,
            "eta": tw.conversion_rate_up(out, energy_in),
            "purity": tw.purity(rho),
            "delta_phi": tw.reciprocal_peak_likelihood(rho),
            "lambda_abs": abs(lam),
        }

    slopes = {}
    for n_in in workloads.SCALING_N_IN:
        rid = f"n_in={n_in:g}"
        slopes[rid] = _slopes(lambda tau, n=n_in: fields(n, tau), records[rid]["tau_opt"])
    return {"records": records, "slopes": slopes}


def stage1_reference() -> dict:
    records, errors, _ = workloads._stage1_pass(0.0)
    missing = {}
    grid = workloads.stage1_grid()
    for energy in workloads.STAGE1_PUMPS:
        alpha = workloads.pump_alpha(energy, 0.0)
        if f"pump={energy:g}/tau[0]" in records:
            continue
        # The whole sweep raised; each record only depends on its own tau,
        # so record the ones a one-point sweep still produces.
        for i, tau in enumerate(grid):
            rid = f"pump={energy:g}/tau[{i}]"
            try:
                (rec,) = tw.stage1_sweep(alpha, [tau])
            except ValueError as exc:
                missing[rid] = f"stage1_sweep raised ValueError: {exc}"
                continue
            records[rid] = workloads.stage1_record(rec)
    slopes, weights = {}, {}
    for energy in workloads.STAGE1_PUMPS:
        pump = tw.make_coherent_pump(workloads.pump_alpha(energy, 0.0))
        pump_energy = tw.mean_photon(pump, "c")
        weights[f"pump={energy:g}"] = 2.0 * pump_energy
        rid = f"pump={energy:g}/peak"
        slopes[rid] = _slopes(
            lambda tau, p=pump, e=pump_energy: {"eta": tw.conversion_rate_down(tw.evolve(p, tau), e)},
            records[rid]["tau_opt"],
        )
    return {"records": dict(sorted(records.items())), "slopes": slopes, "missing": missing,
            "errors_at_record": errors, "input_weight": weights}


def pipeline_reference() -> dict:
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    records, errors, _ = workloads._pipeline_pass(0.0, out_dir)
    if errors:
        raise SystemExit(f"pipeline reference failed: {errors}")
    return {"records": records}


def _slopes(fields, tau: float) -> dict:
    hi, lo = fields(tau + TAU_TOL), fields(tau - TAU_TOL)
    return {key: (hi[key] - lo[key]) / (2.0 * TAU_TOL) for key in hi}


def _commit() -> str | None:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


RECORDERS = {"scaling": scaling_reference, "stage1": stage1_reference, "pipeline": pipeline_reference}


def main(names: list[str]) -> int:
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names or list(RECORDERS):
        ref = {"workload": name, "commit": _commit(), "phase": 0.0, **RECORDERS[name]()}
        path = REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.relative_to(ROOT)}: {len(ref['records'])} records, "
              f"{len(ref.get('missing', {}))} missing")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
