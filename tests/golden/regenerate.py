"""Golden records of the science outputs, stored as hex floats in records.json beside this script.

    PYTHONPATH=src python tests/golden/regenerate.py [--write]

prints the largest change per field between the records the current code
computes and records.json, or the one line "bit-identical" when every change
is exactly 0; --write then replaces records.json with them.  Without --write
it exits 1 when a field moved by more than TOLERANCE * max(1, |x|), the bound
tests/test_golden.py holds the same records to, so a shell script can gate on
it.  A change that moves the science regenerates the file and reports this
printout.

The cases are the criterion 5 fixture (27 energies and its two fits) and the
inputs of the benchmark's workloads: scaling_study at N_in 6, 30, 54; a stage-2
sweep at N_in 54 with chi phase 0.7; stage1_sweep and find_peak_conversion_tau
at pumps 81, 144, 196 and 256; pipeline_record at pump 256, at pump phases 0
and 0.7 and at the phases the pipeline workload draws for seeds 1 and 2601.
"""
from __future__ import annotations

import dataclasses
import json
import math
import random
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))  # conftest, when run as a script

import triwave as tw  # noqa: E402
from conftest import SCALING_EPS, SCALING_N_IN  # noqa: E402

RECORDS = HERE / "records.json"
TOLERANCE = 1e-12  # the BLAS thread count alone moves stage2 and pipeline records in the last bits

STAGE1_GRID = [1e-4] + [float(t) for t in np.linspace(0.05, 1.2, 24)]  # criterion 4's grid
PIPELINE_TAU1 = math.atanh(math.sqrt(2.0 / 3.0)) / 16.0  # the pump-256 stage 1 delivers N_in = 4
PIPELINE_TAU2 = 0.71
# the pump phases of the pipeline workload's seeds 1 and 2601, drawn as perfbench/workloads.py draws them
PIPELINE_PHASES = (0.0, 0.7) + tuple(2.0 * math.pi * random.Random(seed).random() for seed in (1, 2601))


def fields(record) -> dict[str, float]:
    """The fields of a dataclass record as floats, a complex one split into <name>_re and <name>_im."""
    out = {}
    for field in dataclasses.fields(record):
        value = getattr(record, field.name)
        if isinstance(value, complex):
            out[f"{field.name}_re"], out[f"{field.name}_im"] = value.real, value.imag
        else:
            out[field.name] = float(value)
    return out


def compute(fixture_points, fixture_fits) -> dict[str, list[dict[str, float]]]:
    """Every golden case from the current code; the fixture's records are passed in, as tier-1 has them already."""
    cases = {"fixture": [fields(p) for p in fixture_points], "fixture/fits": [fields(f) for f in fixture_fits.values()]}
    points, fits = tw.scaling_study([6.0, 30.0, 54.0], eps=SCALING_EPS)
    cases["scaling"] = [fields(p) for p in points]
    cases["scaling/fits"] = [fields(f) for f in fits.values()]
    chi = math.sqrt(54.0 / 56.0) * complex(np.exp(0.7j))
    cases["stage2/n_in=54"] = [fields(r) for r in tw.stage2_sweep(chi, np.linspace(0.0, 2.0, 9), eps=SCALING_EPS)]
    for energy in (81.0, 144.0, 196.0, 256.0):
        alpha = math.sqrt(energy) * complex(np.exp(0.7j))
        cases[f"stage1/pump={energy:g}"] = [fields(r) for r in tw.stage1_sweep(alpha, STAGE1_GRID)]
        tau_opt, eta = tw.find_peak_conversion_tau(alpha)
        cases[f"stage1/pump={energy:g}/peak"] = [{"tau_opt": tau_opt, "eta": eta}]
    cases["pipeline/pump=256"] = [
        fields(tw.pipeline_record(16.0 * complex(np.exp(1j * phase)), PIPELINE_TAU1, PIPELINE_TAU2))
        for phase in PIPELINE_PHASES
    ]
    return cases


def load() -> dict[str, list[dict[str, float]]]:
    stored = json.loads(RECORDS.read_text())
    return {case: [{k: float.fromhex(v) for k, v in rec.items()} for rec in recs] for case, recs in stored.items()}


def largest_changes(golden, current) -> dict[str, tuple[float, str]]:
    """Per field, the largest |new - old| / max(1, |old|) over every record, and where it is.

    A missing case, record or field, or a NaN on one side only, counts as an infinite change.
    """
    worst: dict[str, tuple[float, str]] = {}

    def note(name, change, where):
        if change > worst.get(name, (-1.0, ""))[0]:
            worst[name] = (change, where)

    for case in list(golden) + [case for case in current if case not in golden]:
        old_recs, new_recs = golden.get(case, []), current.get(case, [])
        if len(old_recs) != len(new_recs):
            note("<records>", math.inf, f"{case}: {len(old_recs)} stored, {len(new_recs)} computed")
        for i, (old, new) in enumerate(zip(old_recs, new_recs)):
            for name in old.keys() | new.keys():
                a, b = old.get(name), new.get(name)
                if a is None or b is None or math.isnan(a) != math.isnan(b):
                    change = math.inf
                else:
                    change = 0.0 if math.isnan(a) else abs(b - a) / max(1.0, abs(a))
                note(name, change, f"{case}[{i}]")
    return worst


def report(worst) -> str:
    return "\n".join(f"{name:>17}  {change:.2g}" + (f"  at {where}" if change else "")
                     for name, (change, where) in sorted(worst.items()))


def main(argv) -> int:
    current = compute(*tw.scaling_study(SCALING_N_IN, eps=SCALING_EPS))
    worst = largest_changes(load(), current) if RECORDS.exists() else {}
    if worst and all(change == 0.0 for change, _ in worst.values()):
        print("bit-identical")
    elif worst:
        print("largest change per field, |new - old| / max(1, |old|):")
        print(report(worst))
    if "--write" in argv:
        stored = {case: [{k: float.hex(v) for k, v in rec.items()} for rec in recs] for case, recs in current.items()}
        RECORDS.write_text(json.dumps(stored, indent=1) + "\n")
        print(f"wrote {RECORDS}")
        return 0
    return int(any(not change <= TOLERANCE for change, _ in worst.values()))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
