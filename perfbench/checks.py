"""Check a pass's records against the reference outputs recorded at seed.

Only phase-invariant values are compared, because the seed sets the input
phase: complex outputs (`chi`, `lambda`) are compared by modulus.  Records
the reference lists as `missing` were never produced at the commit that
recorded it; they are still expected, and a pass that produces one gets
the invariant checks only.

Every expected record that is absent, or that fails a comparison or an
invariant, counts as failed; `error_rate` is failed over expected.  A pass
is correct when no record it produced failed a check.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

ATOL = 1e-8  # the repo's exactness bar (dense-oracle agreement)
# Values refined between points of the 1024-point phase grid move when only
# the input phase changes, because the peak moves against the grid.  Over
# 400 pump phases the pipeline's delta_phi moved by up to 1.1e-7 and its
# matched overlap by 5e-14.
GRID_ATOL = 2.5e-7
TAU_TOL = 1e-5  # tol of find_optimal_tau and find_peak_conversion_tau
# A power-law fit moves with its data; bound its change by this many times
# the largest log-change of a fitted tau_opt or n_out.
FIT_SENSITIVITY = 10.0

GRID_FIELDS = {"scaling": ("overlap", "delta_phi"), "pipeline": ("overlap", "delta_phi")}


@dataclass
class CheckResult:
    expected: int
    failed: int = 0
    wrong: int = 0  # produced, but failed a comparison or an invariant
    notes: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.wrong == 0


def load_reference(workload: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{workload}.json").read_text())


def invariant_view(record: dict) -> dict:
    """The record with each (x_re, x_im) pair replaced by x_abs.

    JSON writes NaN as null; null comes back as NaN here.
    """
    nums = {key: math.nan if value is None else float(value) for key, value in record.items()}
    out = {}
    for key, value in nums.items():
        if key.endswith("_im"):
            continue
        if key.endswith("_re"):
            stem = key[:-3]
            out[stem + "_abs"] = math.hypot(value, nums[stem + "_im"])
        else:
            out[key] = value
    return out


def check_records(workload: str, records: dict, reference: dict) -> CheckResult:
    ref_records = reference["records"]
    missing_at_seed = reference.get("missing", {})
    expected = set(ref_records) | set(missing_at_seed)
    result = CheckResult(expected=len(expected))

    for rid in sorted(expected - set(records)):
        result.failed += 1
        result.notes.append(f"{rid}: never produced")
    for rid in sorted(set(records) - expected):  # wrong output, but no expected record lost
        result.wrong += 1
        result.notes.append(f"{rid}: not an expected record")

    views = {rid: invariant_view(rec) for rid, rec in records.items()}
    for rid in sorted(set(records) & expected):
        problems = _invariant_problems(workload, rid, views[rid], reference)
        if rid in ref_records:
            problems += _reference_problems(workload, rid, views, reference)
        if problems:
            result.failed += 1
            result.wrong += 1
            result.notes.append(f"{rid}: " + "; ".join(problems))
    return result


def _invariant_problems(workload: str, rid: str, view: dict, reference: dict) -> list[str]:
    problems = [f"{key} not finite" for key, value in view.items() if not math.isfinite(value)]
    overlap = view.get("overlap")
    if overlap is not None and not 0.0 <= overlap <= 1.0:
        problems.append(f"overlap {overlap!r} outside [0, 1]")
    if workload == "stage1" and "n_a" in view:
        weight = reference["input_weight"][rid.split("/")[0]]
        total = view["n_a"] + view["n_b"] + 2.0 * view["n_c"]
        if abs(total - weight) > ATOL:
            problems.append(f"n_a + n_b + 2 n_c = {total!r}, input weight {weight!r}")
    return problems


def _reference_problems(workload: str, rid: str, views: dict, reference: dict) -> list[str]:
    ref = invariant_view(reference["records"][rid])
    view = views[rid]
    slopes = reference.get("slopes", {}).get(rid, {})
    dtau = abs(view["tau_opt"] - ref["tau_opt"]) if "tau_opt" in ref and "tau_opt" in view else 0.0
    spread = _fit_spread(views, reference) if rid.startswith("fit/") else 0.0
    problems = []
    for key, want in ref.items():
        got = view.get(key)
        if got is None:
            problems.append(f"{key} missing")
            continue
        if key == "tau_opt":
            tol = TAU_TOL
        else:
            tol = GRID_ATOL if key in GRID_FIELDS.get(workload, ()) else ATOL
            tol += abs(slopes.get(key, 0.0)) * dtau + FIT_SENSITIVITY * spread
        if not abs(got - want) <= tol:
            problems.append(f"{key} {got!r} vs reference {want!r} (tolerance {tol:.3g})")
    return problems


def _fit_spread(views: dict, reference: dict) -> float:
    """Largest log-change of a fitted tau_opt or n_out against the reference."""
    spread = 0.0
    for rid, ref in reference["records"].items():
        if rid.startswith("fit/"):
            continue
        view = views.get(rid)
        if view is None:
            return math.inf
        for key in ("tau_opt", "n_out"):
            if view[key] <= 0.0:
                return math.inf
            spread = max(spread, abs(math.log(view[key] / ref[key])))
    return spread
