"""Self-tests of the benchmark: `python3 -m pytest perfbench -q`.

They run in seconds and need no benchmark run; the repository's own test
suite does not collect them.
"""
from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

import triwave  # noqa: E402
import triwave.cli  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_reference_passes_its_own_check(workload):
    ref = checks.load_reference(workload)
    result = checks.check_records(workload, ref["records"], ref)
    assert result.correct
    assert result.failed == len(ref.get("missing", {}))
    assert result.expected == len(ref["records"]) + len(ref.get("missing", {}))


@pytest.mark.parametrize("workload, rid, key", [
    ("scaling", "n_in=30", "eta"),
    ("scaling", "fit/tau_opt_vs_n_in", "exponent"),
    ("stage1", "pump=144/tau[7]", "overlap"),
    ("stage1", "pump=81/peak", "tau_opt"),
    ("pipeline", "pipeline", "delta_phi"),
])
def test_perturbed_reference_raises_error_rate(workload, rid, key):
    ref = checks.load_reference(workload)
    outputs = copy.deepcopy(ref["records"])
    base = checks.check_records(workload, outputs, ref)
    perturbed = copy.deepcopy(ref)
    perturbed["records"][rid][key] += 1e-3
    result = checks.check_records(workload, outputs, perturbed)
    assert result.failed == base.failed + 1
    assert result.failed / result.expected > base.failed / base.expected
    assert not result.correct


def test_absent_record_counts_failed_but_not_wrong():
    ref = checks.load_reference("scaling")
    outputs = copy.deepcopy(ref["records"])
    del outputs["n_in=54"]
    result = checks.check_records("scaling", outputs, ref)
    assert result.failed == 1
    assert result.correct


def test_stage1_weight_invariant_is_checked():
    ref = checks.load_reference("stage1")
    outputs = copy.deepcopy(ref["records"])
    outputs["pump=196/tau[3]"]["n_c"] += 1e-6
    result = checks.check_records("stage1", outputs, ref)
    assert any("input weight" in note for note in result.notes)


def _bindings():
    out = {}
    for name, module in sys.modules.items():
        if name == "triwave" or name.startswith("triwave."):
            out.update({(name, attr): value for attr, value in vars(module).items()})
    out.update({("ThreeModeState", attr): value for attr, value in vars(triwave.ThreeModeState).items()})
    return out


def test_tracer_restores_module_attributes():
    before = _bindings()
    original = triwave.evolution.evolve
    with Tracer():
        assert triwave.cli.evolve is not original
        assert triwave.cli.evolve is triwave.experiments.evolve is triwave.evolve
        assert triwave.ThreeModeState.__dict__["from_fock_dict"] is not before[("ThreeModeState", "from_fock_dict")]
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_traced_outputs_equal_untraced_and_layers_add_up():
    chi = np.sqrt(1.0 / 3.0)
    plain = triwave.find_optimal_tau(chi, coarse_points=8, tol=1e-3)
    beam = triwave.make_twin_beam(chi)
    plain_state = triwave.evolve(beam, 0.4)
    tracer = Tracer()
    with tracer:
        traced = triwave.find_optimal_tau(chi, coarse_points=8, tol=1e-3)
        traced_beam = triwave.make_twin_beam(chi)
        traced_state = triwave.evolve(traced_beam, 0.4)
    assert traced == plain
    assert all(np.array_equal(traced_state.blocks[i], plain_state.blocks[i]) for i in plain_state.blocks)

    layers = tracer.layer_metrics()
    evolves = [s for s in tracer.spans if s[0] == "evolution"]
    assert layers["evolution.evolve_calls"] == len(evolves)
    assert layers["experiments.optimizer_runs"] == 1
    assert layers["experiments.optimizer_evals"] == len(evolves) - 1  # the last evolve is called from outside experiments
    assert layers["evolution.block_propagations"] == len(beam.blocks) * len(evolves)
    assert layers["blocks.eig_lookups"] == layers["evolution.block_propagations"]
    assert layers["states.calls"] == 2
    outer = [s for s in tracer.spans if s[2] == -1]
    total = sum(s[4] - s[3] for s in outer)
    self_times = sum(v for k, v in layers.items() if k.endswith("_s"))
    assert self_times == pytest.approx(total, rel=1e-9)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [workloads.WHY[w] for w in workloads.WORKLOADS]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER


def test_percentile_needs_ten_runs_beyond():
    assert run.percentile_beyond_ten([1.0] * 10) is None
    pct, _ = run.percentile_beyond_ten([float(i) for i in range(30)])
    assert pct == 66 and 30 * (1 - pct / 100) >= 10
