"""Spans around the public functions of each triwave module, from outside.

`Tracer.install()` replaces every target function in every `triwave.*`
module namespace that binds it (so `triwave.experiments.evolve` and
`triwave.cli.evolve` both record) with one wrapper per function, and
`Tracer.remove()` puts the originals back.  Spans stay in memory as
`[layer, name, parent, start, end, work]` lists until the run ends.

A span's self time is its duration minus the durations of its direct child
spans; calls are single-threaded, so children never overlap.
"""
from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from pathlib import Path

# layer -> (defining module, public function); a dotted name is a classmethod.
TARGETS = {
    "states": [
        ("triwave.states", "make_coherent_pump"),
        ("triwave.states", "make_twin_beam"),
        ("triwave.evolution", "ThreeModeState.from_fock_dict"),
    ],
    "blocks": [("triwave.blocks", "build_block_hamiltonian")],
    "evolution": [("triwave.evolution", "evolve"), ("triwave.evolution", "evolve_recombination")],
    "metrics.reduce": [("triwave.metrics", "reduce_mode_c")],
    "metrics.overlap": [
        ("triwave.metrics", "matched_pcs_overlap"),
        ("triwave.metrics", "matched_pcs_overlap_rho"),
        ("triwave.metrics", "overlap_with_product"),
    ],
    "metrics.phase": [
        ("triwave.metrics", "reciprocal_peak_likelihood"),
        ("triwave.metrics", "phase_distribution"),
    ],
    "metrics.moments": [
        ("triwave.metrics", "mean_photon"),
        ("triwave.metrics", "purity"),
        ("triwave.metrics", "conversion_rate_down"),
        ("triwave.metrics", "conversion_rate_up"),
    ],
    "experiments.optimizer": [
        ("triwave.experiments", "find_optimal_tau"),
        ("triwave.experiments", "find_peak_conversion_tau"),
    ],
    "experiments": [
        ("triwave.experiments", "stage1_sweep"),
        ("triwave.experiments", "stage2_sweep"),
        ("triwave.experiments", "scaling_study"),
        ("triwave.experiments", "full_pipeline"),
        ("triwave.experiments", "fit_power_law"),
    ],
    "cli": [("triwave.cli", "main")],
}

LAYER, NAME, PARENT, START, END, WORK = range(6)


class Tracer:
    """Records one span per call of a target function while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._eig_bytes: dict[int, int] = {}
        self._eig_cache = None
        self._eig_misses_at_install = 0

    def install(self) -> None:
        import triwave.blocks
        import triwave.cli  # noqa: F401  (bind every namespace before patching)

        if self._patches:
            raise RuntimeError("tracer already installed")
        self._eig_cache = triwave.blocks.build_block_hamiltonian
        self._eig_misses_at_install = self._eig_cache.cache_info().misses
        modules = [m for name, m in sorted(sys.modules.items()) if name == "triwave" or name.startswith("triwave.")]
        for layer, targets in TARGETS.items():
            for module_name, name in targets:
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(sys.modules[module_name], cls_name)
                    original = cls.__dict__[meth]
                    wrapped = classmethod(self._wrap(layer, name, original.__func__))
                    self._patches.append((cls, meth, original))
                    setattr(cls, meth, wrapped)
                    continue
                original = getattr(sys.modules[module_name], name)
                wrapped = self._wrap(layer, name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, attr, original))
                            setattr(module, attr, wrapped)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def _wrap(self, layer: str, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        count_blocks = layer == "evolution"
        eig_bytes = self._eig_bytes if layer == "blocks" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            span = [layer, name, stack[-1] if stack else -1, clock(), 0.0, 0]
            if count_blocks:
                span[WORK] = len(args[0].blocks)
            spans.append(span)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if eig_bytes is not None and id(result) not in eig_bytes:
                eig_bytes[id(result)] = result.eigenvalues.nbytes + result.eigenvectors.nbytes
            return result

        return wrapper

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer times and counts over every span recorded so far."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for span in spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]
        self_time: dict[str, float] = {layer: 0.0 for layer in TARGETS}
        calls: dict[str, int] = {layer: 0 for layer in TARGETS}
        blocks_propagated = optimizer_evals = direct_evolves = cli_evolves = 0
        for sid, span in enumerate(spans):
            layer = span[LAYER]
            self_time[layer] += span[END] - span[START] - child_time[sid]
            calls[layer] += 1
            if layer != "evolution":
                continue
            blocks_propagated += span[WORK]
            caller = self._nearest(sid, ("experiments", "experiments.optimizer", "cli"))
            if caller == "experiments.optimizer":
                optimizer_evals += 1
            elif caller == "experiments":
                direct_evolves += 1
            if span[PARENT] >= 0 and spans[span[PARENT]][LAYER] == "cli":
                cli_evolves += 1

        info = self._eig_cache.cache_info()
        lookups = calls["blocks"]
        misses = info.misses - self._eig_misses_at_install
        runs = calls["experiments.optimizer"]
        return {
            "states.construct_s": self_time["states"],
            "states.calls": calls["states"],
            "blocks.eig_s": self_time["blocks"],
            "blocks.eig_lookups": lookups,
            "blocks.eig_misses": misses,
            "blocks.eig_hit_ratio": (lookups - misses) / lookups if lookups else 0.0,
            "blocks.cache_entries": info.currsize,
            "blocks.cache_mb": sum(self._eig_bytes.values()) / 2**20,
            "evolution.evolve_s": self_time["evolution"],
            "evolution.evolve_calls": calls["evolution"],
            "evolution.block_propagations": blocks_propagated,
            "evolution.us_per_block": 1e6 * self_time["evolution"] / blocks_propagated if blocks_propagated else 0.0,
            "metrics.reduce_s": self_time["metrics.reduce"],
            "metrics.reduce_calls": calls["metrics.reduce"],
            "metrics.overlap_s": self_time["metrics.overlap"],
            "metrics.overlap_calls": calls["metrics.overlap"],
            "metrics.phase_s": self_time["metrics.phase"],
            "metrics.phase_calls": calls["metrics.phase"],
            "metrics.moments_s": self_time["metrics.moments"],
            "metrics.moments_calls": calls["metrics.moments"],
            "experiments.optimizer_runs": runs,
            "experiments.optimizer_evals": optimizer_evals,
            "experiments.evals_per_run": optimizer_evals / runs if runs else 0.0,
            "experiments.direct_evolves": direct_evolves,
            "experiments.self_s": self_time["experiments"] + self_time["experiments.optimizer"],
            "cli.self_s": self_time["cli"],
            "cli.evolves": cli_evolves,
        }

    def _nearest(self, sid: int, layers: tuple[str, ...]) -> str | None:
        """Layer of the closest ancestor span that belongs to one of layers."""
        parent = self.spans[sid][PARENT]
        while parent >= 0:
            if self.spans[parent][LAYER] in layers:
                return self.spans[parent][LAYER]
            parent = self.spans[parent][PARENT]
        return None

    def write(self, path: Path) -> None:
        """Write the spans as gzipped JSON lines, one span per line."""
        with gzip.open(path, "wt") as fh:
            for sid, (layer, name, parent, start, end, work) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "parent": parent, "layer": layer, "name": name,
                                     "start": start, "end": end, "work": work}) + "\n")
