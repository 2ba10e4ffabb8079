"""The triwave benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload {scaling,stage1,pipeline,all} \\
        --seed N --seconds S --trace {0,1} [--runs R]

Run from anywhere; the program is taken from `src/` next to this
directory, and nothing is installed or built.  A run is a closed loop with
one client: fresh child processes (`child.py`) start one after another, each
with BLAS and OpenMP pinned to one thread and TRIWAVE_THREADS unset, so
sweeps are serial.

`--trace 0` reports the end-to-end metrics:
  setup_s      fresh-process time through `import triwave`, building the
               inputs and one evolve of each; median of 1 + EXTRA_SETUPS
               processes;
  wall_s       median time of one workload pass after set-up;
  peak_rss_mb  ru_maxrss of the process that ran the passes;
  pass_rate    expected records produced and matching the reference, over
               records expected (1 - error_rate).
`--trace 1` runs the workload once untraced and once with spans around
every public function of each module, and reports per-layer metrics.

`--runs R` repeats each chosen workload with seeds N .. N+R-1 and prints,
per metric, the median, quartiles, spread and the highest percentile with
at least ten runs beyond it.  With `--workload all` every workload runs.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  Everything else, with the environment, goes to
`perfbench/results/`.  The exit code is 2 when the program's source is
not there and 1 when a child process fails.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

EXTRA_SETUPS = 2  # set-up-only processes per untraced run, beside the one that runs the passes
CHILD_LIMIT_S = 170.0  # a run must end within 180 s

# name, unit, better, bound (share of the parent's median)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.05),
    ("pass_rate", "ratio", "higher", 0.01),
]

# name, unit, better.  cli.self_s and metrics.phase_s are also printed and
# saved, but not part of the JSON line: each is zero seconds on every run of
# some workload (no CLI in scaling and stage1, no phase metric in stage1).
PER_LAYER = [
    ("states.construct_s", "s", "lower"),
    ("states.calls", "count", "lower"),
    ("blocks.eig_s", "s", "lower"),
    ("blocks.eig_lookups", "count", "lower"),
    ("blocks.eig_misses", "count", "lower"),
    ("blocks.eig_hit_ratio", "ratio", "higher"),
    ("blocks.cache_entries", "count", "lower"),
    ("blocks.cache_mb", "MiB", "lower"),
    ("evolution.evolve_s", "s", "lower"),
    ("evolution.evolve_calls", "count", "lower"),
    ("evolution.block_propagations", "count", "lower"),
    ("evolution.us_per_block", "us", "lower"),
    ("metrics.reduce_s", "s", "lower"),
    ("metrics.reduce_calls", "count", "lower"),
    ("metrics.overlap_s", "s", "lower"),
    ("metrics.overlap_calls", "count", "lower"),
    ("metrics.phase_calls", "count", "lower"),
    ("metrics.moments_s", "s", "lower"),
    ("metrics.moments_calls", "count", "lower"),
    ("experiments.optimizer_runs", "count", "lower"),
    ("experiments.optimizer_evals", "count", "lower"),
    ("experiments.evals_per_run", "count", "lower"),
    ("experiments.direct_evolves", "count", "lower"),
    ("experiments.self_s", "s", "lower"),
    ("cli.evolves", "count", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("run.traced_wall_s", "s", "lower"),
    ("run.untraced_wall_s", "s", "lower"),
    ("run.trace_overhead", "ratio", "lower"),
    ("run.cpu_s", "s", "lower"),
]
REPORT_ONLY = [("metrics.phase_s", "s"), ("cli.self_s", "s")]

THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
}


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("TRIWAVE_THREADS", "PYTHONPATH")}
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = str(SRC)
    return env


def start_child(workload: str, seed: int, seconds: float, mode: str, deadline: float) -> tuple[float, dict | None]:
    """Run one child process; return its set-up time and its final JSON (None for setup)."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--mode", mode, "--out-dir", str(RESULTS)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT) as proc:
        watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        watchdog.start()
        try:
            first = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            rest = proc.stdout.read()
            code = proc.wait()
        finally:
            watchdog.cancel()
    if code != 0 or first != "ready\n":
        raise ChildFailed(f"{mode} process for {workload} exited {code} (killed after the time limit if negative)")
    if mode == "setup":
        return setup_s, None
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "triwave").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def summarize_checks(child: dict) -> tuple[int, int, bool, list[str]]:
    """attempted, failed, correct and report lines over the passes of one child."""
    passes = child["passes"]
    attempted = sum(p["expected"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    correct = all(p["correct"] for p in passes)
    lines = []
    if len({p["digest"] for p in passes}) > 1:
        correct = False
        lines.append("check: passes of one process gave different records")
    for message in sorted({m for p in passes for m in p["errors"]}):
        lines.append(f"error: {message}")
    notes = passes[0]["notes"]
    absent = [note.split(":")[0] for note in notes if note.endswith(": never produced")]
    if absent:
        lines.append(f"check: {len(absent)} expected records never produced: {', '.join(absent)}")
    lines += [f"check: {note}" for note in notes if not note.endswith(": never produced")]
    return attempted, failed, correct, lines


def single_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run; prints its report and returns its result."""
    deadline = time.monotonic() + CHILD_LIMIT_S
    RESULTS.mkdir(exist_ok=True)  # children write the pipeline's --out file and spans here
    print(f"workload {workload}: {workloads.WHY[workload]}")
    print(workloads.seed_use(workload, seed))
    setup_s, main = start_child(workload, seed, seconds, "run", deadline)
    attempted, failed, correct, lines = summarize_checks(main)
    walls = [p["wall_s"] for p in main["passes"]]
    if trace:
        _, traced = start_child(workload, seed, seconds, "trace", deadline)
        t_attempted, t_failed, t_correct, _ = summarize_checks(traced)
        attempted, failed = attempted + t_attempted, failed + t_failed
        correct = correct and t_correct
        if traced["passes"][0]["digest"] == main["passes"][0]["digest"]:
            lines.append("check: traced records equal untraced records bit for bit")
        else:
            correct = False
            lines.append("check: traced records differ from untraced records")
        values = dict(traced["layers"])
        values["cli.output_bytes"] = traced["passes"][0]["output_bytes"]
        values["run.traced_wall_s"] = traced["passes"][0]["wall_s"]
        values["run.untraced_wall_s"] = statistics.median(walls)
        values["run.trace_overhead"] = values["run.traced_wall_s"] / values["run.untraced_wall_s"]
        values["run.cpu_s"] = main["cpu_s"] / len(walls)
        samples = {"run.untraced_wall_s": len(walls), "run.cpu_s": len(walls)}
        reported = [(name, unit) for name, unit, _ in PER_LAYER]
    else:
        setups = [setup_s] + [start_child(workload, seed, seconds, "setup", deadline)[0] for _ in range(EXTRA_SETUPS)]
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": main["peak_rss_mb"],
            "pass_rate": (attempted - failed) / attempted,
        }
        samples = {"setup_s": len(setups), "wall_s": len(walls)}
        reported = [(name, unit) for name, unit, _, _ in END_TO_END]

    units = dict(reported + REPORT_ONLY)
    for name, unit in reported + (REPORT_ONLY if trace else []):
        print(f"  {name:30s} {values[name]:<14.6g} {unit:6s} (n={samples.get(name, 1)}){_base(name, values, attempted, failed)}")
    print(f"  error_rate {failed / attempted:.6g} ({failed} failed of {attempted} expected records, "
          f"{'every produced record passed its checks' if correct else 'some produced records are WRONG'})")
    for line in lines:
        print(f"  {line}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in reported},
    }
    saved = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "seed_use": workloads.seed_use(workload, seed),
        "commit": git_commit(), "src_sha256": source_digest(), "env": main["env"],
        "result": result, "error_rate": failed / attempted,
        "all_metrics": {name: {"value": values[name], "unit": units[name], "samples": samples.get(name, 1)}
                        for name in values if name in units},
        "pass_walls_s": walls, "report": lines, "records": main["records"],
    }
    path = RESULTS / f"{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(saved, indent=1) + "\n")
    print(f"  env: nproc {saved['env']['nproc']}, {saved['env']['blas']} {saved['env']['blas_version']}, "
          f"pins {saved['env']['thread_pins']}, python {saved['env']['python']}, numpy {saved['env']['numpy']}, "
          f"scipy {saved['env']['scipy']}, commit {saved['commit']}, src sha256 {saved['src_sha256'][:12]}")
    print(f"  saved {path.relative_to(ROOT)}")
    return result


def _base(name: str, values: dict, attempted: int, failed: int) -> str:
    """The base of a ratio, so none is printed without it."""
    if name == "pass_rate":
        return f" ({attempted - failed} of {attempted} expected records)"
    if name == "blocks.eig_hit_ratio":
        lookups = values["blocks.eig_lookups"]
        return f" ({lookups - values['blocks.eig_misses']} hits of {lookups} lookups)"
    if name == "experiments.evals_per_run":
        return f" ({values['experiments.optimizer_evals']} evals / {values['experiments.optimizer_runs']} runs)"
    if name == "evolution.us_per_block":
        return f" ({values['evolution.evolve_s']:.6g} s / {values['evolution.block_propagations']} blocks)"
    if name == "run.trace_overhead":
        return f" (traced {values['run.traced_wall_s']:.6g} s / untraced median {values['run.untraced_wall_s']:.6g} s)"
    return ""


def percentile_beyond_ten(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten of the values beyond it."""
    n = len(values)
    pct = math.floor(100 * (n - 10) / n) if n > 10 else 0
    if pct < 1:
        return None
    return pct, statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def repeat(names: list[str], seed: int, seconds: float, trace: int, runs: int) -> dict:
    """Run each workload `runs` times with consecutive seeds and summarize."""
    units = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
    bounds = {name: bound for name, _, _, bound in END_TO_END}
    collected: dict[str, dict[str, list[float]]] = {}
    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in names:
        per_metric = collected.setdefault(workload, {})
        for i in range(runs):
            print(f"== {workload} run {i + 1}/{runs}, seed {seed + i}")
            result = single_run(workload, seed + i, seconds, trace)
            totals["correct"] = totals["correct"] and result["correct"]
            totals["attempted"] += result["attempted"]
            totals["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                per_metric.setdefault(name, []).append(metric["value"])
    print(f"== summary over {runs} runs per workload (spread = (q3 - q1) / median)")
    for workload, per_metric in collected.items():
        for name, vals in per_metric.items():
            unit, bound = units[name], bounds.get(name)
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            spread = (q3 - q1) / median if median else 0.0
            tail = percentile_beyond_ten(vals)
            tail_text = f"p{tail[0]} {tail[1]:.6g}" if tail else "no percentile with ten runs beyond"
            bound_text = f", bound {bound} ({'spread below a third' if spread < bound / 3 else 'SPREAD TOO WIDE'})" if bound else ""
            print(f"  {workload:8s} {name:30s} median {median:<12.6g} {unit:6s} n={len(vals)} "
                  f"q1 {q1:.6g} q3 {q3:.6g} spread {spread:.4f}, {tail_text}{bound_text}")
            totals["metrics"][f"{workload}.{name}"] = {"value": median, "unit": unit}
    summary = RESULTS / f"summary-seed{seed}-runs{runs}-trace{trace}.json"
    summary.write_text(json.dumps({"runs": runs, "seed": seed, "values": collected}, indent=1) + "\n")
    print(f"  saved {summary.relative_to(ROOT)}")
    return totals


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measure whole passes while another one still fits (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1, help="runs per workload, seeds N .. N+R-1")
    args = parser.parse_args(argv)
    if not (SRC / "triwave" / "__init__.py").is_file():
        print(f"error: the triwave source is not at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        if len(names) == 1 and args.runs == 1:
            result = single_run(names[0], args.seed, args.seconds, args.trace)
        else:
            result = repeat(names, args.seed, args.seconds, args.trace, args.runs)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
