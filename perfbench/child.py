"""One fresh benchmark process: set up, then run or trace the workload.

    python3 perfbench/child.py --workload W --seed N --seconds S --mode M --out-dir D

`run.py` starts this with the thread pins in its environment and `src/`
on PYTHONPATH; it is not meant to be started by hand.  The process prints
`ready` as soon as set-up is done, so the parent can time set-up from
outside, including interpreter start and `import triwave`.

Modes:
  setup  set up and exit;
  run    untraced passes, repeated while another pass of the same length
         still fits in S seconds (at least one);
  trace  the spans of `tracing.py` installed before set-up, one pass.

The last stdout line is a JSON object with pass times, CPU time, peak RSS,
the check of every pass, a digest of each pass's records and, for trace,
the per-layer metrics.  Spans go to D as gzipped JSON lines.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import checks
import workloads
from tracing import Tracer

def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--out-dir", type=Path, required=True)
    args = parser.parse_args(argv)

    tracer = Tracer() if args.mode == "trace" else None
    if tracer is not None:
        tracer.install()
    workloads.setup(args.workload, args.seed)
    _check_program_source()
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    passes = []
    cpu0 = time.process_time()
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        records, errors, out_bytes = workloads.run_pass(args.workload, args.seed, args.out_dir)
        wall = time.perf_counter() - t0
        passes.append({"wall_s": wall, "records": records, "errors": errors, "output_bytes": out_bytes})
        if tracer is not None or (time.perf_counter() - start) + wall > args.seconds:
            break
    cpu = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layers = None
    if tracer is not None:
        tracer.remove()
        layers = tracer.layer_metrics()
        tracer.write(args.out_dir / f"{args.workload}-seed{args.seed}-spans.jsonl.gz")

    reference = checks.load_reference(args.workload)
    out = {
        "passes": [],
        "cpu_s": cpu,
        "peak_rss_mb": peak_rss_mb,
        "layers": layers,
        "records": passes[0]["records"],
        "env": environment(),
    }
    for p in passes:
        result = checks.check_records(args.workload, p["records"], reference)
        out["passes"].append({
            "wall_s": p["wall_s"],
            "errors": p["errors"],
            "output_bytes": p["output_bytes"],
            "digest": records_digest(p["records"]),
            "expected": result.expected,
            "failed": result.failed,
            "correct": result.correct,
            "notes": result.notes,
        })
    print(json.dumps(out))
    return 0


def records_digest(records: dict) -> str:
    """Digest of the science outputs; floats are written with repr, so it is bitwise."""
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()


def _check_program_source() -> None:
    import triwave

    src = Path(__file__).resolve().parents[1] / "src"
    if src not in Path(triwave.__file__).resolve().parents:
        raise SystemExit(f"triwave imported from {triwave.__file__}, not from {src}")


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "thread_pins": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "triwave_threads": os.environ.get("TRIWAVE_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


if __name__ == "__main__":
    sys.exit(main())
