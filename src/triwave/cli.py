"""Command-line front end for the two-stage conversion experiments.

Runs are deterministic: identical flags produce byte-identical output
files.  Floats are serialized via shortest round-trip repr.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from .blocks import block_dimension, recombination_offdiag, trilinear_offdiag
from .evolution import evolve  # noqa: F401  (unused; perfbench/test_perfbench.py reads triwave.cli.evolve)
from .experiments import best_peak_index, pipeline_record, scaling_study, stage1_sweep, stage2_sweep
from .metrics import PHASE_GRID_MIN
from .states import EPS_CEILING


class ConfigError(ValueError):
    """Invalid command-line configuration; maps to exit code 2."""


@dataclass
class RunConfig:
    command: str
    eps: float = 1e-10
    phase_grid: int = 1024
    out: str | None = None
    fmt: str | None = None
    pump_energy: float | None = None
    pump_phase: float = 0.0
    n_in: float | None = None
    chi_phase: float = 0.0
    tau_min: float = 0.0
    tau_max: float | None = None
    tau_steps: int | None = None
    tau1: float | None = None
    tau2: float | None = None
    n_in_list: tuple[float, ...] | None = None
    s: int | None = None
    k: int | None = None


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return _dispatch(config)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triwave",
        description="Exact three-wave-mixing simulator: down-conversion, up-conversion, and scaling studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    s1 = sub.add_parser("stage1", help="sweep down-conversion of a coherent pump")
    s1.add_argument("--pump-energy", type=float, required=True, help="mean pump photon number |alpha|^2")
    s1.add_argument("--pump-phase", type=float, default=0.0, help="pump phase arg(alpha) in radians")
    _add_tau_args(s1)
    _add_common_args(s1)

    s2 = sub.add_parser("stage2", help="sweep up-conversion of a twin beam")
    s2.add_argument("--n-in", type=float, required=True, help="mean twin-beam photon number")
    s2.add_argument("--chi-phase", type=float, default=0.0, help="pair amplitude phase in radians")
    _add_tau_args(s2)
    _add_common_args(s2)

    pipe = sub.add_parser("pipeline", help="chain both stages into a mixed output state")
    pipe.add_argument("--pump-energy", type=float, required=True, help="mean pump photon number |alpha|^2")
    pipe.add_argument("--pump-phase", type=float, default=0.0, help="pump phase arg(alpha) in radians")
    pipe.add_argument("--tau1", type=float, required=True, help="stage-1 interaction time")
    pipe.add_argument("--tau2", type=float, required=True, help="stage-2 interaction time")
    _add_common_args(pipe)

    sc = sub.add_parser("scaling", help="optimal-time scaling study over input energies")
    sc.add_argument("--n-in-list", type=str, required=True,
                    help="input energies, either start:stop:step (inclusive) or comma separated")
    _add_common_args(sc)

    info = sub.add_parser("block-info", help="print one invariant block")
    info.add_argument("--s", type=int, required=True, help="weight n_a + n_b + 2 n_c")
    info.add_argument("--k", type=int, required=True, help="pair count n_a + n_c")

    return parser


def _add_tau_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--tau-min", type=float, default=0.0, help="first interaction time (default 0)")
    sub.add_argument("--tau-max", type=float, required=True, help="last interaction time")
    sub.add_argument("--tau-steps", type=int, required=True, help="number of grid points")


def _add_common_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--eps", type=float, default=1e-10, help="input truncation tail (default 1e-10)")
    sub.add_argument("--phase-grid", type=int, default=1024, help="phase grid points (default 1024)")
    sub.add_argument("--out", type=str, required=True, help="output file path")
    sub.add_argument("--format", dest="fmt", choices=["csv", "json"], default=None,
                     help="output format; default follows the --out extension")


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    for name, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"--{name.replace('_', '-')} must be finite, got {value}")
    config = RunConfig(command=args.command)
    if args.command == "block-info":
        if args.s < 0 or args.k < 0 or args.k > args.s:
            raise ConfigError(f"--s/--k must satisfy 0 <= k <= s, got s={args.s} k={args.k}")
        config.s, config.k = args.s, args.k
        return config

    config.eps = args.eps
    if not (0.0 < config.eps <= EPS_CEILING):
        raise ConfigError(f"--eps must lie in (0, {EPS_CEILING}], got {config.eps}")
    config.phase_grid = args.phase_grid
    if config.phase_grid < PHASE_GRID_MIN:
        raise ConfigError(f"--phase-grid needs at least {PHASE_GRID_MIN} points, got {config.phase_grid}")
    config.out = args.out
    out_dir = os.path.dirname(config.out) or "."
    if not os.path.isdir(out_dir):
        raise ConfigError(f"--out directory does not exist: {out_dir}")
    config.fmt = args.fmt or ("json" if config.out.lower().endswith(".json") else "csv")

    if args.command in ("stage1", "pipeline"):
        config.pump_energy = args.pump_energy
        config.pump_phase = args.pump_phase
        if config.pump_energy <= 0.0:
            raise ConfigError(f"--pump-energy must be positive, got {config.pump_energy}")
    if args.command == "stage2":
        config.n_in = args.n_in
        config.chi_phase = args.chi_phase
        if config.n_in <= 0.0:
            raise ConfigError(f"--n-in must be positive, got {config.n_in}")
    if args.command in ("stage1", "stage2"):
        config.tau_min = args.tau_min
        config.tau_max = args.tau_max
        config.tau_steps = args.tau_steps
        if config.tau_min < 0.0:
            raise ConfigError(f"--tau-min must be non-negative, got {config.tau_min}")
        if config.tau_max <= config.tau_min:
            raise ConfigError("--tau-max must exceed --tau-min")
        if config.tau_steps < 2:
            raise ConfigError(f"--tau-steps must be at least 2, got {config.tau_steps}")
    if args.command == "pipeline":
        config.tau1 = args.tau1
        config.tau2 = args.tau2
        if config.tau1 < 0.0 or config.tau2 < 0.0:
            raise ConfigError("--tau1 and --tau2 must be non-negative")
    if args.command == "scaling":
        config.n_in_list = _parse_energy_list(args.n_in_list)
    return config


def _parse_energy_list(text: str) -> tuple[float, ...]:
    try:
        parts = text.split(":") if ":" in text else [p for p in text.split(",") if p.strip()]
        numbers = [float(p) for p in parts]
        if not all(math.isfinite(v) for v in numbers):
            raise ValueError("entries must be finite")
        if ":" in text:
            if len(numbers) != 3:
                raise ValueError("expected start:stop:step")
            start, stop, step = numbers
            if step <= 0.0:
                raise ValueError("step must be positive")
            if stop < start:
                raise ValueError("stop must not precede start")
            count = int(math.floor((stop - start) / step + 1e-9)) + 1
            values = tuple(start + step * i for i in range(count))
        else:
            values = tuple(numbers)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"--n-in-list could not be parsed: {exc}") from exc
    if len(values) < 3:
        raise ConfigError("--n-in-list needs at least 3 energies for the power-law fits")
    if any(v <= 0.0 for v in values):
        raise ConfigError("--n-in-list entries must be positive")
    return values


def _dispatch(config: RunConfig) -> int:
    if config.command == "stage1":
        return _run_stage1(config)
    if config.command == "stage2":
        return _run_stage2(config)
    if config.command == "pipeline":
        return _run_pipeline(config)
    if config.command == "scaling":
        return _run_scaling(config)
    if config.command == "block-info":
        return _run_block_info(config)
    raise ValueError(f"unknown command {config.command!r}")


def _run_stage1(config: RunConfig) -> int:
    alpha = math.sqrt(config.pump_energy) * complex(np.exp(1j * config.pump_phase))
    taus = np.linspace(config.tau_min, config.tau_max, config.tau_steps)
    records = stage1_sweep(alpha, taus, eps=config.eps)
    _write(config, records)
    best = max(records, key=lambda r: r.eta)
    print(f"stage1: tau_opt={best.tau:.6g} overlap={best.overlap:.6g} eta={best.eta:.6g}")
    return 0


def _run_stage2(config: RunConfig) -> int:
    chi = math.sqrt(config.n_in / (config.n_in + 2.0)) * complex(np.exp(1j * config.chi_phase))
    taus = np.linspace(config.tau_min, config.tau_max, config.tau_steps)
    records = stage2_sweep(chi, taus, eps=config.eps, phase_grid=config.phase_grid)
    _write(config, records)
    # the overlap is trivially 1 at tau = 0, so summarize the interior peak
    best = records[best_peak_index(np.array([r.overlap for r in records]))]
    print(f"stage2: tau_opt={best.tau:.6g} overlap={best.overlap:.6g} eta={best.eta:.6g}")
    return 0


def _run_pipeline(config: RunConfig) -> int:
    alpha = math.sqrt(config.pump_energy) * complex(np.exp(1j * config.pump_phase))
    record = pipeline_record(alpha, config.tau1, config.tau2, eps=config.eps, phase_grid=config.phase_grid)
    _write(config, [record])
    print(f"pipeline: n_out={record.n_c:.6g} overlap={record.overlap:.6g} purity={record.purity:.6g}")
    return 0


def _run_scaling(config: RunConfig) -> int:
    points, fits = scaling_study(config.n_in_list, eps=config.eps, phase_grid=config.phase_grid)
    _write(config, points, fits)
    fit_in = fits["tau_opt_vs_n_in"]
    fit_out = fits["tau_opt_vs_n_out"]
    print(
        f"scaling: {len(points)} energies, tau_opt fits "
        f"{fit_in.prefactor:.4g}*N_in^{fit_in.exponent:.4g}, "
        f"{fit_out.prefactor:.4g}*N_out^{fit_out.exponent:.4g}"
    )
    return 0


def _run_block_info(config: RunConfig) -> int:
    dim = block_dimension(config.s, config.k)
    index = (config.s, config.k)
    tri = trilinear_offdiag(index)
    rec = recombination_offdiag(index)
    print(f"block (s={config.s}, k={config.k}): dimension {dim}")
    print(f"trilinear offdiag: {[float(x) for x in tri]}")
    print(f"recombination offdiag: {[float(x) for x in rec]}")
    return 0


def _write(config: RunConfig, records: list, fits: dict | None = None) -> None:
    """Write the records, one row each, and the fits (JSON only) to config.out."""
    rows = [_columns(r) for r in records]
    with open(config.out, "w", newline="") as fh:
        if config.fmt == "json":
            payload = {
                "config": {key: value for key, value in asdict(config).items() if value is not None},
                "records": rows,
                "fits": {name: _columns(fit) for name, fit in (fits or {}).items()},
            }
            json.dump(_json_value(payload), fh, indent=2, allow_nan=False)
            fh.write("\n")
        else:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(rows[0].keys())
            writer.writerows([repr(v) for v in row.values()] for row in rows)


def _columns(record) -> dict[str, float]:
    """A record dataclass as {column: value}, in field order.

    A complex field splits into <column>_re and <column>_im, where the
    column stem is the field's "column" metadata, else its name.
    """
    row = {}
    for f in fields(record):
        column = f.metadata.get("column", f.name)
        value = getattr(record, f.name)
        if isinstance(value, complex):
            row[column + "_re"], row[column + "_im"] = float(value.real), float(value.imag)
        else:
            row[column] = float(value)
    return row


def _json_value(value):
    """value with NaN as None and tuples as lists, for strict JSON."""
    if isinstance(value, float):
        return None if math.isnan(value) else value
    if isinstance(value, (tuple, list)):
        return [_json_value(v) for v in value]
    if isinstance(value, dict):
        return {key: _json_value(v) for key, v in value.items()}
    return value


if __name__ == "__main__":
    sys.exit(main())
