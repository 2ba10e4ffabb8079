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
from dataclasses import asdict, dataclass

import numpy as np

from .blocks import block_dimension, recombination_offdiag, trilinear_offdiag
from .evolution import evolve
from .experiments import (
    PowerLawFit,
    ScalingPoint,
    SweepRecord,
    _best_peak_index,
    full_pipeline,
    scaling_study,
    stage1_sweep,
    stage2_sweep,
)
from .metrics import (
    PHASE_GRID_MIN,
    matched_pcs_overlap_rho,
    mean_photon,
    purity,
    reciprocal_peak_likelihood,
)
from .states import EPS_CEILING, make_coherent_pump

SWEEP_HEADER = ["tau", "overlap", "eta", "purity", "delta_phi", "n_a", "n_b", "n_c", "lambda_re", "lambda_im"]
SCALING_HEADER = ["n_in", "n_out", "tau_opt", "overlap", "eta", "purity", "delta_phi", "lambda_re", "lambda_im"]


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

    def to_json_dict(self) -> dict:
        raw = asdict(self)
        return {key: _json_value(value) for key, value in raw.items() if value is not None}


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
    _write_records(config, records)
    best = max(records, key=lambda r: r.eta)
    print(f"stage1: tau_opt={best.tau:.6g} overlap={best.overlap:.6g} eta={best.eta:.6g}")
    return 0


def _run_stage2(config: RunConfig) -> int:
    chi = math.sqrt(config.n_in / (config.n_in + 2.0)) * complex(np.exp(1j * config.chi_phase))
    taus = np.linspace(config.tau_min, config.tau_max, config.tau_steps)
    records = stage2_sweep(chi, taus, eps=config.eps, phase_grid=config.phase_grid)
    _write_records(config, records)
    # the overlap is trivially 1 at tau = 0, so summarize the interior peak
    best = records[_best_peak_index(np.array([r.overlap for r in records]))]
    print(f"stage2: tau_opt={best.tau:.6g} overlap={best.overlap:.6g} eta={best.eta:.6g}")
    return 0


def _run_pipeline(config: RunConfig) -> int:
    alpha = math.sqrt(config.pump_energy) * complex(np.exp(1j * config.pump_phase))
    rho = full_pipeline(alpha, config.tau1, config.tau2, eps=config.eps)
    pump = make_coherent_pump(alpha, eps=config.eps)
    mid = evolve(pump, config.tau1)
    energy_in = mean_photon(mid, "a") + mean_photon(mid, "b")
    occ = np.arange(rho.matrix.shape[0])
    n_out = float(np.real(np.diag(rho.matrix)) @ occ)
    overlap, lam = matched_pcs_overlap_rho(rho, config.phase_grid)
    record = SweepRecord(
        tau=config.tau2,
        overlap=overlap,
        eta=(2.0 * n_out / energy_in) if energy_in > 0.0 else float("nan"),
        purity=purity(rho),
        delta_phi=reciprocal_peak_likelihood(rho, config.phase_grid),
        n_a=float("nan"),
        n_b=float("nan"),
        n_c=n_out,
        lambda_or_chi=lam,
    )
    _write_records(config, [record])
    print(f"pipeline: n_out={n_out:.6g} overlap={overlap:.6g} purity={record.purity:.6g}")
    return 0


def _run_scaling(config: RunConfig) -> int:
    points, fits = scaling_study(config.n_in_list, eps=config.eps, phase_grid=config.phase_grid)
    if config.fmt == "json":
        payload = {
            "config": config.to_json_dict(),
            "records": [_scaling_dict(p) for p in points],
            "fits": {name: _fit_dict(fit) for name, fit in fits.items()},
        }
        _write_json(config.out, payload)
    else:
        rows = [
            [_fmt(p.n_in), _fmt(p.n_out), _fmt(p.tau_opt), _fmt(p.overlap), _fmt(p.eta),
             _fmt(p.purity), _fmt(p.delta_phi), _fmt(p.matched_lambda.real), _fmt(p.matched_lambda.imag)]
            for p in points
        ]
        _write_csv(config.out, SCALING_HEADER, rows)
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


def _write_records(config: RunConfig, records: list[SweepRecord]) -> None:
    if config.fmt == "json":
        payload = {
            "config": config.to_json_dict(),
            "records": [_record_dict(r) for r in records],
            "fits": {},
        }
        _write_json(config.out, payload)
    else:
        rows = [
            [_fmt(r.tau), _fmt(r.overlap), _fmt(r.eta), _fmt(r.purity), _fmt(r.delta_phi),
             _fmt(r.n_a), _fmt(r.n_b), _fmt(r.n_c), _fmt(r.lambda_or_chi.real), _fmt(r.lambda_or_chi.imag)]
            for r in records
        ]
        _write_csv(config.out, SWEEP_HEADER, rows)


def _record_dict(rec: SweepRecord) -> dict:
    return {
        "tau": _json_float(rec.tau),
        "overlap": _json_float(rec.overlap),
        "eta": _json_float(rec.eta),
        "purity": _json_float(rec.purity),
        "delta_phi": _json_float(rec.delta_phi),
        "n_a": _json_float(rec.n_a),
        "n_b": _json_float(rec.n_b),
        "n_c": _json_float(rec.n_c),
        "lambda_re": _json_float(rec.lambda_or_chi.real),
        "lambda_im": _json_float(rec.lambda_or_chi.imag),
    }


def _scaling_dict(point: ScalingPoint) -> dict:
    return {
        "n_in": _json_float(point.n_in),
        "n_out": _json_float(point.n_out),
        "tau_opt": _json_float(point.tau_opt),
        "overlap": _json_float(point.overlap),
        "eta": _json_float(point.eta),
        "purity": _json_float(point.purity),
        "delta_phi": _json_float(point.delta_phi),
        "lambda_re": _json_float(point.matched_lambda.real),
        "lambda_im": _json_float(point.matched_lambda.imag),
    }


def _fit_dict(fit: PowerLawFit) -> dict:
    return {
        "prefactor": _json_float(fit.prefactor),
        "exponent": _json_float(fit.exponent),
        "residual": _json_float(fit.residual),
    }


def _fmt(x: float) -> str:
    return repr(float(x))


def _json_float(x: float):
    x = float(x)
    return None if math.isnan(x) else x


def _json_value(value):
    if isinstance(value, float):
        return _json_float(value)
    if isinstance(value, tuple):
        return [_json_value(v) for v in value]
    return value


def _write_csv(path: str, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", newline="") as fh:
        json.dump(payload, fh, indent=2, allow_nan=False)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
