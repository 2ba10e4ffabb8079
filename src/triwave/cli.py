"""Command-line front end for the two-stage conversion experiments.

argparse is the only model of the command line: it checks each flag
alone, by its `type=` converter or, for the --out directory, after
parsing, and each subcommand binds its runner with `set_defaults(run=...)`.
Every other rule on the inputs, across flags included, is the library's,
which refuses an input with ValueError.  argparse's rejections and a
ValueError exit 2 with `error:` on stderr; any other failure exits 1.
The JSON `config` block holds `command` and exactly the command's flags.
Identical flags produce byte-identical output files: floats are written
as their shortest round-trip repr.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import fields

import numpy as np

from .blocks import block_dimension, recombination_offdiag, trilinear_offdiag
from .evolution import evolve  # noqa: F401  (unused; perfbench/test_perfbench.py reads triwave.cli.evolve)
from .experiments import best_peak_index, pipeline_record, scaling_study, stage1_sweep, stage2_sweep


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
    except SystemExit as exc:  # argparse printed the error (status 2) or the help (status 0)
        return exc.code
    try:
        return args.run(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValueError) else 1  # a ValueError is a refused input


def _number(kind=float, lo=-math.inf, lo_open=False):
    """argparse type: a finite `kind` in [lo, inf), or in (lo, inf) when lo_open."""
    span = f"{'(' if lo_open else '['}{lo}, inf)"

    def convert(text: str):
        value = kind(text)
        if not (math.isfinite(value) and lo <= value) or (lo_open and value == lo):
            raise argparse.ArgumentTypeError(f"must be finite and in {span}, got {text}")
        return value

    convert.__name__ = kind.__name__  # argparse's "invalid float value: 'x'"
    return convert


_FINITE = _number()
_POSITIVE = _number(lo=0.0, lo_open=True)
_NON_NEGATIVE = _number(lo=0.0)
# a start:stop:step range is counted before it is built, and refused past this: each energy is one optimal-time search,
# the fixture and the README scan 27, and 1:1e300:1 would otherwise grow its list until the process is killed
_MAX_RANGE_ENERGIES = 1000


def _energy_list(text: str) -> tuple[float, ...]:
    """argparse type for --n-in-list: start:stop:step (inclusive) or comma separated."""
    try:
        parts = text.split(":") if ":" in text else [p for p in text.split(",") if p.strip()]
        values = [float(p) for p in parts]
        if ":" in text:
            if len(values) != 3:
                raise ValueError("expected start:stop:step")
            start, stop, step = values
            if not (step > 0.0 and stop >= start):
                raise ValueError("expected step > 0 and stop >= start")
            count = math.floor((stop - start) / step + 1e-9) + 1
            if count > _MAX_RANGE_ENERGIES:
                raise ValueError(f"the range holds more than {_MAX_RANGE_ENERGIES} energies")
            values = [start + step * i for i in range(count)]
    except (ValueError, OverflowError) as exc:
        raise argparse.ArgumentTypeError(f"could not be parsed: {exc}") from None
    return tuple(values)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triwave",
        description="Exact three-wave-mixing simulator: down-conversion, up-conversion, and scaling studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    s1 = sub.add_parser("stage1", help="sweep down-conversion of a coherent pump")
    s1.add_argument("--pump-energy", type=_POSITIVE, required=True, help="mean pump photon number |alpha|^2")
    s1.add_argument("--pump-phase", type=_FINITE, default=0.0, help="pump phase arg(alpha) in radians")
    _add_tau_args(s1)
    _add_common_args(s1)
    s1.set_defaults(run=_run_stage1)

    s2 = sub.add_parser("stage2", help="sweep up-conversion of a twin beam")
    s2.add_argument("--n-in", type=_POSITIVE, required=True, help="mean twin-beam photon number")
    s2.add_argument("--chi-phase", type=_FINITE, default=0.0, help="pair amplitude phase in radians")
    _add_tau_args(s2)
    _add_common_args(s2)
    s2.set_defaults(run=_run_stage2)

    pipe = sub.add_parser("pipeline", help="chain both stages into a mixed output state")
    pipe.add_argument("--pump-energy", type=_POSITIVE, required=True, help="mean pump photon number |alpha|^2")
    pipe.add_argument("--pump-phase", type=_FINITE, default=0.0, help="pump phase arg(alpha) in radians")
    pipe.add_argument("--tau1", type=_POSITIVE, required=True, help="stage-1 interaction time")
    pipe.add_argument("--tau2", type=_NON_NEGATIVE, required=True, help="stage-2 interaction time")
    _add_common_args(pipe)
    pipe.set_defaults(run=_run_pipeline)

    sc = sub.add_parser("scaling", help="optimal-time scaling study over input energies")
    sc.add_argument("--n-in-list", type=_energy_list, required=True,
                    help="input energies, either start:stop:step (inclusive) or comma separated")
    _add_common_args(sc)
    sc.set_defaults(run=_run_scaling)

    info = sub.add_parser("block-info", help="print one invariant block")
    info.add_argument("--s", type=_number(int, lo=0), required=True, help="weight n_a + n_b + 2 n_c")
    info.add_argument("--k", type=_number(int, lo=0), required=True, help="pair count n_a + n_c")
    info.set_defaults(run=_run_block_info)

    return parser


def _add_tau_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--tau-min", type=_NON_NEGATIVE, default=0.0, help="first interaction time (default 0)")
    sub.add_argument("--tau-max", type=_FINITE, required=True, help="last interaction time")
    sub.add_argument("--tau-steps", type=_number(int, lo=2), required=True, help="number of grid points")


def _add_common_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--eps", type=_POSITIVE, default=1e-10, help="input truncation tail (default 1e-10)")
    sub.add_argument("--out", type=str, required=True, help="output file path")
    sub.add_argument("--format", dest="fmt", choices=["csv", "json"], default=None,
                     help="output format; default follows the --out extension")


def _parse_args(argv) -> argparse.Namespace:
    """Parse argv and check the one thing the library cannot: that the --out directory exists."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if "out" in args:
        out_dir = os.path.dirname(args.out) or "."
        if not os.path.isdir(out_dir):
            parser.error(f"--out directory does not exist: {out_dir}")
        args.fmt = args.fmt or ("json" if args.out.lower().endswith(".json") else "csv")
    return args


def _alpha(pump_energy: float, phase: float) -> complex:
    """Coherent pump amplitude, |alpha|^2 = pump_energy."""
    return math.sqrt(pump_energy) * complex(np.exp(1j * phase))


def _chi(n_in: float, phase: float) -> complex:
    """Twin-beam pair amplitude with n_in mean photons in all: |chi|^2 = n_in / (n_in + 2)."""
    return math.sqrt(n_in / (n_in + 2.0)) * complex(np.exp(1j * phase))


def _run_stage1(args: argparse.Namespace) -> int:
    alpha = _alpha(args.pump_energy, args.pump_phase)
    taus = np.linspace(args.tau_min, args.tau_max, args.tau_steps)
    records = stage1_sweep(alpha, taus, eps=args.eps)
    _write(args, records)
    best = max(records, key=lambda r: r.eta)
    print(f"stage1: tau_opt={best.tau:.6g} overlap={best.overlap:.6g} eta={best.eta:.6g}")
    return 0


def _run_stage2(args: argparse.Namespace) -> int:
    chi = _chi(args.n_in, args.chi_phase)
    taus = np.linspace(args.tau_min, args.tau_max, args.tau_steps)
    records = stage2_sweep(chi, taus, eps=args.eps)
    _write(args, records)
    # the overlap is trivially 1 at tau = 0, so summarize the interior peak
    best = records[best_peak_index(np.array([r.overlap for r in records]))]
    print(f"stage2: tau_opt={best.tau:.6g} overlap={best.overlap:.6g} eta={best.eta:.6g}")
    return 0


def _run_pipeline(args: argparse.Namespace) -> int:
    alpha = _alpha(args.pump_energy, args.pump_phase)
    record = pipeline_record(alpha, args.tau1, args.tau2, eps=args.eps)
    _write(args, [record])
    print(f"pipeline: n_out={record.n_c:.6g} overlap={record.overlap:.6g} purity={record.purity:.6g}")
    return 0


def _run_scaling(args: argparse.Namespace) -> int:
    points, fits = scaling_study(args.n_in_list, eps=args.eps)
    _write(args, points, fits)
    fit_in, fit_out = fits["tau_opt_vs_n_in"], fits["tau_opt_vs_n_out"]
    print(f"scaling: {len(points)} energies, tau_opt fits {fit_in.prefactor:.4g}*N_in^{fit_in.exponent:.4g}, "
          f"{fit_out.prefactor:.4g}*N_out^{fit_out.exponent:.4g}")
    return 0


def _run_block_info(args: argparse.Namespace) -> int:
    index = (args.s, args.k)
    print(f"block (s={args.s}, k={args.k}): dimension {block_dimension(args.s, args.k)}")
    print(f"trilinear offdiag: {[float(x) for x in trilinear_offdiag(index)]}")
    print(f"recombination offdiag: {[float(x) for x in recombination_offdiag(index)]}")
    return 0


def _write(args: argparse.Namespace, records: list, fits: dict | None = None) -> None:
    """Write the records, one row each, and the fits (JSON only) to args.out."""
    rows = [_columns(r) for r in records]
    with open(args.out, "w", newline="") as fh:
        if args.fmt == "json":
            payload = {
                "config": {key: value for key, value in vars(args).items() if key != "run"},
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
