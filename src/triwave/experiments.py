"""Two-stage conversion experiments and their scaling analysis.

Stage 1 drives down-conversion of vacuum by a coherent pump and compares
the result against the undepleted-pump twin beam.  Stage 2 drives a twin
beam back up into the output mode and scores it against the matched
phase-coherent reference.  The helpers here sweep the interaction time,
locate optimal times, fit power laws to the optima, and chain both stages
into a single mixed-state pipeline.  Every state evolved here keeps n_a = n_b,
so each output is read once, as the pair matrix A of sum A[q, r] |r, r, q>:
its moments give the photon numbers, A A^dag the mode-c density matrix, and
the pipeline contracts G = A^T A* with the stage-2 response per pair.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .evolution import ThreeModeState, evolve
from .metrics import ReducedDensityMatrix, matched_pcs_overlap_rho, purity, reciprocal_peak_likelihood
from .states import make_coherent_pump, make_twin_beam, predicted_twin_beam_param
from .blocks import BlockIndex

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass
class SweepRecord:
    """Figures of merit at one interaction time.

    Output files write the fields in this order; a complex field splits
    into <column>_re and <column>_im, its column stem given in metadata.
    """

    tau: float
    overlap: float
    eta: float
    purity: float
    delta_phi: float  # NaN where a single-mode phase is not meaningful
    n_a: float
    n_b: float
    n_c: float
    lambda_or_chi: complex = field(metadata={"column": "lambda"})


@dataclass
class PowerLawFit:
    """y = prefactor * x**exponent, residual is rms in log space."""

    prefactor: float
    exponent: float
    residual: float


@dataclass
class ScalingPoint:
    """Optimal-time summary for one input energy."""

    n_in: float
    n_out: float
    tau_opt: float
    overlap: float
    eta: float
    purity: float
    delta_phi: float
    matched_lambda: complex = field(metadata={"column": "lambda"})


def stage1_sweep(pump_alpha: complex, tau_grid, eps: float = 1e-10) -> list[SweepRecord]:
    """Down-conversion sweep for pump |0, 0, alpha> over the given times.

    The overlap scores the (a, b) marginal against the twin beam predicted
    by the undepleted-pump approximation at each time.  delta_phi is not
    meaningful for the mode pair and is recorded as NaN.
    """
    taus = _check_tau_grid(tau_grid)
    pump = make_coherent_pump(pump_alpha, eps)
    pump_energy = _moments(_pair_amplitudes(pump))[0]
    if pump_energy == 0.0:
        raise ValueError("stage 1 needs a pump with non-zero energy")

    def one(tau: float) -> SweepRecord:
        amps = _pair_amplitudes(evolve(pump, tau))
        n_c, n_pair = _moments(amps)
        chi = predicted_twin_beam_param(pump_alpha, tau)
        # sech(tau |alpha|), not sqrt(1 - |chi|^2), which cancels to 0 once tanh rounds to 1
        ref = np.asarray(chi, dtype=complex) ** np.arange(len(amps)) / math.cosh(tau * abs(pump_alpha))
        return SweepRecord(
            tau=float(tau),
            overlap=min(1.0, float(np.linalg.norm(amps @ np.conj(ref)))),  # rounding can exceed 1 as tau -> 0
            eta=n_pair / pump_energy,
            purity=purity(_rho_c(amps)),  # equals the (a, b) purity
            delta_phi=float("nan"),
            n_a=n_pair,
            n_b=n_pair,
            n_c=n_c,
            lambda_or_chi=chi,
        )

    return [one(tau) for tau in taus]


def stage2_sweep(chi: complex, tau_grid, eps: float = 1e-10, phase_grid: int = 1024) -> list[SweepRecord]:
    """Up-conversion sweep for a twin beam with pair amplitude chi."""
    taus = _check_tau_grid(tau_grid)
    beam = make_twin_beam(chi, eps)
    energy_in = 2.0 * _moments(_pair_amplitudes(beam))[1]
    if energy_in == 0.0:
        raise ValueError("stage 2 needs a twin beam with non-zero energy")

    def one(tau: float) -> SweepRecord:
        amps = _pair_amplitudes(evolve(beam, tau))
        overlap, lam, pur, delta_phi, n_out = _score_output(_rho_c(amps), phase_grid)
        n_pair = _moments(amps)[1]
        return SweepRecord(
            tau=float(tau),
            overlap=overlap,
            eta=2.0 * n_out / energy_in,
            purity=pur,
            delta_phi=delta_phi,
            n_a=n_pair,
            n_b=n_pair,
            n_c=n_out,
            lambda_or_chi=lam,
        )

    return [one(tau) for tau in taus]


def find_optimal_tau(
    chi: complex,
    eps: float = 1e-10,
    window: tuple[float, float] = (0.0, 3.0),
    coarse_points: int = 64,
    tol: float = 1e-5,
    phase_grid: int = 1024,
) -> tuple[float, float, float]:
    """Interaction time maximizing the stage-2 matched overlap.

    A coarse grid over the window brackets the best candidate, then a
    golden-section pass narrows it below tol; ties fall toward smaller
    times.  The overlap tends to 1 trivially as tau -> 0 (vacuum output
    matches a vacuum reference), so the bracket targets the best interior
    peak of the coarse scan rather than that boundary artifact.  Returns
    (tau_opt, overlap, eta).
    """
    tau_opt, overlap, amps, energy_in = _stage2_optimum(chi, eps, window, coarse_points, tol, phase_grid)
    return tau_opt, overlap, 2.0 * _moments(amps)[0] / energy_in


def find_peak_conversion_tau(
    pump_alpha: complex,
    eps: float = 1e-10,
    window: tuple[float, float] = (0.0, 1.5),
    coarse_points: int = 48,
    tol: float = 1e-5,
) -> tuple[float, float]:
    """Interaction time maximizing the stage-1 conversion rate.

    Returns (tau_opt, eta).
    """
    pump = make_coherent_pump(pump_alpha, eps)
    pump_energy = _moments(_pair_amplitudes(pump))[0]
    if pump_energy == 0.0:
        raise ValueError("pump carries no energy")

    def objective(tau: float) -> float:
        return _moments(_pair_amplitudes(evolve(pump, tau)))[1] / pump_energy

    return _grid_then_golden(objective, window, coarse_points, tol)


def best_peak_index(values: np.ndarray) -> int:
    """Index of the best interior local maximum, else the global argmax.

    Objectives that tend to a trivial optimum at the window edge (the
    stage-2 overlap approaches 1 as tau -> 0, where nothing has been
    converted yet) would otherwise pin the search to the first grid
    point.  Ties keep the earliest index, biasing small tau.
    """
    interior = [
        i
        for i in range(1, len(values) - 1)
        if values[i] >= values[i - 1] and values[i] >= values[i + 1]
    ]
    if interior:
        return max(interior, key=lambda i: (values[i], -i))
    return int(np.argmax(values))


def fit_power_law(xs, ys) -> PowerLawFit:
    """Least-squares power law through (xs, ys) in log-log space."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("xs and ys must be 1-D arrays of equal length")
    if len(xs) < 3:
        raise ValueError("power-law fit needs at least 3 points")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise ValueError("power-law fit needs finite data")
    if np.any(xs <= 0.0) or np.any(ys <= 0.0):
        raise ValueError("power-law fit needs strictly positive data")
    lx = np.log(xs)
    ly = np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (intercept + slope * lx)
    return PowerLawFit(
        prefactor=float(np.exp(intercept)),
        exponent=float(slope),
        residual=float(np.sqrt(np.mean(resid**2))),
    )


def scaling_study(
    n_in_values,
    eps: float = 1e-10,
    phase_grid: int = 1024,
    window: tuple[float, float] = (0.0, 3.0),
    coarse_points: int = 64,
    tol: float = 1e-5,
) -> tuple[list[ScalingPoint], dict[str, PowerLawFit]]:
    """Optimal-time records across input energies, with power-law fits.

    For each mean input photon number the twin-beam amplitude is
    |chi|^2 = N / (N + 2) with real positive chi.  Returns the per-energy
    records and fits of tau_opt against input and output photon numbers.
    """
    n_in_values = [float(n_in) for n_in in n_in_values]
    if len(n_in_values) < 3 or not all(0.0 < n_in < math.inf for n_in in n_in_values):
        raise ValueError(f"scaling needs 3 or more finite, positive input photon numbers, got {n_in_values}")
    points: list[ScalingPoint] = []
    for n_in in n_in_values:
        chi = math.sqrt(n_in / (n_in + 2.0))
        tau_opt, _, amps, energy_in = _stage2_optimum(chi, eps, window, coarse_points, tol, phase_grid)
        overlap, lam, pur, delta_phi, n_out = _score_output(_rho_c(amps), phase_grid)
        points.append(
            ScalingPoint(
                n_in=n_in,
                n_out=n_out,
                tau_opt=tau_opt,
                overlap=overlap,
                eta=2.0 * n_out / energy_in,
                purity=pur,
                delta_phi=delta_phi,
                matched_lambda=lam,
            )
        )
    fits = {
        "tau_opt_vs_n_in": fit_power_law([p.n_in for p in points], [p.tau_opt for p in points]),
        "tau_opt_vs_n_out": fit_power_law([p.n_out for p in points], [p.tau_opt for p in points]),
    }
    return points, fits


def full_pipeline(pump_alpha: complex, tau1: float, tau2: float, eps: float = 1e-10) -> ReducedDensityMatrix:
    """Chain both stages and return the output-mode density matrix.

    Tracing the stage-1 pump leaves the pair density G = A^T A*, handed a
    fresh vacuum output mode.  Pair count r enters stage 2 as local index 0
    of block (2r, r); one evolution of all those gives B[n, p] (n output
    photons, p pairs left) and rho[n, n'] = sum_p G[p+n, p+n'] B[n, p] B*[n', p].
    """
    return _chain(pump_alpha, tau1, tau2, eps)[0]


def pipeline_record(
    pump_alpha: complex, tau1: float, tau2: float, eps: float = 1e-10, phase_grid: int = 1024
) -> SweepRecord:
    """The output of full_pipeline scored as one record at tau2.

    eta is twice the output photon number over the twin-beam energy that
    stage 1 delivers (NaN if it delivers none).  The signal and idler are
    traced out, so n_a and n_b are NaN.
    """
    rho, amps = _chain(pump_alpha, tau1, tau2, eps)
    energy_in = 2.0 * _moments(amps)[1]
    overlap, lam, pur, delta_phi, n_out = _score_output(rho, phase_grid)
    return SweepRecord(
        tau=float(tau2),
        overlap=overlap,
        eta=(2.0 * n_out / energy_in) if energy_in > 0.0 else float("nan"),
        purity=pur,
        delta_phi=delta_phi,
        n_a=float("nan"),
        n_b=float("nan"),
        n_c=n_out,
        lambda_or_chi=lam,
    )


def _chain(pump_alpha, tau1, tau2, eps) -> tuple[ReducedDensityMatrix, np.ndarray]:
    """The body of full_pipeline; also returns the stage-1 pair matrix."""
    for tau in (tau1, tau2):
        _check_tau_grid([tau])
    amps = _pair_amplitudes(evolve(make_coherent_pump(pump_alpha, eps), tau1))
    density = amps.T @ amps.conj()
    dim = len(amps)  # output support is bounded by the pair count
    unit_pairs = {BlockIndex(2 * r, r): np.eye(1, r + 1, dtype=complex)[0] for r in range(dim)}
    response = _pair_amplitudes(evolve(ThreeModeState(blocks=unit_pairs), tau2))
    rho = np.zeros((dim, dim), dtype=complex)
    for p in range(dim):  # p pairs left, so n <= dim - 1 - p
        col = response[: dim - p, p]
        rho[: dim - p, : dim - p] += density[p:, p:] * np.outer(col, col.conj())
    rho = 0.5 * (rho + rho.conj().T)
    return ReducedDensityMatrix(mode="c", matrix=rho), amps


def _pair_amplitudes(state: ThreeModeState) -> np.ndarray:
    """amps[n, k - n] = vec[n] over the blocks (2k, k) of a state with n_a = n_b.

    Rows count mode-c photons, columns the pairs in (a, b), both up to the largest k.
    """
    dim = state.mode_support()[0] + 1
    amps = np.zeros((dim, dim), dtype=complex)
    for (_, k), vec in state.blocks.items():
        n = np.arange(k + 1)
        amps[n, k - n] = vec
    return amps


def _moments(amps: np.ndarray) -> tuple[float, float]:
    """(n_c, n_a = n_b) of a pair matrix: sum |A[n, r]|^2 times n, and times r."""
    weights = np.abs(amps) ** 2
    occ = np.arange(len(amps))
    return float(occ @ weights.sum(axis=1)), float(weights.sum(axis=0) @ occ)


def _rho_c(amps: np.ndarray) -> ReducedDensityMatrix:
    """Mode-c density matrix A A^dag of a pair matrix (a and b traced out)."""
    return ReducedDensityMatrix("c", amps @ amps.conj().T)


def _score_output(rho: ReducedDensityMatrix, phase_grid: int) -> tuple[float, complex, float, float, float]:
    """Matched overlap, its lam, purity, delta_phi and mean photon number of a mode-c output."""
    overlap, lam = matched_pcs_overlap_rho(rho, phase_grid)
    n_out = float(np.real(np.diag(rho.matrix)) @ np.arange(rho.matrix.shape[0]))
    return overlap, lam, purity(rho), reciprocal_peak_likelihood(rho, phase_grid), n_out


def _stage2_optimum(chi, eps, window, coarse_points, tol, phase_grid):
    """The search of find_optimal_tau.

    Returns (tau_opt, overlap, pair matrix at tau_opt, twin-beam energy).
    The golden search evaluates tau_opt last, so its pair matrix is kept
    from that evaluation instead of being evolved again.
    """
    if chi == 0:
        raise ValueError("twin beam with chi = 0 carries no pairs to convert")
    beam = make_twin_beam(chi, eps)
    energy_in = 2.0 * _moments(_pair_amplitudes(beam))[1]
    last = {}

    def objective(tau: float) -> float:
        last["amps"] = _pair_amplitudes(evolve(beam, tau))
        return matched_pcs_overlap_rho(_rho_c(last["amps"]), phase_grid)[0]

    tau_opt, overlap = _grid_then_golden(objective, window, coarse_points, tol)
    return tau_opt, overlap, last["amps"], energy_in


def _check_tau_grid(tau_grid) -> np.ndarray:
    taus = np.asarray(tau_grid, dtype=float)
    if taus.ndim != 1 or len(taus) == 0:
        raise ValueError("tau grid must be a non-empty 1-D sequence")
    if not np.all(np.isfinite(taus)):
        raise ValueError("tau grid must be finite")
    if np.any(taus < 0.0):
        raise ValueError("tau grid must be non-negative")
    if len(taus) > 1 and np.any(np.diff(taus) <= 0.0):
        raise ValueError("tau grid must be strictly ascending")
    return taus


def _grid_then_golden(objective, window, coarse_points, tol) -> tuple[float, float]:
    lo, hi = window
    if not (0.0 <= lo < hi < math.inf):
        raise ValueError(f"window must satisfy 0 <= lo < hi < inf, got {window}")
    if coarse_points < 2:
        raise ValueError("coarse grid needs at least 2 points")
    if not (0.0 < tol < math.inf):
        raise ValueError(f"tolerance must be finite and positive, got {tol}")
    taus = lo + (hi - lo) * np.arange(1, coarse_points + 1) / coarse_points
    values = np.asarray([objective(tau) for tau in taus])
    best = best_peak_index(values)
    left = taus[best - 1] if best > 0 else (lo if lo > 0.0 else 0.5 * taus[0])
    right = taus[best + 1] if best < coarse_points - 1 else hi
    return _golden_max(objective, float(left), float(right), tol)


def _golden_max(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Golden-section maximization on [lo, hi]; ties prefer the left side."""
    a, b = lo, hi
    c = b - (b - a) * _INVPHI
    d = a + (b - a) * _INVPHI
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - (b - a) * _INVPHI
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + (b - a) * _INVPHI
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)
