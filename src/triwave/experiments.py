"""Two-stage conversion experiments and their scaling analysis.

Stage 1 drives down-conversion of vacuum by a coherent pump and compares
the result against the undepleted-pump twin beam.  Stage 2 drives a twin
beam back up into the output mode and scores it against the matched
phase-coherent reference.  The helpers here sweep the interaction time,
locate optimal times, fit power laws to the optima, and chain both stages
into a single mixed-state pipeline.  Every state evolved here keeps n_a = n_b,
so each output is read once, as the pair matrix A of sum A[q, r] |r, r, q>
(only the stage-1 coarse scan reads n_a block by block, by evolved_moments).
Every input is built at phase 0, at |alpha| or |chi|, and _pair_outputs takes
the real A_r out of each output: the pump's A is A_r diag((-i)^r) and the unit
pair's R is diag((-i)^q) R_r.  The input phase phi is one more diagonal factor,
e^{i phi (q + r)}, so it enters only where a figure depends on it: the
stage-2 lag sums and the pipeline's rho are turned by it exactly, and the
rest is scored in real arithmetic.  No twin beam is evolved: a beam is a_k
times the unit pair |k, k, 0> in each block, so _beam_outputs forms its A_r as
a_{q+r} R_r from the unit pair's R_r, for every sweep, coarse scan and Brent
step, and the pipeline's stage-2 response is R_r itself.  A pure stage-2
output is scored from A_r and its phase by _stage2_record, through the
functions the search maximizes; only the pipeline's mixed output is scored as
a mode-c density matrix, by pipeline_record.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from itertools import cycle, starmap
from operator import itemgetter

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .evolution import _real_pair_matrix, _unit_pair, check_time_domain, evolve, evolved_moments, pair_matrix
from .metrics import (_delta_phi, _pair_lag_sums, _pair_matched_overlap, matched_pcs_overlap_rho, purity,
                      reciprocal_peak_likelihood)
from .states import make_coherent_pump, make_twin_beam, predicted_twin_beam_param

_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))

# times per evolve in the coarse scans and the sweeps.  A chunk's evolved states are dropped before the next chunk
# is evolved, and each time's pair matrix goes to one consumer, which scores it and keeps no reference to it: no
# generator, loop variable or reused zip tuple holds it while the next is formed, so memory stays at a few states
_SCAN_CHUNK = 4

# the optimal-time searches: a coarse scan of (0, hi] on evenly spaced points, then Brent's method to _TOL
_STAGE1_HI, _STAGE1_POINTS = 1.5, 48
_STAGE2_HI, _STAGE2_POINTS = 3.0, 64
_TOL = 1e-5


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
    meaningful for the mode pair and is recorded as NaN.  Every field but
    chi is phase-invariant, so the pump is evolved at |alpha|.
    """
    pump = make_coherent_pump(modulus := _polar(pump_alpha)[0], eps)
    outputs = _pair_outputs(pump, tau_grid, 1)
    pump_energy = _input_energy(pair_matrix(pump))

    def one(tau: float, amps: np.ndarray) -> SweepRecord:
        n_c, n_pair = _moments(amps)
        chi = predicted_twin_beam_param(pump_alpha, tau)
        # sech(tau |alpha|), not sqrt(1 - |chi|^2), which cancels to 0 once tanh rounds to 1;
        # written with e^-x, it underflows to 0 where cosh would overflow (x > 710)
        x = tau * modulus
        sech = 2.0 * math.exp(-x) / (1.0 + math.exp(-2.0 * x))
        # chi^r = (-i)^r tanh^r e^{i r phi} meets A's phases, so this is the norm of A_r tanh^r sech, by fsum: at
        # tau = 0 it reads the input column's own norm; rounding can exceed 1 near tau = 0
        cols = amps @ (math.tanh(x) ** np.arange(len(amps)) * sech)
        overlap = min(1.0, math.sqrt(math.fsum(cols * cols)))
        # the purity of A equals the (a, b) purity
        return SweepRecord(tau=float(tau), overlap=overlap, eta=n_pair / pump_energy, purity=_pair_purity(amps),
                           delta_phi=math.nan, n_a=n_pair, n_b=n_pair, n_c=n_c, lambda_or_chi=chi)

    return list(starmap(one, outputs))


def stage2_sweep(chi: complex, tau_grid, eps: float = 1e-10) -> list[SweepRecord]:
    """Up-conversion sweep for a twin beam with pair amplitude chi."""
    (hankel,), (energy_in,), (phase,) = _beam_rows([chi], eps)
    return list(starmap(partial(_stage2_record, energy_in=energy_in, phase=phase), _beam_outputs([hankel], tau_grid)))


def find_optimal_tau(
    chi: complex, eps: float = 1e-10, coarse_points: int = _STAGE2_POINTS, tol: float = _TOL
) -> tuple[float, float, float]:
    """Interaction time maximizing the stage-2 matched overlap.

    A coarse scan of (0, 3] on coarse_points = 64 evenly spaced times brackets its best interior peak (the overlap
    tends to 1 trivially as tau -> 0, where a vacuum output matches a vacuum reference), then Brent's method narrows
    it below tol = 1e-5, a later evaluation that ties the best so far replacing it.  coarse_points and tol change
    the search and are kept only because perfbench/test_perfbench.py sets them.  Returns (tau_opt, overlap, eta) as
    stage2_sweep(chi, [tau_opt], eps) and scaling_study record them; the overlap is the maximum Brent's method found.
    """
    (record,) = _stage2_optima([chi], eps, coarse_points, tol)
    return record.tau, record.overlap, record.eta


def find_peak_conversion_tau(pump_alpha: complex, eps: float = 1e-10) -> tuple[float, float]:
    """Interaction time maximizing the stage-1 conversion rate.

    Searched as find_optimal_tau searches: 48 coarse times over (0, 1.5] read by evolved_moments, then Brent's method
    to tol = 1e-5 on pair matrices, ties to the later evaluation.  Returns (tau_opt, eta), as stage1_sweep records them.
    """
    pump = make_coherent_pump(_polar(pump_alpha)[0], eps)
    pump_energy = _input_energy(pair_matrix(pump))
    taus = _coarse_grid(_STAGE1_HI, _STAGE1_POINTS, _TOL)
    scan = evolved_moments(pump, taus)[1] / pump_energy
    tau_opt, eta, _ = _bracket_then_brent(lambda amps: _moments(amps)[1] / pump_energy,
                                          partial(_pair_outputs, pump, axis=1), taus, scan, _TOL)
    return tau_opt, eta


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
    if len(xs) < 3 or len(np.unique(xs)) < 2:
        raise ValueError("power-law fit needs at least 3 points, not all at the same x")
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


def scaling_study(n_in_values, eps: float = 1e-10) -> tuple[list[ScalingPoint], dict[str, PowerLawFit]]:
    """Optimal-time records across input energies, with power-law fits.

    For each mean input photon number the twin-beam amplitude is
    |chi|^2 = N / (N + 2) with real positive chi.  Returns the per-energy
    records and fits of tau_opt against input and output photon numbers.
    """
    n_in_values = [float(n_in) for n_in in n_in_values]
    if len(n_in_values) < 3 or len(set(n_in_values)) < 2 or not all(0.0 < n < math.inf for n in n_in_values):
        raise ValueError(f"scaling needs 3 or more finite, positive energies, not all equal, got {n_in_values}")
    chis = [math.sqrt(n_in / (n_in + 2.0)) for n_in in n_in_values]
    records = _stage2_optima(chis, eps)
    points = [ScalingPoint(n_in=n_in, n_out=rec.n_c, tau_opt=rec.tau, overlap=rec.overlap, eta=rec.eta,
                           purity=rec.purity, delta_phi=rec.delta_phi, matched_lambda=rec.lambda_or_chi)
              for n_in, rec in zip(n_in_values, records)]
    fits = {
        "tau_opt_vs_n_in": fit_power_law([p.n_in for p in points], [p.tau_opt for p in points]),
        "tau_opt_vs_n_out": fit_power_law([p.n_out for p in points], [p.tau_opt for p in points]),
    }
    return points, fits


def full_pipeline(pump_alpha: complex, tau1: float, tau2: float, eps: float = 1e-10) -> np.ndarray:
    """Chain both stages and return the output-mode density matrix.

    Tracing the stage-1 pump leaves the pair density G = A^T A*, handed a fresh vacuum output mode.
    Pair count r enters stage 2 as local index 0 of block (2r, r); one evolution of all those gives
    B[n, p] (n output photons, p pairs left) and rho[n, n'] = sum_p G[p+n, p+n'] B[n, p] B*[n', p].
    With the pump evolved at |alpha|, G and B are real up to diagonal phases, so rho is
    (-1)^(n - n') e^(i phi (n - n')) rho_r, phi the pump phase, and the real rho_r is summed one
    diagonal n' - n >= 0 at a time over the real B skewed in place and written over the real G:
    the working set is G, the skewed B and, once B is released, rho.
    """
    return _chain(pump_alpha, tau1, tau2, eps)[0]


def pipeline_record(pump_alpha: complex, tau1: float, tau2: float, eps: float = 1e-10) -> SweepRecord:
    """The output of full_pipeline scored as one record at tau2.

    eta is twice the output photon number over the pair energy stage 1 delivers.  An energy
    not above 1e8 dim^2 eps_mach^2, the rounding floor of its dim x dim pair matrix under the
    1e-8 exactness bar, is no pairs and raises ValueError (tau1 = 0 delivers exactly 0).
    The signal and idler are traced out, so n_a and n_b are NaN.
    """
    rho, energy_in = _chain(pump_alpha, tau1, tau2, eps)
    floor = 1e8 * (len(rho) * np.finfo(float).eps) ** 2
    if energy_in <= floor:
        raise ValueError(f"stage 1 delivers no pairs to convert: its pair energy {energy_in:.3g} "
                         f"is not above the rounding floor {floor:.3g}")
    overlap, lam = matched_pcs_overlap_rho(rho)
    n_out = float(np.real(np.diag(rho)) @ np.arange(len(rho)))
    return SweepRecord(tau=float(tau2), overlap=overlap, eta=2.0 * n_out / energy_in, purity=purity(rho),
                       delta_phi=reciprocal_peak_likelihood(rho), n_a=math.nan, n_b=math.nan, n_c=n_out,
                       lambda_or_chi=lam)


def _chain(pump_alpha, tau1, tau2, eps) -> tuple[np.ndarray, float]:
    """The body of full_pipeline, and the pair energy 2 n_a stage 1 delivers.  The pump goes once evolved, A_r once
    G_r = A_r^T A_r is formed and the skewed R_r once rho_r is summed.  rho_r's diagonal d is summed 64 rows at a time,
    each tile one fused real product in ascending r, and written over G_r's diagonal d, which no other diagonal reads.
    rho's diagonal d is rho_r's times the exact turn (-1)^d e^(-i phi d), and its strictly lower triangle is the upper
    one's conjugate."""
    modulus, phase = _polar(pump_alpha)
    pump = make_coherent_pump(modulus, eps)
    _check_tau_grid([tau2], pump)  # before stage 1 is evolved; the stage-2 pair counts reach the pump's
    ((_, amps),) = _pair_outputs(pump, [tau1], 1)
    del pump
    energy_in = 2.0 * _moments(amps)[1]
    density = amps.T @ amps  # G_r, real and symmetric: G[p, p'] = (-i e^(i phi))^(p - p') G_r[p, p']
    dim = len(amps)  # output support is bounded by the pair count
    del amps
    ((_, response),) = _unit_pair_outputs(dim, [tau2])  # |r, r, 0> for every r: B[n] = (-i)^n R_r[n]
    for n in range(1, dim):  # skewed: S[n, r] = R_r[n, r - n], block r's output, and 0 left of the diagonal
        response[n, n:] = response[n, : dim - n]
        response[n, :n] = 0.0
    tile = np.empty(64)
    for d in range(dim):  # rho_r[n, n + d] = sum_r S[n, r] S[n + d, r + d] G_r[r, r + d]
        diagonal = density.reshape(-1)[d : (dim - d) * (dim + 1) : dim + 1]  # G_r[r, r + d], a strided view
        for n in range(0, dim - d, 64):  # a tile reads G_r[r, r + d] from r = n on; the tiles before it wrote r < n
            m = min(64, dim - d - n)  # rows n .. n + m - 1
            np.einsum("nr,nr,r->n", response[n : n + m, n : dim - d], response[n + d : n + d + m, n + d :],
                      diagonal[n:], out=tile[:m])
            diagonal[n : n + m] = tile[:m]
    del response
    d = np.arange(dim)
    turn = (-1.0) ** d * np.exp(-1j * phase * d)  # B[n] conj(B[n']) G[.] leaves (-1)^d e^(-i phi d) on diagonal d
    rho = np.empty((dim, dim), dtype=complex)
    for n in range(dim):  # density holds rho_r's upper triangle now; rho is Hermitian
        np.multiply(density[n, n:], turn[: dim - n], out=rho[n, n:])
        np.conjugate(rho[n, n + 1 :], out=rho[n + 1 :, n])
    return rho, energy_in


def _input_energy(amps: np.ndarray) -> float:
    """Photons a pump or a twin beam brings in, n_c + n_a + n_b, from its pair matrix; ValueError if it has none."""
    n_c, n_pair = _moments(amps)
    if n_c + n_pair == 0.0:
        raise ValueError("the input state carries no photons to convert")
    return n_c + 2.0 * n_pair


def _moments(amps: np.ndarray) -> tuple[float, float]:
    """(n_c, n_a = n_b) of a pair matrix: sum |A[n, r]|^2 times n, and times r."""
    weights = np.abs(amps)
    weights *= weights  # squared in place: one temporary the size of A, not two
    occ = np.arange(len(amps))
    return float(occ @ weights.sum(axis=1)), float(weights.sum(axis=0) @ occ)


def _pair_purity(amps: np.ndarray) -> float:
    """Tr rho_c^2 of a pair matrix from its real A_r, over blocks of 32 rows of A_r A_r^T against the rows after them.

    rho_c = A A^dag is A_r A_r^T between diagonal phases, which leave its squared moduli as they are, and its purity
    is that of A_r^T A_r as well, so A_r^T may be passed.  The part right of each diagonal block counts twice, as rho_c
    is Hermitian.  The real rho_r is never whole: at pump 256 it would
    add 1 MiB per time to the four evolved times a sweep holds.
    """
    rows = (amps[i : i + 32] @ amps[i:].T for i in range(0, len(amps), 32))
    return float(sum(np.sum(w[:, :32] ** 2) + 2.0 * np.sum(w[:, 32:] ** 2) for w in rows))


def _stage2_record(tau, amps, energy_in, phase) -> SweepRecord:
    """The one scoring of a pure stage-2 output: its record at tau, read from A_r and the beam's phase as the search
    reads them.

    delta_phi is reciprocal_peak_likelihood's, read from the lag sums of A A^dag with unit weights.
    """
    n_out, n_pair = _moments(amps)
    overlap, lam = _pair_matched_overlap(amps, n_out, phase)
    # the purity of A_r^T, as a beam's output starts in row 0: at small tau each product sums over few rows
    return SweepRecord(tau=float(tau), overlap=overlap, eta=2.0 * n_out / energy_in, purity=_pair_purity(amps.T),
                       delta_phi=_delta_phi(_pair_lag_sums(amps, np.ones(len(amps)), phase)), n_a=n_pair, n_b=n_pair,
                       n_c=n_out, lambda_or_chi=lam)


def _stage2_optima(chis, eps, coarse_points=_STAGE2_POINTS, tol=_TOL) -> list[SweepRecord]:
    """The search of find_optimal_tau for each chi, every beam built and refused first: each _stage2_record at tau_opt.

    The beams share one _beam_outputs coarse scan, from the unit pair at the largest cut; each Brent step is one
    _beam_outputs time of its own beam, from the unit pair at that beam's cut, so the search holds no state.
    """
    hankels, energies, phases = _beam_rows(chis, eps)
    taus = _coarse_grid(_STAGE2_HI, coarse_points, tol)
    scores = list(map(_stage2_score, map(itemgetter(1), _beam_outputs(hankels, taus)), cycle(phases)))  # beam by beam
    scans = np.reshape(scores, (len(taus), len(chis))).T

    def optimum(hankel, scan, energy, phase) -> SweepRecord:  # a search holds no A of the one before
        tau, _, amps = _bracket_then_brent(partial(_stage2_score, phase=phase), partial(_beam_outputs, [hankel]), taus,
                                           scan, tol)
        return _stage2_record(tau, amps, energy, phase)

    return list(map(optimum, hankels, scans, energies, phases))


def _stage2_score(amps: np.ndarray, phase: float) -> float:
    """The matched overlap of a pair matrix from its real A_r and phase, rho_c never formed: the search's objective."""
    return _pair_matched_overlap(amps, _moments(amps)[0], phase)[0]


def _check_tau_grid(tau_grid, state) -> np.ndarray:
    """The times of tau_grid as an array, refused unless finite, ascending, >= 0 and inside state's time domain."""
    taus = np.asarray(tau_grid, dtype=float)
    if taus.ndim != 1 or len(taus) == 0:
        raise ValueError("tau grid must be a non-empty 1-D sequence")
    if not np.all(np.isfinite(taus)):
        raise ValueError("tau grid must be finite")
    if np.any(taus < 0.0):
        raise ValueError("tau grid must be non-negative")
    if len(taus) > 1 and np.any(np.diff(taus) <= 0.0):
        raise ValueError("tau grid must be strictly ascending")
    check_time_domain(state, taus[-1])
    return taus


def _beam_rows(chis, eps):
    """(a_{q+r}, energy, phase) of each twin beam, its row read once at |chi| and dropped: a_{q+r} a real Hankel view
    of that row, 0 past its cut, and phase the arg of chi, which turns the beam's A by e^{i phase (q + r)}."""
    def row(chi):
        modulus, phase = _polar(chi)
        a = pair_matrix(make_twin_beam(modulus, eps))
        return sliding_window_view(np.concatenate([a[0].real, np.zeros(len(a) - 1)]), len(a)), _input_energy(a), phase

    return zip(*map(row, chis))


def _polar(z) -> tuple[float, float]:
    """(|z|, arg z); |z| is inf, not an OverflowError, past the float range, so the input's own check refuses it."""
    return math.hypot(z.real, z.imag), math.atan2(z.imag, z.real)


def _beam_outputs(hankels, tau_grid):
    """(tau, A_r) at each time of tau_grid for each beam of hankels, its real a_{q+r} at |chi|: the one way to A_r.

    A beam is a_k times the unit pair |k, k, 0> in block (2k, k), so with R_r the unit pair's real pair matrix at the
    largest cut, A_r = a_{q+r} R_r bit for bit, as the 2 of propagate is exact.  The last A_r is formed in R_r if its
    cut is the largest, and R_r is released before the next time's R_r is formed.
    """
    top = max(map(len, hankels))
    for tau, response in _unit_pair_outputs(top, tau_grid):
        for e, hankel in enumerate(hankels, 1 - len(hankels)):
            dim = len(hankel)
            yield tau, np.multiply(response[:dim, :dim], hankel, out=response if e == 0 and dim == top else None)
        del response


def _unit_pair_outputs(dim, tau_grid):
    """_pair_outputs of the unit pair sum_{k < dim} |k, k, 0>: the stage-2 response R_r of _beam_outputs and _chain."""
    return _pair_outputs(_unit_pair(dim), tau_grid, 0)


def _pair_outputs(state, tau_grid, axis):
    """(tau, A_r) for each time of tau_grid, checked before any evolve: the one place experiments evolve, once per
    _SCAN_CHUNK times.  state is real, one entry per block at local index 0 (axis 0) or k (axis 1), and A_r is
    _real_pair_matrix's, yielded unbound, so its consumer holds the only reference; a chunk's states are dropped
    before the next chunk is evolved."""
    taus = _check_tau_grid(tau_grid, state)

    def outputs():
        for i in range(0, len(taus), _SCAN_CHUNK):
            states = evolve(state, taus[i : i + _SCAN_CHUNK])
            for j in range(len(states)):
                yield taus[i + j], _real_pair_matrix(pair_matrix(states[j]), axis)
            del states

    return outputs()


def _coarse_grid(hi, coarse_points, tol) -> np.ndarray:
    """The coarse_points times that split (0, hi] evenly, ending at hi; ValueError for a bad count or tol."""
    if not (float(coarse_points).is_integer() and coarse_points >= 2):
        raise ValueError(f"coarse grid needs a whole number of points, at least 2, got {coarse_points}")
    if not (0.0 < tol < math.inf):
        raise ValueError(f"tolerance must be finite and positive, got {tol}")
    return hi * np.arange(1, int(coarse_points) + 1) / int(coarse_points)


def _bracket_then_brent(score, outputs, taus, scan, tol) -> tuple[float, float, np.ndarray]:
    """Brent's method on score(A), A from outputs([tau]), around best_peak_index(scan) of taus: (tau_opt, score, A).

    The bracket runs from the neighbour before (half the first time at the first) to the one after (the last time).
    """
    best = best_peak_index(scan)
    left = taus[best - 1] if best > 0 else 0.5 * taus[0]
    right = taus[best + 1] if best < len(taus) - 1 else taus[-1]

    def evaluate(tau: float) -> tuple[float, np.ndarray]:
        ((_, amps),) = outputs([tau])
        return score(amps), amps

    return _brent_max(evaluate, float(left), float(right), tol)


def _brent_max(f, lo: float, hi: float, tol: float):
    """Brent's maximization of f(x) = (value, data) on [lo, hi]: (x, value, data) at the best point evaluated.

    scipy's minimize_scalar(-value, (lo, hi), method="bounded", options={"xatol": tol}) step for step (R. P.
    Brent, 1973, ch. 5).  A new point replaces the best if its value is >= the best's, so ties go to the
    later evaluation; only the best point's data is held.
    """
    a, b = lo, hi
    x = w = v = a + _GOLDEN * (b - a)  # the best point, the second best, the one before
    fx, data = f(x)
    fx = fw = fv = -fx
    d = e = 0.0  # the last step and the one before
    xm, tol1 = 0.5 * (a + b), math.sqrt(2.2e-16) * abs(x) + tol / 3.0  # scipy's sqrt(eps)
    while abs(x - xm) > 2.0 * tol1 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # a parabola through x, w, v
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            p, q = (-p if q > 0.0 else p), abs(q)
            r, e = e, d
            if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
                golden, d = False, p / q
                if x + d - a < 2.0 * tol1 or b - (x + d) < 2.0 * tol1:
                    d = tol1 if xm >= x else -tol1
        if golden:
            e = (a if x >= xm else b) - x
            d = _GOLDEN * e
        u = x + (-1.0 if d < 0.0 else 1.0) * max(abs(d), tol1)
        fu, new = f(u)
        fu = -fu
        if fu <= fx:
            a, b = (x, b) if u >= x else (a, x)
            v, fv, w, fw, x, fx, data = w, fw, x, fx, u, fu, new
        else:
            a, b = (u, b) if u < x else (a, u)
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
        del new
        xm, tol1 = 0.5 * (a + b), math.sqrt(2.2e-16) * abs(x) + tol / 3.0
    return x, -fx, data
