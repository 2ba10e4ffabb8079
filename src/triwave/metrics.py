"""Figures of merit: overlaps, marginals, conversion rates, phase statistics.

Conventions used throughout:

* overlaps are amplitude-style, O = sqrt(<ref| rho_kept |ref>), so they live
  in [0, 1] alongside the conversion rates;
* a mode-c density matrix is a complex (n+1) x (n+1) numpy array over the
  Fock states 0..n;
* the canonical phase distribution of a single-mode density matrix is
  p(phi) = (2 pi)^-1 sum_{n,m} exp(i (n - m) phi) rho_nm, and the phase
  sensitivity is the reciprocal peak likelihood delta_phi = 1 / max p;
* the phase figures share one exact path: lag sums t_d = sum_m M[m + d, m]
  of the (weighted) mode-c density matrix, one FFT over the fixed 1024-point
  phase grid, and a parabolic refinement of the grid maximum.  For a pure
  output of the experiments the lag sums are read by _pair_lag_sums from the
  real A_r of its pair matrix A = e^{i phi (q + r)} (-i)^q A_r, phi the input
  phase, in real arithmetic, and then turned by the exact factor
  (-i e^{i phi})^d; M = A A^dag is never formed.
"""
from __future__ import annotations

import numpy as np

from .evolution import ThreeModeState

_MODE_AXIS = {"a": 0, "b": 1, "c": 2}

_PHASE_POINTS = 1024  # points of the one phase grid, theta_k = 2 pi k / 1024

_LAG_COLUMNS = 16  # columns per FFT block in _pair_lag_sums


def overlap_with_product(
    state: ThreeModeState,
    bra_a: np.ndarray | None = None,
    bra_b: np.ndarray | None = None,
    bra_c: np.ndarray | None = None,
    *,
    bra_ab: np.ndarray | None = None,
) -> float:
    """Overlap between a pure reference on the kept modes and the marginal.

    Each of bra_a, bra_b, bra_c is a 1-D amplitude vector, or None to sum
    that mode over its Fock basis (a partial trace).  bra_ab supplies a
    joint, possibly entangled, reference on the (a, b) pair instead of
    separate bra_a and bra_b; it is a 2-D array indexed [n_a, n_b].
    Returns sqrt(<ref| rho_kept |ref>) without materializing rho.
    Amplitudes beyond a bra's length contribute nothing.
    """
    if bra_ab is not None and (bra_a is not None or bra_b is not None):
        raise ValueError("bra_ab replaces bra_a and bra_b; do not pass both")

    n_a, n_b, n_c = state.occupations()
    weights = state.coefficients()
    if bra_ab is not None:
        weights *= _bra_factor("bra_ab", bra_ab, n_a, n_b)
        modes = [("bra_c", bra_c, n_c)]
    else:
        modes = [("bra_a", bra_a, n_a), ("bra_b", bra_b, n_b), ("bra_c", bra_c, n_c)]
    # a traced mode becomes a digit of the key that labels the surviving Fock states
    keys = np.zeros(len(weights), dtype=np.int64)
    for name, bra, occ in modes:
        if bra is None:
            keys = keys * (int(occ.max(initial=0)) + 1) + occ
        else:
            weights *= _bra_factor(name, bra, occ)
    uniq, inverse = np.unique(keys, return_inverse=True)
    sums = np.zeros(len(uniq), dtype=complex)
    np.add.at(sums, inverse, weights)
    return float(np.sqrt(max(0.0, float(np.sum(np.abs(sums) ** 2)))))


def reduce_mode_c(state: ThreeModeState) -> np.ndarray:
    """Partial trace over modes a and b: the pump-mode density matrix over n_c = 0 .. the state's mode-c support."""
    n_a, n_b, n_c = state.occupations()
    # amplitudes with rows over distinct (n_a, n_b) pairs, columns n_c; each Fock triple occurs once
    uniq, rows = np.unique(n_a * (int(n_b.max(initial=0)) + 1) + n_b, return_inverse=True)
    pair = np.zeros((len(uniq), int(n_c.max(initial=0)) + 1), dtype=complex)
    pair[rows, n_c] = state.coefficients()
    rho = pair.T @ pair.conj()
    return 0.5 * (rho + rho.conj().T)


def mean_photon(state: ThreeModeState, mode: str) -> float:
    """Mean occupation of one mode, 'a', 'b', or 'c'."""
    axis = _MODE_AXIS.get(mode)
    if axis is None:
        raise ValueError(f"mode must be one of 'a', 'b', 'c', got {mode!r}")
    return float(np.abs(state.coefficients()) ** 2 @ state.occupations()[axis])


def conversion_rate_down(state_out: ThreeModeState, pump_energy: float) -> float:
    """Fraction of pump energy converted to signal and idler photons."""
    if pump_energy <= 0.0:
        raise ValueError("pump energy must be positive")
    pairs = 0.5 * (mean_photon(state_out, "a") + mean_photon(state_out, "b"))
    return pairs / pump_energy


def conversion_rate_up(state_out: ThreeModeState, twin_beam_energy: float) -> float:
    """Fraction of twin-beam energy recombined into the output mode."""
    if twin_beam_energy <= 0.0:
        raise ValueError("twin-beam energy must be positive")
    return 2.0 * mean_photon(state_out, "c") / twin_beam_energy


def purity(rho: np.ndarray) -> float:
    """Tr rho^2 of a marginal."""
    return float(np.sum(np.abs(rho) ** 2))


def phase_distribution(rho: np.ndarray) -> np.ndarray:
    """Canonical phase distribution at the 1024 points phi_k = 2 pi k / 1024 of [0, 2 pi).

    Exact for any matrix dimension; the Riemann sum over the grid equals the
    trace whenever the dimension is at most 1024.
    """
    sums = _lag_sums(rho)
    return (float(sums[0].real) + _grid_profile(np.conj(sums))) / (2.0 * np.pi)


def reciprocal_peak_likelihood(rho: np.ndarray) -> float:
    """Phase sensitivity 1 / max p(phi), the grid maximum refined by a parabola through its two neighbours."""
    return _delta_phi(_lag_sums(rho))


def matched_pcs_overlap(state: ThreeModeState) -> tuple[float, complex]:
    """Best overlap of the output mode with an energy-matched phase-coherent state.

    Equal to matched_pcs_overlap_rho(reduce_mode_c(state)).
    """
    return matched_pcs_overlap_rho(reduce_mode_c(state))


def matched_pcs_overlap_rho(rho: np.ndarray) -> tuple[float, complex]:
    """Best overlap with a phase-coherent state matched to the output energy.

    The modulus of the reference parameter lam is fixed by the mean output
    photon number, |lam|^2 = N / (N + 1); its phase theta is taken at the
    maximum of the overlap over the 1024-point phase grid, refined
    quadratically, and the overlap is the exact cosine sum at that theta.
    Returns (overlap, lam).  For a vacuum output mode the profile is flat,
    so theta = 0 and lam = 0.
    """
    n_bar = float(np.real(np.diag(rho)) @ np.arange(len(rho)))
    mod, weights = _pcs_weights(n_bar, len(rho))
    weighted = weights[:, np.newaxis] * rho
    weighted *= weights  # in place: one matrix beside rho, not two
    return _matched_tail(_lag_sums(weighted), mod)


def _pair_matched_overlap(amps: np.ndarray, n_bar: float, phase: float) -> tuple[float, complex]:
    """matched_pcs_overlap_rho of rho = A A^dag, read from A's real A_r as _pair_lag_sums reads it, rho never formed.

    n_bar is the mean photon number of rho, which the caller has from A_r.
    """
    mod, weights = _pcs_weights(n_bar, len(amps))
    return _matched_tail(_pair_lag_sums(amps, weights, phase), mod)


def _pcs_weights(n_bar: float, dim: int) -> tuple[float, np.ndarray]:
    """|lam| = sqrt(n_bar / (n_bar + 1)) and the reference amplitudes sqrt(1 - |lam|^2) |lam|^n, n < dim."""
    mod = float(np.sqrt(n_bar / (1.0 + n_bar)))
    return mod, np.sqrt(1.0 - mod**2) * mod ** np.arange(dim)


def _matched_tail(sums: np.ndarray, mod: float) -> tuple[float, complex]:
    """(overlap, lam) of matched_pcs_overlap_rho from the lag sums of the weighted density matrix."""
    position, _ = _grid_peak(_grid_profile(sums))  # t_0 moves no peak
    theta = 2.0 * np.pi * position / _PHASE_POINTS
    d = np.arange(1, len(sums))
    value = float(sums[0].real) + float(2.0 * np.real(np.sum(sums[1:] * np.exp(-1j * d * theta))))
    overlap = float(np.sqrt(min(1.0, max(0.0, value))))
    return overlap, mod * complex(np.exp(1j * theta))


def _lag_sums(matrix: np.ndarray) -> np.ndarray:
    """t_d = sum_m matrix[m + d, m] for d = 0 .. dim - 1.

    matrix[m + d, m] sits at flat d dim + m (dim + 1), so each t_d sums one
    strided view of the flattened matrix: no triangle or padded copy is made.
    """
    dim = matrix.shape[0]
    flat = matrix.reshape(-1)
    return np.array([flat[d * dim :: dim + 1].sum() for d in range(dim)])


def _pair_lag_sums(amps: np.ndarray, weights: np.ndarray, phase: float) -> np.ndarray:
    """_lag_sums of M = (w A)(w A)^dag for the pair matrix A = e^{i phase (q + r)} (-i)^q A_r, read from the real A_r.

    A_r must be zero where q + r >= dim, so column j is zero below row dim - 1 - j.  The diagonal phases of A leave
    t_d = (-i e^{i phase})^d s_d, s_d = sum_r sum_m u[m + d, r] u[m, r] with the real u = w A_r, so each column adds
    its autocorrelation, the inverse real FFT of its power spectrum (Wiener-Khinchin).  The _LAG_COLUMNS columns from j
    share one real FFT of their dim - j rows, padded to the smallest power of 2 >= 2 (dim - j) - 1 so no lag wraps;
    the spectra of one length are summed, only the positive lags of each sum are added back, and the real s_d are
    turned once, by (-i)^d from an exact table, so phase 0 turns them exactly.
    """
    dim = amps.shape[0]
    powers: dict[int, np.ndarray] = {}
    for j in range(0, amps.shape[1], _LAG_COLUMNS):
        rows = dim - j
        size = 1 << (2 * rows - 2).bit_length()
        spectra = np.fft.rfft(weights[:rows, np.newaxis] * amps[:rows, j : j + _LAG_COLUMNS], size, axis=0)
        power = powers.setdefault(size, np.zeros(size // 2 + 1))
        power += np.einsum("ij,ij->i", spectra.view(float), spectra.view(float))
    sums = np.zeros(dim)
    for size, power in powers.items():
        lags = np.fft.irfft(power, size)[: (size + 1) // 2][:dim]  # a 1-point FFT holds lag 0 only
        sums[: len(lags)] += lags
    d = np.arange(dim)
    return sums * np.array([1.0, -1j, -1.0, 1j])[d % 4] * np.exp(1j * phase * d)


def _delta_phi(sums: np.ndarray) -> float:
    """1 / max p of the phase distribution of a density matrix with lag sums t_d; ValueError without a positive peak."""
    _, peak = _grid_peak(_grid_profile(np.conj(sums)))
    peak = (float(sums[0].real) + peak) / (2.0 * np.pi)
    if peak <= 0.0:
        raise ValueError("phase distribution has no positive peak")
    return 1.0 / peak


def _grid_profile(sums: np.ndarray) -> np.ndarray:
    """2 Re sum_{d>=1} t_d exp(-i d theta_k) on the phase grid theta_k = 2 pi k / 1024: the profile less t_0.

    The lag d enters only through d mod 1024, so the lags are folded into
    those bins and one FFT evaluates the sum exactly for any number of lags.
    The constant t_0 is left out, so a peak is placed without its rounding.
    """
    lags = np.zeros(-(-len(sums) // _PHASE_POINTS) * _PHASE_POINTS, dtype=complex)
    lags[1 : len(sums)] = sums[1:]
    return 2.0 * np.fft.fft(lags.reshape(-1, _PHASE_POINTS).sum(axis=0)).real


def _grid_peak(profile: np.ndarray) -> tuple[float, float]:
    """Refined (position in grid steps, value) of the maximum of a periodic profile.

    A parabola through the best sample and its two neighbours moves the peak by at most half a step either way;
    degenerate curvature keeps the best sample.
    """
    best = int(np.argmax(profile))
    left, centre, right = (float(profile[(best + i) % len(profile)]) for i in (-1, 0, 1))
    denom = left - 2.0 * centre + right
    if denom >= 0.0:
        return best + 0.0, centre
    shift = float(np.clip(0.5 * (left - right) / denom, -0.5, 0.5))
    return best + shift, centre - 0.25 * (left - right) * shift


def _bra_factor(name: str, bra: np.ndarray, *idx: np.ndarray) -> np.ndarray:
    """conj(bra[idx]) for one index array per axis of bra, and 0 where an index lies beyond it."""
    bra = np.asarray(bra, dtype=complex)
    if bra.ndim != len(idx):  # one axis per mode the bra scores
        raise ValueError(f"{name} must be a {len(idx)}-D array of amplitudes, got {bra.ndim}-D")
    out = np.zeros(idx[0].shape, dtype=complex)
    mask = np.logical_and.reduce([i < size for i, size in zip(idx, bra.shape)])
    out[mask] = np.conj(bra[tuple(i[mask] for i in idx)])
    return out
