"""Constructors for the input states of the two conversion stages."""
from __future__ import annotations

import cmath
import math

import numpy as np

from .evolution import _check_eigensystem_budget, _pair_eigensystem_bytes, pair_state

EPS_CEILING = 1e-4


def make_coherent_pump(alpha: complex, eps: float = 1e-10):
    """Vacuum signal and idler with a coherent pump, |0, 0, alpha>.

    The Poisson photon distribution of the pump is truncated at the
    smallest N whose tail probability P(n > N) falls below eps, then
    renormalized.  The tail is summed from far above N down, smallest
    terms first, so it stays accurate far below the rounding floor of
    1 - sum.  Weights are evaluated through log-factorials so large pump
    energies stay finite.
    """
    _check_eps(eps)
    _check_finite("alpha", alpha)
    try:  # |alpha|^2, or lgamma(top + 1) from |alpha|^2 ~ 2.6e305 on, passes the float range
        mu = abs(alpha) ** 2
        if mu == 0.0:
            return pair_state(np.ones((1, 1)))
        log_mu = math.log(mu)
        # above the mean the terms fall at least geometrically, so a top term
        # e^-50 below eps leaves an unsummed tail far below eps
        top = int(mu + 12.0 * math.sqrt(mu) + 30.0)
        while -mu + top * log_mu - math.lgamma(top + 1.0) > math.log(eps) - 50.0:
            top = int(top * 1.5) + 10
    except OverflowError:
        raise ValueError(f"alpha is too large for its Poisson weights in floats, got |alpha|={abs(alpha):.6g}") from None
    _check_eigensystem_budget(_pair_eigensystem_bytes(int(mu)))  # int(mu) <= the median <= the cut
    n = np.arange(top + 1)
    pmf = np.exp(-mu + n * log_mu - np.array([math.lgamma(m + 1.0) for m in range(top + 1)]))
    survival = np.cumsum(pmf[:0:-1])[::-1]  # survival[m] = P(n > m), summed from the top down
    cut = int(np.argmax(survival < eps))
    weights = pmf[: cut + 1]
    amps = np.sqrt(weights / weights.sum()) * np.exp(1j * n[: cut + 1] * np.angle(alpha))
    return pair_state(amps[:, None], trunc_error=float(survival[cut]))


def make_twin_beam(chi: complex, eps: float = 1e-10):
    """Two-mode squeezed pair state sum chi^n |n, n, 0> with vacuum pump.

    Truncated at the smallest N with geometric tail below eps, then
    renormalized by the computed norm of the kept amplitudes.
    """
    _check_eps(eps)
    _check_finite("chi", chi)
    q = abs(chi) ** 2 if max(abs(chi.real), abs(chi.imag)) < 1.0 else math.inf  # abs(chi) ** 2 overflows past 1e154
    if q >= 1.0:
        raise ValueError(f"twin-beam parameter must satisfy |chi| < 1, got |chi|={math.hypot(chi.real, chi.imag)}")
    if q == 0.0:
        return pair_state(np.ones((1, 1)))
    # tail after keeping n = 0..N is q^(N+1)
    cut = max(0, math.ceil(math.log(eps) / math.log(q)) - 1)
    _check_eigensystem_budget(_pair_eigensystem_bytes(cut))
    amps = twin_beam_amplitudes(chi, cut)
    return pair_state(amps[None, :] / np.sqrt(np.sum(np.abs(amps) ** 2)), trunc_error=q ** (cut + 1))


def predicted_twin_beam_param(alpha: complex, tau: float) -> complex:
    """Twin-beam amplitude predicted by the undepleted-pump approximation.

    For pump |alpha> the pair amplitude after time tau is
    -i tanh(tau |alpha|) e^(i arg alpha); the modulus saturates below 1.
    """
    return -1j * math.tanh(tau * abs(alpha)) * complex(np.exp(1j * np.angle(alpha)))


def twin_beam_amplitudes(chi: complex, cutoff: int) -> np.ndarray:
    """Pair amplitudes sqrt(1-|chi|^2) chi^n, n = 0..cutoff, of the ideal twin beam, not renormalized."""
    _check_finite("chi", chi)
    if (modulus := math.hypot(chi.real, chi.imag)) >= 1.0:  # abs(chi) overflows past the float range
        raise ValueError(f"twin-beam parameter must satisfy |chi| < 1, got {modulus}")
    if cutoff < 0:
        raise ValueError("cutoff must be non-negative")
    return np.sqrt(1.0 - abs(chi) ** 2) * np.asarray(chi, dtype=complex) ** np.arange(cutoff + 1)


def _check_eps(eps: float) -> None:
    if not (0.0 < eps <= EPS_CEILING):
        raise ValueError(f"eps must lie in (0, {EPS_CEILING}], got {eps}")


def _check_finite(name: str, value: complex) -> None:
    if not cmath.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
