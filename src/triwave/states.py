"""Constructors for the input states of the two conversion stages."""
from __future__ import annotations

import cmath
import math

import numpy as np
from scipy.special import gammaln

from .blocks import BlockIndex
from .evolution import ThreeModeState

EPS_CEILING = 1e-4


def make_coherent_pump(alpha: complex, eps: float = 1e-10) -> ThreeModeState:
    """Vacuum signal and idler with a coherent pump, |0, 0, alpha>.

    The Poisson photon distribution of the pump is truncated at the
    smallest N whose tail probability falls below eps, then renormalized.
    Weights are evaluated through log-factorials so large pump energies
    stay finite.
    """
    _check_eps(eps)
    _check_finite("alpha", alpha)
    mu = abs(alpha) ** 2
    if mu == 0.0:
        return ThreeModeState(blocks={BlockIndex(0, 0): np.ones(1, dtype=complex)})
    hi = int(mu + 12.0 * math.sqrt(mu) + 30.0)
    while True:
        n = np.arange(hi + 1)
        weights = np.exp(-mu + n * math.log(mu) - gammaln(n + 1.0))
        tails = 1.0 - np.cumsum(weights)
        below = np.nonzero(tails < eps)[0]
        if below.size:
            cut = int(below[0])
            break
        hi = int(hi * 1.5) + 10
    n = n[: cut + 1]
    weights = weights[: cut + 1]
    kept = float(weights.sum())
    amps = np.sqrt(weights / kept) * np.exp(1j * n * np.angle(alpha))
    blocks: dict[BlockIndex, np.ndarray] = {}
    for m in n:
        vec = np.zeros(m + 1, dtype=complex)
        vec[m] = amps[m]
        blocks[BlockIndex(2 * int(m), int(m))] = vec
    return ThreeModeState(blocks=blocks, trunc_error=max(0.0, 1.0 - kept))


def make_twin_beam(chi: complex, eps: float = 1e-10) -> ThreeModeState:
    """Two-mode squeezed pair state sum chi^n |n, n, 0> with vacuum pump.

    Truncated at the smallest N with geometric tail below eps, then
    renormalized.
    """
    _check_eps(eps)
    _check_finite("chi", chi)
    q = abs(chi) ** 2
    if q >= 1.0:
        raise ValueError(f"twin-beam parameter must satisfy |chi| < 1, got |chi|={abs(chi)}")
    if q == 0.0:
        return ThreeModeState(blocks={BlockIndex(0, 0): np.ones(1, dtype=complex)})
    # tail after keeping n = 0..N is q^(N+1)
    cut = max(0, math.ceil(math.log(eps) / math.log(q)) - 1)
    n = np.arange(cut + 1)
    amps = np.sqrt(1.0 - q) * np.asarray(chi, dtype=complex) ** n
    kept = 1.0 - q ** (cut + 1)
    amps = amps / math.sqrt(kept)
    blocks: dict[BlockIndex, np.ndarray] = {}
    for m in n:
        vec = np.zeros(m + 1, dtype=complex)
        vec[0] = amps[m]
        blocks[BlockIndex(2 * int(m), int(m))] = vec
    return ThreeModeState(blocks=blocks, trunc_error=q ** (cut + 1))


def predicted_twin_beam_param(alpha: complex, tau: float) -> complex:
    """Twin-beam amplitude predicted by the undepleted-pump approximation.

    For pump |alpha> the pair amplitude after time tau is
    -i tanh(tau |alpha|) e^(i arg alpha); the modulus saturates below 1.
    """
    return -1j * math.tanh(tau * abs(alpha)) * complex(np.exp(1j * np.angle(alpha)))


def pcs_amplitudes(lam: complex, cutoff: int) -> np.ndarray:
    """Phase-coherent state amplitudes sqrt(1-|lam|^2) lam^n, n = 0..cutoff.

    Not renormalized after truncation; meant as a bra in overlap
    computations where components beyond the kept support contribute
    nothing.
    """
    _check_finite("lam", lam)
    if abs(lam) >= 1.0:
        raise ValueError(f"phase-coherent parameter must satisfy |lam| < 1, got {abs(lam)}")
    if cutoff < 0:
        raise ValueError("cutoff must be non-negative")
    n = np.arange(cutoff + 1)
    return np.sqrt(1.0 - abs(lam) ** 2) * np.asarray(lam, dtype=complex) ** n


def twin_beam_amplitudes(chi: complex, cutoff: int) -> np.ndarray:
    """Pair amplitudes sqrt(1-|chi|^2) chi^n of the ideal twin beam."""
    _check_finite("chi", chi)
    if abs(chi) >= 1.0:
        raise ValueError(f"twin-beam parameter must satisfy |chi| < 1, got {abs(chi)}")
    if cutoff < 0:
        raise ValueError("cutoff must be non-negative")
    n = np.arange(cutoff + 1)
    return np.sqrt(1.0 - abs(chi) ** 2) * np.asarray(chi, dtype=complex) ** n


def _check_eps(eps: float) -> None:
    if not (0.0 < eps <= EPS_CEILING):
        raise ValueError(f"eps must lie in (0, {EPS_CEILING}], got {eps}")


def _check_finite(name: str, value: complex) -> None:
    if not cmath.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
