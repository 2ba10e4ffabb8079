"""Input state constructors and the parametric-limit prediction."""
import math

import numpy as np
import pytest
from scipy.stats import poisson

from triwave import (
    FockTriple,
    evolve,
    make_coherent_pump,
    make_twin_beam,
    mean_photon,
    overlap_with_product,
    pcs_amplitudes,
    predicted_twin_beam_param,
    stage1_sweep,
    twin_beam_amplitudes,
)


def test_coherent_pump_poisson_amplitudes():
    alpha = 2.0
    state = make_coherent_pump(alpha)
    # kept amplitudes match the Poisson profile; renormalization is tiny
    for n in range(6):
        expected = math.exp(-abs(alpha) ** 2 / 2) * alpha**n / math.sqrt(math.factorial(n))
        assert abs(state.amplitude(FockTriple(0, 0, n)) - expected) < 1e-10


def test_coherent_pump_structure():
    state = make_coherent_pump(1.5)
    assert abs(state.norm() - 1.0) < 1e-13
    for index, vec in state.blocks.items():
        m = index.k
        assert index.s == 2 * m
        nonzero = np.flatnonzero(np.abs(vec) > 0)
        assert np.array_equal(nonzero, [m])


def test_coherent_pump_tail_below_eps():
    mu = 9.0
    eps = 1e-10
    state = make_coherent_pump(3.0, eps=eps)
    cut = max(index.k for index in state.blocks)
    assert poisson.sf(cut, mu) < eps
    assert state.trunc_error < eps


def test_coherent_pump_phase():
    alpha = 1.2 * np.exp(0.8j)
    state = make_coherent_pump(alpha)
    a1 = state.amplitude(FockTriple(0, 0, 1))
    a2 = state.amplitude(FockTriple(0, 0, 2))
    assert abs(np.angle(a1) - 0.8) < 1e-12
    assert abs(np.angle(a2) - 1.6) < 1e-12


def test_coherent_pump_mean_energy():
    state = make_coherent_pump(3.0)
    assert abs(mean_photon(state, "c") - 9.0) < 1e-8
    assert mean_photon(state, "a") == 0.0
    assert mean_photon(state, "b") == 0.0


def test_twin_beam_geometric_amplitudes():
    chi = 0.6
    state = make_twin_beam(chi)
    ratio = state.amplitude(FockTriple(3, 3, 0)) / state.amplitude(FockTriple(2, 2, 0))
    assert abs(ratio - chi) < 1e-12
    assert abs(state.norm() - 1.0) < 1e-13


def test_twin_beam_energy_and_tail():
    chi = math.sqrt(0.5)
    state = make_twin_beam(chi, eps=1e-10)
    # N_in = 2 q / (1 - q) at q = 1/2
    total = mean_photon(state, "a") + mean_photon(state, "b")
    assert abs(total - 2.0) < 1e-7
    assert abs(mean_photon(state, "a") - mean_photon(state, "b")) < 1e-12
    cut = max(index.k for index in state.blocks)
    assert state.trunc_error == pytest.approx(abs(chi) ** (2 * (cut + 1)))
    assert state.trunc_error < 1e-10


def test_twin_beam_rejects_unphysical_param():
    with pytest.raises(ValueError):
        make_twin_beam(1.0)
    with pytest.raises(ValueError):
        make_twin_beam(1.2j)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: make_coherent_pump(math.inf), "alpha"),
        (lambda: stage1_sweep(math.inf, [0.1]), "alpha"),
        (lambda: make_coherent_pump(math.nan), "alpha"),
        (lambda: make_twin_beam(math.nan), "chi"),
        # abs(nan) >= 1 is false, so only the finiteness check stops a NaN
        (lambda: pcs_amplitudes(math.nan, 2), "lam"),
        (lambda: twin_beam_amplitudes(complex(math.nan, 0.0), 2), "chi"),
        (lambda: pcs_amplitudes(math.inf, 2), "lam"),
        (lambda: twin_beam_amplitudes(math.inf, 2), "chi"),
    ],
    ids=["pump-inf", "stage1-inf", "pump-nan", "twin-beam-nan",
         "pcs-amplitudes-nan", "twin-beam-amplitudes-nan", "pcs-amplitudes-inf", "twin-beam-amplitudes-inf"],
)
def test_constructors_reject_non_finite_amplitude(call, name):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        call()


def test_twin_beam_zero_is_vacuum():
    state = make_twin_beam(0.0)
    assert abs(state.amplitude(FockTriple(0, 0, 0)) - 1.0) < 1e-14
    assert state.mode_support() == (0, 0, 0)


@pytest.mark.parametrize("eps", [0.0, -1e-9, 1e-3])
def test_eps_validation(eps):
    with pytest.raises(ValueError):
        make_coherent_pump(1.0, eps=eps)
    with pytest.raises(ValueError):
        make_twin_beam(0.5, eps=eps)


def test_predicted_twin_beam_param_values():
    assert predicted_twin_beam_param(2.0, 0.0) == 0.0
    got = predicted_twin_beam_param(2.0, 0.3)
    assert abs(got - (-1j) * math.tanh(0.6)) < 1e-12
    rotated = predicted_twin_beam_param(2.0 * np.exp(1j * math.pi / 3), 0.3)
    assert abs(rotated - got * np.exp(1j * math.pi / 3)) < 1e-12


def test_predicted_param_matches_dynamics_at_strong_pump():
    # parametric regime: strong pump, short time
    alpha = 9.0
    tau = 0.2 / alpha
    out = evolve(make_coherent_pump(alpha), tau)
    chi = predicted_twin_beam_param(alpha, tau)
    na_max, nb_max, _ = out.mode_support()
    bra = np.diag(twin_beam_amplitudes(chi, min(na_max, nb_max)))
    overlap = overlap_with_product(out, bra_ab=bra)
    assert overlap > 0.999
    # the conjugate-phase prediction is clearly wrong, so the sign matters
    bra_wrong = np.diag(twin_beam_amplitudes(np.conj(chi), min(na_max, nb_max)))
    assert overlap_with_product(out, bra_ab=bra_wrong) < overlap - 1e-4


def test_pcs_amplitudes_geometric():
    lam = 0.5 * np.exp(0.4j)
    amps = pcs_amplitudes(lam, 5)
    assert amps.shape == (6,)
    assert abs(amps[0] - math.sqrt(1 - 0.25)) < 1e-14
    assert np.allclose(amps, amps[0] * lam ** np.arange(6), atol=1e-14)


def test_twin_beam_amplitudes_geometric():
    chi = 0.7j
    amps = twin_beam_amplitudes(chi, 4)
    assert abs(amps[0] - math.sqrt(1 - 0.49)) < 1e-14
    assert np.allclose(amps, amps[0] * chi ** np.arange(5), atol=1e-14)


@pytest.mark.parametrize("func", [pcs_amplitudes, twin_beam_amplitudes])
def test_geometric_amplitudes_reject_unit_modulus(func):
    with pytest.raises(ValueError):
        func(1.0, 4)
