"""Input state constructors and the parametric-limit prediction."""
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln
from scipy.stats import poisson

import triwave.blocks
import triwave.states
from triwave import (
    FockTriple,
    ThreeModeState,
    evolve,
    make_coherent_pump,
    make_twin_beam,
    mean_photon,
    overlap_with_product,
    predicted_twin_beam_param,
    stage1_sweep,
    twin_beam_amplitudes,
)
from triwave.evolution import _pair_eigensystem_bytes


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
    # eps below the ~1e-16 rounding floor of 1 - cumsum(weights) needs the survival function itself
    for eps in (1e-10, 1e-17, 1e-300):
        for mu in (0.5, 9.0, 81.0, 300.0):
            state = make_coherent_pump(math.sqrt(mu), eps=eps)
            cut = max(index.k for index in state.blocks)
            assert poisson.sf(cut, mu) < eps, (mu, eps)
            assert poisson.sf(cut - 1, mu) >= eps, (mu, eps)  # the smallest such cut
            assert state.trunc_error == pytest.approx(poisson.sf(cut, mu), rel=1e-9)
            assert state.trunc_error < eps


@settings(max_examples=200, deadline=None)
@given(mu=st.floats(0.0, 1000.0, exclude_min=True), log_eps=st.floats(-300.0, -4.0))
def test_coherent_pump_truncation_matches_poisson_survival(mu, log_eps):
    # the tail summed from the top against scipy's survival function
    eps = 10.0**log_eps
    alpha = math.sqrt(mu)
    mu = abs(alpha) ** 2  # the energy the constructor sees
    state = make_coherent_pump(alpha, eps=eps)
    cut = len(state.blocks) - 1
    assert poisson.sf(cut, mu) < eps
    assert cut == 0 or poisson.sf(cut - 1, mu) >= eps  # the smallest such cut
    # scipy flushes a subnormal survival to 0 (P(n > 0) = 2.2e-311 at mu = 2.2e-311 reads 0)
    assert state.trunc_error == pytest.approx(poisson.sf(cut, mu), rel=1e-9, abs=sys.float_info.min)


@pytest.mark.parametrize("alpha, eps", [(0.3, 1e-10), (1.5, 1e-17), (3.0 * np.exp(1j), 1e-10)])
def test_coherent_pump_weights_match_log_factorial_formula(alpha, eps):
    # within 1e-13 only for small pumps: above |alpha| ~ 3 the log-space terms
    # -mu + n log mu - log n! themselves round at 1e-13
    state = make_coherent_pump(alpha, eps)
    mu = abs(alpha) ** 2
    n = np.arange(len(state.blocks))
    expected = np.exp(-mu + n * math.log(mu) - gammaln(n + 1.0))
    kept = np.array([abs(state.amplitude(FockTriple(0, 0, m))) ** 2 for m in n])
    assert kept == pytest.approx(expected / expected.sum(), rel=1e-13, abs=0.0)


def test_coherent_pump_zero_is_vacuum():
    state = make_coherent_pump(0.0)
    assert list(state.blocks) == [(0, 0)]
    assert state.amplitude(FockTriple(0, 0, 0)) == 1.0
    assert state.trunc_error == 0.0


@pytest.mark.parametrize("alpha, eps", [(1.5, 1e-10), (9.0 * np.exp(0.3j), 1e-10), (0.3, 1e-6)])
def test_coherent_pump_blocks_match_fock_construction(alpha, eps):
    # one block (2m, m) per pump count m, ascending, holding the amplitude at local index m
    state = make_coherent_pump(alpha, eps)
    mu = abs(alpha) ** 2
    cut = len(state.blocks) - 1
    n = np.arange(cut + 1)
    weights = np.exp(-mu + n * math.log(mu) - np.array([math.lgamma(m + 1.0) for m in n]))
    amps = np.sqrt(weights / weights.sum()) * np.exp(1j * n * np.angle(alpha))
    expected = ThreeModeState.from_fock_dict({(0, 0, m): amps[m] for m in n}, normalize=False)
    assert list(state.blocks) == list(expected.blocks)
    assert all(np.array_equal(state.blocks[i], expected.blocks[i]) for i in expected.blocks)


@pytest.mark.parametrize("chi, eps", [(0.6, 1e-10), (math.sqrt(54.0 / 56.0), 1e-8), (0.5j, 1e-6)])
def test_twin_beam_blocks_match_fock_construction(chi, eps):
    # one block (2m, m) per pair count m, ascending, holding the amplitude at local index 0
    state = make_twin_beam(chi, eps)
    q = abs(chi) ** 2
    cut = len(state.blocks) - 1
    amps = np.sqrt(1.0 - q) * np.asarray(chi, dtype=complex) ** np.arange(cut + 1)
    amps /= np.sqrt(np.sum(np.abs(amps) ** 2))
    expected = ThreeModeState.from_fock_dict(
        {(m, m, 0): amps[m] for m in range(cut + 1)}, normalize=False, trunc_error=q ** (cut + 1)
    )
    assert list(state.blocks) == list(expected.blocks)
    assert all(np.array_equal(state.blocks[i], expected.blocks[i]) for i in expected.blocks)
    assert state.trunc_error == expected.trunc_error


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
    # past 1e154, abs(chi) ** 2 raised OverflowError, and so did abs of a complex chi past the float range
    for chi in (1e300, complex(1e308, 1e308)):
        with pytest.raises(ValueError, match="must satisfy"):
            make_twin_beam(chi)
        with pytest.raises(ValueError, match="must satisfy"):
            twin_beam_amplitudes(chi, 4)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: make_coherent_pump(math.inf), "alpha"),
        (lambda: stage1_sweep(math.inf, [0.1]), "alpha"),
        (lambda: make_coherent_pump(math.nan), "alpha"),
        (lambda: make_twin_beam(math.nan), "chi"),
        # abs(nan) >= 1 is false, so only the finiteness check stops a NaN
        (lambda: twin_beam_amplitudes(complex(math.nan, 0.0), 2), "chi"),
        (lambda: twin_beam_amplitudes(math.inf, 2), "chi"),
    ],
    ids=["pump-inf", "stage1-inf", "pump-nan", "twin-beam-nan", "twin-beam-amplitudes-nan", "twin-beam-amplitudes-inf"],
)
def test_constructors_reject_non_finite_amplitude(call, name):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        call()


@pytest.mark.parametrize("energy", [1e306, 3e306, 1e307, 1.7e308])
def test_coherent_pump_refuses_weights_past_the_float_range(energy):
    # from |alpha|^2 ~ 2.6e305 on, lgamma overflows in the tail search, before any array is allocated
    with pytest.raises(ValueError, match="alpha is too large"):
        make_coherent_pump(math.sqrt(energy))


def test_twin_beam_amplitudes_refuses_a_negative_cutoff():
    with pytest.raises(ValueError, match="cutoff must be non-negative"):
        twin_beam_amplitudes(0.5, -1)


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


def test_twin_beam_amplitudes_geometric():
    chi = 0.7j
    amps = twin_beam_amplitudes(chi, 4)
    assert abs(amps[0] - math.sqrt(1 - 0.49)) < 1e-14
    assert np.allclose(amps, amps[0] * chi ** np.arange(5), atol=1e-14)


@pytest.mark.parametrize("func", [twin_beam_amplitudes])
def test_geometric_amplitudes_reject_unit_modulus(func):
    with pytest.raises(ValueError):
        func(1.0, 4)


@pytest.mark.parametrize("top", [0, 1, 2, 3, 10, 57, 506])
def test_pair_eigensystem_bytes_is_the_sum_over_blocks(top):
    # block (2k, k) has dimension d = k + 1 and keeps d ceil(d/2) float64 numbers
    assert _pair_eigensystem_bytes(top) == 8 * sum(d * ((d + 1) // 2) for d in range(1, top + 2))


@pytest.mark.parametrize(
    "make, top",
    [
        (lambda: make_twin_beam(math.sqrt(54.0 / 56.0), eps=1e-8), 506),  # the cut itself
        (lambda: make_coherent_pump(math.sqrt(200.0)), 200),  # int(mu), at most the cut
    ],
    ids=["twin-beam", "pump"],
)
def test_constructors_refuse_inputs_over_the_eigensystem_budget(monkeypatch, make, top):
    # the footprint comes from the input's parameters, before any array exists
    monkeypatch.setattr(triwave.blocks, "_EIG_BUDGET_BYTES", _pair_eigensystem_bytes(top))
    make()  # exactly at the budget

    def refuse(*args, **kwargs):
        pytest.fail("allocated the state")

    monkeypatch.setattr(triwave.blocks, "_EIG_BUDGET_BYTES", _pair_eigensystem_bytes(top) - 1)
    monkeypatch.setattr(triwave.states, "pair_state", refuse)
    monkeypatch.setattr(triwave.states, "twin_beam_amplitudes", refuse)
    with pytest.raises(ValueError, match=r"need 0\.\d+ GiB, over the budget of 0\.\d+ GiB"):
        make()


def test_eigensystem_budget_admits_n_in_100_and_pump_1000_and_refuses_n_in_200():
    # 1.0 GiB at N_in = 100 (K = 930) and 2.2 GiB at pump 1000 (K = 1208), against 7.9 GiB at N_in = 200 (K = 1851)
    assert len(make_twin_beam(math.sqrt(100.0 / 102.0), eps=1e-8).blocks) == 931
    assert len(make_coherent_pump(math.sqrt(1000.0)).blocks) == 1209
    with pytest.raises(ValueError, match="need 7.9 GiB, over the budget of 4 GiB"):
        make_twin_beam(math.sqrt(200.0 / 202.0), eps=1e-8)
