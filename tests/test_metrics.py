"""Overlaps, reduced density matrices, and phase figures of merit."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import check_density_matrix, is_complex_matrix
from triwave import (
    ThreeModeState,
    conversion_rate_down,
    conversion_rate_up,
    evolve,
    make_twin_beam,
    matched_pcs_overlap,
    matched_pcs_overlap_rho,
    mean_photon,
    overlap_with_product,
    phase_distribution,
    purity,
    reciprocal_peak_likelihood,
    reduce_mode_c,
)
from triwave.evolution import pair_matrix
from triwave.metrics import _lag_sums, _pair_lag_sums


def pcs_density(lam, cutoff=160):
    vec = lam ** np.arange(cutoff + 1)
    vec = vec / np.linalg.norm(vec)
    return np.outer(vec, vec.conj())


def pcs_bra(lam, cutoff):
    """Phase-coherent amplitudes sqrt(1 - |lam|^2) lam^n, n = 0..cutoff, written out independently."""
    return math.sqrt(1.0 - abs(lam) ** 2) * complex(lam) ** np.arange(cutoff + 1)


def bell_like_state():
    return ThreeModeState.from_fock_dict({(1, 1, 0): 1.0, (0, 0, 1): 1.0})


def wide_mode_c_state():
    """Mixed mode-c marginal with 1500 Fock components, more than the 1024-point phase grid.

    Both branches fill every n_c, so the marginal has odd lags: its phase profile is not pi-periodic,
    and its maximum is one peak, not two equal ones pi apart.
    """
    n = np.arange(1500)
    amps = 0.998**n * np.exp(1j * (0.4 * n + 0.3 * np.sin(n)))
    fock = {(0, 0, k): a for k, a in zip(n.tolist(), amps)}
    fock.update({(1, 1, k): 0.5 * a * np.exp(0.7j * k) for k, a in zip(n.tolist(), amps)})
    return ThreeModeState.from_fock_dict(fock)


def test_overlap_single_mode_bra():
    state = bell_like_state()
    # projecting mode a on vacuum keeps only the converted branch
    assert abs(overlap_with_product(state, bra_a=np.array([1.0, 0.0])) - 1 / math.sqrt(2)) < 1e-12
    assert abs(overlap_with_product(state, bra_c=np.array([0.0, 1.0])) - 1 / math.sqrt(2)) < 1e-12


def test_overlap_full_product_bra():
    state = ThreeModeState.from_fock_dict({(0, 0, 1): 1.0j})
    value = overlap_with_product(
        state,
        bra_a=np.array([1.0]),
        bra_b=np.array([1.0]),
        bra_c=np.array([0.0, 1.0]),
    )
    assert abs(value - 1.0) < 1e-14


def test_overlap_short_bra_treated_as_zero_padded():
    state = bell_like_state()
    # reference with no single-photon component misses half the state
    assert abs(overlap_with_product(state, bra_c=np.array([1.0])) - 1 / math.sqrt(2)) < 1e-12
    # a joint reference is padded along each axis on its own
    pair = ThreeModeState.from_fock_dict({(2, 0, 0): 0.6, (0, 2, 0): 0.8})
    assert abs(overlap_with_product(pair, bra_ab=np.ones((3, 1))) - 0.6) < 1e-12
    assert abs(overlap_with_product(pair, bra_ab=np.ones((1, 3))) - 0.8) < 1e-12


def test_overlap_joint_pair_bra():
    state = bell_like_state()
    bra_ab = np.zeros((2, 2))
    bra_ab[1, 1] = 1.0
    assert abs(overlap_with_product(state, bra_ab=bra_ab) - 1 / math.sqrt(2)) < 1e-12


def test_overlap_joint_bra_excludes_per_mode_bras():
    state = bell_like_state()
    with pytest.raises(ValueError):
        overlap_with_product(state, bra_a=np.array([1.0]), bra_ab=np.eye(2))


@pytest.mark.parametrize("name", ["bra_a", "bra_b", "bra_c", "bra_ab"])
@pytest.mark.parametrize("rank", ["fewer", "more"])
def test_overlap_refuses_a_bra_with_the_wrong_number_of_axes(name, rank):
    # each single-mode bra is 1-D and bra_ab is 2-D; a 0-D or 2-D single-mode bra raised TypeError or IndexError
    axes = 2 if name == "bra_ab" else 1
    bra = np.ones((2,) * (axes - 1 if rank == "fewer" else axes + 1))
    with pytest.raises(ValueError, match=f"{name} must be a {axes}-D array"):
        overlap_with_product(bell_like_state(), **{name: bra})


def test_overlap_no_bra_is_norm():
    state = ThreeModeState.from_fock_dict({(1, 0, 0): 0.6, (0, 1, 0): 0.8}, normalize=False)
    assert abs(overlap_with_product(state) - 1.0) < 1e-14


def test_reduce_mode_c_entangled():
    rho = reduce_mode_c(bell_like_state())
    assert is_complex_matrix(rho) and rho.shape == (2, 2)
    assert np.allclose(rho, np.diag([0.5, 0.5]), atol=1e-14)
    check_density_matrix(rho)
    assert abs(purity(rho) - 0.5) < 1e-13


def test_reduce_mode_c_product():
    state = ThreeModeState.from_fock_dict({(0, 0, 0): 1.0, (0, 0, 1): 1.0})
    rho = reduce_mode_c(state)
    assert is_complex_matrix(rho)
    assert np.allclose(rho, 0.5 * np.ones((2, 2)), atol=1e-14)
    assert abs(purity(rho) - 1.0) < 1e-13


def test_validate_rejects_bad_matrices():
    with pytest.raises(ValueError):
        check_density_matrix(np.array([[0.5, 0.1], [0.3, 0.5]]))
    with pytest.raises(ValueError):
        check_density_matrix(np.diag([0.7, 0.7]))
    with pytest.raises(ValueError):
        check_density_matrix(np.array([[1.5, 0.0], [0.0, -0.5]]))


def test_mean_photon_values():
    state = ThreeModeState.from_fock_dict({(2, 1, 3): 1.0})
    assert mean_photon(state, "a") == 2.0
    assert mean_photon(state, "b") == 1.0
    assert mean_photon(state, "c") == 3.0
    with pytest.raises(ValueError):
        mean_photon(state, "d")


def test_conversion_rates():
    state = ThreeModeState.from_fock_dict({(1, 1, 0): 1.0})
    assert abs(conversion_rate_down(state, pump_energy=1.0) - 1.0) < 1e-14
    converted = ThreeModeState.from_fock_dict({(0, 0, 1): 1.0})
    assert abs(conversion_rate_up(converted, twin_beam_energy=2.0) - 1.0) < 1e-14


@pytest.mark.parametrize("energy", [0.0, -1.0, -math.inf])
def test_conversion_rates_refuse_an_energy_not_above_zero(energy):
    state = ThreeModeState.from_fock_dict({(1, 1, 0): 1.0})
    with pytest.raises(ValueError, match="pump energy must be positive"):
        conversion_rate_down(state, pump_energy=energy)
    with pytest.raises(ValueError, match="twin-beam energy must be positive"):
        conversion_rate_up(state, twin_beam_energy=energy)


def test_phase_distribution_closed_form():
    lam = 0.6
    rho = pcs_density(lam)
    p = phase_distribution(rho)
    phis = 2 * np.pi * np.arange(1024) / 1024
    expected = (1 - lam**2) / (1 - 2 * lam * np.cos(phis) + lam**2) / (2 * np.pi)
    # truncation at lam^160 makes the profiles equal to near machine level
    assert np.allclose(p, expected, atol=1e-10)


def test_phase_distribution_is_normalized_density():
    rho = pcs_density(0.45 * np.exp(1.1j))
    p = phase_distribution(rho)
    assert np.all(p > -1e-10)
    assert abs(p.mean() * 2 * np.pi - 1.0) < 1e-6


@settings(max_examples=40, deadline=None)
@given(size=st.integers(1, 1600), seed=st.integers(0, 2**32 - 1))
@example(size=1023, seed=0)
@example(size=1024, seed=1)
@example(size=1025, seed=2)
@example(size=1500, seed=3)
def test_phase_distribution_matches_brute_force_beyond_grid(size, seed):
    # supports up to 1600 wide on the 1024-point grid fold lags d >= 1024 onto d mod 1024
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=size) + 1j * rng.normal(size=size)
    psi /= np.linalg.norm(psi)
    rho = np.outer(psi, psi.conj())
    phis = 2 * np.pi * np.arange(1024) / 1024
    brute = np.abs(np.exp(1j * np.outer(phis, np.arange(size))) @ psi) ** 2 / (2 * np.pi)
    assert np.max(np.abs(phase_distribution(rho) - brute)) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(size=st.integers(1, 600) | st.sampled_from([256, 257, 1024, 1025]), seed=st.integers(0, 2**32 - 1),
       phase=st.floats(-2.0 * math.pi, 2.0 * math.pi))
@example(size=256, seed=0, phase=0.0)
@example(size=257, seed=1, phase=0.7)
@example(size=1024, seed=2, phase=2.9)
@example(size=1025, seed=3, phase=-1.3)
def test_pair_lag_sums_turn_the_real_sums_by_the_phase(size, seed, phase):
    # the lag sums of (w A)(w A)^dag for A = e^{i phase (q + r)} (-i)^q A_r are those of the real A_r turned by
    # (-i e^{i phase})^d: the real path against the dense complex product, lags past 1024 included
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=(size, size))
    amps[np.add.outer(np.arange(size), np.arange(size)) >= size] = 0.0  # pair matrices are triangular
    amps /= np.linalg.norm(amps)
    weights = rng.uniform(0.0, 1.0, size)
    q, r = np.indices(amps.shape)
    dense = weights[:, None] * np.exp(1j * phase * (q + r)) * np.array([1.0, -1j, -1.0, 1j])[q % 4] * amps
    expected = _lag_sums(dense @ dense.conj().T)
    assert np.max(np.abs(_pair_lag_sums(amps, weights, phase) - expected)) <= 1e-13


def test_vacuum_phase_is_uniform():
    rho = np.eye(1, dtype=complex)
    p = phase_distribution(rho)
    assert np.allclose(p, 1 / (2 * np.pi), atol=1e-14)
    assert abs(reciprocal_peak_likelihood(rho) - 2 * np.pi) < 1e-12


def test_reciprocal_peak_likelihood_refuses_a_zero_matrix():
    # p(phi) is 0 everywhere, so 1 / max p has no value
    with pytest.raises(ValueError, match="phase distribution has no positive peak"):
        reciprocal_peak_likelihood(np.zeros((2, 2)))


def test_reciprocal_peak_likelihood_pcs_closed_form():
    for lam in (0.3, 0.6, 0.85):
        expected = 2 * np.pi * (1 - lam) / (1 + lam)
        assert abs(reciprocal_peak_likelihood(pcs_density(lam)) - expected) < 1e-9


def test_reciprocal_peak_likelihood_off_grid_peak():
    # peak phase rotated between grid points exercises the refinement
    lam = 0.6 * np.exp(0.37j)
    expected = 2 * np.pi * (1 - 0.6) / (1 + 0.6)
    assert abs(reciprocal_peak_likelihood(pcs_density(lam)) - expected) < 1e-6


def test_matched_overlap_single_photon():
    state = ThreeModeState.from_fock_dict({(0, 0, 1): -1.0j})
    overlap, lam = matched_pcs_overlap(state)
    # mean photon 1 pins |lambda|^2 = 1/2; the overlap is phase-flat here
    assert abs(overlap - 0.5) < 1e-12
    assert abs(abs(lam) - 1 / math.sqrt(2)) < 1e-12


def test_matched_overlap_vacuum():
    state = ThreeModeState.from_fock_dict({(0, 0, 0): 1.0})
    overlap, lam = matched_pcs_overlap(state)
    assert overlap == pytest.approx(1.0, abs=1e-12)
    assert lam == 0.0


def test_matched_overlap_agrees_with_direct_product_overlap():
    # the second state is wider than the 1024-point phase grid
    for state in (evolve(make_twin_beam(math.sqrt(0.5)), 0.7), wide_mode_c_state()):
        overlap, lam = matched_pcs_overlap(state)
        cutoff = state.mode_support()[2]
        direct = overlap_with_product(state, bra_c=pcs_bra(lam, cutoff))
        assert abs(overlap - direct) < 1e-10
        # the chosen phase lies within one grid step of the brute-force grid maximum
        thetas = 2 * np.pi * np.arange(1024) / 1024
        refs = np.array([pcs_bra(abs(lam) * np.exp(1j * t), cutoff) for t in thetas])
        brute = np.einsum("gi,gi->g", refs.conj() @ reduce_mode_c(state), refs).real
        assert abs(np.angle(lam * np.exp(-1j * thetas[np.argmax(brute)]))) <= 2 * np.pi / 1024


def test_matched_overlap_phase_covariance():
    theta = 0.9
    base = evolve(make_twin_beam(0.55), 0.8)
    rotated = evolve(make_twin_beam(0.55 * np.exp(1j * theta)), 0.8)
    o1, lam1 = matched_pcs_overlap(base)
    o2, lam2 = matched_pcs_overlap(rotated)
    assert abs(o1 - o2) < 1e-9
    assert abs(lam2 - lam1 * np.exp(1j * theta)) < 1e-6


def test_matched_overlap_global_phase_invariance():
    amps = {(2, 2, 0): 0.4, (1, 1, 1): 0.6, (0, 0, 2): 0.3}
    state = ThreeModeState.from_fock_dict(amps)
    shifted = ThreeModeState.from_fock_dict({t: 1j * a for t, a in amps.items()})
    o1, _ = matched_pcs_overlap(state)
    o2, _ = matched_pcs_overlap(shifted)
    assert abs(o1 - o2) < 1e-12


def test_matched_overlap_rho_matches_pure_state_form():
    state = evolve(make_twin_beam(0.6), 0.5)
    o_state, lam_state = matched_pcs_overlap(state)
    o_rho, lam_rho = matched_pcs_overlap_rho(reduce_mode_c(state))
    assert abs(o_state - o_rho) < 1e-10
    assert abs(lam_state - lam_rho) < 1e-6


@pytest.mark.parametrize(
    "read, expected",
    [
        (ThreeModeState.norm, 0.0),
        (lambda state: mean_photon(state, "c"), 0.0),
        (overlap_with_product, 0.0),
        (lambda state: overlap_with_product(state, bra_ab=np.ones((2, 2)), bra_c=np.ones(2)), 0.0),
        (lambda state: reduce_mode_c(state), np.zeros((1, 1), dtype=complex)),
        (ThreeModeState.mode_support, (0, 0, 0)),
        (ThreeModeState.to_fock_dict, {}),
        (pair_matrix, ValueError),
    ],
    ids=["norm", "mean_photon", "overlap-traced", "overlap-bra_ab", "reduce_mode_c", "mode_support",
         "to_fock_dict", "pair_matrices"],
)
def test_empty_state(read, expected):
    # ThreeModeState() is the default state: every read is zero, and it has no pair matrix
    if expected is ValueError:
        with pytest.raises(ValueError, match="the state is empty"):
            read(ThreeModeState())
    elif isinstance(expected, np.ndarray):
        got = read(ThreeModeState())
        assert got.shape == expected.shape and np.array_equal(got, expected)
    else:
        assert read(ThreeModeState()) == expected
