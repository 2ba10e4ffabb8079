"""Sweep drivers, optimizers, power-law fits, and the chained pipeline."""
import math

import numpy as np
import pytest

import triwave.experiments
from triwave import (
    ThreeModeState,
    best_peak_index,
    conversion_rate_down,
    conversion_rate_up,
    evolve,
    find_optimal_tau,
    find_peak_conversion_tau,
    fit_power_law,
    full_pipeline,
    make_coherent_pump,
    make_twin_beam,
    matched_pcs_overlap,
    matched_pcs_overlap_rho,
    mean_photon,
    overlap_with_product,
    pipeline_record,
    predicted_twin_beam_param,
    purity,
    reciprocal_peak_likelihood,
    reduce_mode_c,
    scaling_study,
    stage1_sweep,
    stage2_sweep,
)


def test_stage1_sweep_basic_records():
    grid = np.array([0.0, 0.05, 0.1, 0.2])
    records = stage1_sweep(3.0, grid)
    assert [r.tau for r in records] == pytest.approx(list(grid))
    assert records[0].overlap == pytest.approx(1.0, abs=1e-12)
    assert records[0].eta == pytest.approx(0.0, abs=1e-12)
    for rec in records:
        assert 0.0 <= rec.overlap <= 1.0 + 1e-9
        assert 0.0 <= rec.eta <= 1.0 + 1e-9
        assert 0.0 < rec.purity <= 1.0 + 1e-9
        assert math.isnan(rec.delta_phi)
        assert abs(rec.n_a - rec.n_b) < 1e-9
        # pump weight is conserved: n_a + n_b + 2 n_c stays at 2 E
        assert rec.n_a + rec.n_b + 2 * rec.n_c == pytest.approx(18.0, rel=1e-7)
        assert abs(rec.lambda_or_chi - predicted_twin_beam_param(3.0, rec.tau)) < 1e-12


def test_stage1_sweep_saturated_pump_reference():
    # tanh(1.2 * 16) rounds to 1, so the reference bra needs sech, not sqrt(1 - |chi|^2)
    (rec,) = stage1_sweep(16.0, [1.2])
    assert abs(rec.lambda_or_chi) == 1.0
    assert math.isfinite(rec.overlap) and 0.0 <= rec.overlap <= 1.0
    assert rec.n_a + rec.n_b + 2 * rec.n_c == pytest.approx(512.0, rel=1e-7)


@pytest.mark.parametrize("energy", [16.0, 81.0])
def test_stage1_scoring_matches_marginal_definitions(energy):
    # overlap with the twin-beam bra diag(t) on (a, b), the mode-c purity,
    # and the photon numbers and conversion rate read per mode
    alpha = math.sqrt(energy) * np.exp(0.4j)
    taus = [1e-4, 0.1, 0.3, 0.6]
    pump = make_coherent_pump(alpha)
    for tau, rec in zip(taus, stage1_sweep(alpha, taus)):
        state = evolve(pump, tau)
        n = np.arange(state.mode_support()[0] + 1)
        t = predicted_twin_beam_param(alpha, tau) ** n / math.cosh(tau * abs(alpha))
        assert abs(rec.overlap - overlap_with_product(state, bra_ab=np.diag(t))) <= 1e-12
        assert abs(rec.purity - purity(reduce_mode_c(state))) <= 1e-12
        for got, mode in ((rec.n_a, "a"), (rec.n_b, "b"), (rec.n_c, "c")):
            assert abs(got - mean_photon(state, mode)) <= 1e-12 * max(1.0, energy)
        assert abs(rec.eta - conversion_rate_down(state, mean_photon(pump, "c"))) <= 1e-12


def test_stage1_overlap_never_exceeds_one():
    # the unclamped norm of A t* rounds to 1.0000000000000002 here
    (rec,) = stage1_sweep(14.0 * np.exp(2.8423845638813536j), [1e-4])
    assert 0.0 <= rec.overlap <= 1.0


def test_stage1_overlap_decays_with_time():
    grid = np.array([0.05, 0.3])
    records = stage1_sweep(9.0, grid)
    assert records[1].overlap < records[0].overlap


def test_stage2_sweep_single_pair_limit():
    # with |chi| << 1 only the one-pair block matters and eta is sin^2(tau)
    grid = np.linspace(0.1, 3.0, 8)
    records = stage2_sweep(1e-3, grid)
    for rec in records:
        assert abs(rec.eta - math.sin(rec.tau) ** 2) < 1e-6


def test_stage2_sweep_zero_time_record():
    records = stage2_sweep(math.sqrt(0.5), np.array([0.0, 0.5]))
    first = records[0]
    assert first.overlap == pytest.approx(1.0, abs=1e-9)
    assert first.eta == pytest.approx(0.0, abs=1e-12)
    assert abs(first.lambda_or_chi) < 1e-12
    assert first.delta_phi == pytest.approx(2 * math.pi, rel=1e-9)


@pytest.mark.parametrize("n_in", [2.0, 20.0])
def test_stage2_sweep_matches_public_references(n_in):
    # every field against the state-level path: reduce_mode_c, then the metrics
    chi = math.sqrt(n_in / (n_in + 2.0)) * np.exp(0.3j)
    taus = [0.0, 0.3, 0.8, 1.7]
    beam = make_twin_beam(chi)
    energy_in = mean_photon(beam, "a") + mean_photon(beam, "b")
    for tau, rec in zip(taus, stage2_sweep(chi, taus, phase_grid=512)):
        state = evolve(beam, tau)
        rho = reduce_mode_c(state)
        overlap, lam = matched_pcs_overlap_rho(rho, 512)
        expected = {
            "overlap": overlap,
            "eta": conversion_rate_up(state, energy_in),
            "purity": purity(rho),
            "delta_phi": reciprocal_peak_likelihood(rho, 512),
            "n_a": mean_photon(state, "a"),
            "n_b": mean_photon(state, "b"),
            "n_c": mean_photon(state, "c"),
            "lambda_or_chi": lam,
        }
        for name, value in expected.items():
            got = getattr(rec, name)
            assert abs(got - value) <= 1e-12 * max(1.0, abs(value)), (tau, name, got, value)


def test_optimizers_eta_matches_public_references():
    chi = math.sqrt(4.0 / 6.0)
    beam = make_twin_beam(chi)
    tau, overlap, eta = find_optimal_tau(chi)
    state = evolve(beam, tau)
    assert abs(overlap - matched_pcs_overlap(state)[0]) <= 1e-12
    assert abs(eta - conversion_rate_up(state, mean_photon(beam, "a") + mean_photon(beam, "b"))) <= 1e-12
    pump = make_coherent_pump(4.0 * np.exp(0.4j))
    tau, eta = find_peak_conversion_tau(4.0 * np.exp(0.4j))
    assert abs(eta - conversion_rate_down(evolve(pump, tau), mean_photon(pump, "c"))) <= 1e-12


def test_tau_grid_validation():
    with pytest.raises(ValueError):
        stage2_sweep(0.5, np.array([0.2, 0.1]))
    with pytest.raises(ValueError):
        stage2_sweep(0.5, np.array([-0.1, 0.1]))
    with pytest.raises(ValueError):
        stage2_sweep(0.5, np.array([]))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            stage2_sweep(0.5, np.array([0.1, bad]))
        with pytest.raises(ValueError):
            stage1_sweep(2.0, np.array([bad]))


def test_best_peak_index_prefers_interior_peak():
    # the edge value 1.0 beats both interior peaks; ties keep the earlier index
    assert best_peak_index(np.array([1.0, 0.2, 0.5, 0.3, 0.5, 0.1])) == 2
    assert best_peak_index(np.array([0.9, 0.5, 0.1])) == 0
    assert best_peak_index(np.array([0.1, 0.5, 0.9])) == 2


def test_find_optimal_tau_frozen_point():
    # N_in = 2 twin beam: interior overlap peak measured independently on
    # a fine grid at tau = 0.8549, overlap 0.98978
    tau, overlap, eta = find_optimal_tau(math.sqrt(0.5))
    assert abs(tau - 0.8549) < 2e-3
    assert abs(overlap - 0.98978) < 1e-4
    assert abs(eta - 0.7507) < 1e-3


def test_find_optimal_tau_beats_fine_grid():
    chi = math.sqrt(4.0 / 6.0)
    tau, overlap, _ = find_optimal_tau(chi, eps=1e-8)
    fine = np.arange(max(0.01, tau - 0.05), tau + 0.05, 0.002)
    records = stage2_sweep(chi, fine, eps=1e-8)
    assert overlap >= max(r.overlap for r in records) - 1e-6


def test_find_optimal_tau_rejects_vacuum():
    with pytest.raises(ValueError):
        find_optimal_tau(0.0)


def test_find_optimal_tau_window_validation():
    # a NaN tolerance used to return the coarse-bracket midpoint, and an infinite window (inf, 0, nan)
    bad = [
        {"window": (2.0, 1.0)},
        {"window": (0.0, math.inf)},
        {"window": (math.nan, 1.0)},
        {"window": (0.0, math.nan)},
        {"coarse_points": 1},
        {"tol": 0.0},
        {"tol": math.nan},
        {"tol": math.inf},
    ]
    for optimizer, arg in ((find_optimal_tau, math.sqrt(0.5)), (find_peak_conversion_tau, 2.0)):
        for kwargs in bad:
            with pytest.raises(ValueError):
                optimizer(arg, **kwargs)


def test_find_peak_conversion_tau_frozen_point():
    tau, eta = find_peak_conversion_tau(4.0)
    assert abs(tau - 0.70667) < 1e-3
    assert abs(eta - 0.77483) < 1e-4


def test_fit_power_law_exact():
    xs = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    fit = fit_power_law(xs, 2.0 * xs**-0.5)
    assert fit.prefactor == pytest.approx(2.0, rel=1e-12)
    assert fit.exponent == pytest.approx(-0.5, abs=1e-12)
    assert fit.residual == pytest.approx(0.0, abs=1e-12)


def test_fit_power_law_validation():
    with pytest.raises(ValueError):
        fit_power_law([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        fit_power_law([1.0, 2.0, -3.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        fit_power_law([1.0, 2.0, 3.0], [1.0, 0.0, 3.0])
    with pytest.raises(ValueError, match="finite"):
        fit_power_law([1.0, 2.0, 3.0], [1.0, math.nan, 3.0])
    with pytest.raises(ValueError, match="finite"):
        fit_power_law([1.0, math.nan, 3.0], [1.0, 2.0, 3.0])


def test_scaling_study_smoke():
    points, fits = scaling_study([2.0, 4.0, 6.0], eps=1e-6)
    assert [p.n_in for p in points] == [2.0, 4.0, 6.0]
    for p in points:
        assert 0.0 < p.tau_opt < 3.0
        assert 0.0 < p.overlap <= 1.0
        assert 0.0 < p.eta <= 1.0
        assert 0.0 < p.purity <= 1.0
        assert p.delta_phi > 0.0
        # the matched reference modulus is pinned to the output energy
        assert abs(abs(p.matched_lambda) ** 2 - p.n_out / (1.0 + p.n_out)) < 1e-9
    assert set(fits) == {"tau_opt_vs_n_in", "tau_opt_vs_n_out"}
    assert fits["tau_opt_vs_n_in"].exponent < 0.0


@pytest.mark.parametrize(
    "energies", [[30.0, 54.0, -1.0], [30.0, 54.0], [2.0, math.nan, 4.0], [2.0, math.inf, 4.0], [0.0, 1.0, 2.0]]
)
def test_scaling_study_checks_energies_before_any_search(monkeypatch, energies):
    calls = []

    def counting_evolve(state, tau):
        calls.append(tau)
        return evolve(state, tau)

    monkeypatch.setattr(triwave.experiments, "evolve", counting_evolve)
    with pytest.raises(ValueError, match="finite, positive"):
        scaling_study(energies)
    assert calls == []


def test_pipeline_density_matrix_is_valid():
    alpha = 3.0
    tau1 = math.atanh(math.sqrt(1.0 / 3.0)) / alpha
    rho = full_pipeline(alpha, tau1, 0.9)
    rho.validate()
    assert abs(rho.trace() - 1.0) < 1e-10
    overlap, lam = matched_pcs_overlap_rho(rho)
    assert 0.0 < overlap <= 1.0
    assert abs(lam) < 1.0


def _branch_pipeline(alpha, tau1, tau2):
    """The chained output as a mixture of pure branches, one per pump count q."""
    mid = evolve(make_coherent_pump(alpha), tau1)
    branches = {}
    for (n_a, n_b, q), amp in mid.to_fock_dict().items():
        branches.setdefault(q, {})[(n_a, n_b, 0)] = amp
    cutoff = mid.mode_support()[0]
    rho = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    for branch in branches.values():
        weight = sum(abs(amp) ** 2 for amp in branch.values())
        if weight > 0.0:
            out = evolve(ThreeModeState.from_fock_dict(branch, normalize=True), tau2)
            rho += weight * reduce_mode_c(out, cutoff=cutoff).matrix
    return rho


@pytest.mark.parametrize("energy", [1.0, 9.0, 25.0])
@pytest.mark.parametrize("phase", [0.0, 0.7])
@pytest.mark.parametrize("tau1, tau2", [(0.2, 0.9), (0.0, 0.7), (0.3, 0.0)])
def test_pipeline_equals_branch_mixture(energy, phase, tau1, tau2):
    alpha = math.sqrt(energy) * np.exp(1j * phase)
    rho = full_pipeline(alpha, tau1, tau2).matrix
    expected = _branch_pipeline(alpha, tau1, tau2)
    assert rho.shape == expected.shape
    assert np.max(np.abs(rho - expected)) <= 1e-12


def test_pipeline_zero_first_stage_keeps_vacuum():
    rho = full_pipeline(2.0, 0.0, 0.7)
    assert rho.matrix[0, 0] == pytest.approx(1.0, abs=1e-12)



@pytest.mark.parametrize("tau1, tau2", [(math.nan, 0.5), (0.2, math.inf), (-0.1, 0.5), (0.2, -0.5)])
def test_pipeline_rejects_bad_times(tau1, tau2):
    with pytest.raises(ValueError):
        full_pipeline(3.0, tau1, tau2)
    with pytest.raises(ValueError):
        pipeline_record(3.0, tau1, tau2)


def test_pipeline_record_scores_full_pipeline():
    alpha = 3.0 * np.exp(0.4j)
    rho = full_pipeline(alpha, 0.2, 0.9)
    rec = pipeline_record(alpha, 0.2, 0.9, phase_grid=512)
    overlap, lam = matched_pcs_overlap_rho(rho, 512)
    assert rec.tau == 0.9
    assert rec.overlap == overlap and rec.lambda_or_chi == lam
    assert rec.purity == purity(rho)
    assert rec.delta_phi == reciprocal_peak_likelihood(rho, 512)
    assert rec.n_c == float(np.real(np.diag(rho.matrix)) @ np.arange(rho.matrix.shape[0]))
    assert math.isnan(rec.n_a) and math.isnan(rec.n_b)
    # eta is over the twin-beam energy of the stage-1 output at tau1
    (mid,) = stage1_sweep(alpha, [0.2])
    assert rec.eta == 2.0 * rec.n_c / (mid.n_a + mid.n_b)
