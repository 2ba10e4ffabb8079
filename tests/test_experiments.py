"""Sweep drivers, optimizers, power-law fits, and the chained pipeline."""
import ast
import cmath
import dataclasses
import math
import random
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

import triwave.blocks
import triwave.experiments
from conftest import check_density_matrix, is_complex_matrix
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
    trilinear_offdiag,
)
from triwave.evolution import _real_pair_matrix, _unit_pair, check_time_domain, pair_matrix, pair_state
from triwave.experiments import (
    _SCAN_CHUNK,
    _brent_max,
    _input_energy,
    _moments,
    _pair_outputs,
    _pair_purity,
    _stage2_optima,
    _stage2_record,
    _stage2_score,
)
from triwave.metrics import _lag_sums, _pair_lag_sums, _pair_matched_overlap, _pcs_weights


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


def test_stage1_sweep_long_times_stay_finite():
    # tau |alpha| = 800 and 2e5: past the overflow of cosh, sech underflows to 0 (2e300 is now
    # outside the exact time domain, see test_times_outside_the_exact_domain_are_rejected)
    for alpha, taus, weight in ((16.0, [50.0], 512.0), (2.0, [0.0, 1e5], 8.0)):
        for rec in stage1_sweep(alpha, taus):
            assert all(math.isfinite(v) for v in (rec.overlap, rec.eta, rec.purity, rec.n_a, rec.n_b, rec.n_c))
            assert rec.n_a + rec.n_b + 2 * rec.n_c == pytest.approx(weight, rel=1e-7)


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


@pytest.mark.parametrize(
    "sweep, param", [(stage1_sweep, 9.0 * np.exp(0.4j)), (stage2_sweep, math.sqrt(6.0 / 8.0))], ids=["stage1", "stage2"]
)
def test_batched_sweeps_equal_per_time_sweeps(monkeypatch, sweep, param):
    # 25 times, not a multiple of the chunk: 7 evolves, and every field as from one call per time
    grid = np.linspace(0.05, 1.25, 25)
    sizes = []

    def counting_evolve(state, tau):
        sizes.append(np.size(tau))
        return evolve(state, tau)

    monkeypatch.setattr(triwave.experiments, "evolve", counting_evolve)
    batched = sweep(param, grid)
    assert sizes == [_SCAN_CHUNK] * 6 + [1] and _SCAN_CHUNK == 4
    singles = [sweep(param, [tau])[0] for tau in grid]
    for got, want in zip(batched, singles):
        for name, value in vars(want).items():
            np.testing.assert_allclose(getattr(got, name), value, rtol=1e-13, atol=0.0, err_msg=name)


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


def test_zero_time_records_read_the_input_exactly():
    # at tau = 0 nothing is converted: eta, n_c and lambda read 0 exactly, and stage 1 has no pairs
    chi = math.sqrt(54.0 / 56.0) * complex(np.exp(0.7j))
    first = stage2_sweep(chi, np.linspace(0.0, 2.0, 9))[0]
    assert (first.tau, first.eta, first.n_c, first.lambda_or_chi) == (0.0, 0.0, 0.0, 0j)
    first = stage1_sweep(16.0 * complex(np.exp(0.7j)), [0.0, 0.1])[0]
    assert (first.eta, first.n_a, first.n_b, first.overlap) == (0.0, 0.0, 0.0, 1.0)


def test_stage2_input_purity_does_not_exceed_one():
    # triwave stage2 --n-in 54 --chi-phase 0.7 --tau-max 2 --tau-steps 9: a beam renormalized by the analytic
    # sqrt(1 - q^(cut+1)) kept norm^2 1 + 1.1e-15, and its tau = 0 record read purity 1.000000000000003
    chi = math.sqrt(54.0 / 56.0) * complex(np.exp(0.7j))
    first = stage2_sweep(chi, np.linspace(0.0, 2.0, 9))[0]
    assert first.tau == 0.0 and first.purity <= 1.0 + 1e-15


@pytest.mark.parametrize("n_in", [2.0, 20.0])
def test_stage2_sweep_matches_public_references(n_in):
    # every field against the state-level path: the twin beam at chi itself evolved, reduce_mode_c, then the metrics;
    # the sweep scores the beam at |chi| in real arithmetic and turns its lag sums by chi's phase
    taus = [0.0, 0.3, 0.8, 1.7]
    for chi_phase in (0.3, 0.0, 0.7, 2.9):
        chi = math.sqrt(n_in / (n_in + 2.0)) * np.exp(1j * chi_phase)
        beam = make_twin_beam(chi)
        energy_in = mean_photon(beam, "a") + mean_photon(beam, "b")
        for tau, rec in zip(taus, stage2_sweep(chi, taus)):
            state = evolve(beam, tau)
            rho = reduce_mode_c(state)
            overlap, lam = matched_pcs_overlap_rho(rho)
            expected = {
                "overlap": overlap,
                "eta": conversion_rate_up(state, energy_in),
                "purity": purity(rho),
                "delta_phi": reciprocal_peak_likelihood(rho),
                "n_a": mean_photon(state, "a"),
                "n_b": mean_photon(state, "b"),
                "n_c": mean_photon(state, "c"),
                "lambda_or_chi": lam,
            }
            for name, value in expected.items():
                got = getattr(rec, name)
                assert abs(got - value) <= 1e-12 * max(1.0, abs(value)), (chi_phase, tau, name, got, value)


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


@pytest.mark.parametrize(
    "call",
    [
        lambda: stage1_sweep(2.0, [1e15]),
        lambda: stage1_sweep(2.0, [0.1, 1e300]),
        lambda: stage2_sweep(0.5, [0.1, 1e15]),
        lambda: full_pipeline(2.0, 1e15, 0.5),
        lambda: pipeline_record(2.0, 0.3, 1e15),
    ],
    ids=["stage1-sweep", "stage1-sweep-1e300", "stage2-sweep", "pipeline-tau1", "pipeline-tau2"],
)
def test_times_outside_the_exact_domain_are_rejected(monkeypatch, call):
    # past lambda_max tau = 2^53 * 1e-8 the phase has no 1e-8 left: at t = 1e15 the pump-4 sweep
    # read n_a 2.086, and 1.825 at t + 0.125; the check runs before any evolve
    calls = []
    monkeypatch.setattr(triwave.experiments, "evolve", lambda state, tau: calls.append(tau))
    with pytest.raises(ValueError, match="exact time domain"):
        call()
    assert calls == []


def test_time_at_the_domain_limit_still_runs():
    # the limit is 2^53 * 1e-8 over the Gershgorin bound 2 max (K - n) sqrt(n + 1) of block (2K, K)
    pump = make_coherent_pump(2.0)
    top = pump.mode_support()[2]
    limit = 2.0**53 * 1e-8 / (2.0 * trilinear_offdiag((2 * top, top)).max())
    assert 1e6 < limit < 1.1e6
    (rec,) = stage1_sweep(2.0, [limit])
    assert rec.n_a + rec.n_b + 2 * rec.n_c == pytest.approx(8.0, rel=1e-7)
    with pytest.raises(ValueError, match="exact time domain"):
        stage1_sweep(2.0, [np.nextafter(limit, math.inf)])


def test_domain_limit_at_the_largest_scaling_input():
    # N_in = 54 at eps = 1e-8 reaches K = 506, where lambda_max = 8765.5 and the bound is 8788
    beam = make_twin_beam(math.sqrt(54.0 / 56.0), eps=1e-8)
    with pytest.raises(ValueError, match=r"\|tau\| <= 1024[0-9]\."):
        check_time_domain(beam, 1.1e4)
    check_time_domain(beam, 1.0e4)


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


@pytest.mark.parametrize(
    "call",
    [
        lambda: find_optimal_tau(1e-200),
        lambda: scaling_study([1e-300, 1.0, 2.0]),
        lambda: stage2_sweep(1e-200, [0.1]),
        lambda: stage1_sweep(1e-200, [0.1]),
        lambda: find_peak_conversion_tau(1e-200),
    ],
    ids=["find-optimal-tau", "scaling-study", "stage2-sweep", "stage1-sweep", "find-peak-conversion-tau"],
)
def test_inputs_truncated_to_vacuum_are_rejected(call):
    # a parameter this small truncates to the vacuum, and every eta would divide by its zero energy
    with pytest.raises(ValueError, match="no photons"):
        call()


def test_find_optimal_tau_window_validation():
    # the scan window is fixed at (0, 3]; a NaN tolerance used to return the coarse-bracket midpoint
    bad = [
        {"coarse_points": 1},
        {"coarse_points": 2.5},  # used to scan tau = 3.6, outside the window
        {"tol": 0.0},
        {"tol": math.nan},
        {"tol": math.inf},
    ]
    for kwargs in bad:
        with pytest.raises(ValueError):
            find_optimal_tau(math.sqrt(0.5), **kwargs)


def test_coarse_scans_match_public_references(monkeypatch):
    # the stage-2 optimizer evolves its coarse grid a few times per call and scores each time
    # from its pair matrix, the stage-1 one sums its moments block by block; the values must
    # be the per-time public ones
    scanned, evolved, searches = [], [], []
    brent = triwave.experiments._brent_max

    def recording_peak_index(values):
        scanned.append(np.asarray(values))
        return best_peak_index(values)

    def recording_evolve(state, tau):
        evolved.append(np.size(tau))
        return evolve(state, tau)

    def recording_brent(f, lo, hi, tol):
        calls = []
        result = brent(lambda tau: (calls.append(tau), f(tau))[1], lo, hi, tol)
        searches.append((len(calls), lo, hi, tol))
        return result

    monkeypatch.setattr(triwave.experiments, "best_peak_index", recording_peak_index)
    monkeypatch.setattr(triwave.experiments, "evolve", recording_evolve)
    monkeypatch.setattr(triwave.experiments, "_brent_max", recording_brent)
    beam = make_twin_beam(math.sqrt(4.0 / 6.0))
    find_optimal_tau(math.sqrt(4.0 / 6.0), coarse_points=10)
    pump = make_coherent_pump(4.0 * np.exp(0.4j))
    find_peak_conversion_tau(4.0 * np.exp(0.4j))
    # each Brent evaluation is one single-time evolve, and no evolve follows the last one;
    # the stage-1 scan reads its moments block by block, with no evolve
    (stage2_evals, *_), (stage1_evals, *_) = searches
    assert evolved == [4, 4, 2] + [1] * stage2_evals + [1] * stage1_evals
    for evals, lo, hi, tol in searches:  # golden section needs more on the same bracket
        golden_evals = []
        _golden_max(lambda tau: golden_evals.append(tau) or 0.0, lo, hi, tol)
        assert evals < len(golden_evals)
    stage2_taus = 3.0 * np.arange(1, 11) / 10
    stage1_taus = 1.5 * np.arange(1, 49) / 48  # the fixed stage-1 scan
    expected = [
        [matched_pcs_overlap_rho(reduce_mode_c(evolve(beam, tau)))[0] for tau in stage2_taus],
        [mean_photon(evolve(pump, tau), "a") / mean_photon(pump, "c") for tau in stage1_taus],
    ]
    for values, reference in zip(scanned, expected):
        assert np.max(np.abs(values - reference)) <= 1e-13


@pytest.mark.parametrize("search", ["scaling-study", "find-optimal-tau-complex-chi"])
def test_shared_coarse_scan_equals_per_beam_scans(monkeypatch, search):
    # one unit-pair evolve per chunk serves every beam as a_{q+r} R[q, r]; each beam's coarse
    # values must be bit for bit those of evolving that beam itself, chunk by chunk
    scanned = []

    def recording_peak_index(values):
        scanned.append(np.array(values))
        return best_peak_index(values)

    monkeypatch.setattr(triwave.experiments, "best_peak_index", recording_peak_index)
    if search == "scaling-study":
        energies, eps = [2.0, 6.0, 4.0], 1e-6  # cuts 19, 48 and 34, the largest not last
        chis = [math.sqrt(n / (n + 2.0)) for n in energies]
        scaling_study(energies, eps=eps)
    else:
        chis, eps = [math.sqrt(0.75) * np.exp(0.3j)], 1e-10
        find_optimal_tau(chis[0], eps=eps)
    taus = 3.0 * np.arange(1, 65) / 64
    assert len(scanned) == len(chis)
    for chi, values in zip(chis, scanned):
        beam = make_twin_beam(abs(chi), eps)
        own = [_stage2_score(amps, cmath.phase(chi)) for _, amps in _pair_outputs(beam, taus, 0)]
        assert np.array_equal(values, own)


def test_stage2_search_holds_no_beam(monkeypatch):
    # each Brent step builds, evolves and drops the unit pair at its beam's cut, so between steps no state is live:
    # no padded twin beam of any energy, and no unit pair, is held through the search
    energies, eps = [3.0, 1.0, 2.0], 1e-8
    live, init, brent, searches = [], ThreeModeState.__init__, _brent_max, []

    def tracked_init(state, *args, **kwargs):
        init(state, *args, **kwargs)
        live.append(weakref.ref(state))

    def stored():
        return sum(len(vec) for ref in live if ref() is not None for vec in ref().blocks.values())

    def recording_brent(f, lo, hi, tol):
        def evaluate(tau):
            result = f(tau)
            searches[-1].append(stored())
            return result

        searches.append([stored()])
        return brent(evaluate, lo, hi, tol)

    monkeypatch.setattr(ThreeModeState, "__init__", tracked_init)
    monkeypatch.setattr(triwave.experiments, "_brent_max", recording_brent)
    scaling_study(energies, eps=eps)
    assert len(searches) == len(energies)
    for held in searches:
        assert len(held) > 5 and max(held) == 0


@pytest.mark.parametrize(
    "run",
    [
        lambda: stage1_sweep(12.0 * complex(np.exp(0.7j)), np.linspace(0.05, 0.4, 8)),  # pump 144
        lambda: stage2_sweep(math.sqrt(30.0 / 32.0), np.linspace(0.1, 1.5, 8)),  # N_in = 30
        lambda: scaling_study([2.0, 4.0, 6.0]),
    ],
    ids=["stage1_sweep", "stage2_sweep", "scaling_study"],
)
def test_each_pair_matrix_is_dropped_before_the_next_is_formed(monkeypatch, run):
    # each real pair matrix, an input's or an output's, goes to one consumer, which scores and drops it: when the next
    # is read, none read before is alive, but inside a Brent search the best point's, which the search holds (at most
    # one).  A generator's or a comprehension's loop variable, or a zip's reused tuple, kept the previous one alive
    formed, alive, starts = [], [], []

    def tracked(state, axis):
        alive.append(sum(ref() is not None for ref in formed))
        amps = _real_pair_matrix(state, axis)
        formed.append(weakref.ref(amps))
        return amps

    def recording_brent(*args):
        starts.append(len(alive))
        return _brent_max(*args)

    monkeypatch.setattr(triwave.experiments, "_real_pair_matrix", tracked)
    monkeypatch.setattr(triwave.experiments, "_brent_max", recording_brent)
    run()
    allowed = np.zeros(len(alive), dtype=int)
    if starts:
        allowed[starts[0] :] = 1  # Brent's best point, from the first search on
        allowed[starts] = 0  # but at a search's first evaluation none is held yet, nor the search before's
    assert len(alive) >= 8 and np.all(np.array(alive) <= allowed), alive


def test_stage1_sweep_working_set_stays_within_four_pair_matrices():
    # a sweep holds its chunk of _SCAN_CHUNK evolved states (about two dim x dim complex arrays at a pump) and the
    # real A_r read from one of them: 3.79 of them at pump 144 over 8 times.  A complex pair matrix formed beside A_r
    # read 4.37, the complex matrix scored itself 4.29, and the previous matrix held through the next one's forming 4.78
    alpha, taus = 12.0 * complex(np.exp(0.7j)), np.linspace(0.05, 0.4, 8)
    dim = len(pair_matrix(make_coherent_pump(alpha)))
    stage1_sweep(alpha, taus)  # builds every eigensystem the call below reads
    tracemalloc.start()
    try:
        stage1_sweep(alpha, taus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.0 * 16 * dim * dim, f"peak {peak / (16 * dim * dim):.2f} dim x dim complex arrays"


def _is_unit_pair(state) -> bool:
    """True for sum_{k <= K} |k, k, 0>: every block (2k, k) up to some K, each holding exactly 1 at local index 0."""
    unit = np.zeros(max(k for _, k in state.blocks) + 1)
    unit[0] = 1.0
    return list(state.blocks) == [(2 * k, k) for k in range(len(unit))] and all(
        np.array_equal(vec, unit[: len(vec)]) and len(vec) == k + 1 for (_, k), vec in state.blocks.items())


@pytest.mark.parametrize("dim", [1, 2, 365])
def test_unit_pair_blocks_are_views_of_one_read_only_vector(dim):
    # 16 dim bytes for every block, not 8 dim (dim + 1) for blocks padded to k + 1; evolving it writes nothing into
    # it, and its outputs are the padded unit pair's, bit for bit, tau = 0 included
    state = _unit_pair(dim)
    assert _is_unit_pair(state) and len(state.blocks) == dim
    unit = state.blocks[(0, 0)].base
    assert unit.nbytes == 16 * dim and all(vec.base is unit for vec in state.blocks.values())
    for vec in state.blocks.values():
        with pytest.raises(ValueError, match="read-only"):
            vec[-1] = 2.0
    assert _is_unit_pair(state)
    taus = [0.0, 0.71, 2.5]
    padded = pair_state(np.ones((1, dim)))
    for (_, ours), (_, theirs) in zip(_pair_outputs(state, taus, 0), _pair_outputs(padded, taus, 0), strict=True):
        assert np.array_equal(ours, theirs)


def test_no_experiment_evolves_a_twin_beam(monkeypatch):
    # a twin beam's output is a_{q+r} times the unit pair's: every state the stage-2 experiments evolve, and the
    # pipeline's stage 2, is a unit pair |k, k, 0> summed over k, never a twin beam
    evolved = []

    def recording_evolve(state, tau):
        evolved.append(state)
        return evolve(state, tau)

    monkeypatch.setattr(triwave.experiments, "evolve", recording_evolve)
    chi = math.sqrt(6.0 / 8.0) * complex(np.exp(2.9j))
    runs = {
        "stage2_sweep": lambda: stage2_sweep(chi, np.linspace(0.0, 1.5, 7)),
        "scaling_study": lambda: scaling_study([2.0, 6.0, 4.0], eps=1e-6),
        "find_optimal_tau": lambda: find_optimal_tau(chi),
        "full_pipeline": lambda: full_pipeline(3.0 * np.exp(0.7j), 0.2, 0.71),
    }
    for name, run in runs.items():
        evolved.clear()
        run()
        stage2 = evolved[1:] if name == "full_pipeline" else evolved  # the pipeline's stage 1 evolves its pump
        assert len(stage2) >= (1 if name == "full_pipeline" else 2), name
        assert all(map(_is_unit_pair, stage2)), name


@pytest.mark.parametrize("n_in, chi_phase, eps", [(0.5, 0.0, 1e-10), (6.0, 0.7, 1e-8), (30.0, 2.9, 1e-8)])
def test_stage2_sweep_equals_the_direct_beam_evolve(n_in, chi_phase, eps):
    # the reference evolves the padded twin beam itself at |chi| and scores each time's real pair matrix at chi's
    # phase: every record must have the same repr, tau = 0 included, as a_{q+r} R_r is the beam's own A_r bit for bit
    chi = math.sqrt(n_in / (n_in + 2.0)) * complex(np.exp(1j * chi_phase))
    taus = np.linspace(0.0, 2.5, 11)
    beam = make_twin_beam(abs(chi), eps)
    energy_in = _input_energy(pair_matrix(beam).real)  # the real pair matrix at |chi|, as stage2_sweep reads it
    direct = [_stage2_record(tau, amps, energy_in, cmath.phase(chi)) for tau, amps in _pair_outputs(beam, taus, 0)]
    assert [repr(r) for r in stage2_sweep(chi, taus, eps)] == [repr(r) for r in direct]


@pytest.mark.parametrize("energy", [4.0, 16.0, 36.0, 49.0, 64.0, 81.0])
def test_stage1_scan_equals_the_pair_matrix_scan(monkeypatch, energy):
    # the stage-1 coarse scan sums n_a block by block; it must read as each time's pair matrix does
    scanned = []

    def recording_peak_index(values):
        scanned.append(np.array(values))
        return best_peak_index(values)

    monkeypatch.setattr(triwave.experiments, "best_peak_index", recording_peak_index)
    find_peak_conversion_tau(math.sqrt(energy))
    pump = make_coherent_pump(math.sqrt(energy))
    energy_in = mean_photon(pump, "c")
    taus = 1.5 * np.arange(1, 49) / 48
    (values,) = scanned
    reference = np.array([_moments(amps)[1] / energy_in for _, amps in _pair_outputs(pump, taus, 1)])
    assert np.max(np.abs(values - reference)) <= 1e-15
    assert best_peak_index(values) == best_peak_index(reference)


def test_scaling_study_runs_one_coarse_scan(monkeypatch):
    # each beam is built once; the 64 coarse times are 16 evolves of one unit pair to the largest
    # cut, then each energy's Brent steps evolve its own beam, one time per call
    evolved, built, searches = [], [], []
    brent, build = triwave.experiments._brent_max, triwave.experiments.make_twin_beam

    def recording_evolve(state, tau):
        evolved.append((np.size(tau), len(state.blocks)))
        return evolve(state, tau)

    def recording_brent(f, lo, hi, tol):
        calls = []
        result = brent(lambda tau: (calls.append(tau), f(tau))[1], lo, hi, tol)
        searches.append(len(calls))
        return result

    def recording_build(chi, eps):
        built.append(build(chi, eps))
        return built[-1]

    monkeypatch.setattr(triwave.experiments, "evolve", recording_evolve)
    monkeypatch.setattr(triwave.experiments, "_brent_max", recording_brent)
    monkeypatch.setattr(triwave.experiments, "make_twin_beam", recording_build)
    scaling_study([2.0, 4.0, 6.0], eps=1e-6)
    sizes = [len(beam.blocks) for beam in built]
    assert len(built) == 3 and sizes == [20, 35, 49]
    expected = [(4, 49)] * 16 + [(1, size) for size, evals in zip(sizes, searches) for _ in range(evals)]
    assert evolved == expected and _SCAN_CHUNK == 4


def _golden_max(f, lo: float, hi: float, tol: float) -> float:
    """Golden-section maximization on [lo, hi]; ties prefer the left side.  The search's
    refinement before Brent's method, kept as an independent reference."""
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
    return 0.5 * (a + b)


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

_PEAKS = {
    "smooth": lambda x: -((x - 0.37) ** 2),
    "skewed": lambda x: math.sin(3.0 * x) * math.exp(-x),
    "rising": lambda x: x,  # the maximum at the right edge of the bracket
    "falling": lambda x: -x,  # and at the left edge
    "kink": lambda x: -abs(x - 0.61),
    "flat": lambda x: 1.0,
}


@pytest.mark.parametrize("bracket", [(0.0, 1.0), (0.3, 0.9), (-2.0, 3.0), (0.5, 0.50003)])
@pytest.mark.parametrize("tol", [1e-5, 1e-9])
@pytest.mark.parametrize("peak", list(_PEAKS))
def test_brent_max_follows_scipy_bounded_step_for_step(peak, tol, bracket):
    # scipy minimizes -f; the same x bit for bit from the same number of evaluations,
    # and the value and data handed back are those of the returned point
    value = _PEAKS[peak]
    calls = []

    def f(x):
        calls.append(x)
        return value(x), x

    x, best, data = _brent_max(f, *bracket, tol)
    ref = minimize_scalar(lambda t: -value(t), bounds=bracket, method="bounded", options={"xatol": tol})
    assert x == ref.x and len(calls) == ref.nfev
    assert (best, data) == (value(x), x) == (-ref.fun, x)
    if peak == "flat":  # every new point ties the best, and a tie goes to the later evaluation
        assert x == calls[-1]


def _golden_search(monkeypatch):
    """Make the optimizers refine by golden section, then evolve tau_opt once more, as they did before Brent."""

    def golden(f, lo, hi, tol):
        tau = _golden_max(lambda t: f(t)[0], lo, hi, tol)
        return (tau, *f(tau))

    monkeypatch.setattr(triwave.experiments, "_brent_max", golden)


@pytest.mark.parametrize("n_in", [2.0, 6.0, 12.0])
def test_find_optimal_tau_agrees_with_golden_section(n_in, scaling_at_1e_8, monkeypatch):
    # the same coarse bracket, refined by Brent's method instead: tau_opt within tol
    point = scaling_at_1e_8[n_in]
    _golden_search(monkeypatch)
    tau, overlap, eta = find_optimal_tau(math.sqrt(n_in / (n_in + 2.0)), eps=1e-8)
    assert abs(point.tau_opt - tau) <= 1e-5
    assert abs(point.overlap - overlap) <= 1e-9


@pytest.mark.parametrize("energy", [4.0, 16.0, 49.0])
def test_find_peak_conversion_tau_agrees_with_golden_section(energy, monkeypatch):
    tau, eta = find_peak_conversion_tau(math.sqrt(energy))
    _golden_search(monkeypatch)
    golden_tau, golden_eta = find_peak_conversion_tau(math.sqrt(energy))
    assert abs(tau - golden_tau) <= 1e-5
    assert abs(eta - golden_eta) <= 1e-9


def _turned(amps, phase, axis):
    """The complex pair matrix e^{i phase (q + r)} (-i)^n A_r of a real A_r, n its index along axis, by exact powers."""
    q, r = np.indices(amps.shape)
    return np.exp(1j * phase * (q + r)) * np.array([1.0, -1j, -1.0, 1j])[(q, r)[axis] % 4] * amps


@pytest.mark.parametrize("size", [1, 31, 32, 33, 365])
def test_pair_purity_matches_the_density_matrix_path(size):
    # stage 1 and the stage-2 records sum Tr rho_c^2 over blocks of 32 rows of the real A_r A_r^T instead of forming
    # rho_c = A A^dag of the complex A, a pump's or a beam's, at a phase
    rng = np.random.default_rng(size)
    amps = rng.normal(size=(size, size))
    amps /= np.linalg.norm(amps)
    for axis in (0, 1):
        dense = _turned(amps, rng.uniform(0.0, 2.0 * math.pi), axis)
        assert abs(_pair_purity(amps) - purity(dense @ dense.conj().T)) <= 1e-14
        assert abs(_pair_purity(amps.T) - purity(dense @ dense.conj().T)) <= 1e-14


@pytest.mark.parametrize("size", [1, 2, 3, 7, 64, 100, 255, 256, 257, 507, 600, 1023, 1024, 1025, 1500])
def test_pair_matched_overlap_matches_dense_path(size):
    # the stage-2 search and record read the lag sums from the real A_r by real FFTs and turn them by the phase; the
    # dense path forms rho_c = A A^dag of the complex A = e^{i phase (q + r)} (-i)^q A_r.  256/257 and 1024/1025
    # straddle a doubling of the FFT length; past 1024 the lags fold onto the phase grid
    rng = np.random.default_rng(size)
    amps = rng.normal(size=(size, size))
    amps[np.add.outer(np.arange(size), np.arange(size)) >= size] = 0.0  # pair matrices are triangular
    amps /= np.linalg.norm(amps)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    n_bar = _moments(amps)[0]
    _, weights = _pcs_weights(n_bar, size)
    turned = _turned(amps, phase, 0)
    dense = turned @ turned.conj().T
    sums = _pair_lag_sums(amps, weights, phase)
    assert np.max(np.abs(sums - _lag_sums(weights[:, None] * dense * weights[None, :]))) <= 1e-13
    overlap, lam = _pair_matched_overlap(amps, n_bar, phase)
    expected_overlap, expected_lam = matched_pcs_overlap_rho(dense)
    assert abs(overlap - expected_overlap) <= 1e-14
    assert abs(lam - expected_lam) <= 1e-12
    record = _stage2_record(0.0, amps, 1.0, phase)
    assert (record.overlap, record.lambda_or_chi, record.n_c) == (overlap, lam, n_bar)
    assert abs(record.delta_phi / reciprocal_peak_likelihood(dense) - 1.0) <= 1e-12
    assert abs(record.purity / purity(dense) - 1.0) <= 1e-12


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
    with pytest.raises(ValueError, match="same x"):  # polyfit is rank-deficient on one distinct x
        fit_power_law([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="xs and ys must be 1-D arrays of equal length"):
        fit_power_law([1.0, 2.0, 3.0], [1.0, 2.0])


@pytest.fixture(scope="module")
def scaling_at_1e_8():
    points, _ = scaling_study([2.0, 6.0, 12.0], eps=1e-8)
    return {p.n_in: p for p in points}


@pytest.mark.parametrize("stage, energy", [(2, 2.0), (2, 6.0), (2, 12.0), (1, 16.0)])
def test_optimizers_report_the_sweep_record_at_tau_opt(stage, energy, scaling_at_1e_8):
    # the optimum of each search is the sweep's record at tau_opt, bit for bit
    if stage == 1:
        tau_opt, eta = find_peak_conversion_tau(math.sqrt(energy))
        (rec,) = stage1_sweep(math.sqrt(energy), [tau_opt])
        assert (rec.tau, rec.eta) == (tau_opt, eta)
        return
    chi = math.sqrt(energy / (energy + 2.0))
    found = find_optimal_tau(chi, eps=1e-8)
    point = scaling_at_1e_8[energy]
    (rec,) = stage2_sweep(chi, [found[0]], eps=1e-8)
    assert found == (point.tau_opt, point.overlap, point.eta) == (rec.tau, rec.overlap, rec.eta)
    assert (point.n_out, point.purity, point.delta_phi, point.matched_lambda) == (
        rec.n_c, rec.purity, rec.delta_phi, rec.lambda_or_chi
    )


@pytest.fixture(scope="module")
def optima_at_chi_phase():
    chis = [math.sqrt(n_in / (n_in + 2.0)) * complex(np.exp(0.7j)) for n_in in (2.0, 20.0, 54.0)]
    return dict(zip((2.0, 20.0, 54.0), _stage2_optima(chis, 1e-8)))


@pytest.mark.parametrize("chi_phase", [0.0, 0.7])
@pytest.mark.parametrize("n_in", [2.0, 20.0, 54.0])
def test_stage2_optimum_records_the_maximum_the_search_found(n_in, chi_phase, scaling_data, optima_at_chi_phase):
    # the overlap and lambda of the record at tau_opt are the search objective's, bit for bit, read from the
    # pair matrix Brent's method evaluated there
    if chi_phase == 0.0:
        point = next(p for p in scaling_data["points"] if p.n_in == n_in)
        tau_opt, found = point.tau_opt, (point.overlap, point.matched_lambda)
    else:
        rec = optima_at_chi_phase[n_in]
        tau_opt, found = rec.tau, (rec.overlap, rec.lambda_or_chi)
    beam = make_twin_beam(math.sqrt(n_in / (n_in + 2.0)), eps=1e-8)  # at |chi|, its phase turning the lag sums
    ((_, amps),) = _pair_outputs(beam, [tau_opt], 0)
    assert found == _pair_matched_overlap(amps, _moments(amps)[0], chi_phase)


def test_records_are_built_in_one_place_each():
    # one scorer per kind of output: stage 1, a pure stage-2 output (from A) and the mixed pipeline (from rho);
    # ScalingPoint comes from scaling_study only
    tree = ast.parse(Path(triwave.experiments.__file__).read_text())
    sites = set()
    for stmt in tree.body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("SweepRecord", "ScalingPoint"):
                sites.add((node.func.id, getattr(stmt, "name", "<module>")))
    expected = {
        ("SweepRecord", "stage1_sweep"),
        ("SweepRecord", "_stage2_record"),
        ("SweepRecord", "pipeline_record"),
        ("ScalingPoint", "scaling_study"),
    }
    assert sites == expected


def test_experiments_evolve_in_one_place():
    # every time the experiments evolve goes through _pair_outputs, which checks it first
    # (the stage-1 coarse scan reads only moments, through evolved_moments)
    tree = ast.parse(Path(triwave.experiments.__file__).read_text())
    sites = set()
    for stmt in tree.body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "evolve":
                sites.add(getattr(stmt, "name", "<module>"))
    assert sites == {"_pair_outputs"}


def test_experiments_read_twin_beams_and_build_unit_pairs_in_one_place_each():
    # each twin beam is built and read once, by _beam_rows; the unit pair, by evolution._unit_pair, is built only in
    # _unit_pair_outputs, and no experiment builds a state through pair_state
    tree = ast.parse(Path(triwave.experiments.__file__).read_text())
    sites = set()
    for stmt in tree.body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("make_twin_beam", "pair_state",
                                                                                  "_unit_pair"):
                sites.add((node.func.id, getattr(stmt, "name", "<module>")))
    assert sites == {("make_twin_beam", "_beam_rows"), ("_unit_pair", "_unit_pair_outputs")}


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
    "energies",
    [[30.0, 54.0, -1.0], [30.0, 54.0], [2.0, math.nan, 4.0], [2.0, math.inf, 4.0], [0.0, 1.0, 2.0], [2.0, 2.0, 2.0]],
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


def test_scaling_study_refuses_a_vacuum_energy_before_any_search(monkeypatch):
    # the last energy truncates to the vacuum, and is refused before the first two energies are searched
    def refuse(state, tau):
        raise AssertionError("evolved")

    monkeypatch.setattr(triwave.experiments, "evolve", refuse)
    with pytest.raises(ValueError, match="carries no photons"):
        scaling_study([1.0, 2.0, 1e-300])


def test_pipeline_density_matrix_is_valid():
    alpha = 3.0
    tau1 = math.atanh(math.sqrt(1.0 / 3.0)) / alpha
    rho = full_pipeline(alpha, tau1, 0.9)
    assert is_complex_matrix(rho)
    check_density_matrix(rho)
    assert abs(np.trace(rho).real - 1.0) < 1e-10
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
            branch_rho = reduce_mode_c(evolve(ThreeModeState.from_fock_dict(branch, normalize=True), tau2))
            rho[: len(branch_rho), : len(branch_rho)] += weight * branch_rho  # padded to the common cutoff
    return rho


@pytest.mark.parametrize("energy", [1.0, 9.0, 25.0])
@pytest.mark.parametrize("phase", [0.0, 0.7])
@pytest.mark.parametrize("tau1, tau2", [(0.2, 0.9), (0.0, 0.7), (0.3, 0.0)])
def test_pipeline_equals_branch_mixture(energy, phase, tau1, tau2):
    alpha = math.sqrt(energy) * np.exp(1j * phase)
    rho = full_pipeline(alpha, tau1, tau2)
    expected = _branch_pipeline(alpha, tau1, tau2)
    assert is_complex_matrix(rho) and rho.shape == expected.shape
    assert np.max(np.abs(rho - expected)) <= 1e-12


def test_pipeline_zero_first_stage_keeps_vacuum():
    rho = full_pipeline(2.0, 0.0, 0.7)
    assert is_complex_matrix(rho)
    assert rho[0, 0] == pytest.approx(1.0, abs=1e-12)



@pytest.mark.parametrize("energy", [81.0, 144.0, 256.0])
def test_pipeline_working_set_stays_within_two_and_three_quarters_density_matrices(energy):
    # the contraction holds the real G_r and the skewed real R_r, and writes rho_r over G_r one diagonal at a time,
    # through a 64-entry tile; rho is formed once R_r is released.  The peak reads 2.41, 2.17 and 2.07 dim x dim complex
    # arrays at pumps 81, 144 and 256.  A complex pair matrix formed beside each evolve's real A_r read 2.94, 2.73 and
    # 2.63; forming G from A, its conjugate and G read 3.0, and the scoring of rho, with its weighted copy and a
    # temporary beside it, 3.41, 3.16 and 3.06; two 64-row buffers of p-term sums read 3.68 at pump 81, and whole
    # per-p outer products, with A held through them, 7.0 and 6.7 at pumps 81 and 144
    alpha = math.sqrt(energy)
    tau1 = math.atanh(math.sqrt(2.0 / 3.0)) / alpha  # criterion 8's stage 1: N_in = 4
    dim = len(full_pipeline(alpha, tau1, 0.71))  # builds every eigensystem the call below reads
    pipeline_record(alpha, tau1, 0.71)  # imports numpy.fft untraced: the peak is the same whether or not a test did
    tracemalloc.start()
    try:
        pipeline_record(alpha, tau1, 0.71)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.75 * 16 * dim * dim, f"peak {peak / (16 * dim * dim):.2f} dim x dim complex arrays"


def _whole_term_contraction(alpha, tau1, tau2):
    """The pipeline's sum over whole (dim - p)^2 terms G_r[p:, p:] * outer(R_r[:, p], R_r[:, p]), every element of it,
    with the pump at |alpha| and the real G_r and R_r, then turned by (-1)^(n' - n) e^(-i phi (n' - n)), phi = arg
    alpha, as the pipeline turns its upper triangle."""
    ((_, amps),) = _pair_outputs(make_coherent_pump(abs(alpha)), [tau1], 1)
    density = amps.T @ amps
    dim = len(amps)
    ((_, response),) = _pair_outputs(pair_state(np.ones((1, dim))), [tau2], 0)
    rho = np.zeros((dim, dim))
    for p in range(dim):
        col = response[: dim - p, p]
        rho[: dim - p, : dim - p] += density[p:, p:] * np.outer(col, col.conj())
    lag = np.abs(np.subtract.outer(np.arange(dim), np.arange(dim)))
    return rho * ((-1.0) ** lag * np.exp(-1j * cmath.phase(alpha) * lag))


def _mirrored_upper_triangle(rho):
    """rho's strictly upper triangle, its conjugate below and rho's real diagonal: the pipeline's Hermitian fill."""
    upper = np.triu(rho, 1)
    return upper + upper.conj().T + np.diag(rho.diagonal().real)


@pytest.mark.parametrize(
    "energy, phase", [(81.0, 0.0), (144.0, 0.7), (256.0, 2.0 * math.pi * random.Random(1).random())]
)
def test_pipeline_equals_the_whole_term_contraction(energy, phase):
    # the pipeline sums the same terms along each diagonal d of rho's upper triangle, 64 rows of it at a time, so a
    # diagonal of dim - d entries (dim 145, 228 and 365 here, the last at the pipeline workload's seed-1 phase) ends in
    # a tile of (dim - d) mod 64 rows; each entry's terms are added in the same ascending order, and the rest is
    # mirrored (at the first two inputs the reference's two triangles agree bit for bit; at the third they do not)
    alpha = math.sqrt(energy) * complex(np.exp(1j * phase))
    tau1 = math.atanh(math.sqrt(2.0 / 3.0)) / math.sqrt(energy)
    rho = _whole_term_contraction(alpha, tau1, 0.71)
    assert np.array_equal(full_pipeline(alpha, tau1, 0.71), _mirrored_upper_triangle(rho))


@pytest.mark.parametrize("energy, dim", [(1e-20, 1), (24.5, 63), (25.0, 64), (26.0, 65), (68.0, 128), (69.0, 129)])
def test_pipeline_tiles_rho_up_to_the_64_row_edges(energy, dim):
    # diagonal d of rho's upper triangle, of dim - d entries, is summed in tiles of rows 0..63, 64..127, 128..: these
    # dims end the main diagonal on a tile of 1, 63, 64, 1, 64 and 1 rows, and the shorter diagonals on every smaller
    # tile; the strictly lower triangle is the upper one's conjugate: rho is the whole-term sum's upper triangle,
    # mirrored, with a real diagonal
    alpha = math.sqrt(energy) * complex(np.exp(0.7j))
    rho = full_pipeline(alpha, 0.2, 0.71)
    assert rho.shape == (dim, dim)
    assert np.max(np.abs(rho - _branch_pipeline(alpha, 0.2, 0.71))) <= 1e-12
    assert np.array_equal(rho, _mirrored_upper_triangle(_whole_term_contraction(alpha, 0.2, 0.71)))


@pytest.mark.parametrize("tau2", [0.0, 0.71, 2.5])
@pytest.mark.parametrize("dim", [1, 63, 64, 65, 129, 365])
def test_unit_pair_response_is_real_on_even_rows_and_imaginary_on_odd_rows(dim, tau2):
    # the pipeline reads its stage-2 response B as the real R_r of B = (-i)^n R_r, exact only while propagate keeps
    # the imaginary part of even rows and the real part of odd rows exactly 0
    response = pair_matrix(evolve(pair_state(np.ones((1, dim))), tau2))
    assert np.all(response[0::2].imag == 0.0) and np.all(response[1::2].real == 0.0)
    sign = (-1.0) ** np.arange(dim)
    assert np.array_equal(response.conj(), sign[:, None] * response)


@pytest.mark.parametrize("tau", [0.0, 0.71, 2.5])
@pytest.mark.parametrize("axis, size", [(1, 81.0), (1, 256.0), (0, 1), (0, 64), (0, 365), (0, 507)],
                         ids=["pump-81", "pump-256", "unit-1", "unit-64", "unit-365", "unit-507"])
def test_pair_outputs_keep_the_nonzero_half_and_its_power_of_minus_i(axis, size, tau):
    # _pair_outputs reads the real A_r of A = (-i)^n A_r, n the column r of a pump (input at local index k) or the row
    # q of the unit pair (at local index 0): the half it discards, the other parity's real or imaginary part, must be
    # exactly 0, and A must be A_r times (-i)^n from an exact table, bit for bit.  An input is read as it stands: the
    # pump at |alpha| on axis 1 and a twin beam at |chi| on axis 0 (the scaling workload's, N_in 6, 30 and 54 at eps
    # 1e-8) have an imaginary part of exactly 0, and their A_r is their real part
    state = make_coherent_pump(math.sqrt(size)) if axis else _unit_pair(size)
    inputs = [state] if axis else [make_twin_beam(math.sqrt(n_in / (n_in + 2.0)), 1e-8) for n_in in (6.0, 30.0, 54.0)]
    for source in inputs:
        amps = pair_matrix(source)
        assert np.array_equal(amps.imag, np.zeros_like(amps.imag))
        assert np.array_equal(_real_pair_matrix(source, axis), amps.real)
    amps = pair_matrix(evolve(state, tau))
    ((_, real),) = _pair_outputs(state, [tau], axis)
    parts = np.moveaxis(amps, axis, 0)
    assert np.array_equal(parts[0::2].imag, np.zeros_like(parts[0::2].imag))
    assert np.array_equal(parts[1::2].real, np.zeros_like(parts[1::2].real))
    power = np.array([1.0, -1j, -1.0, 1j])[np.arange(len(amps)) % 4]
    assert np.array_equal(amps, real * (power if axis else power[:, None]))


@settings(max_examples=12, deadline=None)
@given(energy=st.floats(0.25, 64.0), phase=st.floats(-math.pi, math.pi),
       taus=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=6, unique=True).map(sorted))
def test_every_sweep_record_conserves_the_input_weight(energy, phase, taus):
    # n_a + n_b + 2 n_c is conserved by every block, so each record of either stage reads its input's weight: twice
    # the pump's photons in stage 1, the beam's n_a + n_b in stage 2 (at the beam of N_in = energy)
    pump = make_coherent_pump(math.sqrt(energy))
    weight = 2.0 * mean_photon(pump, "c")
    for rec in stage1_sweep(math.sqrt(energy) * complex(np.exp(1j * phase)), taus):
        assert abs(rec.n_a + rec.n_b + 2.0 * rec.n_c - weight) <= 1e-12 * max(1.0, weight)
    chi = math.sqrt(energy / (energy + 2.0)) * complex(np.exp(1j * phase))
    beam = make_twin_beam(chi)
    weight = mean_photon(beam, "a") + mean_photon(beam, "b")
    for rec in stage2_sweep(chi, taus):
        assert abs(rec.n_a + rec.n_b + 2.0 * rec.n_c - weight) <= 1e-12 * max(1.0, weight)


def test_pipeline_rho_is_hermitian_bit_for_bit():
    alpha = 16.0 * complex(np.exp(0.7j))
    rho = full_pipeline(alpha, math.atanh(math.sqrt(2.0 / 3.0)) / 16.0, 0.71)  # the pipeline workload's pump and times
    assert np.array_equal(rho, rho.conj().T)
    assert np.all(rho.diagonal().imag == 0.0)


@pytest.mark.parametrize("tau1, tau2", [(math.nan, 0.5), (0.2, math.inf), (-0.1, 0.5), (0.2, -0.5)])
def test_pipeline_rejects_bad_times(tau1, tau2):
    with pytest.raises(ValueError):
        full_pipeline(3.0, tau1, tau2)
    with pytest.raises(ValueError):
        pipeline_record(3.0, tau1, tau2)


@pytest.mark.parametrize(
    "alpha, tau1", [(2.0, 0.0), (1e-150, 0.3), (9.0, 1e-300), (9.0, 1e-200)],
    ids=["no-time", "no-pairs", "9.0-1e-300", "9.0-1e-200"],
)
def test_pipeline_record_rejects_a_stage_1_without_pairs(alpha, tau1):
    # eta divides by the stage-1 pair energy: rounding at tau1 = 0 and at 1e-300 (8.8e-30 at pump 81,
    # where eta read 0.5331), exactly 0 for a vacuum-like pump
    full_pipeline(alpha, tau1, 0.7)
    with pytest.raises(ValueError, match="no pairs"):
        pipeline_record(alpha, tau1, 0.7)


def test_pipeline_record_scores_full_pipeline():
    alpha = 3.0 * np.exp(0.4j)
    rho = full_pipeline(alpha, 0.2, 0.9)
    assert is_complex_matrix(rho)
    rec = pipeline_record(alpha, 0.2, 0.9)
    overlap, lam = matched_pcs_overlap_rho(rho)
    assert rec.tau == 0.9
    assert rec.overlap == overlap and rec.lambda_or_chi == lam
    assert rec.purity == purity(rho)
    assert rec.delta_phi == reciprocal_peak_likelihood(rho)
    assert rec.n_c == float(np.real(np.diag(rho)) @ np.arange(len(rho)))
    assert math.isnan(rec.n_a) and math.isnan(rec.n_b)
    # eta is over the twin-beam energy of the stage-1 output at tau1
    (mid,) = stage1_sweep(alpha, [0.2])
    assert rec.eta == 2.0 * rec.n_c / (mid.n_a + mid.n_b)


# a number argument's edge values: signed zeros, subnormals, 1e-300 .. 1e300, the edges of |chi| < 1 and eps <= 1e-4,
# nan and the infinities
_EDGE = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-300, 1e-30, 1e-4, 1.0001e-4, 0.5, 1.0 - 2.0**-53,
                         1.0, 1e30, 1e300, -1e300, math.nan, math.inf, -math.inf])
_PHASE = st.floats(-4.0, 4.0)


def _amplitudes(moduli):
    return st.builds(cmath.rect, moduli, _PHASE)


def _times(times):
    return st.lists(times, min_size=1, max_size=3, unique=True).map(sorted)


# each argument's small accepted values, which keep a call to milliseconds, and its edge values; |alpha|^2 is a pump
# energy of 0.5 .. 4 and |chi| a twin beam of N_in 0.67 .. 3.6
_ALPHA = (_amplitudes(st.floats(0.7, 2.0)),
          st.one_of(_EDGE, _amplitudes(_EDGE), st.builds(complex, st.floats(0.7, 2.0), _EDGE)))
_CHI = (_amplitudes(st.floats(0.5, 0.8)),
        st.one_of(_EDGE, _amplitudes(_EDGE), st.builds(complex, st.floats(0.5, 0.8), _EDGE)))
_EPS = (st.floats(1e-10, 1e-4), _EDGE)
_TAU = (st.floats(0.0, 1.0), _EDGE)
_TAUS = (_times(st.floats(0.0, 1.0)), st.builds(list.__add__, _times(st.floats(0.0, 1.0)), _EDGE.map(lambda x: [x])))
_N_IN = (st.tuples(st.floats(0.5, 1.0), st.floats(1.5, 2.5), st.floats(3.0, 4.0)),
         st.tuples(st.floats(0.5, 1.0), st.floats(1.5, 2.5), _EDGE))
_STATE = (st.one_of(_ALPHA[0].map(make_coherent_pump), _CHI[0].map(make_twin_beam)), None)  # no edge
_PUBLIC = {
    make_coherent_pump: {"alpha": _ALPHA, "eps": _EPS},
    make_twin_beam: {"chi": _CHI, "eps": _EPS},
    evolve: {"state": _STATE, "tau": _TAU},
    stage1_sweep: {"pump_alpha": _ALPHA, "tau_grid": _TAUS, "eps": _EPS},
    stage2_sweep: {"chi": _CHI, "tau_grid": _TAUS, "eps": _EPS},
    find_optimal_tau: {"chi": _CHI, "eps": _EPS},
    find_peak_conversion_tau: {"pump_alpha": _ALPHA, "eps": _EPS},
    scaling_study: {"n_in_values": _N_IN, "eps": _EPS},
    full_pipeline: {"pump_alpha": _ALPHA, "tau1": _TAU, "tau2": _TAU, "eps": _EPS},
    pipeline_record: {"pump_alpha": _ALPHA, "tau1": _TAU, "tau2": _TAU, "eps": _EPS},
}
# the fields NaN by design: no single-mode phase of the stage-1 pair marginal, no signal or idler after the pipeline
_NAN_FIELDS = {stage1_sweep: {"delta_phi"}, pipeline_record: {"n_a", "n_b"}}


def _numbers(value, skip):
    """Every number of a public call's output, flat, leaving out the dataclass fields named in skip."""
    if isinstance(value, ThreeModeState):
        return [value.trunc_error, *value.coefficients()]
    if dataclasses.is_dataclass(value):
        return _numbers([getattr(value, f.name) for f in dataclasses.fields(value) if f.name not in skip], skip)
    if isinstance(value, (list, tuple, dict)):
        return [x for item in (value.values() if isinstance(value, dict) else value) for x in _numbers(item, skip)]
    return np.ravel(value).tolist()


@pytest.mark.parametrize("call, edge", [(call, edge) for call, args in _PUBLIC.items() for edge in
                                        (None, *(name for name, (_, edges) in args.items() if edges is not None))],
                         ids=lambda x: getattr(x, "__name__", str(x)))
@settings(max_examples=15, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_public_call_returns_finite_outputs_or_raises_value_error(monkeypatch, call, edge, data):
    # every argument at an accepted value but the one named edge, at an edge value.  A non-finite number let through
    # reaches numpy, whose RuntimeWarning is an error under the suite's filterwarnings, and any exception but
    # ValueError fails the test as it is raised
    monkeypatch.setattr(triwave.blocks, "_EIG_BUDGET_BYTES", 32 * 2**20)  # refuses 1e30 and 1e300 inputs at once
    args = data.draw(st.fixed_dictionaries({name: edges if name == edge else accepted
                                            for name, (accepted, edges) in _PUBLIC[call].items()}))
    try:
        out = call(**args)
    except ValueError:
        return
    assert all(cmath.isfinite(x) for x in _numbers(out, _NAN_FIELDS.get(call, set())))
