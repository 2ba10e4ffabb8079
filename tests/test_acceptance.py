"""Acceptance gate: nine end-to-end checks at their stated tolerances.

Each test computes a verdict, registers a one-line summary that the
terminal hook replays after the run, then asserts.  The two heavy data
sets (stage-1 curves, the optimal-time scaling study) are module-scoped
fixtures shared by several criteria.
"""
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.special import gammaln

from conftest import check_density_matrix, record_criterion
from oracle import dense_oracle_evolve
from triwave import (
    FockTriple,
    ThreeModeState,
    evolve,
    evolve_recombination,
    find_optimal_tau,
    find_peak_conversion_tau,
    fit_power_law,
    full_pipeline,
    make_coherent_pump,
    make_twin_beam,
    matched_pcs_overlap,
    matched_pcs_overlap_rho,
    mean_photon,
    predicted_twin_beam_param,
    reciprocal_peak_likelihood,
    stage1_sweep,
)
from triwave.experiments import scaling_study

PUMP_ENERGIES = (16.0, 36.0, 49.0, 64.0, 81.0)
STAGE1_GRID = np.array([1e-4] + list(np.linspace(0.05, 1.2, 24)))
SCALING_N_IN = tuple(float(n) for n in range(2, 55, 2))
SCALING_EPS = 1e-8


@pytest.fixture(scope="module")
def stage1_curves():
    start = time.monotonic()
    curves = {}
    peaks = {}
    for energy in PUMP_ENERGIES:
        curves[energy] = stage1_sweep(math.sqrt(energy), STAGE1_GRID)
        peaks[energy] = find_peak_conversion_tau(math.sqrt(energy))
    return {"curves": curves, "peaks": peaks, "elapsed": time.monotonic() - start}


@pytest.fixture(scope="module")
def scaling_data():
    start = time.monotonic()
    points, fits = scaling_study(SCALING_N_IN, eps=SCALING_EPS)
    return {"points": points, "fits": fits, "elapsed": time.monotonic() - start}


def verdict(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    record_criterion(f"criterion {number}: {status} - {detail}")
    return f"criterion {number} {status}: {detail}"


def cube_triples(s_max):
    for na in range(s_max + 1):
        for nb in range(s_max + 1):
            for nc in range((s_max - na - nb) // 2 + 1):
                yield na, nb, nc


def l2_state_diff(left, right):
    total = 0.0
    for index in set(left.blocks) | set(right.blocks):
        lv = left.blocks.get(index)
        rv = right.blocks.get(index)
        if lv is None:
            total += float(np.sum(np.abs(rv) ** 2))
        elif rv is None:
            total += float(np.sum(np.abs(lv) ** 2))
        else:
            total += float(np.sum(np.abs(lv - rv) ** 2))
    return math.sqrt(total)


def conserved_weights(state):
    na = mean_photon(state, "a")
    nb = mean_photon(state, "b")
    nc = mean_photon(state, "c")
    return na + nc, na + nb + 2 * nc, na - nb


def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(42)
    cutoff = 8
    triples = list(cube_triples(cutoff))
    start = time.monotonic()
    worst = 0.0
    for _ in range(50):
        amps = {t: complex(rng.normal(), rng.normal()) for t in triples}
        state = ThreeModeState.from_fock_dict(amps)
        dense_in = np.zeros((cutoff + 1,) * 3, dtype=complex)
        for triple, amp in state.to_fock_dict().items():
            dense_in[triple] = amp
        for tau in (0.2, 0.9, 2.5):
            dense_out = dense_oracle_evolve(dense_in, tau, cutoff)
            block_out = evolve(state, tau)
            for t in triples:
                worst = max(worst, abs(block_out.amplitude(FockTriple(*t)) - dense_out[t]))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-8 and elapsed < 10.0
    msg = verdict(1, ok, f"50 random states, max amplitude error {worst:.2e}, {elapsed:.1f} s")
    assert ok, msg


def test_criterion_2_structural_invariants(stage1_curves, scaling_data):
    worst_norm = 0.0
    worst_rev = 0.0
    worst_cons = 0.0
    checked = 0

    def check(state_in, tau):
        nonlocal worst_norm, worst_rev, worst_cons, checked
        out = evolve(state_in, tau)
        worst_norm = max(worst_norm, abs(out.norm() - 1.0))
        worst_rev = max(worst_rev, l2_state_diff(evolve(out, -tau), state_in))
        for before, after in zip(conserved_weights(state_in), conserved_weights(out)):
            worst_cons = max(worst_cons, abs(after - before))
        checked += 1

    for energy in PUMP_ENERGIES:
        pump = make_coherent_pump(math.sqrt(energy))
        for tau in STAGE1_GRID:
            check(pump, float(tau))
    for point in scaling_data["points"]:
        chi = math.sqrt(point.n_in / (point.n_in + 2.0))
        check(make_twin_beam(chi, eps=SCALING_EPS), point.tau_opt)

    ok = worst_norm <= 1e-10 and worst_rev <= 1e-9 and worst_cons <= 1e-8
    msg = verdict(
        2,
        ok,
        f"{checked} sweep points: norm drift {worst_norm:.1e}, "
        f"reversal {worst_rev:.1e}, conservation {worst_cons:.1e}",
    )
    assert ok, msg


def test_criterion_3_analytic_pair_and_ideal_recombination():
    pair = evolve(ThreeModeState.from_fock_dict({(1, 1, 0): 1.0}), math.pi / 2)
    pair_err = abs(pair.amplitude(FockTriple(0, 0, 1)) - (-1j))

    worst_mod = 0.0
    for n in range(1, 11):
        state = ThreeModeState.from_fock_dict({(n, n, 0): 1.0})
        amp = evolve_recombination(state, math.pi / 2).amplitude(FockTriple(0, 0, n))
        worst_mod = max(worst_mod, abs(abs(amp) - 1.0))

    beam = make_twin_beam(math.sqrt(0.5))
    ideal_overlap, _ = matched_pcs_overlap(evolve_recombination(beam, math.pi / 2))

    ok = pair_err <= 1e-10 and worst_mod <= 1e-8 and ideal_overlap > 0.999
    msg = verdict(
        3,
        ok,
        f"pair error {pair_err:.1e}, recombination modulus error {worst_mod:.1e}, "
        f"ideal-recombination overlap {ideal_overlap:.6f}",
    )
    assert ok, msg


def test_criterion_4_stage1_reproduction(stage1_curves):
    peaks = stage1_curves["peaks"]
    curves = stage1_curves["curves"]
    fit = fit_power_law(np.array(PUMP_ENERGIES), np.array([peaks[e][0] for e in PUMP_ENERGIES]))
    fit_ok = abs(fit.exponent - (-1.0 / 3.0)) <= 0.05

    small_tau_ok = all(abs(curves[e][0].overlap - 1.0) <= 1e-6 for e in PUMP_ENERGIES)

    ordering_ok = True
    for j in range(1, len(STAGE1_GRID)):
        values = [curves[e][j].overlap for e in PUMP_ENERGIES]
        if not all(values[i + 1] < values[i] for i in range(len(values) - 1)):
            ordering_ok = False
            break

    runtime_ok = stage1_curves["elapsed"] < 300.0
    ok = fit_ok and small_tau_ok and ordering_ok and runtime_ok
    msg = verdict(
        4,
        ok,
        f"tau_opt(eta) exponent {fit.exponent:.4f} (target -1/3 +- 0.05), "
        f"overlap(tau->0)=1 {small_tau_ok}, energy ordering {ordering_ok}, "
        f"{stage1_curves['elapsed']:.0f} s",
    )
    assert ok, msg


def test_criterion_5_scaling_fits(scaling_data):
    fit_in = scaling_data["fits"]["tau_opt_vs_n_in"]
    fit_out = scaling_data["fits"]["tau_opt_vs_n_out"]
    in_ok = abs(fit_in.prefactor - 1.4) <= 0.15 and abs(fit_in.exponent - (-0.45)) <= 0.04
    out_ok = abs(fit_out.prefactor - 0.9) <= 0.15 and abs(fit_out.exponent - (-0.45)) <= 0.04
    runtime_ok = scaling_data["elapsed"] < 600.0
    ok = in_ok and out_ok and runtime_ok
    msg = verdict(
        5,
        ok,
        f"tau_opt = {fit_in.prefactor:.3f} N_in^{fit_in.exponent:.3f} "
        f"(target 1.4 +- 0.15, -0.45 +- 0.04); "
        f"{fit_out.prefactor:.3f} N_out^{fit_out.exponent:.3f} "
        f"(target 0.9 +- 0.15, -0.45 +- 0.04); {scaling_data['elapsed']:.0f} s",
    )
    assert ok, msg


def test_criterion_6_conversion_and_overlap_ranges(scaling_data):
    points = scaling_data["points"]
    high = [p for p in points if p.n_in >= 20.0]
    eta_ok = all(abs(p.eta - 0.80) <= 0.05 for p in high)
    low_out = [p for p in points if p.n_out <= 20.0]
    overlap_ok = all(0.80 <= p.overlap <= 1.00 for p in low_out)
    overlaps = [p.overlap for p in points]
    monotone_ok = all(b <= a + 1e-12 for a, b in zip(overlaps, overlaps[1:]))
    ok = eta_ok and overlap_ok and monotone_ok
    msg = verdict(
        6,
        ok,
        f"eta(tau_opt) in [{min(p.eta for p in high):.3f}, {max(p.eta for p in high):.3f}] "
        f"for N_in >= 20 (target 0.80 +- 0.05); overlap range "
        f"[{min(p.overlap for p in low_out):.3f}, {max(p.overlap for p in low_out):.3f}] "
        f"for N_out <= 20; non-increasing {monotone_ok}",
    )
    assert ok, msg


def pcs_truncation(n_bar):
    """Reference parameter lam, lam^2 = N / (N + 1), and the number M of Fock states kept."""
    lam = math.sqrt(n_bar / (1.0 + n_bar))
    return lam, max(200, int(30.0 / -math.log(lam**2))) + 1


def pcs_phase_density(n_bar):
    lam, fock_states = pcs_truncation(n_bar)
    vec = lam ** np.arange(fock_states)
    vec = vec / np.linalg.norm(vec)
    return np.outer(vec, vec)


def pcs_exact_uncertainty(n_bar):
    """Exact 1 / max p(phi) of pcs_phase_density(n_bar).

    The state is sum_{n<M} lam^n |n>, normalized; its phase density peaks
    at phi = 0 with p(0) = (sum lam^n)^2 / (2 pi sum lam^(2n)).
    """
    lam, m = pcs_truncation(n_bar)
    return 2.0 * math.pi * (1.0 - lam) * (1.0 - lam ** (2 * m)) / ((1.0 + lam) * (1.0 - lam**m) ** 2)


def coherent_phase_density(n_bar):
    cutoff = int(n_bar + 12.0 * math.sqrt(n_bar) + 20.0)
    n = np.arange(cutoff + 1)
    vec = np.exp(-0.5 * n_bar + 0.5 * n * np.log(n_bar) - 0.5 * gammaln(n + 1))
    vec = vec / np.linalg.norm(vec)
    return np.outer(vec, vec)


def test_criterion_7_phase_uncertainty_scaling(scaling_data):
    points = scaling_data["points"]
    fit_main = fit_power_law(
        np.array([p.n_out for p in points]), np.array([p.delta_phi for p in points])
    )
    main_ok = abs(fit_main.exponent - (-0.75)) <= 0.10

    n_bars = np.arange(4.0, 51.0, 2.0)
    # Ideal-reference control.  For |psi> ~ sum lam^n |n> the canonical phase
    # density is (1 - lam^2) / (2 pi (1 - 2 lam cos phi + lam^2)), whose peak
    # (1 + lam) / (2 pi (1 - lam)) gives delta_phi = 2 pi (1 - lam) / (1 + lam).
    # With lam^2 = N / (N + 1) that is 2 pi (sqrt(N + 1) - sqrt(N))^2, which
    # tends to pi / (2 N) but has local log-log slope -sqrt(N / (N + 1)):
    # -0.894 at N = 4, -0.990 at N = 50.  The exponent -1 is only the N -> oo
    # limit, so the fit over this grid is checked against the same fit of the
    # closed form, and each point against the exact value for the M Fock
    # states actually kept.
    pcs = np.array([reciprocal_peak_likelihood(pcs_phase_density(nb)) for nb in n_bars])
    pcs_exact = np.array([pcs_exact_uncertainty(nb) for nb in n_bars])
    pcs_dev = float(np.max(np.abs(pcs / pcs_exact - 1.0)))
    fit_pcs = fit_power_law(n_bars, pcs)
    pcs_target = fit_power_law(
        n_bars, 2.0 * np.pi * (np.sqrt(n_bars + 1.0) - np.sqrt(n_bars)) ** 2
    ).exponent
    pcs_ok = pcs_dev <= 1e-12 and abs(fit_pcs.exponent - pcs_target) <= 0.03
    fit_coh = fit_power_law(
        n_bars, np.array([reciprocal_peak_likelihood(coherent_phase_density(nb)) for nb in n_bars])
    )
    coh_ok = abs(fit_coh.exponent - (-0.5)) <= 0.03

    ok = main_ok and pcs_ok and coh_ok
    msg = verdict(
        7,
        ok,
        f"delta_phi exponent {fit_main.exponent:.3f} (target -0.75 +- 0.10); controls: "
        f"ideal reference {fit_pcs.exponent:.4f} (target {pcs_target:.4f} +- 0.03, the fit of "
        f"2 pi (sqrt(N+1) - sqrt(N))^2; largest pointwise deviation {pcs_dev:.1e} <= 1e-12), "
        f"coherent {fit_coh.exponent:.4f} (target -0.5 +- 0.03)",
    )
    assert ok, msg


def test_criterion_8_pipeline_consistency():
    alpha = 9.0
    tau1 = math.atanh(math.sqrt(2.0 / 3.0)) / alpha
    chi = predicted_twin_beam_param(alpha, tau1)
    n_in = 2.0 * abs(chi) ** 2 / (1.0 - abs(chi) ** 2)
    tau2, ideal_overlap, _ = find_optimal_tau(chi)
    rho = full_pipeline(alpha, tau1, tau2)
    check_density_matrix(rho)
    pipeline_overlap, _ = matched_pcs_overlap_rho(rho)
    diff = abs(pipeline_overlap - ideal_overlap)
    ok = abs(n_in - 4.0) <= 1e-9 and diff < 0.05
    msg = verdict(
        8,
        ok,
        f"N_in {n_in:.3f}, tau2 {tau2:.4f}, pipeline overlap {pipeline_overlap:.4f} "
        f"vs ideal {ideal_overlap:.4f}, difference {diff:.4f} (< 0.05)",
    )
    assert ok, msg


def test_criterion_9_cli_determinism(tmp_path):
    problems = []

    def run_twice(args, name):
        # the exact same invocation repeated, bytes captured between runs
        out = tmp_path / name
        cmd = [sys.executable, "-m", "triwave"] + args + ["--out", str(out)]
        blobs = []
        for _ in range(2):
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                problems.append(f"{name}: exit {proc.returncode}: {proc.stderr.strip()}")
                return False
            blobs.append(out.read_bytes())
            out.unlink()
        return blobs[0] == blobs[1]

    csv_same = run_twice(
        ["stage2", "--n-in", "2", "--tau-max", "1.5", "--tau-steps", "12"], "sweep.csv"
    )
    json_same = run_twice(
        ["scaling", "--n-in-list", "1:3:1", "--eps", "1e-6", "--format", "json"], "scaling.json"
    )
    ok = csv_same and json_same and not problems
    msg = verdict(
        9,
        ok,
        f"byte-identical reruns: sweep csv {csv_same}, scaling json {json_same}"
        + (f"; {'; '.join(problems)}" if problems else ""),
    )
    assert ok, msg
