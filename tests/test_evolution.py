"""State container, the pair layout, and exact block evolution against a dense oracle."""
import ast
import math
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import triwave.blocks
import triwave.evolution
from triwave import (
    FockTriple,
    ThreeModeState,
    evolve,
    evolve_recombination,
    make_coherent_pump,
    make_twin_beam,
    matched_pcs_overlap,
    mean_photon,
    overlap_with_product,
    reduce_mode_c,
)
from conftest import SCALING_EPS, SCALING_N_IN
from oracle import dense_oracle_evolve
from triwave.evolution import _pair_eigensystem_bytes, check_time_domain, evolved_moments, pair_matrix, pair_state


def cube_triples(cutoff, s_max):
    for na in range(cutoff + 1):
        for nb in range(cutoff + 1):
            for nc in range(cutoff + 1):
                if na + nb + 2 * nc <= s_max:
                    yield na, nb, nc


def random_state(rng, s_max=8):
    amps = {}
    for triple in cube_triples(8, s_max):
        amps[triple] = complex(rng.normal(), rng.normal())
    return ThreeModeState.from_fock_dict(amps)


def state_diff(left, right):
    keys = set(left.to_fock_dict()) | set(right.to_fock_dict())
    return math.sqrt(sum(abs(left.amplitude(t) - right.amplitude(t)) ** 2 for t in keys))


def test_from_fock_dict_normalizes():
    state = ThreeModeState.from_fock_dict({(1, 1, 0): 3.0, (0, 0, 1): 4.0j})
    assert abs(state.norm() - 1.0) < 1e-14
    assert abs(state.amplitude(FockTriple(1, 1, 0)) - 0.6) < 1e-14
    assert abs(state.amplitude(FockTriple(0, 0, 1)) - 0.8j) < 1e-14
    assert state.amplitude(FockTriple(5, 0, 0)) == 0.0


# the last state's norm underflows to 0, which would divide every amplitude into inf or nan
@pytest.mark.parametrize("amplitudes", [{}, {(1, 1, 0): 0.0}, {(1, 1, 0): 1e-300j, (0, 0, 1): -1e-300}])
def test_from_fock_dict_refuses_to_normalize_a_zero_state(amplitudes):
    with pytest.raises(ValueError, match="cannot normalize a zero state"):
        ThreeModeState.from_fock_dict(amplitudes)


def test_to_fock_dict_roundtrip():
    amps = {(2, 2, 0): 0.5, (1, 1, 1): 0.5, (0, 0, 2): 0.5, (1, 0, 0): 0.5}
    state = ThreeModeState.from_fock_dict(amps, normalize=False)
    back = state.to_fock_dict()
    for triple, amp in amps.items():
        assert abs(back[FockTriple(*triple)] - amp) < 1e-14


@settings(max_examples=80, deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 4)),
        st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
        max_size=30,
    )
)
def test_occupations_match_the_local_basis(amplitudes):
    state = ThreeModeState.from_fock_dict(amplitudes, normalize=False)
    n_a, n_b, n_c = state.occupations()
    coefficients = state.coefficients()
    assert all(np.issubdtype(occ.dtype, np.integer) for occ in (n_a, n_b, n_c))
    position = 0
    for index, vec in state.blocks.items():
        for n, amp in enumerate(vec):
            triple = (index.k - n, index.s - index.k - n, n)  # local index n of block (s, k) is |k-n, s-k-n, n>
            assert (n_a[position], n_b[position], n_c[position]) == triple
            assert amp == amplitudes.get(triple, 0.0) == coefficients[position]
            position += 1
    assert position == len(n_a) == len(n_b) == len(n_c) == len(coefficients)
    assert coefficients.dtype == complex
    assert not any(np.shares_memory(coefficients, vec) for vec in state.blocks.values())


def test_mode_support():
    # structural bound over the populated blocks, reachable under evolution
    state = ThreeModeState.from_fock_dict({(3, 1, 2): 1.0, (0, 4, 0): 1.0})
    na, nb, nc = state.mode_support()
    assert (na, nb, nc) == (5, 4, 3)


def test_evolve_single_pair_closed_form():
    # the (2,1) block is a 2x2 with unit coupling, so the pair amplitude
    # follows cos(tau) and the converted one -i sin(tau)
    state = ThreeModeState.from_fock_dict({(1, 1, 0): 1.0})
    for tau in (0.0, 0.3, 1.1, math.pi / 2, 2.8):
        out = evolve(state, tau)
        assert abs(out.amplitude(FockTriple(1, 1, 0)) - math.cos(tau)) < 1e-12
        assert abs(out.amplitude(FockTriple(0, 0, 1)) - (-1j) * math.sin(tau)) < 1e-12


def test_pair_fully_converts_at_quarter_period():
    state = ThreeModeState.from_fock_dict({(1, 1, 0): 1.0})
    out = evolve(state, math.pi / 2)
    assert abs(out.amplitude(FockTriple(0, 0, 1)) - (-1j)) < 1e-10


def test_block_evolution_matches_dense_oracle():
    rng = np.random.default_rng(2024)
    cutoff = 8
    dim = cutoff + 1
    for tau in (0.2, 0.9, 2.5):
        state = random_state(rng)
        dense_in = np.zeros((dim, dim, dim), dtype=complex)
        for triple, amp in state.to_fock_dict().items():
            dense_in[triple] = amp
        dense_out = dense_oracle_evolve(dense_in, tau, cutoff)
        block_out = evolve(state, tau)
        for na, nb, nc in cube_triples(cutoff, 8):
            assert abs(block_out.amplitude(FockTriple(na, nb, nc)) - dense_out[na, nb, nc]) < 1e-8


def test_oracle_preserves_unreachable_amplitudes():
    # weight-conserving dynamics never populates higher-weight corners
    dense_in = np.zeros((3, 3, 3), dtype=complex)
    dense_in[1, 1, 0] = 1.0
    out = dense_oracle_evolve(dense_in, 0.7, 2)
    assert abs(out[2, 2, 2]) < 1e-14
    assert abs(out[2, 0, 0]) < 1e-14


def test_oracle_cutoff_validation():
    with pytest.raises(ValueError):
        dense_oracle_evolve(np.zeros((10, 10, 10), dtype=complex), 0.1, 9)
    with pytest.raises(ValueError):
        dense_oracle_evolve(np.zeros((3, 3), dtype=complex), 0.1, 2)


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(0, 4)).filter(lambda t: t[0] + t[1] + 2 * t[2] <= 8),
        st.complex_numbers(min_magnitude=0.1, max_magnitude=10.0, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=12,
    ),
    st.floats(-3.0, 3.0),
)
def test_block_evolution_agrees_with_the_oracle_on_random_states(amplitudes, tau):
    # random states of weight <= 8 on the cutoff-8 cube, where the oracle is exact
    state = ThreeModeState.from_fock_dict(amplitudes)
    dense_in = np.zeros((9, 9, 9), dtype=complex)
    for triple, amp in state.to_fock_dict().items():
        dense_in[triple] = amp
    out = evolve(state, tau)
    block_out = np.zeros_like(dense_in)
    for triple, amp in out.to_fock_dict().items():
        block_out[triple] = amp
    assert np.max(np.abs(block_out - dense_oracle_evolve(dense_in, tau, 8))) < 1e-8
    assert abs(out.norm() - 1.0) < 1e-12
    assert state_diff(evolve(out, -tau), state) < 1e-12
    for weight in (
        lambda st: mean_photon(st, "a") + mean_photon(st, "c"),
        lambda st: mean_photon(st, "a") + mean_photon(st, "b") + 2 * mean_photon(st, "c"),
    ):
        assert abs(weight(out) - weight(state)) < 1e-10


def test_evolution_is_reversible():
    rng = np.random.default_rng(5)
    state = random_state(rng, s_max=6)
    back = evolve(evolve(state, 1.3), -1.3)
    assert state_diff(back, state) < 1e-12


def test_evolution_conserves_mode_combinations():
    rng = np.random.default_rng(11)
    state = random_state(rng, s_max=7)
    out = evolve(state, 0.9)
    for weight in (
        lambda st: mean_photon(st, "a") + mean_photon(st, "c"),
        lambda st: mean_photon(st, "a") + mean_photon(st, "b") + 2 * mean_photon(st, "c"),
        lambda st: mean_photon(st, "a") - mean_photon(st, "b"),
    ):
        assert abs(weight(out) - weight(state)) < 1e-10


def test_norm_of_the_fixture_twin_beams_is_one_to_the_last_bit():
    # the block norms are added with math.fsum: a plain running sum read up to 1.1e-15 on these beams, before any evolve
    for n_in in SCALING_N_IN:
        beam = make_twin_beam(math.sqrt(n_in / (n_in + 2.0)), eps=SCALING_EPS)
        assert abs(beam.norm() - 1.0) <= 2.3e-16
        assert abs(evolve(beam, 0.5).norm() - 1.0) <= 2.3e-16


def test_trunc_error_carried_through_evolution():
    state = ThreeModeState.from_fock_dict({(1, 1, 0): 1.0}, trunc_error=1e-9)
    assert evolve(state, 0.4).trunc_error == 1e-9
    assert evolve_recombination(state, 0.4).trunc_error == 1e-9


@pytest.mark.parametrize("n", range(1, 11))
def test_recombination_maps_pairs_onto_single_mode(n):
    # ideal conversion sends n pairs to n quanta with phase (-i)^n
    state = ThreeModeState.from_fock_dict({(n, n, 0): 1.0})
    out = evolve_recombination(state, math.pi / 2)
    target = out.amplitude(FockTriple(0, 0, n))
    assert abs(abs(target) - 1.0) < 1e-8
    assert abs(target - (-1j) ** n) < 1e-8


def test_recombination_differs_from_trilinear_evolution():
    state = ThreeModeState.from_fock_dict({(2, 2, 0): 1.0})
    tri = evolve(state, math.pi / 2)
    rec = evolve_recombination(state, math.pi / 2)
    assert abs(rec.amplitude(FockTriple(0, 0, 2)) - (-1.0)) < 1e-10
    assert abs(abs(tri.amplitude(FockTriple(0, 0, 2))) - 1.0) > 0.05


def _block_scatter(state):
    """Pair matrix by the per-block scatter that pair_matrix replaced (reference)."""
    dim = state.mode_support()[0] + 1
    amps = np.zeros((dim, dim), dtype=complex)
    for (_, k), vec in state.blocks.items():
        n = np.arange(k + 1)
        amps[n, k - n] = vec
    return amps


@pytest.mark.parametrize(
    "make",
    [
        lambda: make_twin_beam(math.sqrt(6.0 / 8.0), 1e-8),
        lambda: make_twin_beam(math.sqrt(54.0 / 56.0), 1e-8),
        lambda: make_coherent_pump(9.0 * np.exp(0.3j)),
    ],
    ids=["twin-beam-6", "twin-beam-54", "pump-81"],
)
@pytest.mark.parametrize("tau", [None, 0.7, np.array([0.1, 0.5, 1.2, 2.9])], ids=["unevolved", "scalar", "4-times"])
def test_pair_matrices_equal_the_block_scatter(make, tau):
    states = [make()] if tau is None else evolve(make(), tau)
    states = states if isinstance(states, list) else [states]
    assert len(states) == np.size(tau)  # np.size(None) is 1
    for state in states:
        amps, expected = pair_matrix(state), _block_scatter(state)
        assert amps.shape == expected.shape
        assert amps.tobytes() == expected.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(1, 7),
    cols=st.integers(1, 7),
    shape=st.sampled_from(["row", "column", "triangular"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_pair_state_round_trip(rows, cols, shape, seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
    if shape == "row":
        A = A[:1]
    elif shape == "column":
        A = A[:, :1]
    else:
        A[np.add.outer(np.arange(rows), np.arange(cols)) >= max(rows, cols)] = 0.0
    state = pair_state(A, trunc_error=1e-9)
    K = sum(A.shape) - 2
    assert list(state.blocks) == [(2 * k, k) for k in range(K + 1)]
    assert state.trunc_error == 1e-9
    for (q, r), amp in np.ndenumerate(A):
        assert state.amplitude(FockTriple(r, r, q)) == amp
    got = pair_matrix(state)
    expected = np.zeros((K + 1, K + 1), dtype=complex)
    expected[: A.shape[0], : A.shape[1]] = A
    assert np.array_equal(got, expected)


def test_pair_matrices_reject_a_block_off_the_pair_layout():
    state = ThreeModeState.from_fock_dict({(1, 1, 0): 0.6, (2, 1, 0): 0.8})  # |2, 1, 0> is in block (3, 2)
    with pytest.raises(ValueError, match="s=3, k=2"):
        pair_matrix(state)


@pytest.mark.parametrize("module", ["states", "experiments", "metrics"])
def test_only_evolution_builds_pair_blocks(module):
    # the (2k, k) layout and the block-to-Fock map have one owner: the other modules go through
    # pair_state, pair_matrix and ThreeModeState.occupations, and import nothing from blocks
    path = Path(triwave.evolution.__file__).with_name(f"{module}.py")
    offending = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            from_blocks = node.module in ("blocks", "triwave.blocks")
            offending += [alias.name for alias in node.names if from_blocks or alias.name == "BlockIndex"]
        elif isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "ThreeModeState":
            offending.append("ThreeModeState(...)")
    assert offending == []


@pytest.mark.parametrize("module", ["__init__", "blocks", "cli", "experiments", "metrics", "states"])
def test_only_evolution_reads_private_attributes_of_a_state(module):
    # a state's private parts belong to evolution: the other modules read its blocks, its trunc_error
    # and its public methods, and no other attribute with a leading underscore of anything
    path = Path(triwave.evolution.__file__).with_name(f"{module}.py")
    private = [node.attr for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Attribute) and node.attr.startswith("_") and not node.attr.startswith("__")]
    assert private == []


@pytest.mark.parametrize(
    "call",
    [
        lambda: evolve(make_coherent_pump(2.0), 1e15),
        lambda: evolve(make_coherent_pump(2.0), np.array([0.1, 1e15])),
        lambda: evolve(ThreeModeState.from_fock_dict({(3, 1, 0): 1.0, (0, 2, 2): 0.5j, (5, 5, 5): 0.2}), 1e15),
        lambda: evolve_recombination(ThreeModeState.from_fock_dict({(2, 2, 0): 1.0, (6, 6, 0): 1.0}), 1e15),
        lambda: evolve(make_coherent_pump(2.0), math.nan),
        lambda: evolve(make_coherent_pump(2.0), math.inf),
        lambda: evolve(make_coherent_pump(2.0), -math.inf),
        lambda: evolve(ThreeModeState.from_fock_dict({(0, 0, 0): 1.0}), math.inf),  # lambda_max = 0
    ],
    ids=["pump-1e15", "pump-1e15-of-two-times", "general-state", "recombination", "nan", "inf", "minus-inf",
         "vacuum-inf"],
)
def test_evolve_refuses_times_outside_the_exact_domain(monkeypatch, call):
    # at 1e15 the pump-2 state read n_a 2.086, and 1.825 at 1e15 + 0.125; nothing is propagated before the refusal
    monkeypatch.setattr(triwave.blocks.BlockHamiltonian, "propagate", lambda *args: pytest.fail("propagated"))
    with pytest.raises(ValueError, match="exact time domain"):
        call()


def test_evolve_domain_ends_at_the_check_time_domain_limit():
    # evolve's one domain rule is check_time_domain's: 2^53 * 1e-8 over the Gershgorin bound of block (2K, K)
    pump = make_coherent_pump(2.0)
    top = pump.mode_support()[2]
    limit = 2.0**53 * 1e-8 / (2.0 * triwave.blocks.trilinear_offdiag((2 * top, top)).max())
    assert abs(evolve(pump, limit).norm() - 1.0) < 1e-12
    with pytest.raises(ValueError, match="exact time domain"):
        evolve(pump, np.nextafter(limit, math.inf))


def test_evolve_refuses_before_building_any_eigensystem(monkeypatch):
    # N_in = 54 at 1e5 used to build and cache all 507 blocks (166 MiB) before its refusal
    def refuse(index):
        pytest.fail(f"built the eigensystem of block {index}")

    monkeypatch.setattr(triwave.evolution, "build_block_hamiltonian", refuse)
    monkeypatch.setattr(triwave.evolution, "build_recombination_hamiltonian", refuse)
    monkeypatch.setattr(triwave.blocks, "_cache", {})  # cold, so a batch solve before the refusal would run
    monkeypatch.setattr(triwave.blocks, "_assemble", lambda *args: pytest.fail("solved a block"))
    beam = make_twin_beam(math.sqrt(54.0 / 56.0), eps=1e-8)
    for evolver in (evolve, evolve_recombination, evolved_moments):
        for tau in (1e5, np.array([0.1, 1e5]), math.nan):
            with pytest.raises(ValueError, match="exact time domain"):
                evolver(beam, tau)


def test_a_heavy_state_of_small_blocks_evolves():
    # |70000, 0, 0> sits in block (70000, 70000) of dimension 1; the time-domain bound reads the couplings of block
    # (70000, 35000), whose eigensystem would pass the budget, without building or refusing that block
    state = ThreeModeState.from_fock_dict({(70000, 0, 0): 1.0})
    assert evolve(state, 0.1).amplitude((70000, 0, 0)) == 1.0


def test_time_domain_bound_of_a_heavy_state_takes_constant_memory():
    # reading all 5 * 10^6 couplings of block (10^7, 5 * 10^6) for the bound took 114 MiB under tracemalloc
    state = ThreeModeState.from_fock_dict({(10**7, 0, 0): 1.0})
    tracemalloc.start()
    try:
        out = evolve(state, 1e-9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.amplitude((10**7, 0, 0)) == 1.0
    assert peak < 2**20


def test_check_time_domain_limit_equals_the_scan_of_every_coupling():
    # the reference takes the largest of all K couplings squared of block (2K, K), as check_time_domain once did
    for top in [*range(1, 5000), 99_999, 123_457, 999_999]:
        n = np.arange(top, dtype=float)
        limit = 2.0**53 * 1e-8 / (2.0 * math.sqrt(float(((top - n) * (top - n) * (n + 1)).max())))
        state = ThreeModeState.from_fock_dict({(2 * top, 0, 0): 1.0})
        check_time_domain(state, limit)
        with pytest.raises(ValueError, match="exact time domain"):
            check_time_domain(state, np.nextafter(limit, math.inf))
    check_time_domain(ThreeModeState.from_fock_dict({(0, 0, 0): 1.0}), 1e308)  # K = 0: no coupling, no limit


def test_evolve_refuses_over_the_eigensystem_budget_before_building_any(monkeypatch):
    # the pump's constructor bounds its cut by int(mu) = 200; evolve sums the blocks the state has
    pump = make_coherent_pump(math.sqrt(200.0))
    monkeypatch.setattr(triwave.blocks, "_EIG_BUDGET_BYTES", _pair_eigensystem_bytes(len(pump.blocks) - 1) - 1)

    def refuse(index):
        pytest.fail(f"built the eigensystem of block {index}")

    monkeypatch.setattr(triwave.evolution, "build_block_hamiltonian", refuse)
    monkeypatch.setattr(triwave.evolution, "build_recombination_hamiltonian", refuse)
    monkeypatch.setattr(triwave.blocks, "_cache", {})  # cold, so a batch solve before the refusal would run
    monkeypatch.setattr(triwave.blocks, "_assemble", lambda *args: pytest.fail("solved a block"))
    for evolver in (evolve, evolve_recombination, evolved_moments):
        with pytest.raises(ValueError, match="over the budget"):
            evolver(pump, 0.1)
    # a general state: its one block (400, 200), of dimension 201, keeps 201 * 101 numbers
    monkeypatch.setattr(triwave.blocks, "_EIG_BUDGET_BYTES", 8 * 201 * 101 - 1)
    with pytest.raises(ValueError, match="over the budget"):
        evolve(ThreeModeState.from_fock_dict({(0, 0, 200): 1.0}), 0.1)


@pytest.mark.parametrize(
    "make, tau",
    [
        (lambda: make_coherent_pump(2.0), math.nan),
        (ThreeModeState, math.inf),
        # block (100, 1) has lambda = 9.95; a bound from the largest pair count K = 1 read 2, limit 4.5e7
        (lambda: ThreeModeState.from_fock_dict({(1, 99, 0): 1.0}), 4.05e7),
    ],
    ids=["pump-nan", "empty-inf", "weight-100-pair-count-1"],
)
def test_check_time_domain_refuses_what_evolve_refuses(make, tau):
    with pytest.raises(ValueError, match="exact time domain"):
        check_time_domain(make(), tau)
    with pytest.raises(ValueError, match="exact time domain"):
        evolve(make(), tau)


@pytest.mark.parametrize("step", [evolve, evolve_recombination])
def test_evolve_to_zero_time_keeps_the_input_bit_for_bit(step):
    # exp(0) is the identity; the eigenvectors alone give it only to rounding (2.2e-16 on the N_in = 54 beam)
    beam = make_twin_beam(math.sqrt(6.0 / 8.0) * complex(np.exp(0.7j)), eps=1e-8)
    general = ThreeModeState.from_fock_dict({(3, 1, 0): 1.0, (0, 2, 2): 0.5j, (2, 2, 1): 0.3, (1, 0, 0): 0.2})
    for state in (beam, general):
        still, (first, moved, last) = step(state, 0.0), step(state, np.array([0.0, 0.4, 0.0]))
        for out in (still, first, last):
            assert all(np.array_equal(out.blocks[index], vec) for index, vec in state.blocks.items())
            assert all(out.blocks[index] is not vec for index, vec in state.blocks.items())
        assert not all(np.array_equal(moved.blocks[index], vec) for index, vec in state.blocks.items())


def test_evolved_moments_at_zero_time_are_the_input_moments():
    # a twin beam has no output photons and a pump no pairs at tau = 0, exactly, as evolved_moments reads them
    beam = make_twin_beam(math.sqrt(6.0 / 8.0) * complex(np.exp(0.7j)), eps=1e-8)
    pump = make_coherent_pump(4.0 * complex(np.exp(0.7j)))
    for state, idle in ((beam, 0), (pump, 1)):
        moments = np.array(evolved_moments(state, np.array([0.0, 0.4, 0.0])))
        assert moments[idle, 0] == moments[idle, 2] == 0.0 < moments[idle, 1]
        assert np.array_equal(moments[:, [0]], np.array(evolved_moments(state, 0.0))[:, None])
    assert abs(evolved_moments(beam, 0.0)[1] - mean_photon(beam, "a")) <= 1e-12 * mean_photon(beam, "a")


def test_check_time_domain_bound_covers_every_block_of_a_weight():
    # the Gershgorin bound of block (2K, K), K = ceil(s / 2), is at least lambda_max of each block (s, k)
    for s in range(41):
        top = -(-s // 2)
        bound = 2.0 * triwave.blocks.trilinear_offdiag((2 * top, top)).max(initial=0.0)
        for k in range(s + 1):
            assert triwave.blocks.build_block_hamiltonian((s, k)).eigenvalues[-1] <= bound * (1.0 + 1e-12)


def _as_array(value):
    """A reader's output as one complex array: a state by its Fock triples and amplitudes."""
    if isinstance(value, ThreeModeState):
        value = value.to_fock_dict()
    if isinstance(value, dict):
        return np.array([[*triple, amp] for triple, amp in value.items()], dtype=complex)
    return np.asarray(getattr(value, "matrix", value), dtype=complex)


@pytest.mark.parametrize(
    "read",
    [
        ThreeModeState.norm,
        lambda state: state.amplitude((0, 0, 0)),
        ThreeModeState.to_fock_dict,
        lambda state: mean_photon(state, "a"),
        reduce_mode_c,
        lambda state: overlap_with_product(state, bra_c=[1.0]),
        matched_pcs_overlap,
        lambda state: evolve(state, 0.3),
    ],
    ids=["norm", "amplitude", "to_fock_dict", "mean_photon", "reduce_mode_c",
         "overlap_with_product", "matched_pcs_overlap", "evolve"],
)
def test_evolve_over_several_times_returns_one_state_per_time(read):
    # each state holds one time, so every reader takes it; a batched column can differ in the last bit
    beam = make_twin_beam(math.sqrt(0.5))
    general = ThreeModeState.from_fock_dict({(3, 1, 0): 1.0, (0, 2, 2): 0.5j, (2, 2, 1): 0.3, (1, 0, 0): 0.2},
                                            trunc_error=1e-9)
    taus = np.array([0.3, 0.9])
    for state in (beam, general):
        states = evolve(state, taus)
        assert isinstance(states, list) and len(states) == 2
        for first, second in zip(states[0].blocks.values(), states[1].blocks.values()):
            assert first.base is not None and first.base is second.base  # two columns of one propagate
        for tau, batched in zip(taus, states):
            single = evolve(state, tau)
            assert batched.trunc_error == single.trunc_error == state.trunc_error
            got, expected = _as_array(read(batched)), _as_array(read(single))
            assert got.shape == expected.shape
            assert np.max(np.abs(got - expected), initial=0.0) <= 1e-14


@pytest.mark.parametrize(
    "step, couplings, build",
    [(evolve, triwave.blocks.trilinear_offdiag, triwave.blocks.build_block_hamiltonian),
     (evolve_recombination, triwave.blocks.recombination_offdiag, triwave.blocks.build_recombination_hamiltonian)],
    ids=["trilinear", "recombination"],
)
def test_a_parallel_block_solve_equals_the_serial_one_bit_for_bit(monkeypatch, step, couplings, build):
    # five threads on cold blocks, switching every microsecond: each eigensystem is the one a lone solve gives.  The
    # workers sleep before each block, so one left running after the evolve returns shows
    solve, info = triwave.blocks._assemble, build.cache_info

    def slow_in_workers(*args):
        time.sleep(1e-3)
        return solve(*args)

    monkeypatch.setattr(triwave.blocks, "_cache", {})
    monkeypatch.setattr(triwave.blocks, "_workers", lambda missing: 5)
    monkeypatch.setattr(triwave.blocks, "_assemble", slow_in_workers)
    for state in (make_twin_beam(math.sqrt(0.9)), random_state(np.random.default_rng(8))):
        threads, misses, interval = threading.active_count(), info().misses, sys.getswitchinterval()
        new = [index for index in state.blocks if (couplings, index) not in triwave.blocks._cache]
        cold = threading.Thread(target=lambda: step(state, 0.3), daemon=True)
        sys.setswitchinterval(1e-6)
        try:
            cold.start()
            cold.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not cold.is_alive()
        assert threading.active_count() == threads  # no worker is left running
        assert info().misses == misses + len(new) > misses
        for index in state.blocks:
            ham, alone = triwave.blocks._cache[couplings, index], solve(couplings(index))
            assert np.array_equal(ham.eigenvalues, alone.eigenvalues)
            assert np.array_equal(ham.eigenvectors, alone.eigenvectors)
    with monkeypatch.context() as warm:
        warm.setattr(triwave.blocks, "_assemble", lambda *args: pytest.fail("solved a cached block"))
        step(state, 0.3)
    assert info().misses == misses + len(new)


@pytest.mark.parametrize("tau", [np.array([[0.1, 0.2]]), np.zeros((2, 1)), np.zeros((1, 1, 1))],
                         ids=["1x2", "2x1", "1x1x1"])
@pytest.mark.parametrize("step", [evolve, evolve_recombination, evolved_moments])
def test_evolve_refuses_a_tau_of_more_than_one_dimension(monkeypatch, step, tau):
    # at a (1, 2) tau the blocks came out (d, 1, 2), and every reader then said the state held 1 time
    monkeypatch.setattr(triwave.evolution, "build_block_hamiltonian", lambda *args: pytest.fail("built"))
    monkeypatch.setattr(triwave.evolution, "build_recombination_hamiltonian", lambda *args: pytest.fail("built"))
    monkeypatch.setattr(triwave.blocks, "_cache", {})
    monkeypatch.setattr(triwave.blocks, "_assemble", lambda *args: pytest.fail("solved a block"))
    monkeypatch.setattr(triwave.blocks.BlockHamiltonian, "propagate", lambda *args: pytest.fail("propagated"))
    with pytest.raises(ValueError, match="1-D array of times"):
        step(make_coherent_pump(2.0), tau)


@pytest.mark.parametrize(
    "make",
    [
        lambda: make_coherent_pump(4.0 * np.exp(0.4j)),
        lambda: make_twin_beam(math.sqrt(0.75) * np.exp(0.3j)),
        lambda: random_state(np.random.default_rng(5)),
    ],
    ids=["pump", "twin-beam", "general"],
)
def test_evolved_moments_equal_the_moments_of_the_evolved_state(make):
    # the block-by-block moments build no state; each time must read as mean_photon of evolve at that time
    state = make()
    taus = np.array([0.0, 0.05, 0.4, 1.1, -0.7])
    n_c, n_a = evolved_moments(state, taus)
    assert n_c.shape == n_a.shape == taus.shape
    for tau, got_c, got_a in zip(taus, n_c, n_a):
        single_c, single_a = evolved_moments(state, tau)
        assert np.ndim(single_c) == np.ndim(single_a) == 0
        evolved = evolve(state, tau)
        for got in (got_c, single_c):
            assert abs(got - mean_photon(evolved, "c")) <= 1e-13
        for got in (got_a, single_a):
            assert abs(got - mean_photon(evolved, "a")) <= 1e-13


def test_evolve_returns_as_many_states_as_times():
    assert evolve(make_coherent_pump(2.0), np.array([])) == []
    assert [state.blocks for state in evolve(ThreeModeState(), np.array([0.1, 0.2]))] == [{}, {}]
    assert isinstance(evolve(make_coherent_pump(2.0), np.float64(0.1)), ThreeModeState)
