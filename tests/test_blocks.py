"""Block decomposition: indexing, dimensions, and tridiagonal matrices."""
import math
import os
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal, expm

import triwave.blocks
import triwave.evolution
from conftest import dense_block
from triwave import (
    BlockIndex,
    FockTriple,
    block_dimension,
    build_block_hamiltonian,
    build_recombination_hamiltonian,
    evolve,
    fock_to_block,
    make_twin_beam,
    recombination_offdiag,
    trilinear_offdiag,
)
from triwave.evolution import pair_state


def all_triples(s_max):
    for na in range(s_max + 1):
        for nb in range(s_max + 1):
            for nc in range((s_max - na - nb) // 2 + 1):
                if na + nb + 2 * nc <= s_max:
                    yield na, nb, nc


@pytest.mark.parametrize("s,k,dim", [(0, 0, 1), (4, 2, 3), (5, 1, 2), (5, 4, 2), (8, 8, 1), (12, 6, 7)])
def test_block_dimension_values(s, k, dim):
    assert block_dimension(s, k) == dim


def test_block_dimension_matches_fock_enumeration():
    # brute-force count of triples sharing (s, k)
    counts = {}
    for na, nb, nc in all_triples(12):
        key = (na + nb + 2 * nc, na + nc)
        counts[key] = counts.get(key, 0) + 1
    for (s, k), count in counts.items():
        assert block_dimension(s, k) == count


@pytest.mark.parametrize("s,k", [(-1, 0), (2, -1), (2, 3)])
def test_block_index_validation(s, k):
    with pytest.raises(ValueError):
        block_dimension(s, k)


def test_fock_block_roundtrip():
    for na, nb, nc in all_triples(10):
        index, n = fock_to_block(FockTriple(na, nb, nc))
        assert index.s == na + nb + 2 * nc
        assert index.k == na + nc
        assert n == nc
        assert (index.k - n, index.s - index.k - n, n) == (na, nb, nc)


def test_fock_to_block_explicit():
    triples = [(2, 2, 0), (1, 1, 1), (0, 0, 2)]
    assert [fock_to_block(triple) for triple in triples] == [(BlockIndex(4, 2), n) for n in range(3)]


@pytest.mark.parametrize("triple", [(-1, 0, 0), (0, -1, 2), (3, 1, -1)])
def test_fock_to_block_refuses_negative_occupations(triple):
    with pytest.raises(ValueError, match=r"occupation numbers must be non-negative, got \("):
        fock_to_block(triple)


def test_trilinear_offdiag_frozen_values():
    got = trilinear_offdiag(BlockIndex(4, 2))
    assert np.allclose(got, [2.0, math.sqrt(2.0)], atol=1e-14)
    assert np.allclose(trilinear_offdiag(BlockIndex(5, 1)), [2.0], atol=1e-14)


def test_recombination_offdiag_frozen_values():
    assert np.allclose(recombination_offdiag(BlockIndex(4, 2)), [math.sqrt(2.0), math.sqrt(2.0)], atol=1e-14)
    assert np.allclose(recombination_offdiag(BlockIndex(6, 3)), [math.sqrt(3.0), 2.0, math.sqrt(3.0)], atol=1e-14)
    assert np.allclose(recombination_offdiag(BlockIndex(5, 1)), [1.0], atol=1e-14)


@pytest.mark.parametrize("offdiag", [trilinear_offdiag, recombination_offdiag])
def test_offdiag_refuses_a_block_over_the_eigensystem_budget(monkeypatch, offdiag):
    # block (400, 200), dimension 201, keeps 201 * 101 eigensystem numbers: admitted at that budget, refused below it
    monkeypatch.setattr(triwave.blocks, "_EIG_BUDGET_BYTES", 8 * 201 * 101)
    assert len(offdiag(BlockIndex(400, 200))) == 200
    monkeypatch.setattr(triwave.blocks, "_EIG_BUDGET_BYTES", 8 * 201 * 101 - 1)
    with pytest.raises(ValueError, match="over the budget"):
        offdiag(BlockIndex(400, 200))
    with pytest.raises(ValueError, match="over the budget"):
        build_block_hamiltonian(BlockIndex(4001, 2000))  # no test builds it, so it is built from its couplings


def test_offdiag_general_rule():
    rng = np.random.default_rng(7)
    for _ in range(20):
        s = int(rng.integers(0, 14))
        k = int(rng.integers(0, s + 1))
        d = block_dimension(s, k)
        n = np.arange(d - 1)
        tri = trilinear_offdiag(BlockIndex(s, k))
        rec = recombination_offdiag(BlockIndex(s, k))
        assert np.allclose(tri, np.sqrt((k - n) * (s - k - n) * (n + 1)), atol=1e-13)
        assert np.allclose(rec, np.sqrt((k - n) * (n + 1)), atol=1e-13)


def test_block_coincidence_condition():
    # the two Hamiltonians agree exactly when the block is trivial or one
    # beam mode is pinned to a single quantum
    for s in range(13):
        for k in range(s + 1):
            tri = trilinear_offdiag(BlockIndex(s, k))
            rec = recombination_offdiag(BlockIndex(s, k))
            same = tri.shape == rec.shape and np.allclose(tri, rec, atol=1e-13)
            expected = block_dimension(s, k) == 1 or s - k == 1
            assert same == expected, (s, k)


def test_hamiltonian_matrix_structure():
    mat = dense_block(build_block_hamiltonian, BlockIndex(9, 4))
    assert mat.shape == (5, 5)
    assert np.allclose(mat, mat.T, atol=0.0)
    assert np.allclose(np.diag(mat), 0.0, atol=0.0)
    assert np.allclose(np.diag(mat, 2), 0.0, atol=0.0)


def mirrored_eigensystem(ham):
    """Full spectrum from the stored λ >= 0 half: -λ with (-1)^n v, zero mode once."""
    d = len(ham.eigenvectors)
    sign = (-1.0) ** np.arange(d)[:, None]
    pos = slice(d % 2, None)
    vals = np.concatenate([-ham.eigenvalues[pos][::-1], ham.eigenvalues])
    vecs = np.hstack([sign * ham.eigenvectors[:, pos][:, ::-1], ham.eigenvectors])
    return vals, vecs


@pytest.mark.parametrize("build", [build_block_hamiltonian, build_recombination_hamiltonian])
@pytest.mark.parametrize("index", [BlockIndex(0, 0), BlockIndex(4, 2), BlockIndex(9, 4), BlockIndex(20, 10)])
def test_stored_half_layout(build, index):
    ham = build(index)
    d = block_dimension(*index)
    assert ham.eigenvectors.shape == (d, d - d // 2)
    assert ham.eigenvalues.shape == (d - d // 2,)
    assert np.all(np.diff(ham.eigenvalues) > 0)
    assert np.all(ham.eigenvalues[d % 2 :] > 0)
    assert np.all(ham.eigenvalues[: d % 2] == 0.0)  # the zero mode is stored exactly
    assert np.abs(ham.eigenvectors.T @ ham.eigenvectors - np.eye(d - d // 2)).max() <= 1e-12


def test_eigendecomposition_reconstructs_matrix():
    for index in [BlockIndex(4, 2), BlockIndex(9, 4), BlockIndex(20, 10)]:
        ham = build_block_hamiltonian(index)
        vals, vecs = mirrored_eigensystem(ham)
        assert np.abs(vecs.T @ vecs - np.eye(block_dimension(*index))).max() <= 1e-12
        rebuilt = vecs @ np.diag(vals) @ vecs.T
        assert np.allclose(rebuilt, dense_block(build_block_hamiltonian, index), atol=1e-12)


def test_spectrum_symmetric_about_zero():
    # zero diagonal tridiagonal matrices have sign-flip symmetric spectra, so
    # the mirrored half is the whole spectrum, for even and odd dimension
    for index in [BlockIndex(15, 7), BlockIndex(16, 8)]:
        ham = build_block_hamiltonian(index)
        vals, _ = mirrored_eigensystem(ham)
        assert np.abs(vals - np.linalg.eigvalsh(dense_block(build_block_hamiltonian, index))).max() <= 1e-11


def test_builders_cache_instances():
    assert build_block_hamiltonian(BlockIndex(6, 3)) is build_block_hamiltonian(BlockIndex(6, 3))
    assert build_recombination_hamiltonian(BlockIndex(6, 3)) is build_recombination_hamiltonian(BlockIndex(6, 3))


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(0, 59),
    n_b=st.integers(0, 59),
    build=st.sampled_from([build_block_hamiltonian, build_recombination_hamiltonian]),
    kind=st.sampled_from(["real", "imag", "mixed"]),
    tau=st.floats(-3.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_propagate_unitary_seeded(k, n_b, build, kind, tau, seed):
    # blocks up to dimension 60 against the dense matrix exponential; a real
    # input keeps its real dtype, so both halves of the real-arithmetic path run
    index = BlockIndex(k + n_b, k)
    ham = build(index)
    rng = np.random.default_rng(seed)
    re, im = rng.normal(size=(2, block_dimension(*index)))
    vec = {"real": re, "imag": 1j * im, "mixed": re + 1j * im}[kind]
    vec = vec / np.linalg.norm(vec)
    out = ham.propagate(vec, tau)
    assert np.max(np.abs(out - expm(-1j * tau * dense_block(build, index)) @ vec)) <= 1e-12
    assert abs(np.linalg.norm(out) - 1.0) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(0, 59),
    n_b=st.integers(0, 59),
    build=st.sampled_from([build_block_hamiltonian, build_recombination_hamiltonian]),
    taus=st.lists(st.one_of(st.just(0.0), st.floats(-3.0, 3.0)), min_size=1, max_size=8),
    seed=st.integers(0, 2**32 - 1),
)
def test_propagate_time_array_matches_single_times(k, n_b, build, taus, seed):
    # one call over T times gives, column by column, the T single-time calls
    ham = build(BlockIndex(k + n_b, k))
    d = block_dimension(k + n_b, k)
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=d) + 1j * rng.normal(size=d)
    vec /= np.linalg.norm(vec)
    out = ham.propagate(vec, np.array(taus))
    assert out.shape == (d, len(taus))
    for j, tau in enumerate(taus):
        assert np.max(np.abs(out[:, j] - ham.propagate(vec, tau))) <= 1e-15
        assert abs(np.linalg.norm(out[:, j]) - 1.0) <= 1e-12


def test_propagate_zero_time_is_identity():
    ham = build_block_hamiltonian(BlockIndex(7, 3))
    vec = np.array([0.5, -0.5j, 0.5, 0.5j])
    assert np.allclose(ham.propagate(vec, 0.0), vec, atol=1e-14)


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(0, 59),
    n_b=st.integers(0, 59),
    build=st.sampled_from([build_block_hamiltonian, build_recombination_hamiltonian]),
    i0=st.integers(0, 59),
    tau=st.floats(-3.0, 3.0),
)
def test_propagate_parity_of_basis_input(k, n_b, build, i0, tau):
    # from a real e_i0 the amplitudes are real where n + i0 is even and
    # imaginary where it is odd: the even/odd kernel never mixes the two
    ham = build(BlockIndex(k + n_b, k))
    d = block_dimension(k + n_b, k)
    i0 %= d
    out = ham.propagate(np.eye(d)[i0], tau)
    same = (np.arange(d) + i0) % 2 == 0
    assert np.abs(out.imag[same]).max(initial=0.0) <= 1e-14
    assert np.abs(out.real[~same]).max(initial=0.0) <= 1e-14
    assert abs(np.linalg.norm(out) - 1.0) <= 1e-12


@settings(max_examples=120, deadline=None)
@given(
    d=st.integers(1, 60),
    n_b=st.integers(0, 3),
    build=st.sampled_from([build_block_hamiltonian, build_recombination_hamiltonian]),
    j=st.integers(0, 59),
    edge=st.sampled_from([None, "first", "last"]),
    alpha=st.complex_numbers(min_magnitude=1e-3, max_magnitude=10.0, allow_nan=False, allow_infinity=False),
    taus=st.one_of(st.floats(-3.0, 3.0), st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=6)),
)
def test_propagate_one_entry_matches_dense_eigh(d, n_b, build, j, edge, alpha, taus):
    # a vector alpha e_j, the form every experiment input takes in each block, runs the unit-response
    # path; the reference diagonalizes the dense block, and the two phases differ by up to about
    # 6e-16 lambda_max |tau| (3.8e-13 seen at d = 60, tau = 3), so the bound carries four times that
    index = BlockIndex(2 * (d - 1) + n_b, d - 1)
    ham = build(index)
    assert len(ham.eigenvectors) == d
    j = {None: j % d, "first": 0, "last": d - 1}[edge]
    vals, vecs = np.linalg.eigh(dense_block(build, index))
    tau = np.asarray(taus, dtype=float)
    vec = np.zeros(d, dtype=complex)
    vec[j] = alpha
    expected = vecs @ (np.exp(-1j * vals[:, None] * tau.reshape(1, -1)) * (alpha * vecs[j])[:, None])
    out = ham.propagate(vec, tau)
    assert out.shape == (d,) + tau.shape
    tol = (1e-13 + 2.5e-15 * vals.max() * np.abs(tau).max()) * abs(alpha)
    assert np.max(np.abs(out.reshape(d, -1) - expected)) <= tol


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(2, 60),
    build=st.sampled_from([build_block_hamiltonian, build_recombination_hamiltonian]),
    i=st.integers(0, 59),
    shift=st.integers(1, 59),
    xy=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
    taus=st.one_of(st.floats(-3.0, 3.0), st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=6)),
)
def test_propagate_two_entries_is_the_sum_of_unit_responses(d, build, i, shift, xy, taus):
    # two non-zero entries take the projection path, each unit vector the one-entry path:
    # linearity ties the two paths together
    ham = build(BlockIndex(2 * (d - 1), d - 1))
    i, j = i % d, (i + shift) % d
    x, y = complex(xy[0], xy[1]), complex(xy[2], xy[3])
    assume(i != j and x != 0.0 and y != 0.0)
    e_i, e_j = np.eye(d)[i], np.eye(d)[j]
    both = ham.propagate(x * e_i + y * e_j, taus)
    parts = x * ham.propagate(e_i, taus) + y * ham.propagate(e_j, taus)
    assert np.max(np.abs(both - parts)) <= 1e-14


@pytest.mark.parametrize(
    "build, index",
    [(build_block_hamiltonian, BlockIndex(2 * k, k)) for k in (1, 2, 3, 10, 101, 255, 256, 506)]
    + [(build_block_hamiltonian, BlockIndex(s, k)) for s, k in ((5, 1), (9, 4), (30, 7), (61, 40), (300, 120))]
    + [(build_recombination_hamiltonian, BlockIndex(s, k)) for s, k in ((4, 2), (21, 10), (200, 64), (1012, 506))]
    + [(build_block_hamiltonian, BlockIndex(s, k)) for s, k in ((0, 0), (1010, 505))],
)
def test_stored_half_matches_tridiagonal_eigensystem(monkeypatch, build, index):
    # the half built from the SVD of the bidiagonal B against LAPACK's tridiagonal solver: the cached half, from
    # dbdsdc, and the half of the numpy.linalg.svd fallback
    matrix = dense_block(build, index)
    d = len(matrix)
    reference = eigh_tridiagonal(np.zeros(d), np.diag(matrix, 1), eigvals_only=True) if d > 1 else np.zeros(1)
    scale = max(reference[-1], 1.0)
    cached = build(index)
    monkeypatch.setattr(triwave.blocks, "_dbdsdc", None)
    for ham in (cached, triwave.blocks._assemble(np.diag(matrix, 1))):
        assert np.all(ham.eigenvalues[: d % 2] == 0.0) and np.all(ham.eigenvectors[1::2, : d % 2] == 0.0)
        vals, vecs = mirrored_eigensystem(ham)
        assert np.abs(vals - reference).max() <= 1e-12 * scale
        assert np.abs(matrix @ vecs - vecs * vals).max() <= 1e-11 * scale
        assert np.abs(vecs.T @ vecs - np.eye(d)).max() <= 1e-13


def test_blocks_are_built_by_dbdsdc_where_numpy_bundles_scipy_openblas():
    # the numpy.linalg.svd fallback is for numpy builds on another LAPACK, never a silent default
    lapack = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]["name"]
    assert lapack != "scipy-openblas" or None not in (triwave.blocks._dbdsdc, triwave.blocks._blas_threads)


@pytest.mark.parametrize("cores, blas, missing, workers", [
    (2, 1, 507, 2), (8, 2, 507, 4), (8, 3, 507, 2), (8, 1, 3, 3),  # the usable cores over BLAS's threads, if missing
    (2, 2, 507, 1), (2, 4, 507, 1), (8, 1, 1, 1), (8, 1, 0, 1),  # BLAS threads over every core; one block missing
])
def test_block_solve_workers_are_the_cores_blas_leaves_idle(monkeypatch, cores, blas, missing, workers):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
    monkeypatch.setattr(triwave.blocks, "_dbdsdc", triwave.blocks._dbdsdc or (lambda *args: 0))
    monkeypatch.setattr(triwave.blocks, "_blas_threads", lambda: blas)
    assert triwave.blocks._workers(missing) == workers
    monkeypatch.delattr(os, "sched_getaffinity")  # macOS and Windows: every core counts
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    assert triwave.blocks._workers(missing) == workers
    for absent in ("_dbdsdc", "_blas_threads"):  # a numpy on another LAPACK
        with monkeypatch.context() as other:
            other.setattr(triwave.blocks, absent, None)
            assert triwave.blocks._workers(missing) == 1


@pytest.mark.parametrize("lapack", [True, False], ids=["dbdsdc", "svd"])
def test_a_failed_block_solve_raises_linalg_error(monkeypatch, lapack):
    if not lapack:
        monkeypatch.setattr(triwave.blocks, "_dbdsdc", None)
    with pytest.raises(np.linalg.LinAlgError):
        triwave.blocks._assemble(np.array([math.nan, 1.0]))
    # in a worker of a cold evolve: block (2, 1), the second, falls to the second of three threads
    monkeypatch.setattr(triwave.blocks, "_cache", {})
    monkeypatch.setattr(triwave.blocks, "_workers", lambda missing: 3)
    monkeypatch.setattr(triwave.evolution, "trilinear_offdiag",
                        lambda index: trilinear_offdiag(index) * (math.nan if index == (2, 1) else 1.0))
    beam, threads = make_twin_beam(math.sqrt(0.5)), threading.active_count()
    assert list(beam.blocks)[1] == (2, 1)
    with pytest.raises(np.linalg.LinAlgError):
        evolve(beam, 0.3)
    assert triwave.blocks._cache == {}  # none of the evolve's blocks, though the other two threads solved theirs
    assert threading.active_count() == threads


def test_two_concurrent_evolves_count_each_block_solved_once():
    # two threads evolve one cold 40-block unit pair, and each lists its missing blocks before either caches them, so
    # both solve all 40; only the blocks still missing when a thread caches its batch are inserted and counted
    solve, workers, saved = triwave.blocks._assemble, triwave.blocks._workers, triwave.blocks._cache
    state, cache, errors, info = pair_state(np.ones((1, 40))), {}, [], build_block_hamiltonian.cache_info
    barrier, met = threading.Barrier(2, timeout=60.0), threading.local()

    def meeting(*args):
        if not getattr(met, "done", False):  # each thread's first solve waits for the other thread's
            met.done = True
            barrier.wait()
        return solve(*args)

    def run():
        try:
            evolve(state, 0.3)
        except Exception as error:  # read on the test's thread
            errors.append(error)

    threads, misses = threading.active_count(), info().misses
    evolving = [threading.Thread(target=run, daemon=True) for _ in range(2)]
    triwave.blocks._cache, triwave.blocks._workers, triwave.blocks._assemble = cache, lambda missing: 1, meeting
    try:
        for thread in evolving:
            thread.start()
        for thread in evolving:
            thread.join(timeout=120.0)
    finally:
        triwave.blocks._cache, triwave.blocks._workers, triwave.blocks._assemble = saved, workers, solve
    assert errors == [] and not any(thread.is_alive() for thread in evolving)
    assert threading.active_count() == threads
    assert len(cache) == 40 and info().misses - misses == 40


@pytest.mark.parametrize("tau", [0.5, 3.0])
def test_propagate_largest_scaling_block_matches_full_eigensystem(tau):
    # (1012, 506), dimension 507, is the largest block of the N_in = 54 twin
    # beam; no dense oracle reaches it, so the reference is the full
    # eigh_tridiagonal eigensystem
    index = BlockIndex(1012, 506)
    ham = build_block_hamiltonian(index)
    assert len(ham.eigenvectors) == 507
    vals, vecs = eigh_tridiagonal(np.zeros(507), trilinear_offdiag(index))
    rng = np.random.default_rng(11)
    random = rng.normal(size=507) + 1j * rng.normal(size=507)
    random /= np.linalg.norm(random)
    for vec in (np.eye(507)[0], random):
        out = ham.propagate(vec, tau)
        full = vecs @ (np.exp(-1j * tau * vals) * (vecs.T @ vec))
        assert np.max(np.abs(out - full)) <= 1e-11
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-12
    # both times in one call: the projection path's batched form at d = 507
    taus = np.array([0.5, 3.0])
    both = ham.propagate(random, taus)
    full = vecs @ (np.exp(-1j * np.outer(vals, taus)) * (vecs.T @ random)[:, None])
    assert np.max(np.abs(both - full)) <= 1e-11
