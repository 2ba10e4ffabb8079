"""Block decomposition: indexing, dimensions, and tridiagonal matrices."""
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal, expm

from triwave import (
    BlockIndex,
    FockTriple,
    block_dimension,
    build_block_hamiltonian,
    build_recombination_hamiltonian,
    fock_to_block,
    recombination_offdiag,
    trilinear_offdiag,
)


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
    ham = build_block_hamiltonian(BlockIndex(9, 4))
    mat = ham.matrix()
    assert mat.shape == (5, 5)
    assert np.allclose(mat, mat.T, atol=0.0)
    assert np.allclose(np.diag(mat), 0.0, atol=0.0)
    assert np.allclose(np.diag(mat, 2), 0.0, atol=0.0)


def mirrored_eigensystem(ham):
    """Full spectrum from the stored λ >= 0 half: -λ with (-1)^n v, zero mode once."""
    d = ham.dimension
    sign = (-1.0) ** np.arange(d)[:, None]
    pos = slice(d % 2, None)
    vals = np.concatenate([-ham.eigenvalues[pos][::-1], ham.eigenvalues])
    vecs = np.hstack([sign * ham.eigenvectors[:, pos][:, ::-1], ham.eigenvectors])
    return vals, vecs


@pytest.mark.parametrize("build", [build_block_hamiltonian, build_recombination_hamiltonian])
@pytest.mark.parametrize("index", [BlockIndex(0, 0), BlockIndex(4, 2), BlockIndex(9, 4), BlockIndex(20, 10)])
def test_stored_half_layout(build, index):
    ham = build(index)
    d = ham.dimension
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
        assert np.abs(vecs.T @ vecs - np.eye(ham.dimension)).max() <= 1e-12
        rebuilt = vecs @ np.diag(vals) @ vecs.T
        assert np.allclose(rebuilt, ham.matrix(), atol=1e-12)


def test_spectrum_symmetric_about_zero():
    # zero diagonal tridiagonal matrices have sign-flip symmetric spectra, so
    # the mirrored half is the whole spectrum, for even and odd dimension
    for index in [BlockIndex(15, 7), BlockIndex(16, 8)]:
        ham = build_block_hamiltonian(index)
        vals, _ = mirrored_eigensystem(ham)
        assert np.abs(vals - np.linalg.eigvalsh(ham.matrix())).max() <= 1e-11


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
    ham = build(BlockIndex(k + n_b, k))
    rng = np.random.default_rng(seed)
    re, im = rng.normal(size=(2, ham.dimension))
    vec = {"real": re, "imag": 1j * im, "mixed": re + 1j * im}[kind]
    vec = vec / np.linalg.norm(vec)
    out = ham.propagate(vec, tau)
    assert np.max(np.abs(out - expm(-1j * tau * ham.matrix()) @ vec)) <= 1e-12
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
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=ham.dimension) + 1j * rng.normal(size=ham.dimension)
    vec /= np.linalg.norm(vec)
    out = ham.propagate(vec, np.array(taus))
    assert out.shape == (ham.dimension, len(taus))
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
    d = ham.dimension
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
    ham = build(BlockIndex(2 * (d - 1) + n_b, d - 1))
    assert ham.dimension == d
    j = {None: j % d, "first": 0, "last": d - 1}[edge]
    vals, vecs = np.linalg.eigh(ham.matrix())
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
    + [(build_recombination_hamiltonian, BlockIndex(s, k)) for s, k in ((4, 2), (21, 10), (200, 64), (1012, 506))],
)
def test_stored_half_matches_tridiagonal_eigensystem(build, index):
    # the half built from the SVD of the bidiagonal B against LAPACK's tridiagonal solver
    ham = build(index)
    d = ham.dimension
    reference = eigh_tridiagonal(np.zeros(d), ham.offdiag, eigvals_only=True)
    vals, vecs = mirrored_eigensystem(ham)
    scale = reference[-1]
    assert np.abs(vals - reference).max() <= 1e-12 * scale
    assert np.abs(ham.matrix() @ vecs - vecs * vals).max() <= 1e-11 * scale
    assert np.abs(vecs.T @ vecs - np.eye(d)).max() <= 1e-13


@pytest.mark.parametrize("tau", [0.5, 3.0])
def test_propagate_largest_scaling_block_matches_full_eigensystem(tau):
    # (1012, 506), dimension 507, is the largest block of the N_in = 54 twin
    # beam; no dense oracle reaches it, so the reference is the full
    # eigh_tridiagonal eigensystem
    index = BlockIndex(1012, 506)
    ham = build_block_hamiltonian(index)
    assert ham.dimension == 507
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
