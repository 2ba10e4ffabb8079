"""Block-sparse three-mode states and exact unitary evolution.

A pure state is stored as a map from BlockIndex to a local coefficient
vector, so only the invariant subspaces that are actually populated are
kept; ThreeModeState.occupations is the one place that maps the stored
coefficients to their Fock triples.  Evolution applies the cached
eigendecomposition of each block and never mixes blocks.  pair_state and
pair_matrix map a state with n_a = n_b to and from its pair matrix A, row q
the mode-c count and column r the pair count.  Other modules rely on that
layout: states builds a pump as a column and a twin beam as a row,
experiments reads a beam's a_{q+r} through a Hankel view and contracts
G = A^T A* in _chain, and metrics._pair_lag_sums needs A to be zero where
q + r >= dim.  evolved_moments reads mean photon numbers block by block, with
no state.  check_time_domain is the one rule on the exact time domain; evolve
and evolved_moments apply it before any block is built, and at tau = 0 give
the input's own amplitudes and moments.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .blocks import (
    BlockIndex,
    FockTriple,
    _check_blocks_budget,
    _check_eigensystem_budget,  # the budget, for the constructors of states
    block_dimension,
    build_block_hamiltonian,
    build_recombination_hamiltonian,
    fock_to_block,
)

# past lambda |tau| = 2^53 * 1e-8 the rounding of the phase alone exceeds the 1e-8 exactness bar
_PHASE_LIMIT = 2.0**53 * 1e-8


@dataclass
class ThreeModeState:
    """Pure state of the three modes, block-sparse.

    blocks maps each populated BlockIndex to its complex coefficient
    vector in the local basis |k-n, s-k-n, n>.  trunc_error records the
    probability discarded when the state was constructed from a state with
    unbounded support; it is carried through evolution unchanged.
    """

    blocks: dict[BlockIndex, np.ndarray] = field(default_factory=dict)
    trunc_error: float = 0.0

    @classmethod
    def from_fock_dict(cls, amplitudes, normalize: bool = True, trunc_error: float = 0.0):
        """Build a state from {(n_a, n_b, n_c): amplitude}."""
        blocks: dict[BlockIndex, np.ndarray] = {}
        for triple, amp in amplitudes.items():
            index, n = fock_to_block(triple)
            if index not in blocks:
                blocks[index] = np.zeros(block_dimension(*index), dtype=complex)
            blocks[index][n] += amp
        state = cls(blocks=blocks, trunc_error=trunc_error)
        if normalize:
            norm = state.norm()
            if norm == 0.0:
                raise ValueError("cannot normalize a zero state")
            for vec in blocks.values():
                vec /= norm
        return state

    def norm(self) -> float:
        return np.sqrt(math.fsum(float(np.vdot(v, v).real) for v in self.blocks.values()))

    def amplitude(self, triple) -> complex:
        index, n = fock_to_block(triple)
        vec = self.blocks.get(index)
        if vec is None or n >= len(vec):
            return 0.0 + 0.0j
        return complex(vec[n])

    def occupations(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flat (n_a, n_b, n_c) of every stored coefficient, in storage order.

        Local index n of block (s, k) is the Fock triple |k-n, s-k-n, n>.
        """
        labels = np.array(list(self.blocks), dtype=np.int64).reshape(-1, 2)
        sizes = np.array([len(vec) for vec in self.blocks.values()], dtype=np.int64)
        n = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        s, k = np.repeat(labels, sizes, axis=0).T
        return k - n, s - k - n, n

    def coefficients(self) -> np.ndarray:
        """Every stored coefficient, flat, in the order of occupations(); a new array."""
        return np.concatenate([np.zeros(0, dtype=complex), *self.blocks.values()])

    def to_fock_dict(self) -> dict[FockTriple, complex]:
        triples = zip(*(occ.tolist() for occ in self.occupations()))
        return {FockTriple(*triple): amp for triple, amp in zip(triples, self.coefficients().tolist())}

    def mode_support(self) -> tuple[int, int, int]:
        """Structural maxima (n_a, n_b, n_c) over the stored blocks."""
        return tuple(int(occ.max(initial=0)) for occ in self.occupations())


def pair_state(A, trunc_error: float = 0.0) -> ThreeModeState:
    """The state sum A[q, r] |r, r, q> of a 2-D array A: one block (2k, k) per anti-diagonal k, ascending."""
    rows, cols = A.shape
    blocks = {}
    for k in range(rows + cols - 1):
        diagonal = np.diagonal(A[:, ::-1], cols - 1 - k)  # A[q, k - q] for q from max(0, k + 1 - cols)
        vec = blocks[BlockIndex(2 * k, k)] = np.zeros(k + 1, dtype=complex)
        vec[max(0, k + 1 - cols) :][: len(diagonal)] = diagonal
    return ThreeModeState(blocks=blocks, trunc_error=trunc_error)


def pair_matrix(state: ThreeModeState) -> np.ndarray:
    """The (K+1, K+1) pair matrix, K the largest k, of a state in the blocks (2k, k).

    An empty state or a block with s != 2k raises ValueError.
    """
    for s, k in state.blocks:
        if s != 2 * k:
            raise ValueError(f"block (s={s}, k={k}) is not a pair block (2k, k)")
    if not state.blocks:
        raise ValueError("the state is empty, so it has no pair matrix")
    dim = max(k for _, k in state.blocks) + 1
    step = max(dim - 1, 1)  # row q, column k - q sits at flat k + q (dim - 1); dim = 1 has only k = 0
    amps = np.zeros((dim, dim), dtype=complex)
    flat = amps.reshape(-1)
    for (_, k), vec in state.blocks.items():
        flat[k : k * dim + 1 : step] = vec
    return amps


def check_time_domain(state: ThreeModeState, tau: float) -> None:
    """Raise ValueError if evolving state to time tau leaves the exact domain.

    The phase lambda tau of propagate keeps the 1e-8 exactness bar while
    lambda_max |tau| <= 2^53 * 1e-8, so a nan or infinite tau is refused.
    lambda_max is bounded before any eigensystem is built by Gershgorin:
    twice the largest coupling (K - n) sqrt(n + 1) of block (2K, K), with
    K = ceil(s_max / 2) from the state's largest weight s_max.  Every
    coupling (k - n)(s - k - n)(n + 1) of a block (s, k), s <= s_max, is at
    most (K - n)^2 (n + 1) by AM-GM, so the bound holds for every block.
    At N_in = 54 (K = 506) the limit is tau = 1.0e4.
    """
    top = -(-max((s for s, _ in state.blocks), default=0) // 2)
    # block (2K, K)'s couplings squared, (K - n)^2 (n + 1) for n < K, peak at an integer next to n = (K - 2) / 3:
    # those two are read, in O(1) memory before any budget check (trilinear_offdiag would refuse a large block)
    near = {min(max(n, 0), top - 1) for n in ((top - 2) // 3, (top + 1) // 3)} if top else set()
    lam_max = 2.0 * math.sqrt(max(((top - x) * (top - x) * (x + 1) for x in map(float, near)), default=0.0))
    limit = _PHASE_LIMIT / lam_max if lam_max > 0.0 else math.inf
    if not (math.isfinite(tau) and abs(tau) <= limit):
        raise ValueError(f"tau = {tau:g} is outside the exact time domain of this input, |tau| <= "
                         f"{limit:.6g}: past it the rounding of the phase lambda tau alone exceeds 1e-8")


def _pair_eigensystem_bytes(top: int) -> float:
    """8 sum_{d <= top+1} d ceil(d/2) bytes for blocks (2k, k), k <= top, in closed form: inf past top ~ 5e102."""
    odd = (top + 2.0) // 2.0  # the odd dimensions sum to odd^2
    return 4.0 * ((top + 1.0) * (top + 2.0) * (2.0 * top + 3.0) / 6.0 + odd * odd)


def evolve(state: ThreeModeState, tau) -> ThreeModeState | list[ThreeModeState]:
    """Evolve under the trilinear Hamiltonian for dimensionless time tau.

    tau may also be a 1-D array of T times: the result is then a list of T
    states, the j-th at tau[j], each block propagated once for all T times
    and each state's block vectors views of its column j.  A tau of more
    than one dimension, a time check_time_domain refuses, or blocks whose
    eigensystems exceed 4 GiB raise ValueError before any block is built.
    """
    return _evolve(build_block_hamiltonian, state, tau)


def evolve_recombination(state: ThreeModeState, tau) -> ThreeModeState | list[ThreeModeState]:
    """Evolve under the ideal recombination Hamiltonian (reference dynamics); tau as in evolve.

    check_time_domain's bound covers these blocks too: each coupling (k - n)(n + 1)
    is at most the trilinear (k - n)(s - k - n)(n + 1), since s - k - n >= 1 on
    every coupling of block (s, k).
    """
    return _evolve(build_recombination_hamiltonian, state, tau)


def evolved_moments(state: ThreeModeState, tau) -> tuple[np.ndarray, np.ndarray]:
    """Mean (n_c, n_a) of state evolved to each time of tau, as two arrays of tau's shape; tau is refused
    as evolve refuses it.  Each block is propagated once for all times, and no state is built."""
    tau = _checked_times(state, tau)
    moments = np.zeros((2,) + tau.shape)
    for (_, k), vec, out in _propagated(build_block_hamiltonian, state, tau):
        occ = np.arange(len(vec), dtype=float)  # n_c = n and n_a = k - n at local index n of block (s, k)
        moments += np.stack([occ, k - occ]) @ (np.abs(out) ** 2)
    return moments[0], moments[1]


def _checked_times(state: ThreeModeState, tau) -> np.ndarray:
    tau = np.asarray(tau, dtype=float)  # converted once, not per block
    if tau.ndim > 1:
        raise ValueError(f"tau must be one time or a 1-D array of times, got shape {tau.shape}")
    check_time_domain(state, float(np.max(np.abs(tau), initial=0.0)))
    _check_blocks_budget(state.blocks)
    return tau


def _propagated(build, state: ThreeModeState, tau: np.ndarray):
    """(index, vec, build(index).propagate(vec, tau)) for each block of state, each time tau = 0 giving vec itself:
    exp(0) is the identity, which the eigenvectors give only to rounding."""
    still = np.flatnonzero(tau.reshape(-1) == 0.0)
    for index, vec in state.blocks.items():
        out = build(index).propagate(vec, tau)
        if len(still):  # a cost per block only when some time is 0
            out.reshape(len(vec), -1)[:, still] = vec[:, None]
        yield index, vec, out


def _evolve(build, state: ThreeModeState, tau) -> ThreeModeState | list[ThreeModeState]:
    tau = _checked_times(state, tau)
    blocks = {index: out for index, _, out in _propagated(build, state, tau)}
    if tau.ndim == 0:
        return ThreeModeState(blocks=blocks, trunc_error=state.trunc_error)
    return [ThreeModeState({i: vec[:, j] for i, vec in blocks.items()}, state.trunc_error) for j in range(len(tau))]

