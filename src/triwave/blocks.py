"""Invariant-subspace decomposition for trilinear three-wave mixing.

The dimensionless interaction H = a b c^dag + a^dag b^dag c conserves
n_a + n_c and the weight n_a + n_b + 2 n_c, so the Fock space splits into
finite blocks labelled by the pair (s, k).  Block (s, k) is spanned by
|k - n, s - k - n, n> for n = 0 .. min(k, s - k), and the restriction of H
to it is a real symmetric tridiagonal matrix with zero diagonal.  Exact
evolution therefore reduces to a family of small eigenproblems, solved once
per block and cached.

The same decomposition carries the ideal recombination Hamiltonian
a^dag b^dag (b^dag b + 1)^(-1/2) c + h.c., whose blocks follow the su(2)
ladder pattern and serve as a reference dynamics in tests.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy.linalg import eigh_tridiagonal


class BlockIndex(NamedTuple):
    """Conserved quantum numbers labelling one invariant subspace."""

    s: int  # weight n_a + n_b + 2 n_c
    k: int  # pair count n_a + n_c


class FockTriple(NamedTuple):
    n_a: int
    n_b: int
    n_c: int


@dataclass
class BlockHamiltonian:
    """Tridiagonal block of a three-wave Hamiltonian with its eigensystem.

    eigenvectors holds orthonormal eigenvectors as columns; eigenvalues are
    ascending.  Arrays are treated as immutable once built.
    """

    index: BlockIndex
    offdiag: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dimension(self) -> int:
        return len(self.eigenvalues)

    def matrix(self) -> np.ndarray:
        """Dense form of the block, mainly for tests."""
        d = self.dimension
        mat = np.zeros((d, d))
        if d > 1:
            idx = np.arange(d - 1)
            mat[idx, idx + 1] = self.offdiag
            mat[idx + 1, idx] = self.offdiag
        return mat

    def propagate(self, vec: np.ndarray, tau: float) -> np.ndarray:
        """Apply exp(-i tau H_block) to a local coefficient vector; V stays real, never cast."""
        w = vec.real @ self.eigenvectors + 1j * (vec.imag @ self.eigenvectors)
        w *= np.exp(-1j * tau * self.eigenvalues)
        return self.eigenvectors @ w.real + 1j * (self.eigenvectors @ w.imag)


def block_dimension(s: int, k: int) -> int:
    """Number of Fock triples in block (s, k)."""
    _check_block_index(s, k)
    return min(k, s - k) + 1


def fock_to_block(triple) -> tuple[BlockIndex, int]:
    """Map a Fock triple to its block label and local index."""
    n_a, n_b, n_c = triple
    if n_a < 0 or n_b < 0 or n_c < 0:
        raise ValueError(f"occupation numbers must be non-negative, got {triple!r}")
    return BlockIndex(n_a + n_b + 2 * n_c, n_a + n_c), n_c


def block_to_fock(index, n: int) -> FockTriple:
    """Inverse of fock_to_block: local index n within block (s, k)."""
    s, k = index
    _check_block_index(s, k)
    if n < 0 or n > min(k, s - k):
        raise ValueError(f"local index {n} outside block (s={s}, k={k})")
    return FockTriple(k - n, s - k - n, n)


def trilinear_offdiag(index) -> np.ndarray:
    """Couplings <n+1|H|n> of the trilinear block, length dimension - 1."""
    s, k = index
    d = block_dimension(s, k)
    n = np.arange(d - 1, dtype=float)
    return np.sqrt((k - n) * (s - k - n) * (n + 1))


def recombination_offdiag(index) -> np.ndarray:
    """Couplings of the ideal recombination block (su(2) ladder)."""
    s, k = index
    d = block_dimension(s, k)
    n = np.arange(d - 1, dtype=float)
    return np.sqrt((k - n) * (n + 1))


@lru_cache(maxsize=None)
def build_block_hamiltonian(index: BlockIndex) -> BlockHamiltonian:
    """Trilinear block with cached eigendecomposition."""
    index = BlockIndex(*index)
    return _assemble(index, trilinear_offdiag(index))


@lru_cache(maxsize=None)
def build_recombination_hamiltonian(index: BlockIndex) -> BlockHamiltonian:
    """Ideal recombination block with cached eigendecomposition."""
    index = BlockIndex(*index)
    return _assemble(index, recombination_offdiag(index))


@lru_cache(maxsize=None)
def block_occupations(index: BlockIndex) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-local-index occupations (n_a, n_b, n_c) for block (s, k)."""
    s, k = index
    d = block_dimension(s, k)
    n = np.arange(d)
    return k - n, s - k - n, n


def _assemble(index: BlockIndex, offdiag: np.ndarray) -> BlockHamiltonian:
    d = len(offdiag) + 1
    if d == 1:
        vals = np.zeros(1)
        vecs = np.ones((1, 1))
    else:
        vals, vecs = eigh_tridiagonal(np.zeros(d), offdiag)
    return BlockHamiltonian(index=index, offdiag=offdiag, eigenvalues=vals, eigenvectors=vecs)


def _check_block_index(s: int, k: int) -> None:
    if s < 0 or k < 0 or k > s:
        raise ValueError(f"invalid block index (s={s}, k={k})")
