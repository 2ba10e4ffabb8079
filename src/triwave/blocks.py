"""Invariant-subspace decomposition for trilinear three-wave mixing.

The dimensionless interaction H = a b c^dag + a^dag b^dag c conserves
n_a + n_c and the weight n_a + n_b + 2 n_c, so the Fock space splits into
finite blocks labelled by the pair (s, k).  Block (s, k) is spanned by
|k - n, s - k - n, n> for n = 0 .. min(k, s - k), and the restriction of H
to it is a real symmetric tridiagonal matrix with zero diagonal.  Exact
evolution therefore reduces to a family of small eigenproblems, solved once
per block and cached.

A zero-diagonal tridiagonal matrix is bipartite: with D = diag((-1)^n),
D H D = -H, so its spectrum is +-lambda and the eigenvector for -lambda is
D v when v belongs to +lambda (Golub & Kahan 1965).  Grouping even and odd
rows gives H = [[0, B], [B^T, 0]] with B lower bidiagonal, and each singular
triple B v = sigma u gives the eigenvector (u, v)/sqrt(2) of lambda = sigma,
so the lambda >= 0 half is built from the SVD of B alone and is all that is
stored: d - d//2 columns (the zero mode first when d is odd), from B's two
diagonals by LAPACK's divide-and-conquer dbdsdc (Gu & Eisenstat 1995), or by
numpy.linalg.svd where numpy's LAPACK exports no dbdsdc.  So
the cache holds sum d * ceil(d/2) * 8 bytes: 166 MiB for the N_in = 54
twin beam of the scaling study.  Propagation folds the mirror back in on
the even and odd rows of the block; see BlockHamiltonian.propagate.  Every
input of the experiments, the coherent pump and the twin beam, puts one Fock
vector in each block (2k, k) (Walls & Barakat 1970), so propagate reads it
from one stored row, with no projection.

The same decomposition carries the ideal recombination Hamiltonian
a^dag b^dag (b^dag b + 1)^(-1/2) c + h.c., whose blocks follow the su(2)
ladder pattern and serve as a reference dynamics in tests.
"""
from __future__ import annotations

import ctypes
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg

# the most the block eigensystems of one input may take; a larger input, or block, is refused before any is built
_EIG_BUDGET_BYTES = 4 * 2**30

# LAPACKE's dbdsdc in the ILP64 scipy-openblas that numpy >= 2 wheels bundle, found by dlsym from numpy's own LAPACK
# module; None in a numpy built on another LAPACK, where _assemble calls numpy.linalg.svd instead
try:
    _dbdsdc = ctypes.CDLL(_umath_linalg.__file__).scipy_LAPACKE_dbdsdc64_
except (OSError, AttributeError):
    _dbdsdc = None
else:
    _array, _int = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS,WRITEABLE"), ctypes.c_int64
    _dbdsdc.argtypes = [ctypes.c_int, ctypes.c_char, ctypes.c_char, _int, _array, _array, _array, _int, _array, _int,
                        ctypes.c_void_p, ctypes.c_void_p]
    _dbdsdc.restype = _int


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
    """Tridiagonal block of a three-wave Hamiltonian with the λ >= 0 half of its eigensystem.

    eigenvalues holds the d - d//2 non-negative eigenvalues, ascending, with
    the zero mode first (as exactly 0) when d is odd; eigenvectors, shape
    (d, d - d//2), holds their orthonormal eigenvectors as columns.  The rest of the
    spectrum is the mirror: eigenvalue -λ with eigenvector (-1)^n v.
    Only what propagate reads is kept; trilinear_offdiag and
    recombination_offdiag give the couplings.  Arrays are treated as
    immutable once built.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def propagate(self, vec: np.ndarray, tau) -> np.ndarray:
        """Apply exp(-i tau H_block) to a local coefficient vector from the stored half.

        Each pair v, (-1)^n v adds v_n v_m (e^(-iλτ) + (-1)^(n+m) e^(iλτ)):
        2cos λτ between rows of equal parity, -2i sin λτ across.  With
        c = cos λτ and s = sin λτ, except c = 1/2 on the zero mode (first
        when d is odd), which is its own mirror, and a = 2 V_eᵀ x_e and
        b = 2 V_oᵀ x_o on the even and odd rows,
        ψ_e = V_e (c a - i s b) and ψ_o = V_o (c b - i s a).  Every
        product is real, on complex-as-float views.

        tau is one time or a 1-D array of T times, and the result has shape
        vec.shape + tau.shape, column j evolved to tau[j].  a and b are
        projected once per call, and each parity maps all T times back in
        one product; a single time is the case T = 1.

        A vector with one non-zero entry α at local index j, as every input
        of the experiments puts in each block (the pump at j = k, the twin
        beam and the unit pairs at j = 0), needs no projection: with u row j
        of the stored half, a or b is 2α u, so rows of j's parity p get
        2α V_p (c ∘ u) and the others -2iα V_q (s ∘ u), one real column per time.
        """
        tau = np.asarray(tau, dtype=float)
        phase = self.eigenvalues[:, None] * tau  # (m, T), or (m, 1) for one time
        c, s = np.cos(phase), np.sin(phase)
        d = len(vec)
        if d % 2:
            c[0] = 0.5  # the zero mode is its own mirror, so it undoes the factor 2 of a, b and α
        out = np.empty((d, c.shape[1]), dtype=complex)
        (nonzero,) = vec.nonzero()
        if len(nonzero) == 1:
            j = nonzero[0]
            alpha, p, u = 2.0 * complex(vec[j]), j % 2, self.eigenvectors[j]
            # the real and imaginary parts are written apart: a complex factor would be cast
            # through a scratch buffer on every block, which raised stage-1 peak RSS by 2%
            same = self.eigenvectors[p::2] @ (c * u[:, None])
            np.multiply(same, alpha.real, out=out.real[p::2])
            np.multiply(same, alpha.imag, out=out.imag[p::2])
            cross = self.eigenvectors[1 - p :: 2] @ (s * u[:, None])  # times -i alpha = alpha.imag - i alpha.real
            np.multiply(cross, alpha.imag, out=out.real[1 - p :: 2])
            np.multiply(cross, -alpha.real, out=out.imag[1 - p :: 2])
            return out.reshape((d,) + tau.shape)
        v_e, v_o = self.eigenvectors[0::2], self.eigenvectors[1::2]
        x = np.ascontiguousarray(vec, dtype=complex).view(float).reshape(-1, 2)
        a = (2.0 * (v_e.T @ x[0::2])).view(complex)  # (m, 1)
        b = (2.0 * (v_o.T @ x[1::2])).view(complex)
        np.matmul(v_e, (c * a - 1j * s * b).view(float), out=out.view(float)[0::2])
        np.matmul(v_o, (c * b - 1j * s * a).view(float), out=out.view(float)[1::2])
        return out.reshape((d,) + tau.shape)


def block_dimension(s: int, k: int) -> int:
    """Number of Fock triples in block (s, k); ValueError unless 0 <= k <= s."""
    if s < 0 or k < 0 or k > s:
        raise ValueError(f"invalid block index (s={s}, k={k})")
    return min(k, s - k) + 1


def fock_to_block(triple) -> tuple[BlockIndex, int]:
    """Map a Fock triple to its block label and local index."""
    n_a, n_b, n_c = triple
    if n_a < 0 or n_b < 0 or n_c < 0:
        raise ValueError(f"occupation numbers must be non-negative, got {triple!r}")
    return BlockIndex(n_a + n_b + 2 * n_c, n_a + n_c), n_c


def trilinear_offdiag(index) -> np.ndarray:
    """Couplings <n+1|H|n> of the trilinear block, length dimension - 1; a block over the budget raises ValueError."""
    s, k = index
    d = block_dimension(s, k)
    _check_blocks_budget([index])
    n = np.arange(d - 1, dtype=float)
    return np.sqrt((k - n) * (s - k - n) * (n + 1))


def recombination_offdiag(index) -> np.ndarray:
    """Couplings of the ideal recombination block (su(2) ladder), refused as trilinear_offdiag refuses a block."""
    s, k = index
    d = block_dimension(s, k)
    _check_blocks_budget([index])
    n = np.arange(d - 1, dtype=float)
    return np.sqrt((k - n) * (n + 1))


def _check_blocks_budget(indices) -> None:
    """Refuse the blocks (s, k) of indices, before any is built, if their stored halves, 8 d ceil(d/2) bytes each,
    pass the budget together."""
    _check_eigensystem_budget(8.0 * sum(d * (d - d // 2) for d in (min(k, s - k) + 1 for s, k in indices)))


def _check_eigensystem_budget(nbytes: float) -> None:
    if nbytes > _EIG_BUDGET_BYTES:
        raise ValueError(f"the block eigensystems of this input need {nbytes / 2**30:.3g} GiB, "
                         f"over the budget of {_EIG_BUDGET_BYTES / 2**30:.3g} GiB")


@lru_cache(maxsize=None)
def build_block_hamiltonian(index: BlockIndex) -> BlockHamiltonian:
    """Trilinear block with cached eigendecomposition."""
    return _assemble(trilinear_offdiag(index))


@lru_cache(maxsize=None)
def build_recombination_hamiltonian(index: BlockIndex) -> BlockHamiltonian:
    """Ideal recombination block with cached eigendecomposition."""
    return _assemble(recombination_offdiag(index))


def _assemble(offdiag: np.ndarray) -> BlockHamiltonian:
    d = len(offdiag) + 1
    half, odd = d // 2, d % 2
    m = d - half
    # the kept half is allocated before the solve, so freeing the singular
    # vectors leaves no heap hole beneath it
    vecs = np.empty((d, m))
    vals = np.zeros(m)  # the zero mode is exact, so propagate finds cos = 1 and sin = 0 there
    # B = H[0::2, 1::2], and B v = σ u, Bᵀ u = σ v make (u, ±v)/√2 the eigenvectors of ±σ.  B is lower bidiagonal,
    # m × half; for odd d a zero column makes it square, and its zero singular value's u is the zero mode
    sigma = np.append(offdiag[0::2], np.zeros(odd))  # B[i, i], overwritten by σ, descending
    sub = offdiag[1::2].copy()  # B[i + 1, i], destroyed by dbdsdc
    if _dbdsdc is None:
        u, sigma, vt = np.linalg.svd(np.diag(sigma) + np.diag(sub, -1))
    else:
        u, vt = np.empty((m, m)), np.empty((m, m))
        if info := _dbdsdc(101, b"L", b"I", m, sigma, sub, u, m, vt, m, None, None):  # 101: LAPACK_ROW_MAJOR
            raise np.linalg.LinAlgError(f"LAPACK dbdsdc failed on a block of dimension {d} (info = {info})")
    vecs[0::2, :odd] = u[:, half:]  # the null vector of Bᵀ when d is odd: the zero mode, odd rows 0
    vecs[1::2, :odd] = 0.0
    vecs[0::2, odd:] = u[:, :half][:, ::-1] / np.sqrt(2.0)  # σ descending, λ ascending
    vecs[1::2, odd:] = vt[:half, :half][::-1].T / np.sqrt(2.0)  # the zero column's row of V dropped
    vals[odd:] = sigma[:half][::-1]
    return BlockHamiltonian(eigenvalues=vals, eigenvectors=vecs)
