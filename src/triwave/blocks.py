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
numpy.linalg.svd where numpy's LAPACK exports no dbdsdc.  An evolve solves the
blocks not yet cached in one batch, on the cores BLAS leaves idle.  So
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
import os
import threading
from collections import Counter, namedtuple
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg

# the most the block eigensystems of one input may take; a larger input, or block, is refused before any is built
_EIG_BUDGET_BYTES = 4 * 2**30

# LAPACKE's dbdsdc, in its variant on caller-owned work arrays, and OpenBLAS's thread count in the ILP64
# scipy-openblas that numpy >= 2 wheels bundle, found by dlsym from numpy's own LAPACK module; None in a numpy built
# on another LAPACK, where _assemble calls numpy.linalg.svd instead and _solve_missing solves serially
try:
    _lapack = ctypes.CDLL(_umath_linalg.__file__)
except OSError:
    _lapack = None
_dbdsdc = getattr(_lapack, "scipy_LAPACKE_dbdsdc_work64_", None)
_blas_threads = getattr(_lapack, "scipy_openblas_get_num_threads64_", None)
if _dbdsdc is not None:
    _array, _int = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS,WRITEABLE"), ctypes.c_int64
    _ints = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS,WRITEABLE")
    _dbdsdc.argtypes = [ctypes.c_int, ctypes.c_char, ctypes.c_char, _int, _array, _array, _array, _int, _array, _int,
                        ctypes.c_void_p, ctypes.c_void_p, _array, _ints]
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


# the one cache of solved blocks, keyed by (couplings, index), and the count solved per couplings; none is evicted
_cache: dict[tuple, BlockHamiltonian] = {}
_misses: Counter = Counter()
_CacheInfo = namedtuple("_CacheInfo", "misses currsize")
_cache_lock = threading.Lock()  # for callers that evolve on several threads at once


def build_block_hamiltonian(index: BlockIndex) -> BlockHamiltonian:
    """Trilinear block with cached eigendecomposition."""
    return _cached(trilinear_offdiag, index)


def build_recombination_hamiltonian(index: BlockIndex) -> BlockHamiltonian:
    """Ideal recombination block with cached eigendecomposition."""
    return _cached(recombination_offdiag, index)


def _cached(couplings, index) -> BlockHamiltonian:
    if (couplings, index) not in _cache:
        _solve_missing(couplings, [index])
    return _cache[couplings, index]


for _build, _couplings in ((build_block_hamiltonian, trilinear_offdiag),
                           (build_recombination_hamiltonian, recombination_offdiag)):
    _build.cache_info = lambda c=_couplings: _CacheInfo(_misses[c], sum(key[0] is c for key in _cache))


def _workers(missing: int) -> int:
    """Threads to solve missing blocks: the usable cores over BLAS's threads, as ctypes releases the GIL in dbdsdc;
    1 where BLAS threads over every core, either symbol is absent, or one block is missing."""
    if _dbdsdc is None or _blas_threads is None:
        return 1
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, min(cores // max(_blas_threads(), 1), missing))


def _solve_missing(couplings, indices) -> None:
    """Solve and cache the blocks of indices not cached yet, every w-th on one thread, the first stripe on this one.

    The kept halves and each stripe's LAPACK arrays are allocated here, the halves in block order, so a worker
    allocates next to nothing; the blocks are cached once every stripe has returned, so a failed solve caches none.
    A block another thread cached meanwhile is neither replaced nor counted, so misses counts the blocks cached."""
    todo = [index for index in indices if (couplings, index) not in _cache]
    if not todo:
        return
    hams = [_empty_half(block_dimension(*index)) for index in todo]
    w = _workers(len(todo))
    scratches = [np.empty(_scratch_size(max(len(ham.eigenvalues) for ham in hams[i::w]))) for i in range(w)]
    errors = [None] * w

    def stripe(i: int) -> None:
        try:
            for index, ham in zip(todo[i::w], hams[i::w]):
                _assemble(couplings(index), ham, scratches[i])
        except BaseException as error:  # raised on the calling thread once every stripe has returned
            errors[i] = error

    threads = [threading.Thread(target=stripe, args=(i,)) for i in range(1, w)]
    for thread in threads:
        thread.start()
    stripe(0)
    for thread in threads:
        thread.join()
    if error := next(filter(None, errors), None):
        raise error
    with _cache_lock:
        new = {(couplings, index): ham for index, ham in zip(todo, hams) if (couplings, index) not in _cache}
        _cache.update(new)
        _misses[couplings] += len(new)


def _scratch_size(m: int) -> int:
    return 5 * m * m + 12 * m  # Uᵀ, V, dbdsdc's work of 3 m² + 4 m numbers and its 8 m integers, for B m × m


def _empty_half(d: int) -> BlockHamiltonian:
    # the zero mode is exact, so propagate finds cos = 1 and sin = 0 there
    return BlockHamiltonian(eigenvalues=np.zeros(d - d // 2), eigenvectors=np.empty((d, d - d // 2)))


def _assemble(offdiag: np.ndarray, ham: BlockHamiltonian | None = None, scratch: np.ndarray | None = None):
    """The stored half of offdiag's block, into ham if given as _empty_half gives it, through scratch if given."""
    d = len(offdiag) + 1
    half, odd = d // 2, d % 2
    m = d - half
    ham = _empty_half(d) if ham is None else ham  # allocated before the solve, so no freed scratch lies beneath it
    vals, vecs = ham.eigenvalues, ham.eigenvectors
    # B = H[0::2, 1::2], and B v = σ u, Bᵀ u = σ v make (u, ±v)/√2 the eigenvectors of ±σ.  B is lower bidiagonal,
    # m × half; for odd d a zero column makes it square, and its zero singular value's u is the zero mode
    sigma = np.append(offdiag[0::2], np.zeros(odd))  # B[i, i], overwritten by σ, descending
    sub = offdiag[1::2].copy()  # B[i + 1, i], destroyed by dbdsdc
    if _dbdsdc is None:
        u, sigma, vt = np.linalg.svd(np.diag(sigma) + np.diag(sub, -1))
    else:
        # column-major, so LAPACKE hands scratch to Fortran with no copy or allocation: ut and v hold Uᵀ and V.  The
        # _work variant skips LAPACKE_dbdsdc's check for a NaN in d or e, so it is made here
        scratch = np.empty(_scratch_size(m)) if scratch is None else scratch
        ut, v = scratch[: m * m].reshape(m, m), scratch[m * m : 2 * m * m].reshape(m, m)
        work, iwork = scratch[2 * m * m : 5 * m * m + 4 * m], scratch[5 * m * m + 4 * m :][: 8 * m].view(np.int64)
        nan = np.isnan(offdiag).any()
        if info := -5 if nan else _dbdsdc(102, b"L", b"I", m, sigma, sub, ut, m, v, m, None, None, work, iwork):
            raise np.linalg.LinAlgError(f"LAPACK dbdsdc failed on a block of dimension {d} (info = {info})")
        u, vt = ut.T, v.T
    vecs[0::2, :odd] = u[:, half:]  # the null vector of Bᵀ when d is odd: the zero mode, odd rows 0
    vecs[1::2, :odd] = 0.0
    np.divide(u[:, :half][:, ::-1], np.sqrt(2.0), out=vecs[0::2, odd:])  # σ descending, λ ascending
    np.divide(vt[:half, :half][::-1].T, np.sqrt(2.0), out=vecs[1::2, odd:])  # the zero column's row of V dropped
    vals[odd:] = sigma[:half][::-1]
    return ham
