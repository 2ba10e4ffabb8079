"""The dense oracle: an independent reference for the block evolution.

dense_oracle_evolve builds the full Hamiltonian a b c^dag + h.c. on a
truncated Fock cube straight from the ladder rules and exponentiates it,
sharing no code with triwave.  Desk scale only (cutoff at most 8).
"""
from functools import lru_cache

import numpy as np

MAX_ORACLE_CUTOFF = 8


def dense_oracle_evolve(amplitudes: np.ndarray, tau: float, cutoff: int) -> np.ndarray:
    """Evolve a full Fock-cube amplitude array by dense diagonalization.

    amplitudes has shape (cutoff+1, cutoff+1, cutoff+1) indexed
    [n_a, n_b, n_c].  The caller must keep enough headroom that no
    population can reach the cube boundary; with support on weight
    n_a + n_b + 2 n_c <= cutoff that is automatic.
    """
    if cutoff < 0 or cutoff > MAX_ORACLE_CUTOFF:
        raise ValueError(f"oracle cutoff must be in [0, {MAX_ORACLE_CUTOFF}], got {cutoff}")
    dim = cutoff + 1
    amplitudes = np.asarray(amplitudes, dtype=complex)
    if amplitudes.shape != (dim, dim, dim):
        raise ValueError(f"amplitude array must have shape {(dim, dim, dim)}")
    vals, vecs = _oracle_eigensystem(cutoff)
    flat = amplitudes.reshape(-1)
    w = vecs.conj().T @ flat
    w = np.exp(-1j * tau * vals) * w
    return (vecs @ w).reshape(dim, dim, dim)


@lru_cache(maxsize=None)
def _oracle_eigensystem(cutoff: int):
    dim = cutoff + 1
    total = dim**3
    ham = np.zeros((total, total))

    def flat(a, b, c):
        return (a * dim + b) * dim + c

    for n_a in range(dim):
        for n_b in range(dim):
            for n_c in range(dim):
                # a b c^dag term, plus Hermitian partner via symmetric fill
                if n_a >= 1 and n_b >= 1 and n_c + 1 < dim:
                    amp = np.sqrt(n_a * n_b * (n_c + 1))
                    i = flat(n_a - 1, n_b - 1, n_c + 1)
                    j = flat(n_a, n_b, n_c)
                    ham[i, j] += amp
                    ham[j, i] += amp
    return np.linalg.eigh(ham)
