"""Shared pytest plumbing for the suite.

Acceptance tests register one verdict line per criterion; the hook below
replays them after the normal summary so a plain `pytest -v` shows every
verdict even though per-test stdout is captured.

check_density_matrix is the tests' one check of a density matrix, a plain
complex 2-D array.

scaling_data is the criterion 5 fixture, the scaling study over N_in = 2 .. 54,
run once per session: the acceptance criteria and the golden records share it.
"""
import time

import numpy as np
import pytest

from triwave.experiments import scaling_study

SCALING_N_IN = tuple(float(n) for n in range(2, 55, 2))
SCALING_EPS = 1e-8

CRITERION_LINES: list[str] = []


def record_criterion(line: str) -> None:
    CRITERION_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not CRITERION_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in CRITERION_LINES:
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def scaling_data():
    start = time.monotonic()
    points, fits = scaling_study(SCALING_N_IN, eps=SCALING_EPS)
    return {"points": points, "fits": fits, "elapsed": time.monotonic() - start}


def check_density_matrix(mat: np.ndarray) -> None:
    """Check Hermiticity (1e-12), unit trace (1e-10) and positivity (eigenvalues >= -1e-10); raise on failure."""
    herm = np.max(np.abs(mat - mat.conj().T))
    if herm > 1e-12:
        raise ValueError(f"density matrix not Hermitian, deviation {herm:.3e}")
    deficit = abs(float(np.trace(mat).real) - 1.0)
    if deficit > 1e-10:
        raise ValueError(f"density matrix trace off by {deficit:.3e}")
    smallest = float(np.linalg.eigvalsh(mat)[0])
    if smallest < -1e-10:
        raise ValueError(f"density matrix has negative eigenvalue {smallest:.3e}")


def is_complex_matrix(mat) -> bool:
    """True for a square complex 2-D numpy array, the form every density matrix takes."""
    return type(mat) is np.ndarray and mat.dtype == complex and mat.ndim == 2 and mat.shape[0] == mat.shape[1]
