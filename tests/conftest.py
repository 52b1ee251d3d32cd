"""Shared fixtures: the acceptance log echoed after the terminal summary, and
the two dense references the closed form's routes are checked against."""

import numpy as np
import pytest

from kurasim.graphs import _real_matmul
from kurasim.spectral import (_guard_rate, cdt_eigensystem, cdt_fourier_matrix,
                              eigendecompose_symmetric, propagator_exponents)

ACCEPTANCE_LINES = []


@pytest.fixture(scope="session")
def criterion_log():
    return ACCEPTANCE_LINES


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def _guard_shift(es, gamma, times):
    """The guard's shift over es's spectrum, t * max_r Re(gamma*lambda_r), per time."""
    return _guard_rate(es, gamma) * np.atleast_1d(np.asarray(times, dtype=float))


def eigh_oracle(graph, gamma, times, x0):
    """exp(gamma*t*A) x0 as the product V diag(exp(gamma*t*lambda)) V^T x0 of
    eigh's real eigenvectors, guarded: (states, shift), as Propagator returns
    them. The real vectors multiply the real and imaginary parts."""
    es = eigendecompose_symmetric(graph)
    factors = np.exp(propagator_exponents(es, gamma, times))
    x0 = np.asarray(x0, dtype=complex)
    y = np.multiply(factors.T, _real_matmul(es.vectors.T, x0)[:, None], order="C")
    return _real_matmul(es.vectors, y).T, _guard_shift(es, gamma, times)


def fourier_oracle(graph, gamma, times, x0):
    """exp(gamma*t*A) x0 on a circulant graph as the dense Fourier product
    U^H diag(exp(gamma*t*lambda)) U x0, guarded: (states, shift), as
    Propagator returns them. On K_n Propagator takes its two eigenspaces
    instead of the FFT, and this is the FFT's product there."""
    es = cdt_eigensystem(graph.generating_vector())
    u = cdt_fourier_matrix(graph.n)
    factors = np.exp(propagator_exponents(es, gamma, times))
    states = (u.conj().T @ (factors.T * (u @ np.asarray(x0, dtype=complex))[:, None])).T
    return states, _guard_shift(es, gamma, times)
