"""Spectral machinery for the closed-form solution x(t) = exp(gamma*t*A) x0.

Circulant matrices share one Fourier eigenbasis, so a graph whose adjacency
matrix is circulant (a ring, a complete graph, or an edge list of either)
gets its spectrum in closed form, one FFT of the generating vector, and
stores no basis at all; where every pair is coupled, A = J - I has two
eigenspaces and its exponential needs no transform either. Any other
graph's adjacency matrix needs no eigenvectors, as its exponential is
applied to a state from the state's own Lanczos basis, with graph products
only. Propagator(graph, gamma, times) reads which of the three routes a
graph takes from its edges and is the one evaluator for all of them,
guarded; unguarded undoes the guard. The numerical eigendecomposition,
which keeps its real eigenvectors, is the reference the tests compare
against. The numerical eigenvalues alone, which the spectrum command
checks the closed form against, split on a mirror-symmetric graph (one the
node reversal i -> n-1-i maps onto itself, as a ring or K_n) into those of
two exact half-size blocks (Cantoni and Butler 1976). A dense eigensolve
of order up to _ONE_THREAD_ORDER, a Ritz check among them, and a Lanczos
call on a graph of that order run on one OpenBLAS thread.
"""

from __future__ import annotations

import ctypes
from collections.abc import Iterator
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from functools import cache
from pathlib import Path

import numpy as np

from ._text import read_table, write_table
from .graphs import AdjacencyMatrix, _real_matmul

__all__ = [
    "SpectralError",
    "EigenSystem",
    "cdt_eigenvalues",
    "cdt_fourier_matrix",
    "cdt_eigensystem",
    "eigendecompose_symmetric",
    "eigenvalues_symmetric",
    "Propagator",
    "unguarded",
    "apply_propagator",
    "write_spectrum_csv",
    "read_spectrum_csv",
]

SPECTRUM_HEADER = "lambda_re,lambda_im"

_FLOAT_MAX = float(np.finfo(float).max)
_EPS = float(np.finfo(float).eps)
# log(float64 max); exponents beyond this overflow exp() to inf
_EXP_LIMIT = float(np.log(_FLOAT_MAX))
# The Lanczos route checks its error estimate after every this many steps.
# Each check is an eigendecomposition of T_m: checking after every step made
# a figure-4 call (n = 200) about a quarter slower, though it stopped sooner.
_CHECK_EVERY = 4
# A dense eigensolve of at most this order, and a Lanczos call on a graph of
# at most this order, run on one BLAS thread. Measured with OpenBLAS on 2
# cores, one thread took eigvalsh and 60 Lanczos steps about as long as two
# at n = 300 to 400 and never stalled, where two took eigvalsh 37-46 ms at
# n = 200 in some runs and 0.49-1.1 s at n = 256 to 400; two threads were
# 1.6-1.8x faster at n = 750 and 1500 (README, "BLAS threads").
_ONE_THREAD_ORDER = 400


class SpectralError(RuntimeError):
    pass


@cache
def _blas_thread_setter():
    """The loaded OpenBLAS's openblas_set_num_threads_local, or None where there is none.

    The library is the one /proc/self/maps lists, and the function, which
    sets the thread count and returns the previous one, is looked up on
    first use, not on import. Another BLAS, or an OS with no /proc, gives
    None.
    """
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            setter = ctypes.CDLL(path).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
        return setter
    return None


@contextmanager
def _one_blas_thread() -> Iterator[None]:
    """Run the body on one OpenBLAS thread, then restore the caller's count.

    A small product or eigensolve split over OpenBLAS's threads waits for a
    worker to wake, and the worker then spins for about 0.1 s of CPU after
    it: the README's "BLAS threads" paragraph gives the measurements. Where
    _blas_thread_setter finds nothing, the body runs as it would without.
    OpenBLAS's pthreads build keeps one count for the whole process.
    """
    setter = _blas_thread_setter()
    if setter is None:
        yield
        return
    previous = setter(1)
    try:
        yield
    finally:
        setter(previous)


@dataclass(eq=False)
class EigenSystem:
    """Eigenvalues of an adjacency matrix, with its eigenvectors where they are stored.

    A numerical eigensystem holds its real orthonormal eigenvectors as the
    columns of vectors. A circulant (cdt) eigensystem holds none: its
    eigenvector columns are the conjugate Fourier modes, the columns of
    cdt_fourier_matrix(n)^H, which Propagator applies with the FFT.
    eigenvalues is complex-typed even when the values are real, so both
    sources expose one interface.
    """

    n: int
    eigenvalues: np.ndarray
    source: str
    vectors: np.ndarray | None = None


def _as_vector(c: np.ndarray) -> np.ndarray:
    vec = np.asarray(c, dtype=float)
    if vec.ndim != 1 or vec.size < 1:
        raise ValueError("generating vector must be a non-empty 1-d array")
    return vec


def cdt_eigenvalues(c: np.ndarray) -> np.ndarray:
    """Closed-form circulant eigenvalues E_r = sum_j c_j exp(-2pi*i*r*j/n), r, j = 0..n-1.

    The defining sum is the DFT of c, computed by one FFT in O(n log n).
    A symmetric c (c_j = c_{n-j}) makes circ(c) symmetric and its spectrum
    real, so there the FFT's round-off imaginary parts are set to exactly 0.
    """
    vec = _as_vector(c)
    values = np.fft.fft(vec)
    if np.array_equal(vec[1:], vec[:0:-1]):
        values.imag = 0.0
    return values


def cdt_fourier_matrix(n: int) -> np.ndarray:
    """The universal circulant-diagonalizing unitary, u_rs = exp(-2pi*i*r*s/n)/sqrt(n)."""
    if int(n) != n or n < 1:
        raise ValueError(f"dimension must be a positive integer, got {n}")
    r = np.arange(n)
    return np.exp(-2j * np.pi / n * np.outer(r, r)) / np.sqrt(n)


def cdt_eigensystem(c: np.ndarray) -> EigenSystem:
    """EigenSystem of circ(c): eigenvector columns are the conjugate Fourier modes.

    With U from cdt_fourier_matrix, circ(c) = U^H diag(E) U; U is not stored.
    """
    vec = _as_vector(c)
    return EigenSystem(n=vec.size, eigenvalues=cdt_eigenvalues(vec), source="cdt")


def _blas_threads_for(order: int):
    """_one_blas_thread() for a problem of order _ONE_THREAD_ORDER or less, else no change."""
    return _one_blas_thread() if order <= _ONE_THREAD_ORDER else nullcontext()


def _dense_solve(solver, matrix: np.ndarray):
    """solver(matrix), on the threads _blas_threads_for gives its order."""
    with _blas_threads_for(matrix.shape[0]):
        return solver(matrix)


def eigendecompose_symmetric(graph: AdjacencyMatrix) -> EigenSystem:
    """Numerical eigendecomposition of a graph's adjacency matrix.

    Eigenvalues come back sorted descending with exactly zero imaginary
    parts; the real eigenvector columns are orthonormal, so the transpose of
    vectors is their inverse.
    """
    try:
        vals, vecs = _dense_solve(np.linalg.eigh, graph.entries)
    except np.linalg.LinAlgError as exc:
        raise SpectralError(f"symmetric eigendecomposition failed: {exc}") from exc
    # eigh sorts ascending; reverse, do not re-sort. The copy is contiguous:
    # real products on the negative-stride view run about half as fast.
    return EigenSystem(n=graph.n, eigenvalues=vals[::-1].astype(complex),
                       source="numerical", vectors=vecs[:, ::-1].copy())


def _mirror_blocks(graph: AdjacencyMatrix) -> tuple[np.ndarray, np.ndarray] | None:
    """Two half-size symmetric blocks whose spectra make up graph's, or None.

    The graph is mirror-symmetric when the node reversal i -> n-1-i maps its
    edges onto themselves, every edge (i, j) having its mirror
    (n-1-j, n-1-i): one sort of the mirrored keys, O(edges log edges). Its
    adjacency matrix A is then centrosymmetric, and in the orthonormal basis
    of sums and differences of mirrored nodes it splits into B + F and B - F,
    with m = n // 2, B = A[:m, :m] and F = A[:m, n-m:][:, ::-1] (Cantoni and
    Butler 1976). For odd n the middle node joins the sums: B + F is bordered
    by sqrt(2) A[:m, m] and A[m, m] = 0. Both blocks are summed from the
    edges of the first m nodes, with no n x n matrix; their entries are
    exact, -1 to 2, but for the border.
    """
    n, rows, cols = graph.n, graph.rows, graph.cols
    mirrored = (n - 1 - cols) * n + (n - 1 - rows)
    mirrored.sort()
    if not np.array_equal(mirrored, rows * n + cols):
        return None
    m = n // 2
    side = n - m  # m + 1 for odd n, the middle node last
    # A[u, v] = 1 for both directions (u, v) of every edge with u < m; v's
    # mirror pair is w = min(v, n-1-v), its sign in the differences is that
    # of n-1-2v, and the middle node (v = n-1-v) has none
    u, v = np.concatenate((rows, cols)), np.concatenate((cols, rows))
    first = u < m
    u, v = u[first], v[first]
    at = u * side + np.minimum(v, n - 1 - v)
    plus = np.bincount(at, np.where(2 * v == n - 1, np.sqrt(2.0), 1.0), side * side)
    minus = np.bincount(at, np.sign(n - 1 - 2 * v), side * side)
    plus, minus = plus.reshape(side, side), minus.reshape(side, side)[:m, :m]
    plus[m:, :m] = plus[:m, m:].T  # the border's row, for odd n
    return plus, minus


def eigenvalues_symmetric(graph: AdjacencyMatrix) -> np.ndarray:
    """The eigenvalues of eigendecompose_symmetric without computing eigenvectors.

    Same descending order, complex dtype with exactly zero imaginary parts.
    A mirror-symmetric graph (a ring, K_n, a path, or an edge list of any)
    is solved as the two half-size blocks of _mirror_blocks, about a third
    of the cost of the one full solve that any other graph takes.
    """
    blocks = _mirror_blocks(graph) or (graph.entries,)
    try:
        vals = np.concatenate([_dense_solve(np.linalg.eigvalsh, block) for block in blocks])
    except np.linalg.LinAlgError as exc:
        raise SpectralError(f"symmetric eigenvalue solver failed: {exc}") from exc
    vals.sort(kind="stable")  # stable: one full solve's ascending values keep their order
    return vals[::-1].astype(complex)


def _lanczos(graph: AdjacencyMatrix, x: np.ndarray, steps: int) -> Iterator[tuple]:
    """Yield (basis, alphas, betas) after each of at most steps Lanczos steps from x.

    basis holds the orthonormal Krylov vectors of the steps taken as rows;
    alphas and betas are the diagonal and the off-diagonal of the tridiagonal
    T_m = basis^H A basis, with betas[-1] the norm of the next residual. Each
    step is one graph.product. Each new vector is orthogonalised against
    every earlier one, twice, so the basis stays orthonormal to rounding
    level however many steps run; its storage doubles as the steps need it.
    The steps stop once beta vanishes, which it does at m = n at the latest:
    the Krylov space is invariant, and T_m holds the part of the spectrum x
    excites exactly. A beta at rounding level is reported as 0.
    """
    steps = min(steps, x.size)
    basis = np.empty((min(steps, 2 * _CHECK_EVERY), x.size), dtype=x.dtype)
    basis[0] = x / np.linalg.norm(x)
    alphas, betas = [], []
    for m in range(1, steps + 1):
        done = basis[:m]
        w = graph.product(done[-1])
        h = (done @ w.conj()).conj()
        w -= h @ done
        h2 = (done @ w.conj()).conj()
        w -= h2 @ done
        alphas.append(float((h[-1] + h2[-1]).real))
        beta = float(np.linalg.norm(w))
        if beta <= 1e-12 * max(1.0, abs(alphas[-1])) or m == x.size:
            beta = 0.0
        betas.append(beta)
        yield done, alphas, betas
        if not beta or m == steps:
            return
        if m == basis.shape[0]:
            basis = np.concatenate((basis, np.empty_like(basis[:min(m, steps - m)])))
        basis[m] = w / beta


def _ritz(alphas: list, betas: list) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvector columns of the tridiagonal T_m."""
    tri = np.diag(alphas) + np.diag(betas[:-1], 1) + np.diag(betas[:-1], -1)
    return _dense_solve(np.linalg.eigh, tri)


def _guard_rate(es: EigenSystem, gamma: float) -> float:
    """What the overflow guard subtracts from every log-modulus per unit time:
    the largest Re(gamma*lambda) over the spectrum of es."""
    return float((gamma * es.eigenvalues).real.max())


def propagator_exponents(es: EigenSystem, gamma: float, times: np.ndarray) -> np.ndarray:
    """Guarded eigenmode exponents t*(gamma*lambda - rate), one row per time.

    rate = max_r Re(gamma*lambda_r) is gamma*lambda_max for gamma >= 0 and
    gamma*lambda_min for gamma < 0: the guard subtracts t*rate from every
    exponent, a uniform rescaling of moduli that leaves every argument
    untouched and puts the dominant mode's exponent at exactly 0.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    return np.outer(times, gamma * es.eigenvalues - _guard_rate(es, gamma))


def _check_spread(gamma: float, times: np.ndarray, radius: float) -> None:
    """Raise where |gamma| * t * (lambda_max - lambda_min), which bounds every
    exponent and shift, is past float max, with radius bounding rho(A)."""
    spread = abs(float(gamma)) * float(times.max(initial=0.0)) * 2.0 * radius
    if not spread <= _FLOAT_MAX:
        raise SpectralError(f"propagator overflow: |gamma| * t * 2 * rho(A) = {spread:.6g} "
                            "exceeds the floating-point range")


def unguarded(states: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """x(t) = e^shift * states from Propagator's pair; raises where x(t) overflows."""
    peak = float(np.max(shift))
    if peak > _EXP_LIMIT:
        raise SpectralError(f"propagator overflow: exponent {peak:.6g}; "
                            "read the guarded states instead")
    return states * np.exp(shift)[:, None]


class Propagator:
    """x(t) = exp(gamma*t*A) x0 at fixed sample times, for any initial state x0.

    The constructor reads the route from graph, and nothing else does: a
    graph where every pair is coupled (graph.is_complete, O(1)) is applied
    through the two eigenspaces of A = J - I, a circulant one (one with a
    graph.generating_vector(), O(edges)) through the cdt eigensystem of that
    vector, and any other through x0's Lanczos basis; route names which: cdt
    for the first two, lanczos for the third. What does not depend on x0 is
    computed once, when the propagator is built: the exp() factors of a
    circulant graph and its guard shift. Calling it with x0
    returns (states, shift): states shaped (samples, n) and, per sample,
    what the overflow guard subtracted from every log-modulus, so
    x(t) = unguarded(states, shift) = exp(shift) * states. The guard never
    changes an argument.

    On a complete graph exp(gamma*t*A) x0 = a x0 + b mean(x0) 1, in O(n)
    per sample, and the guard takes the exact eigenvalues n - 1 and -1:
    t * max(gamma*(n - 1), -gamma). On any other circulant graph
    U^H diag(exp(gamma*t*lambda)) U x0 is evaluated per sample, the Fourier
    basis U applied with the FFT in O(n log n), and the guard subtracts
    t * max_r Re(gamma*lambda_r). On these two routes the shift is known
    when the propagator is built.

    On any other graph each call builds the Lanczos basis V_m of x0, one
    graph.product per step, and evaluates every sample as
    ||x0|| V_m exp(gamma*t*(T_m - s)) e_1 (Saad 1992; Hochbruck and Lubich
    1997), gamma*s the largest gamma*theta over the Ritz values theta of T_m,
    so the guard subtracts t * gamma*s. Every _CHECK_EVERY steps, Saad's
    estimate of the error at the last sample, beta_m |e_m^T y| with
    y = exp(gamma*t*(T_m - s)) e_1, is compared with its own rounding level,
    beta_m * m * eps * ||y||, and the steps stop once it is there, or once
    the Krylov space is invariant, at m = n at the latest, where T_m is
    exact. After a call krylov_dimension is m and interval is
    [theta_min, theta_max], x0's extreme Ritz values; on the cdt route both
    stay None. On a graph of order _ONE_THREAD_ORDER or less the call runs
    on one BLAS thread.
    """

    def __init__(self, graph: AdjacencyMatrix, gamma: float, times: np.ndarray):
        if not np.isfinite(gamma):
            raise ValueError(f"gamma must be finite, got {gamma}")
        times = np.atleast_1d(np.asarray(times, dtype=float))
        if not np.all(np.isfinite(times) & (times >= 0.0)):
            raise ValueError(f"times must be finite and >= 0, got {times}")
        self.graph, self.route = graph, "cdt"
        self.krylov_dimension = self.interval = None
        self._gamma, self._times, self._factors = gamma, times, None
        if graph.is_complete:
            _check_spread(gamma, times, graph.n - 1.0)
            # exp(gamma*t*(J - I)) x0 = a x0 + b mean(x0) 1 per sample: the mean
            # spans the eigenspace of n - 1 and the rest that of -1, so
            # a = e^{-gamma*t} and b = e^{gamma*(n-1)*t} - e^{-gamma*t}, each
            # divided by the guard's e^{shift}, the larger of the two
            # exponentials; b is then 1 - e^{-|gamma*n*t|}, signed, through expm1
            low = -gamma * times
            self.shift = np.maximum(gamma * (graph.n - 1) * times, low)
            gap = gamma * graph.n * times
            self._a = np.exp(low - self.shift)
            self._b = -np.expm1(-np.abs(gap)) * np.sign(gap)
        elif (c := graph.generating_vector()) is not None:
            es = cdt_eigensystem(c)
            _check_spread(gamma, times, float(np.abs(es.eigenvalues).max()))
            self._factors = np.exp(propagator_exponents(es, gamma, times))
            self.shift = _guard_rate(es, gamma) * times
        else:
            # a graph's spectral radius is at most its max degree (Gershgorin)
            _check_spread(gamma, times, float(graph.degrees().max()))
            self.route = "lanczos"

    def __call__(self, x0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x0 = np.asarray(x0, dtype=complex)
        if x0.shape != (self.graph.n,):
            raise ValueError(f"state shape {x0.shape} does not match dimension {self.graph.n}")
        if self.route == "lanczos":
            with _blas_threads_for(x0.size):
                return self._krylov(x0)
        if self._factors is None:  # every pair coupled
            states = np.multiply.outer(self._a, x0)
            states += (self._b * x0.mean())[:, None]
            return states, self.shift
        # U x is fft(x)/sqrt(n), U^H y is ifft(y)*sqrt(n)
        y = self._factors * np.fft.fft(x0, norm="ortho")
        return np.fft.ifft(y, norm="ortho", out=y), self.shift

    def _krylov(self, x0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(states, shift) from the Lanczos basis of x0."""
        gamma, times = self._gamma, self._times
        norm = np.linalg.norm(x0)
        if norm == 0.0:
            self.krylov_dimension, self.interval = 0, None
            return np.zeros((times.size, x0.size), dtype=complex), np.zeros_like(times)
        for basis, alphas, betas in _lanczos(self.graph, x0, x0.size):
            m = len(alphas)
            if m % _CHECK_EVERY and betas[-1]:
                continue
            ritz, vecs = _ritz(alphas, betas)
            rates = gamma * ritz
            top = rates.max()
            at_end = vecs @ (np.exp(times.max() * (rates - top)) * vecs[0])
            # Saad's error estimate at the last sample against its rounding
            # level; it is 0 once beta is, on the last step at the latest
            if betas[-1] * abs(at_end[-1]) <= betas[-1] * m * _EPS * np.linalg.norm(at_end):
                break
        self.krylov_dimension, self.interval = m, [float(ritz[0]), float(ritz[-1])]
        coeffs = (np.exp(np.outer(times, rates - top)) * (norm * vecs[0])) @ vecs.T
        return _real_matmul(coeffs, basis), top * times


def apply_propagator(graph: AdjacencyMatrix, gamma: float, t: float,
                     x0: np.ndarray) -> np.ndarray:
    """x(t) = exp(gamma*t*A) x0 itself, on graph's route; raises where it overflows."""
    return unguarded(*Propagator(graph, gamma, [t])(x0))[0]


def write_spectrum_csv(eigenvalues: np.ndarray, path: str | Path) -> None:
    """One header line, then one "lambda_re,lambda_im" row per eigenvalue."""
    vals = np.asarray(eigenvalues, dtype=complex)
    write_table(path, SPECTRUM_HEADER, np.column_stack((vals.real, vals.imag)))


def read_spectrum_csv(path: str | Path) -> np.ndarray:
    header, table = read_table(path)
    if header != SPECTRUM_HEADER:
        raise ValueError(f"not a spectrum CSV: {path}")
    return table.view(complex)[:, 0]  # each (re, im) row read as one complex
