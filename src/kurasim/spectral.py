"""Spectral machinery for the closed-form solution x(t) = exp(gamma*t*A) x0.

Circulant matrices share one Fourier eigenbasis, so a graph whose adjacency
matrix is circulant (a ring, a complete graph, or an edge list of either)
gets its spectrum in closed form, one FFT of the generating vector, and
stores no basis at all; where every pair is coupled, A = J - I has two
eigenspaces and its exponential needs no transform either. Any other
graph's adjacency matrix needs no eigenvectors: its exponential is applied
to a state from the state's own Lanczos basis. The numerical
eigendecomposition, which keeps its real eigenvectors, is the reference the
tests compare against, and the route a Lanczos operator falls back to when
a state's Lanczos steps would cost more than it does.
Propagator is the one evaluator for all of them, guarded; unguarded undoes
the guard.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._text import read_table, write_table
from .graphs import AdjacencyMatrix, _real_matmul
from .seeding import rng_for

__all__ = [
    "SpectralError",
    "EigenSystem",
    "cdt_eigenvalues",
    "cdt_fourier_matrix",
    "cdt_eigensystem",
    "eigendecompose_symmetric",
    "eigenvalues_symmetric",
    "LanczosOperator",
    "lanczos_operator",
    "eigensystem_for",
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
# Lanczos steps that find the guard ends of a Lanczos operator
_GUARD_STEPS = 20
# The Lanczos route checks its error estimate after every this many steps.
# Each check is an eigendecomposition of T_m: checking after every step made
# a figure-4 call (n = 200) about a quarter slower, though it stopped sooner.
_CHECK_EVERY = 4
# Measured costs, in ns, with OpenBLAS on 2 cores, that decide when the
# Lanczos route has cost as much as the eigendecomposition it avoids. eigh of
# an n x n matrix: _EIGH_NS * n^3 (0.13 to 0.15 for n = 800..1500; 0.58 at
# n = 200, so small graphs fall back early, where eigh takes milliseconds).
# Lanczos step m: one graph.product (AdjacencyMatrix.product_ns), _STEP_NS,
# and _ORTH_NS per entry of the m x n basis it is orthogonalised against.
# The error check at step m, an eigh of the m x m tridiagonal T_m:
# _RITZ_NS * m^2 (90 to 130 for m = 50..400).
_EIGH_NS = 0.13
_STEP_NS = 15000.0
_ORTH_NS = 2.0
_RITZ_NS = 100.0


class SpectralError(RuntimeError):
    pass


@dataclass(eq=False)
class EigenSystem:
    """Eigenvalues of an adjacency matrix, with its eigenvectors where they are stored.

    A numerical eigensystem holds its real orthonormal eigenvectors as the
    columns of vectors. A circulant (cdt) eigensystem holds none: its
    eigenvector columns are the conjugate Fourier modes, the columns of
    cdt_fourier_matrix(n)^H, which Propagator applies with the FFT.
    eigenvalues is complex-typed even when the values are real, so both
    sources expose one interface. complete marks the cdt eigensystem of a
    graph where every pair is coupled, which Propagator applies through its
    two eigenspaces.
    """

    n: int
    eigenvalues: np.ndarray
    source: str
    vectors: np.ndarray | None = None
    complete: bool = False


def _as_vector(c: np.ndarray) -> np.ndarray:
    vec = np.asarray(c, dtype=float)
    if vec.ndim != 1 or vec.size < 1:
        raise ValueError("generating vector must be a non-empty 1-d array")
    return vec


def cdt_eigenvalues(c: np.ndarray) -> np.ndarray:
    """Closed-form circulant eigenvalues E_r = sum_j c_j exp(-2pi*i*r*j/n), r, j = 0..n-1.

    The defining sum is the DFT of c, computed by one FFT in O(n log n);
    symmetric generating vectors give real values up to roundoff.
    """
    return np.fft.fft(_as_vector(c))


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


def eigendecompose_symmetric(graph: AdjacencyMatrix) -> EigenSystem:
    """Numerical eigendecomposition of a graph's adjacency matrix.

    Eigenvalues come back sorted descending with exactly zero imaginary
    parts; the real eigenvector columns are orthonormal, so the transpose of
    vectors is their inverse.
    """
    try:
        vals, vecs = np.linalg.eigh(graph.entries)
    except np.linalg.LinAlgError as exc:
        raise SpectralError(f"symmetric eigendecomposition failed: {exc}") from exc
    # eigh sorts ascending; reverse, do not re-sort. The copy is contiguous:
    # real products on the negative-stride view run about half as fast.
    return EigenSystem(n=graph.n, eigenvalues=vals[::-1].astype(complex),
                       source="numerical", vectors=vecs[:, ::-1].copy())


def eigenvalues_symmetric(graph: AdjacencyMatrix) -> np.ndarray:
    """The eigenvalues of eigendecompose_symmetric without computing eigenvectors.

    Same descending order, complex dtype with exactly zero imaginary parts.
    """
    try:
        vals = np.linalg.eigvalsh(graph.entries)
    except np.linalg.LinAlgError as exc:
        raise SpectralError(f"symmetric eigenvalue solver failed: {exc}") from exc
    return vals[::-1].astype(complex)


@dataclass(eq=False)
class LanczosOperator:
    """A graph and two guard ends of its adjacency spectrum, for the Lanczos route.

    hi and lo are the extreme Ritz values of _GUARD_STEPS Lanczos steps from
    a fixed start vector, widened by their residuals (Parlett's bound places
    an eigenvalue that close, but does not rule one out further away) and
    clipped at the Gershgorin bounds +-(max degree). Propagator evaluates
    exp(gamma*t*A) x0 from the Lanczos basis of x0 itself, with matrix
    products only, or through eigendecompose_symmetric where that is cheaper;
    the guard ends bound its overflow guard before any product is made.
    """

    n: int
    graph: AdjacencyMatrix
    lo: float
    hi: float
    source = "lanczos"


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
    return np.linalg.eigh(tri)


def lanczos_operator(graph: AdjacencyMatrix) -> LanczosOperator:
    """The Lanczos route for a graph, with no eigendecomposition.

    The guard ends come from _GUARD_STEPS Lanczos steps from a fixed
    pseudo-random start vector, which meets every eigenspace: the extreme
    Ritz values widened by their residuals |beta * s|, s the last component
    of the Ritz vector in T_m's eigenbasis, never beyond +-(max degree).
    """
    degree = float(graph.degrees().max())
    start = rng_for(0, "lanczos").standard_normal(graph.n)
    *_, (_, alphas, betas) = _lanczos(graph, start, _GUARD_STEPS)
    ritz, vecs = _ritz(alphas, betas)
    residual = np.abs(betas[-1] * vecs[-1, [0, -1]])
    return LanczosOperator(n=graph.n, graph=graph,
                           lo=max(float(ritz[0] - residual[0]), -degree),
                           hi=min(float(ritz[-1] + residual[1]), degree))


def eigensystem_for(graph: AdjacencyMatrix) -> EigenSystem | LanczosOperator:
    """The closed form's route for graph, read from its edges.

    A circulant graph gets the cdt eigensystem of graph.generating_vector(),
    marked complete where every pair is coupled; any other graph gets the
    Lanczos operator, which needs no eigenvectors until Propagator finds the
    Krylov space of a state too large to be the cheaper route.
    """
    c = graph.generating_vector()
    if c is None:
        return lanczos_operator(graph)
    es = cdt_eigensystem(c)
    es.complete = graph.is_complete
    return es


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


def unguarded(states: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """x(t) = e^shift * states from Propagator's pair; raises where x(t) overflows."""
    peak = float(np.max(shift))
    if peak > _EXP_LIMIT:
        raise SpectralError(f"propagator overflow: exponent {peak:.6g}; "
                            "enable the overflow guard")
    return states * np.exp(shift)[:, None]


class Propagator:
    """x(t) = exp(gamma*t*A) x0 at fixed sample times, for any initial state x0.

    What does not depend on x0 is computed once, when the propagator is
    built: the exp() factors of an eigensystem, or the guard shift of a
    Lanczos operator. Calling it with x0 returns (states, shift): states
    shaped (samples, n) and, per sample, what the overflow guard subtracted
    from every log-modulus, so x(t) = unguarded(states, shift) =
    exp(shift) * states. The guard never changes an argument.

    On an eigensystem V diag(exp(gamma*t*lambda)) V^{-1} x0 is evaluated per
    sample, and the guard subtracts t * max_r Re(gamma*lambda_r). A circulant
    (cdt) eigensystem applies its Fourier basis with the FFT in O(n log n)
    per sample, a numerical one its real eigenvectors with real matrix
    products on the real and imaginary parts. The eigensystem of a complete
    graph is applied through its two eigenspaces instead, in O(n) per
    sample, and its guard takes the exact eigenvalues n - 1 and -1:
    t * max(gamma*(n - 1), -gamma).

    On a Lanczos operator each call builds the Lanczos basis V_m of x0, one
    graph.product per step, and evaluates every sample as
    ||x0|| V_m exp(gamma*t*(T_m - s)) e_1 (Saad 1992; Hochbruck and Lubich
    1997), gamma*s the largest gamma*theta over the Ritz values theta of T_m,
    so the guard subtracts t * gamma*s. Every _CHECK_EVERY steps, Saad's
    estimate of the error at the last sample, beta_m |e_m^T y| with
    y = exp(gamma*t*(T_m - s)) e_1, is compared with its own rounding level,
    beta_m * m * eps * ||y||, and the steps stop once it is there. The shift
    known when built, t * gamma times the guard end (hi for gamma >= 0, else
    lo), bounds the call's, as x0's Ritz values lie inside the spectrum,
    unless lo misses lambda_min. A call whose steps have cost more than one
    eigh would, by the measured estimates (_EIGH_NS), evaluates this and
    every later x0 through eigendecompose_symmetric of the graph. system is
    the route taken; krylov_dimension is m after a call on the Lanczos
    route, else None.
    """

    def __init__(self, system: EigenSystem | LanczosOperator, gamma: float, times: np.ndarray):
        if not np.isfinite(gamma):
            raise ValueError(f"gamma must be finite, got {gamma}")
        times = np.atleast_1d(np.asarray(times, dtype=float))
        if not np.all(np.isfinite(times) & (times >= 0.0)):
            raise ValueError(f"times must be finite and >= 0, got {times}")
        # |gamma| * t * (lambda_max - lambda_min) bounds every exponent and
        # shift; past float max they cannot be formed. Perron-Frobenius puts
        # the spectral radius of an adjacency matrix at lambda_max <= hi.
        radius = (max(system.hi, -system.lo) if system.source == "lanczos"
                  else float(np.abs(system.eigenvalues).max()))
        spread = abs(float(gamma)) * float(times.max(initial=0.0)) * 2.0 * radius
        if not spread <= _FLOAT_MAX:
            raise SpectralError(f"propagator overflow: |gamma| * t * 2 * rho(A) = {spread:.6g} "
                                "exceeds the floating-point range")
        self._gamma, self._times = gamma, times
        if system.source == "lanczos":
            self.system, self.krylov_dimension = system, None
            self.shift = gamma * (system.hi if gamma >= 0.0 else system.lo) * times
            return
        self._decompose(system)

    def _decompose(self, es: EigenSystem) -> None:
        """The exp() factors of es, or where es is complete, factors a, b with
        exp(gamma*t*(J - I)) x0 = a x0 + b mean(x0) 1 per sample.

        The mean spans the eigenspace of n - 1 and the rest that of -1, so
        a = e^{-gamma*t} and b = e^{gamma*(n-1)*t} - e^{-gamma*t}, each
        divided by the guard's e^{shift}, the larger of the two exponentials;
        b is then 1 - e^{-|gamma*n*t|}, signed, through expm1.
        """
        self.system, self.krylov_dimension = es, None
        gamma, times = self._gamma, self._times
        if not es.complete:
            self._factors = np.exp(propagator_exponents(es, gamma, times))
            self.shift = _guard_rate(es, gamma) * times
            return
        low = -gamma * times
        self.shift = np.maximum(gamma * (es.n - 1) * times, low)
        gap = gamma * es.n * times
        self._a = np.exp(low - self.shift)
        self._b = -np.expm1(-np.abs(gap)) * np.sign(gap)

    def __call__(self, x0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x0 = np.asarray(x0, dtype=complex)
        if x0.shape != (self.system.n,):
            raise ValueError(f"state shape {x0.shape} does not match dimension {self.system.n}")
        if self.system.source == "lanczos":
            result = self._krylov(x0)
            if result is not None:
                return result
            self._decompose(eigendecompose_symmetric(self.system.graph))
        es = self.system
        if es.complete:
            states = np.multiply.outer(self._a, x0)
            states += (self._b * x0.mean())[:, None]
            return states, self.shift
        if es.source == "cdt":  # U x is fft(x)/sqrt(n), U^H y is ifft(y)*sqrt(n)
            y = self._factors * np.fft.fft(x0, norm="ortho")
            return np.fft.ifft(y, norm="ortho", out=y), self.shift
        # one column per sample, laid out for the product with the eigenvectors
        y = np.multiply(self._factors.T, _real_matmul(es.vectors.T, x0)[:, None], order="C")
        return _real_matmul(es.vectors, y).T, self.shift

    def _krylov(self, x0: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
        """(states, shift) from the Lanczos basis of x0, or None once the steps
        have cost, by the measured estimates, more than one eigh would."""
        gamma, times, n = self._gamma, self._times, self.system.n
        norm = np.linalg.norm(x0)
        if norm == 0.0:
            self.krylov_dimension = 0
            return np.zeros((times.size, n), dtype=complex), self.shift
        graph = self.system.graph
        budget, spent = _EIGH_NS * float(n) ** 3, 0.0
        for basis, alphas, betas in _lanczos(graph, x0, n):
            m = len(alphas)
            spent += graph.product_ns + _STEP_NS + _ORTH_NS * m * n
            if m % _CHECK_EVERY and betas[-1] and spent <= budget:
                continue
            spent += _RITZ_NS * m * m
            ritz, vecs = _ritz(alphas, betas)
            rates = gamma * ritz
            top = rates.max()
            at_end = vecs @ (np.exp(times.max() * (rates - top)) * vecs[0])
            # Saad's error estimate at the last sample against its rounding level
            if betas[-1] * abs(at_end[-1]) <= betas[-1] * m * _EPS * np.linalg.norm(at_end):
                self.krylov_dimension = m
                coeffs = (np.exp(np.outer(times, rates - top)) * (norm * vecs[0])) @ vecs.T
                return (coeffs @ basis.view(float)).view(complex), top * times
            if spent > budget:
                return None


def apply_propagator(system: EigenSystem | LanczosOperator, gamma: float, t: float,
                     x0: np.ndarray) -> np.ndarray:
    """x(t) = exp(gamma*t*A) x0 itself, on any route; raises where it overflows."""
    return unguarded(*Propagator(system, gamma, [t])(x0))[0]


def write_spectrum_csv(eigenvalues: np.ndarray, path: str | Path) -> None:
    """One header line, then one "lambda_re,lambda_im" row per eigenvalue."""
    vals = np.asarray(eigenvalues, dtype=complex)
    write_table(path, SPECTRUM_HEADER, np.column_stack((vals.real, vals.imag)))


def read_spectrum_csv(path: str | Path) -> np.ndarray:
    header, table = read_table(path)
    if header != SPECTRUM_HEADER:
        raise ValueError(f"not a spectrum CSV: {path}")
    return table.view(complex)[:, 0]  # each (re, im) row read as one complex
