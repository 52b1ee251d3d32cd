"""Spectral machinery for the closed-form solution x(t) = exp(gamma*t*A) x0.

Circulant matrices share one Fourier eigenbasis, so a graph whose adjacency
matrix is circulant (a ring, a complete graph, or an edge list of either)
gets its spectrum in closed form, one FFT of the generating vector, and
stores no basis at all; where every pair is coupled, A = J - I has two
eigenspaces and its exponential needs no transform either. Any other
graph's adjacency matrix needs no eigenvectors: its exponential is applied
as a Chebyshev expansion over an interval that holds the spectrum, bounded
by Gershgorin discs and tightened by a few Lanczos steps. The numerical
eigendecomposition, which keeps its real eigenvectors, is the reference the
tests compare against, and the route a Chebyshev operator falls back to when
a long horizon would need more matrix products than it costs. Propagator is
the one evaluator for all of them, guarded; unguarded undoes the guard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._text import read_table, write_table
from .graphs import AdjacencyMatrix
from .seeding import rng_for

__all__ = [
    "SpectralError",
    "EigenSystem",
    "cdt_eigenvalues",
    "cdt_fourier_matrix",
    "cdt_eigensystem",
    "eigendecompose_symmetric",
    "eigenvalues_symmetric",
    "ChebyshevOperator",
    "chebyshev_operator",
    "eigensystem_for",
    "Propagator",
    "unguarded",
    "apply_propagator",
    "write_spectrum_csv",
    "read_spectrum_csv",
]

SPECTRUM_HEADER = "lambda_re,lambda_im"

# log(float64 max); exponents beyond this overflow exp() to inf
_EXP_LIMIT = float(np.log(np.finfo(float).max))
# Lanczos steps that tighten the Gershgorin interval of a Chebyshev operator
_LANCZOS_STEPS = 20
# On the Chebyshev route, at most this |gamma|*t_end*(guard's interval end -
# its Ritz value), the log of the factor by which rounding errors may grow
# relative to the dominant mode.
_MAX_LOSS = 4.0
# The Chebyshev route costs one product with the n x n matrix per term,
# the eigendecomposition about as much as this many products per node; past
# that count the numerical eigensystem is the cheaper route. Measured with
# OpenBLAS on 2 cores for n = 800..2500, where one eigh cost 0.21 to 0.28
# products per node (0.45 s against 1.4 ms per product at n = 1500); for
# n <= 400 the ratio is nearer 0.9, but there eigh takes milliseconds.
_PRODUCTS_PER_NODE = 0.25
# On the Chebyshev route no ||T_k(B) x|| may exceed ||x|| by more than this
# relative amount: a larger one means x excites part of the spectrum outside
# the interval, where the truncated expansion is not accurate.
_INTERVAL_TOLERANCE = 1e-8


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
class ChebyshevOperator:
    """A graph and bounds on its adjacency spectrum, for the Chebyshev route.

    [lo, hi] holds the spectrum; ritz_lo and ritz_hi are the extreme Lanczos
    Ritz values, which lie inside it, and residual_lo and residual_hi their
    residuals. Propagator expands exp(gamma*t*A) over interval(gamma) with
    matrix products only, or uses eigendecompose_symmetric where that is
    cheaper or the interval wrong.
    """

    n: int
    graph: AdjacencyMatrix
    lo: float
    hi: float
    ritz_lo: float
    ritz_hi: float
    residual_lo: float
    residual_hi: float
    source = "chebyshev"

    def interval(self, gamma: float) -> tuple[float, float]:
        """[lo, hi] with the end the guard reads (hi for gamma >= 0, else lo)
        cut to its Ritz value widened by its residual: Parlett's bound places
        an eigenvalue that close, but does not rule one out further away."""
        if gamma >= 0.0:
            return self.lo, min(self.ritz_hi + self.residual_hi, self.hi)
        return max(self.ritz_lo - self.residual_lo, self.lo), self.hi


def _lanczos_extremes(entries: np.ndarray, steps: int) -> tuple[list, list, float]:
    """([smallest, largest] Ritz value, [their residuals], last beta) after Lanczos steps.

    The start vector is a fixed pseudo-random one, which meets every
    eigenspace; beta reaches 0 once the Krylov space is invariant, and then
    the Ritz values are exact. A Ritz value's residual is |beta * s|, s the
    last component of its eigenvector of the tridiagonal matrix.
    """
    n = entries.shape[0]
    v = rng_for(0, "lanczos").standard_normal(n)
    v /= np.linalg.norm(v)
    v_prev = np.zeros(n)
    alphas, betas = [], []
    beta = 0.0
    for _ in range(min(steps, n)):
        w = entries @ v - beta * v_prev
        alpha = float(v @ w)
        w -= alpha * v
        beta = float(np.linalg.norm(w))
        alphas.append(alpha)
        betas.append(beta)
        if beta <= 1e-12 * max(1.0, abs(alpha)):
            break
        v_prev, v = v, w / beta
    tri = np.diag(alphas) + np.diag(betas[:-1], 1) + np.diag(betas[:-1], -1)
    ritz, vecs = np.linalg.eigh(tri)
    return ritz[[0, -1]].tolist(), np.abs(beta * vecs[-1, [0, -1]]).tolist(), beta


def chebyshev_operator(graph: AdjacencyMatrix) -> ChebyshevOperator:
    """The Chebyshev route for a graph, with no eigendecomposition.

    The interval starts from the Gershgorin discs, which for a 0/1 matrix
    with a zero diagonal are +-(max degree), and is tightened to the extreme
    Ritz values of a few Lanczos steps widened by the last |beta| (the
    Zhou-Li estimate), never beyond the Gershgorin bounds.
    """
    degree = graph.degrees().max()
    (ritz_lo, ritz_hi), (residual_lo, residual_hi), beta = _lanczos_extremes(
        graph.entries, _LANCZOS_STEPS)
    return ChebyshevOperator(n=graph.n, graph=graph, lo=max(ritz_lo - beta, float(-degree)),
                             hi=min(ritz_hi + beta, float(degree)),
                             ritz_lo=ritz_lo, ritz_hi=ritz_hi,
                             residual_lo=residual_lo, residual_hi=residual_hi)


def eigensystem_for(graph: AdjacencyMatrix) -> EigenSystem | ChebyshevOperator:
    """The closed form's route for graph, read from its edges.

    A circulant graph gets the cdt eigensystem of graph.generating_vector(),
    marked complete where every pair is coupled; any other graph gets the
    Chebyshev operator, which needs no eigenvectors until Propagator finds a
    horizon long enough to make the eigendecomposition the cheaper route.
    """
    c = graph.generating_vector()
    if c is None:
        return chebyshev_operator(graph)
    es = cdt_eigensystem(c)
    es.complete = graph.is_complete
    return es


def _guard_rate(es: EigenSystem, gamma: float) -> float:
    """What the overflow guard subtracts from every log-modulus per unit time:
    the largest Re(gamma*lambda) over the spectrum of es."""
    return float((gamma * es.eigenvalues).real.max())


def propagator_exponents(es: EigenSystem, gamma: float, times: np.ndarray) -> np.ndarray:
    """Guarded eigenmode exponents gamma*t*lambda, one row per time.

    The guard subtracts t * max_r Re(gamma*lambda_r) from every exponent:
    gamma*lambda_max*t for gamma >= 0 and gamma*lambda_min*t for gamma < 0,
    a uniform rescaling of moduli that leaves every argument untouched and
    puts the dominant mode's exponent at 0. Raises where rounding still
    lifts one past the floating-point range.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    expo = gamma * np.outer(times, es.eigenvalues) - _guard_rate(es, gamma) * times[:, None]
    _check_exponent(expo.real.max() if expo.size else 0.0)
    return expo


def _check_exponent(peak: float, hint: str = "") -> None:
    """Raise SpectralError when exp(peak) would overflow."""
    if peak > _EXP_LIMIT:
        raise SpectralError(f"propagator overflow: exponent {peak:.6g} exceeds "
                            f"the floating-point range{hint}")


def unguarded(states: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """x(t) = e^shift * states from Propagator's pair; raises where x(t) overflows."""
    _check_exponent(float(np.max(shift)), "; enable the overflow guard")
    return states * np.exp(shift)[:, None]


def _real_matmul(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """m @ x for a real matrix m and a complex x shaped (n,) or (n, k).

    Viewing x as interleaved real and imaginary parts turns the product into
    one real matrix product, with no complex copy of m.
    """
    x = np.ascontiguousarray(x, dtype=complex)
    return (m @ x.reshape(x.shape[0], -1).view(float)).view(complex).reshape(x.shape)


def _scaled_bessel(z: np.ndarray) -> np.ndarray:
    """e^{-z} I_k(z) for k = 0, 1, ..., shaped (orders, z.size), for z >= 0.

    Miller's backward recurrence, in its ratio form r_k = I_k / I_{k-1} =
    z / (2k + z r_{k+1}), started at r = 0 well above the O(sqrt(z)) orders
    that reach rounding level; the generating-function identity e^z = I_0(z)
    + 2 sum_k I_k(z) then normalises the terms. Every term is positive, so
    neither step cancels, and z = 0 gives exactly 1, 0, 0, ...
    """
    orders = int(12.0 * math.sqrt(float(z.max()))) + 32
    ratios = np.empty((orders - 1, z.size))
    r = np.zeros(z.size)
    for k in range(orders - 1, 0, -1):
        r = z / (2.0 * k + z * r)
        ratios[k - 1] = r
    rel = np.cumprod(ratios, axis=0)  # I_k / I_0 for k >= 1
    i0 = 1.0 / (1.0 + 2.0 * rel.sum(axis=0))
    return np.vstack([i0, rel * i0])


class Propagator:
    """x(t) = exp(gamma*t*A) x0 at fixed sample times, for any initial state x0.

    What does not depend on x0 is computed once, when the propagator is
    built: the exp() factors of an eigensystem, or the Bessel coefficients of
    a Chebyshev operator. Calling it with x0 returns (states, shift): states
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
    t * max(gamma*(n - 1), -gamma). On a
    Chebyshev operator with interval(gamma) = [lo, hi], centre c and
    half-width r, exp(gamma*t*A) = e^{gamma*t*c + z} sum_k a_k T_k((A - c*I)/r)
    with z = |gamma|*t*r, a_0 = e^{-z} I_0(z) and a_k = 2 sign(gamma)^k e^{-z} I_k(z),
    one expansion for the whole horizon, summed until the coefficient tail
    is below rounding level, so the number of terms grows like sqrt(z). The
    guard drops the leading factor, t * max(gamma*hi, gamma*lo). The vectors
    T_k(...) x0 are computed once per call, and each sample combines them.

    Every route fixes shift when it is built. A Chebyshev operator is
    evaluated through eigendecompose_symmetric of its graph instead when
    the expansion needs more matrix products than that costs, when rounding
    errors, which grow like e^{|gamma|*t*d} for d the distance from the
    guard's interval end to the spectrum, may pass e^_MAX_LOSS, and, found
    only on a call and then with a new shift, when some ||T_k(...) x||
    exceeds ||x||: x excites part of the spectrum outside the interval.
    system is the route taken, and terms is None on an eigensystem.
    """

    def __init__(self, system: EigenSystem | ChebyshevOperator, gamma: float, times: np.ndarray):
        if not np.isfinite(gamma):
            raise ValueError(f"gamma must be finite, got {gamma}")
        times = np.atleast_1d(np.asarray(times, dtype=float))
        if not np.all(np.isfinite(times) & (times >= 0.0)):
            raise ValueError(f"times must be finite and >= 0, got {times}")
        self._gamma, self._times = gamma, times
        if system.source == "chebyshev":
            if self._expand(system):
                return
            system = eigendecompose_symmetric(system.graph)
        self._decompose(system)

    def _decompose(self, es: EigenSystem) -> None:
        """The exp() factors of es, or where es is complete, factors a, b with
        exp(gamma*t*(J - I)) x0 = a x0 + b mean(x0) 1 per sample.

        The mean spans the eigenspace of n - 1 and the rest that of -1, so
        a = e^{-gamma*t} and b = e^{gamma*(n-1)*t} - e^{-gamma*t}, each
        divided by the guard's e^{shift}, the larger of the two exponentials;
        b is then 1 - e^{-|gamma*n*t|}, signed, through expm1.
        """
        self.system, self.terms = es, None
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

    def _expand(self, op: ChebyshevOperator) -> bool:
        """Take the Bessel coefficients of one expansion for the whole horizon.

        Returns whether its rounding loss stays within _MAX_LOSS and its terms
        within _PRODUCTS_PER_NODE * n products. It takes at least 8*sqrt(z)
        terms (measured for z = 0.01..1e5), so a z past the budget by that
        count, or one too large to count, returns False before any coefficient.
        """
        gamma, times = self._gamma, self._times
        lo, hi = op.interval(gamma)
        self.system = op
        self._center, self._radius = 0.5 * (hi + lo), 0.5 * (hi - lo)
        self.shift = max(gamma * hi, gamma * lo) * times
        reach = abs(gamma) * float(times.max())
        overshoot = hi - op.ritz_hi if gamma >= 0.0 else op.ritz_lo - lo
        budget = _PRODUCTS_PER_NODE * op.n
        if not (8.0 * math.sqrt(reach * self._radius) <= budget  # also inf or nan
                and reach * overshoot <= _MAX_LOSS):
            return False
        coeffs = _scaled_bessel(abs(gamma) * self._radius * times)
        coeffs[1:] *= 2.0
        tail = np.cumsum(coeffs[::-1, np.argmax(times)])[::-1]  # the last sample needs most terms
        self.terms = int(np.count_nonzero(tail > np.finfo(float).eps / 2))
        self._coeffs = coeffs[:self.terms]
        if gamma < 0.0:
            self._coeffs[1::2] *= -1.0
        return self.terms <= budget

    def __call__(self, x0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x0, es = np.asarray(x0, dtype=complex), self.system
        if x0.shape != (es.n,):
            raise ValueError(f"state shape {x0.shape} does not match dimension {es.n}")
        if self.terms is None:
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
        vecs = self._chebyshev_vectors(x0)
        norms = np.linalg.norm(vecs, axis=1)
        if norms.max() > (1.0 + _INTERVAL_TOLERANCE) * norms[0]:
            self._decompose(eigendecompose_symmetric(es.graph))
            return self(x0)
        return (self._coeffs.T @ vecs.view(float)).view(complex), self.shift

    def _chebyshev_vectors(self, x: np.ndarray) -> np.ndarray:
        """T_k(B) x for k < terms as the rows of a complex array, B = (A - c*I)/r."""
        entries, center, radius = self.system.graph.entries, self._center, self._radius
        vecs = np.empty((self.terms, x.size), dtype=complex)
        vecs[0] = x
        for k in range(1, self.terms):
            bx = (_real_matmul(entries, vecs[k - 1]) - center * vecs[k - 1]) / radius
            vecs[k] = bx if k == 1 else 2.0 * bx - vecs[k - 2]
        return vecs


def apply_propagator(system: EigenSystem | ChebyshevOperator, gamma: float, t: float,
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
