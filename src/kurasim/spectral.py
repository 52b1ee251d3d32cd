"""Eigen-machinery for the closed-form solution.

Circulant matrices share one Fourier eigenbasis, so ring and complete graphs
get their spectra in closed form, one FFT of the generating vector, and store
no basis at all; arbitrary symmetric adjacency matrices go through a numerical
eigendecomposition that keeps its real eigenvectors. Both feed the stabilized
matrix-exponential applicator, which applies the Fourier basis with the FFT
and a real basis with real matrix products.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._text import fmt
from .graphs import AdjacencyMatrix, GeneratingVector, ring_generating_vector

__all__ = [
    "SpectralError",
    "EigenSystem",
    "cdt_eigenvalues",
    "cdt_fourier_matrix",
    "cdt_eigensystem",
    "eigendecompose_symmetric",
    "eigenvalues_symmetric",
    "eigensystem_for",
    "propagate",
    "apply_propagator",
    "write_spectrum_csv",
    "read_spectrum_csv",
]

# log(float64 max); exponents beyond this overflow exp() to inf
_EXP_LIMIT = float(np.log(np.finfo(float).max))


class SpectralError(RuntimeError):
    pass


@dataclass(eq=False)
class EigenSystem:
    """Eigenvalues and (inverse) eigenbasis of an adjacency matrix.

    A numerical eigensystem holds its real orthonormal eigenvectors as the
    columns of vectors; basis is that array and inverse_basis its transpose
    view. A circulant (cdt) eigensystem holds no vectors: its basis is the
    conjugate Fourier matrix, which propagate applies with the FFT, and
    basis/inverse_basis build the dense matrices only when read. eigenvalues
    is complex-typed even when the values are real, so both sources expose
    one interface.
    """

    n: int
    eigenvalues: np.ndarray
    source: str
    vectors: np.ndarray | None = None

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues.real.max())

    @property
    def basis(self) -> np.ndarray:
        """Eigenvectors as columns: U^H for cdt, the stored vectors otherwise."""
        if self.source == "cdt":
            return cdt_fourier_matrix(self.n).conj().T
        return self.vectors

    @property
    def inverse_basis(self) -> np.ndarray:
        """The exact inverse of basis: U for cdt, the transpose otherwise."""
        if self.source == "cdt":
            return cdt_fourier_matrix(self.n)
        return self.vectors.T


def _as_vector(c: GeneratingVector | np.ndarray) -> np.ndarray:
    vec = np.asarray(getattr(c, "c", c), dtype=float)
    if vec.ndim != 1 or vec.size < 1:
        raise ValueError("generating vector must be a non-empty 1-d array")
    return vec


def cdt_eigenvalues(c: GeneratingVector | np.ndarray) -> np.ndarray:
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


def cdt_eigensystem(c: GeneratingVector | np.ndarray) -> EigenSystem:
    """EigenSystem of circ(c): eigenvector columns are the conjugate Fourier modes.

    With U from cdt_fourier_matrix, circ(c) = U^H diag(E) U, so basis = U^H
    and inverse_basis = U; neither is stored.
    """
    vec = _as_vector(c)
    return EigenSystem(n=vec.size, eigenvalues=cdt_eigenvalues(vec), source="cdt")


def _symmetric_entries(a: AdjacencyMatrix | np.ndarray) -> np.ndarray:
    """The entries of a as a float array, checked to be square and symmetric."""
    entries = np.asarray(getattr(a, "entries", a), dtype=float)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {entries.shape}")
    asym = np.abs(entries - entries.T).max() if entries.size else 0.0
    if asym > 1e-12:
        raise ValueError(f"matrix is not symmetric (max asymmetry {asym:.3e})")
    return entries


def eigendecompose_symmetric(a: AdjacencyMatrix | np.ndarray) -> EigenSystem:
    """Numerical eigendecomposition of a real symmetric matrix.

    Eigenvalues come back sorted descending with exactly zero imaginary
    parts; the real eigenvector columns are orthonormal, so inverse_basis is
    the transpose of basis.
    """
    entries = _symmetric_entries(a)
    try:
        vals, vecs = np.linalg.eigh(entries)
    except np.linalg.LinAlgError as exc:
        raise SpectralError(f"symmetric eigendecomposition failed: {exc}") from exc
    order = slice(None, None, -1)  # eigh sorts ascending; reverse, do not re-sort
    return EigenSystem(n=entries.shape[0], eigenvalues=vals[order].astype(complex),
                       source="numerical", vectors=vecs[:, order])


def eigenvalues_symmetric(a: AdjacencyMatrix | np.ndarray) -> np.ndarray:
    """The eigenvalues of eigendecompose_symmetric without computing eigenvectors.

    Same checks, same descending order, complex dtype with exactly zero
    imaginary parts.
    """
    entries = _symmetric_entries(a)
    try:
        vals = np.linalg.eigvalsh(entries)
    except np.linalg.LinAlgError as exc:
        raise SpectralError(f"symmetric eigenvalue solver failed: {exc}") from exc
    return vals[::-1].astype(complex)


def _ring_radius(graph: AdjacencyMatrix) -> int:
    # complete graphs are the k = floor(n/2) ring
    return int(graph.params.get("k", graph.n // 2))


def eigensystem_for(graph: AdjacencyMatrix) -> EigenSystem:
    """The eigensystem the closed form uses for graph.

    Ring and complete graphs get the circulant (cdt) eigensystem, any other
    graph the numerical one.
    """
    if graph.kind in ("ring", "complete"):
        return cdt_eigensystem(ring_generating_vector(graph.n, _ring_radius(graph)))
    return eigendecompose_symmetric(graph)


def propagator_exponents(es: EigenSystem, gamma: float, times: np.ndarray,
                         guard: bool) -> np.ndarray:
    """Eigenmode exponents gamma*t*lambda for a batch of times, guard applied.

    Guard mode subtracts t * max_r Re(gamma*lambda_r) from every exponent:
    gamma*lambda_max*t for gamma >= 0 and gamma*lambda_min*t for gamma < 0.
    That is a uniform rescaling of moduli that leaves all arguments untouched
    and puts the dominant mode's exponent at 0, so the guarded exponents
    cannot overflow. Without the guard, raises when an exponent would
    overflow exp().
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    expo = gamma * np.outer(es.eigenvalues, times)
    if guard:
        dominant = float((gamma * es.eigenvalues).real.max())
        expo = expo - dominant * times[None, :]
    peak = expo.real.max() if expo.size else 0.0
    if peak > _EXP_LIMIT:
        hint = "" if guard else "; enable the overflow guard"
        raise SpectralError(f"propagator overflow: exponent {peak:.1f} exceeds "
                            f"the floating-point range{hint}")
    return expo


def _real_matmul(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """m @ x for a real matrix m and a complex x shaped (n,) or (n, k).

    Viewing x as interleaved real and imaginary parts turns the product into
    one real matrix product, with no complex copy of m.
    """
    x = np.ascontiguousarray(x, dtype=complex)
    return (m @ x.reshape(x.shape[0], -1).view(float)).view(complex).reshape(x.shape)


def propagate(es: EigenSystem, x0: np.ndarray, factors: np.ndarray) -> np.ndarray:
    """Evaluate V diag(f) V^{-1} x0 for each column f of factors.

    factors holds exp() of exponents from propagator_exponents, shaped (n,)
    or (n, samples); the result has the same shape. A circulant (cdt)
    eigensystem applies its Fourier basis with the FFT in O(n log n) per
    sample: inverse_basis @ x is fft(x)/sqrt(n) and basis @ y is
    ifft(y)*sqrt(n). A numerical eigensystem applies its real eigenvectors
    with real matrix products on the real and imaginary parts.
    """
    x0 = np.asarray(x0, dtype=complex)
    fourier = es.source == "cdt"
    w = np.fft.fft(x0, norm="ortho") if fourier else _real_matmul(es.inverse_basis, x0)
    y = factors * (w[:, None] if np.ndim(factors) == 2 else w)
    return np.fft.ifft(y, axis=0, norm="ortho") if fourier else _real_matmul(es.basis, y)


def apply_propagator(es: EigenSystem, gamma: float, t: float, x0: np.ndarray,
                     guard: bool = True) -> np.ndarray:
    """Evaluate x(t) = V exp(gamma*t*D) V^{-1} x0 in the eigenbasis."""
    if not np.isfinite(gamma):
        raise ValueError(f"gamma must be finite, got {gamma}")
    if not (np.isfinite(t) and t >= 0.0):
        raise ValueError(f"time must be finite and >= 0, got {t}")
    x0 = np.asarray(x0, dtype=complex)
    if x0.shape != (es.n,):
        raise ValueError(f"state shape {x0.shape} does not match dimension {es.n}")
    expo = propagator_exponents(es, gamma, np.array([t]), guard)
    return propagate(es, x0, np.exp(expo[:, 0]))


def write_spectrum_csv(eigenvalues: np.ndarray, path: str | Path) -> None:
    """One header line, then one "lambda_re,lambda_im" row per eigenvalue."""
    vals = np.asarray(eigenvalues, dtype=complex)
    lines = ["lambda_re,lambda_im"]
    lines.extend(f"{fmt(v.real)},{fmt(v.imag)}" for v in vals)
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def read_spectrum_csv(path: str | Path) -> np.ndarray:
    lines = Path(path).read_text(encoding="ascii").splitlines()
    if not lines or lines[0] != "lambda_re,lambda_im":
        raise ValueError(f"not a spectrum CSV: {path}")
    out = []
    for ln in lines[1:]:
        re_s, im_s = ln.split(",")
        out.append(complex(float(re_s), float(im_s)))
    return np.asarray(out, dtype=complex)
