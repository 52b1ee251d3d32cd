"""Eigen-machinery for the closed-form solution.

Circulant matrices share one Fourier eigenbasis, so ring and complete graphs
get their spectra in closed form; arbitrary symmetric adjacency matrices go
through a numerical eigendecomposition. Both feed the stabilized
matrix-exponential applicator, which applies the Fourier basis with the FFT
and any other basis with a matrix product.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._text import fmt
from .graphs import AdjacencyMatrix, GeneratingVector

__all__ = [
    "SpectralError",
    "EigenSystem",
    "cdt_eigenvalues",
    "cdt_fourier_matrix",
    "cdt_eigensystem",
    "eigendecompose_symmetric",
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

    basis holds eigenvectors as columns; inverse_basis is its exact inverse
    (conjugate transpose for the unitary Fourier basis, plain transpose for
    the orthonormal numerical one). eigenvalues is complex-typed even when
    the values are real, so both sources expose one interface.
    """

    n: int
    eigenvalues: np.ndarray
    basis: np.ndarray
    inverse_basis: np.ndarray
    source: str

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues.real.max())


def _as_vector(c: GeneratingVector | np.ndarray) -> np.ndarray:
    vec = np.asarray(getattr(c, "c", c), dtype=float)
    if vec.ndim != 1 or vec.size < 1:
        raise ValueError("generating vector must be a non-empty 1-d array")
    return vec


def cdt_eigenvalues(c: GeneratingVector | np.ndarray) -> np.ndarray:
    """Closed-form circulant eigenvalues E_r = sum_j c_j exp(-2pi*i(r-1)(j-1)/n).

    Computed by direct summation of the defining formula (an O(n^2) DFT);
    symmetric generating vectors give real values up to roundoff.
    """
    vec = _as_vector(c)
    n = vec.size
    r = np.arange(n)
    phases = np.exp(-2j * np.pi / n * np.outer(r, r))
    return phases @ vec


def cdt_fourier_matrix(n: int) -> np.ndarray:
    """The universal circulant-diagonalizing unitary, u_rs = exp(-2pi*i*r*s/n)/sqrt(n)."""
    if int(n) != n or n < 1:
        raise ValueError(f"dimension must be a positive integer, got {n}")
    r = np.arange(n)
    return np.exp(-2j * np.pi / n * np.outer(r, r)) / np.sqrt(n)


def cdt_eigensystem(c: GeneratingVector | np.ndarray) -> EigenSystem:
    """EigenSystem of circ(c): eigenvector columns are the conjugate Fourier modes.

    With U from cdt_fourier_matrix, circ(c) = U^H diag(E) U, so basis = U^H
    and inverse_basis = U.
    """
    vec = _as_vector(c)
    u = cdt_fourier_matrix(vec.size)
    return EigenSystem(
        n=vec.size,
        eigenvalues=cdt_eigenvalues(vec),
        basis=u.conj().T,
        inverse_basis=u,
        source="cdt",
    )


def eigendecompose_symmetric(a: AdjacencyMatrix | np.ndarray) -> EigenSystem:
    """Numerical eigendecomposition of a real symmetric matrix.

    Eigenvalues come back sorted descending with exactly zero imaginary
    parts; eigenvector columns are orthonormal, so inverse_basis is the
    transpose of basis.
    """
    entries = np.asarray(getattr(a, "entries", a), dtype=float)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {entries.shape}")
    asym = np.abs(entries - entries.T).max() if entries.size else 0.0
    if asym > 1e-12:
        raise ValueError(f"matrix is not symmetric (max asymmetry {asym:.3e})")
    try:
        vals, vecs = np.linalg.eigh(entries)
    except np.linalg.LinAlgError as exc:
        raise SpectralError(f"symmetric eigendecomposition failed: {exc}") from exc
    order = slice(None, None, -1)  # eigh sorts ascending; reverse, do not re-sort
    basis = vecs[:, order].astype(complex)
    return EigenSystem(
        n=entries.shape[0],
        eigenvalues=vals[order].astype(complex),
        basis=basis,
        inverse_basis=basis.T.copy(),
        source="numerical",
    )


def propagator_exponents(es: EigenSystem, gamma: float, times: np.ndarray,
                         guard: bool) -> np.ndarray:
    """Eigenmode exponents gamma*t*lambda for a batch of times, guard applied.

    Guard mode subtracts gamma*t*lambda_max from every exponent, a uniform
    rescaling of moduli that leaves all arguments untouched. Raises when the
    resulting exponents would overflow exp(), which with the guard on can
    only happen for gamma < 0.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    expo = gamma * np.outer(es.eigenvalues, times)
    if guard:
        expo = expo - gamma * es.lambda_max * times[None, :]
    peak = expo.real.max() if expo.size else 0.0
    if peak > _EXP_LIMIT:
        hint = "" if guard else "; enable the overflow guard"
        raise SpectralError(f"propagator overflow: exponent {peak:.1f} exceeds "
                            f"the floating-point range{hint}")
    return expo


def propagate(es: EigenSystem, x0: np.ndarray, factors: np.ndarray) -> np.ndarray:
    """Evaluate V diag(f) V^{-1} x0 for each column f of factors.

    factors holds exp() of exponents from propagator_exponents, shaped (n,)
    or (n, samples); the result has the same shape. A circulant (cdt)
    eigensystem applies its Fourier basis with the FFT in O(n log n) per
    sample: inverse_basis @ x is fft(x)/sqrt(n) and basis @ y is
    ifft(y)*sqrt(n). Any other eigensystem uses its stored basis.
    """
    x0 = np.asarray(x0, dtype=complex)
    fourier = es.source == "cdt"
    w = np.fft.fft(x0, norm="ortho") if fourier else es.inverse_basis @ x0
    y = factors * (w[:, None] if np.ndim(factors) == 2 else w)
    return np.fft.ifft(y, axis=0, norm="ortho") if fourier else es.basis @ y


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
