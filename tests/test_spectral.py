"""Closed-form circulant spectra, the numerical eigensolver, and the propagator."""

import tracemalloc

import numpy as np
import pytest

from kurasim.graphs import (
    GeneratingVector,
    circulant,
    gen_complete,
    gen_erdos_renyi,
    gen_ring,
    gen_watts_strogatz,
    ring_generating_vector,
)
from kurasim.spectral import (
    SpectralError,
    apply_propagator,
    cdt_eigensystem,
    cdt_eigenvalues,
    cdt_fourier_matrix,
    eigendecompose_symmetric,
    eigensystem_for,
    eigenvalues_symmetric,
    propagate,
    propagator_exponents,
    read_spectrum_csv,
    write_spectrum_csv,
)


def _dft_direct_sum(c):
    """The defining O(n^2) sum E_r = sum_j c_j exp(-2pi*i*r*j/n), the FFT's oracle."""
    c = np.asarray(c, dtype=float)
    r = np.arange(c.size)
    return np.exp(-2j * np.pi / c.size * np.outer(r, r)) @ c


def _peak_and_kept_bytes(fn):
    """Run fn under tracemalloc; return (its result, peak bytes, bytes still held)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - base, current - base


# -------------------------------------------------------- closed-form values

def test_cdt_triangle_spectrum():
    vals = cdt_eigenvalues(ring_generating_vector(3, 1))
    assert np.allclose(vals, [2.0, -1.0, -1.0], atol=1e-12)


def test_cdt_ring4_spectrum_order():
    # E_r = 2 cos(2 pi r / n); index order follows the transform, not magnitude
    vals = cdt_eigenvalues(ring_generating_vector(4, 1))
    assert np.allclose(vals, [2.0, 0.0, -2.0, 0.0], atol=1e-12)


def test_cdt_zero_vector():
    vals = cdt_eigenvalues(GeneratingVector(c=np.zeros(6)))
    assert np.allclose(vals, 0.0, atol=0.0)


def test_cdt_matches_dft_oracle():
    rng = np.random.default_rng(2)
    for n in (2, 5, 16, 31):
        c = (rng.random(n) < 0.5).astype(float)
        vals = cdt_eigenvalues(GeneratingVector(c=c))
        assert np.allclose(vals, _dft_direct_sum(c), atol=1e-10), n


@pytest.mark.parametrize("n, k", [(3, 1), (64, 5), (1500, 10), (200, 100)])
def test_fft_eigenvalues_match_direct_sum_on_graphs(n, k):
    # rings n = 3, 64, 1500 and the complete graph on 200 nodes (k = n // 2)
    c = ring_generating_vector(n, k).c
    assert np.abs(cdt_eigenvalues(c) - _dft_direct_sum(c)).max() < 1e-9


def test_cdt_eigensystem_stores_no_dense_matrix():
    es, peak, _ = _peak_and_kept_bytes(lambda: cdt_eigensystem(ring_generating_vector(1500, 10)))
    assert peak < 2**20
    assert es.vectors is None
    # the dense Fourier basis is still there on request
    u = es.inverse_basis
    assert u.shape == (1500, 1500)
    assert np.array_equal(es.basis, u.conj().T)


def test_fourier_matrix_small_cases():
    assert np.array_equal(cdt_fourier_matrix(1), np.array([[1.0 + 0.0j]]))
    u2 = cdt_fourier_matrix(2)
    assert np.allclose(u2, np.array([[1, 1], [1, -1]]) / np.sqrt(2), atol=1e-15)


def test_fourier_matrix_unitary():
    for n in (4, 17):
        u = cdt_fourier_matrix(n)
        assert np.abs(u @ u.conj().T - np.eye(n)).max() < 1e-12


def test_cdt_eigensystem_reconstructs_triangle():
    es = cdt_eigensystem(ring_generating_vector(3, 1))
    m = es.basis @ np.diag(es.eigenvalues) @ es.inverse_basis
    assert np.abs(m - gen_ring(3, 1).entries).max() < 1e-12
    assert es.source == "cdt"


def test_cdt_ring5_closed_form():
    vals = np.sort(cdt_eigenvalues(ring_generating_vector(5, 1)).real)
    expect = np.sort([2.0,
                      2 * np.cos(2 * np.pi / 5), 2 * np.cos(2 * np.pi / 5),
                      2 * np.cos(4 * np.pi / 5), 2 * np.cos(4 * np.pi / 5)])
    assert np.allclose(vals, expect, atol=1e-12)


# -------------------------------------------------------------- eigensolver

def test_eigh_two_node_chain():
    m = np.array([[0.0, 1.0], [1.0, 0.0]])
    es = eigendecompose_symmetric(m)
    assert np.allclose(es.eigenvalues, [1.0, -1.0], atol=1e-14)
    assert np.all(es.eigenvalues.imag == 0.0)
    recon = es.basis @ np.diag(es.eigenvalues) @ es.inverse_basis
    assert np.abs(recon - m).max() < 1e-12
    assert es.source == "numerical"


def test_eigh_complete_graph_spectra():
    for n in (2, 7, 33, 64):
        es = eigendecompose_symmetric(gen_complete(n))
        expect = np.concatenate([[n - 1.0], -np.ones(n - 1)])
        assert np.allclose(np.sort(es.eigenvalues.real)[::-1], expect, atol=1e-10), n


def test_eigh_descending_and_inverse():
    es = eigendecompose_symmetric(gen_erdos_renyi(40, 0.3, 4))
    assert np.all(np.diff(es.eigenvalues.real) <= 1e-12)
    assert np.abs(es.inverse_basis @ es.basis - np.eye(40)).max() < 1e-10
    assert es.lambda_max == es.eigenvalues.real[0]


def test_eigh_rejects_asymmetric_input():
    m = np.zeros((3, 3))
    m[0, 1] = 1.0
    with pytest.raises(ValueError):
        eigendecompose_symmetric(m)


def test_eigh_trace_identity():
    # hollow matrices have zero trace, so the spectrum sums to zero
    for seed in range(5):
        es = eigendecompose_symmetric(gen_erdos_renyi(50, 0.4, seed))
        assert abs(es.eigenvalues.sum()) < 1e-9


def test_eigh_regular_graph_top_eigenvalue():
    for n, k in ((12, 3), (30, 7)):
        es = eigendecompose_symmetric(gen_ring(n, k))
        assert abs(es.lambda_max - 2 * k) < 1e-10


@pytest.mark.parametrize("graph", [gen_erdos_renyi(60, 0.3, 1),
                                   gen_watts_strogatz(80, 4, 0.2, 2), gen_ring(50, 3)],
                         ids=["er", "ws", "ring"])
def test_eigenvalues_only_solver_matches_eigh(graph):
    vals = eigenvalues_symmetric(graph)
    assert vals.dtype == complex
    assert np.all(vals.imag == 0.0)
    assert np.all(np.diff(vals.real) <= 0.0)
    assert np.abs(vals - eigendecompose_symmetric(graph).eigenvalues).max() < 1e-10


def test_eigenvalues_only_solver_rejects_bad_input():
    m = np.zeros((3, 3))
    m[0, 1] = 1.0
    with pytest.raises(ValueError):
        eigenvalues_symmetric(m)
    with pytest.raises(ValueError):
        eigenvalues_symmetric(np.zeros((2, 3)))


def test_eigh_keeps_one_real_matrix():
    n = 600
    graph = gen_watts_strogatz(n, 10, 0.1, 0)
    es, _, kept = _peak_and_kept_bytes(lambda: eigendecompose_symmetric(graph))
    assert es.basis.dtype == float
    # the eigenvectors (8 n^2 bytes), the eigenvalues and small change
    assert kept <= 8 * n * n + 64 * n


def test_eigensystem_for_picks_the_route():
    for graph in (gen_ring(12, 2), gen_complete(9)):
        es = eigensystem_for(graph)
        assert es.source == "cdt"
        assert np.abs(es.basis @ np.diag(es.eigenvalues) @ es.inverse_basis
                      - graph.entries).max() < 1e-12
    assert eigensystem_for(gen_erdos_renyi(20, 0.3, 0)).source == "numerical"


def test_cdt_and_eigh_agree_on_rings():
    for n, k in ((8, 2), (12, 5), (33, 16), (256, 17)):
        a = np.sort(cdt_eigenvalues(ring_generating_vector(n, k)).real)
        b = np.sort(eigendecompose_symmetric(gen_ring(n, k)).eigenvalues.real)
        assert np.abs(a - b).max() < 1e-9, (n, k)


# --------------------------------------------------------------- propagator

def test_propagator_identity_at_t0():
    es = cdt_eigensystem(ring_generating_vector(6, 2))
    x0 = np.exp(1j * np.linspace(-3, 3, 6))
    assert np.abs(apply_propagator(es, 0.7, 0.0, x0) - x0).max() < 1e-12


def test_propagator_uniform_mode_growth():
    # the all-ones state is an eigenvector of K3 with eigenvalue 2
    es = cdt_eigensystem(ring_generating_vector(3, 1))
    x0 = np.ones(3, dtype=complex)
    gamma, t = 0.5, 1.3
    x = apply_propagator(es, gamma, t, x0, guard=False)
    assert np.abs(x - np.exp(gamma * t * 2.0)).max() < 1e-9


def test_propagator_taylor_oracle():
    # 4th-order Taylor agrees to 1e-8 while gamma * t * ||A|| stays at 0.04
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(2, 33))
        m = np.triu((rng.random((n, n)) < 0.4).astype(float), 1)
        m = m + m.T
        es = eigendecompose_symmetric(m)
        norm = float(np.abs(es.eigenvalues.real).max()) or 1.0
        gamma = 0.5
        t = 0.04 / (gamma * norm)
        x0 = np.exp(1j * (np.pi - 2 * np.pi * rng.random(n)))
        x = apply_propagator(es, gamma, t, x0, guard=False)
        acc = x0.astype(complex)
        term = x0.astype(complex)
        for k in range(1, 5):
            term = (gamma * t / k) * (m @ term)
            acc = acc + term
        assert np.abs(x - acc).max() < 1e-8


@pytest.mark.parametrize("n, k", [(30, 4), (31, 15), (200, 100)])
def test_fft_propagation_matches_basis_product(n, k):
    # ring and complete (k = n // 2) circulants apply their basis through the FFT
    es = cdt_eigensystem(ring_generating_vector(n, k))
    x0 = np.exp(1j * np.linspace(-3.0, 3.0, n))
    factors = np.exp(propagator_exponents(es, 0.4, np.linspace(0.0, 1.0, 7), guard=True))
    want = es.basis @ (factors * (es.inverse_basis @ x0)[:, None])
    assert np.abs(propagate(es, x0, factors) - want).max() < 1e-12
    assert np.abs(propagate(es, x0, factors[:, 3]) - want[:, 3]).max() < 1e-12


@pytest.mark.parametrize("graph", [gen_erdos_renyi(40, 0.3, 5),
                                   gen_watts_strogatz(60, 4, 0.2, 6)], ids=["er", "ws"])
def test_real_basis_propagation_matches_complex_product(graph):
    es = eigendecompose_symmetric(graph)
    x0 = np.exp(1j * np.linspace(-3.0, 3.0, graph.n))
    factors = np.exp(propagator_exponents(es, 0.4, np.linspace(0.0, 1.0, 7), guard=True))
    want = es.basis.astype(complex) @ (factors * (es.inverse_basis @ x0)[:, None])
    assert np.abs(propagate(es, x0, factors) - want).max() < 1e-12
    assert np.abs(propagate(es, x0, factors[:, 3]) - want[:, 3]).max() < 1e-12


def test_propagator_semigroup():
    es = cdt_eigensystem(ring_generating_vector(8, 3))
    x0 = np.exp(1j * np.linspace(0.0, 2.0, 8))
    full = apply_propagator(es, 0.3, 2.5, x0, guard=False)
    comp = apply_propagator(es, 0.3, 1.5,
                            apply_propagator(es, 0.3, 1.0, x0, guard=False),
                            guard=False)
    assert np.abs(full - comp).max() / np.abs(full).max() < 1e-8


def test_guard_preserves_arguments():
    es = cdt_eigensystem(ring_generating_vector(10, 4))
    x0 = np.exp(1j * np.linspace(-2.0, 2.0, 10))
    a = apply_propagator(es, 1.0, 3.0, x0, guard=False)
    b = apply_propagator(es, 1.0, 3.0, x0, guard=True)
    diff = np.angle(a) - np.angle(b)
    diff = np.abs(np.remainder(diff + np.pi, 2 * np.pi) - np.pi)
    assert diff.max() < 1e-10


@pytest.mark.parametrize("gamma", [-3.2, -0.5, 0.0, 0.7, 3.2])
def test_guarded_exponents_are_nonpositive(gamma):
    times = np.linspace(0.0, 2.0, 5)
    for es in (cdt_eigensystem(ring_generating_vector(200, 100)),
               eigendecompose_symmetric(gen_erdos_renyi(50, 0.3, 3))):
        expo = propagator_exponents(es, gamma, times, guard=True)
        # gamma*(lambda*t) and (gamma*lambda)*t may round one ulp apart
        assert expo.real.max() <= 1e-12
        if gamma >= 0.0:  # the shift is gamma*lambda_max*t, bit for bit
            raw = gamma * np.outer(es.eigenvalues, times)
            assert np.array_equal(expo, raw - gamma * es.lambda_max * times[None, :])


def test_guard_prevents_overflow():
    es = cdt_eigensystem(ring_generating_vector(200, 100))
    x0 = np.ones(200, dtype=complex)
    with pytest.raises(SpectralError):
        apply_propagator(es, 1.0, 10.0, x0, guard=False)
    x = apply_propagator(es, 1.0, 10.0, x0, guard=True)
    assert np.all(np.isfinite(x))


def test_propagator_rejects_bad_arguments():
    es = cdt_eigensystem(ring_generating_vector(4, 1))
    x0 = np.ones(4, dtype=complex)
    with pytest.raises(ValueError):
        apply_propagator(es, np.inf, 1.0, x0)
    with pytest.raises(ValueError):
        apply_propagator(es, 1.0, -1.0, x0)
    with pytest.raises(ValueError):
        apply_propagator(es, 1.0, 1.0, np.ones(5, dtype=complex))


# ---------------------------------------------------------------------- I/O

def test_spectrum_csv_round_trip(tmp_path):
    vals = cdt_eigenvalues(ring_generating_vector(7, 2))
    path = tmp_path / "spec.csv"
    write_spectrum_csv(vals, path)
    text = path.read_text()
    assert text.startswith("lambda_re,lambda_im\n")
    back = read_spectrum_csv(path)
    assert np.array_equal(back, vals)
