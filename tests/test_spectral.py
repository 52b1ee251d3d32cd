"""Closed-form circulant spectra, the numerical eigensolver, and the propagator."""

import dataclasses
import io
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import eigh_oracle, fourier_oracle
from kurasim.dynamics import (SimulationConfig, analytic_amplitudes, analytic_trajectory,
                              coupling_kernel, initial_phases, simulate)
from kurasim.experiments import _sweep_task
from kurasim.graphs import (
    AdjacencyMatrix,
    circulant,
    gen_complete,
    gen_erdos_renyi,
    gen_ring,
    gen_watts_strogatz,
    read_edge_list,
    ring_generating_vector,
    write_edge_list,
)
from kurasim import graphs, spectral
from kurasim.spectral import (
    Propagator,
    SpectralError,
    apply_propagator,
    cdt_eigensystem,
    cdt_eigenvalues,
    cdt_fourier_matrix,
    eigendecompose_symmetric,
    eigenvalues_symmetric,
    propagator_exponents,
    read_spectrum_csv,
    unguarded,
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
    vals = cdt_eigenvalues(np.zeros(6))
    assert np.allclose(vals, 0.0, atol=0.0)


def test_cdt_matches_dft_oracle():
    rng = np.random.default_rng(2)
    for n in (2, 5, 16, 31):
        c = (rng.random(n) < 0.5).astype(float)
        vals = cdt_eigenvalues(c)
        assert np.allclose(vals, _dft_direct_sum(c), atol=1e-10), n
        if not np.array_equal(c[1:], c[:0:-1]):  # only a symmetric c has its imag set to 0
            assert np.array_equal(vals, np.fft.fft(c)), n


@pytest.mark.parametrize("n, k", [(3, 1), (64, 5), (1500, 10), (200, 100)])
def test_fft_eigenvalues_match_direct_sum_on_graphs(n, k):
    # rings n = 3, 64, 1500 and the complete graph on 200 nodes (k = n // 2)
    c = ring_generating_vector(n, k)
    vals = cdt_eigenvalues(c)
    assert np.abs(vals - _dft_direct_sum(c)).max() < 1e-9
    # a symmetric c: the FFT's real parts, and imaginary parts of exactly 0
    assert np.array_equal(vals.real, np.fft.fft(c).real) and not vals.imag.any()
    assert vals.dtype == complex


def test_cdt_eigensystem_stores_no_dense_matrix():
    es, peak, _ = _peak_and_kept_bytes(lambda: cdt_eigensystem(ring_generating_vector(1500, 10)))
    assert peak < 2**20
    assert es.vectors is None
    # the dense Fourier basis is still there on request, and is what the FFT applies
    u = cdt_fourier_matrix(es.n)
    assert u.shape == (1500, 1500)
    x = np.exp(1j * np.linspace(-3.0, 3.0, es.n))
    assert np.abs(u @ x - np.fft.fft(x, norm="ortho")).max() < 1e-10


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
    u = cdt_fourier_matrix(es.n)
    m = u.conj().T @ np.diag(es.eigenvalues) @ u
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
    es = eigendecompose_symmetric(AdjacencyMatrix.from_dense(2, m))
    assert np.allclose(es.eigenvalues, [1.0, -1.0], atol=1e-14)
    assert np.all(es.eigenvalues.imag == 0.0)
    recon = es.vectors @ np.diag(es.eigenvalues) @ es.vectors.T
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
    assert np.abs(es.vectors.T @ es.vectors - np.eye(40)).max() < 1e-10
    assert es.eigenvalues.real.max() == es.eigenvalues.real[0]


def test_eigh_vectors_are_contiguous_and_descending():
    graph = gen_watts_strogatz(80, 4, 0.2, 1)
    es = eigendecompose_symmetric(graph)
    assert es.vectors.flags.c_contiguous
    # column k still belongs to the k-th eigenvalue in descending order
    lam = es.eigenvalues.real
    assert np.abs(graph.entries @ es.vectors - es.vectors * lam).max() < 1e-10


def test_eigh_trace_identity():
    # hollow matrices have zero trace, so the spectrum sums to zero
    for seed in range(5):
        es = eigendecompose_symmetric(gen_erdos_renyi(50, 0.4, seed))
        assert abs(es.eigenvalues.sum()) < 1e-9


def test_eigh_regular_graph_top_eigenvalue():
    for n, k in ((12, 3), (30, 7)):
        es = eigendecompose_symmetric(gen_ring(n, k))
        assert abs(es.eigenvalues.real.max() - 2 * k) < 1e-10


@pytest.mark.parametrize("graph", [gen_erdos_renyi(60, 0.3, 1),
                                   gen_watts_strogatz(80, 4, 0.2, 2), gen_ring(50, 3)],
                         ids=["er", "ws", "ring"])
def test_eigenvalues_only_solver_matches_eigh(graph):
    vals = eigenvalues_symmetric(graph)
    assert vals.dtype == complex
    assert np.all(vals.imag == 0.0)
    assert np.all(np.diff(vals.real) <= 0.0)
    assert np.abs(vals - eigendecompose_symmetric(graph).eigenvalues).max() < 1e-10


def _split_and_full_solves(graph):
    """eigenvalues_symmetric(graph), checked against one full eigvalsh of its
    dense matrix, and the sizes of the blocks eigvalsh was given."""
    want = np.linalg.eigvalsh(graph.entries)[::-1]
    with mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as solve:
        vals = eigenvalues_symmetric(graph)
    assert vals.dtype == complex and np.all(vals.imag == 0.0)
    assert np.all(np.diff(vals.real) <= 0.0)
    scale = max(1.0, float(np.abs(want).max(initial=0.0)))
    assert np.abs(vals.real - want).max(initial=0.0) <= graph.n * np.finfo(float).eps * scale
    return [len(call.args[0]) for call in solve.call_args_list]


def _mirror(n, rows, cols):
    """The graph of the edges (rows, cols), i < j, joined with their mirrors."""
    keys = np.unique(np.concatenate((rows * n + cols, (n - 1 - cols) * n + n - 1 - rows)))
    return AdjacencyMatrix(n, keys // n, keys % n)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=41), st.floats(min_value=0.0, max_value=1.0),
       st.integers(min_value=0, max_value=2**32))
def test_mirror_symmetric_graphs_split_into_two_half_solves(n, p, seed):
    # a random edge set joined with its mirror, for even and odd n: the
    # spectrum of the two half-size blocks is the full solve's
    rows, cols = np.triu_indices(n, k=1)
    hit = np.random.default_rng(seed).random(rows.size) < p
    graph = _mirror(n, rows[hit], cols[hit])
    assert _split_and_full_solves(graph) == [n - n // 2, n // 2]


def test_rings_paths_and_complete_graphs_split(tmp_path):
    for n in range(1, 65):
        path = AdjacencyMatrix(n, np.arange(n - 1), np.arange(1, n))
        assert _split_and_full_solves(path) == [n - n // 2, n // 2], n
    for n in range(2, 65):
        assert _split_and_full_solves(gen_complete(n)) == [n - n // 2, n // 2], n
    for n in range(3, 65):
        for k in range(1, n // 2 + 1):
            assert _split_and_full_solves(gen_ring(n, k)) == [n - n // 2, n // 2], (n, k)
    # the split is read from the edges, so an edge file of a ring takes it too
    write_edge_list(gen_ring(33, 4), tmp_path / "ring.edges")
    assert _split_and_full_solves(read_edge_list(tmp_path / "ring.edges")) == [17, 16]


def test_one_edge_short_of_mirror_symmetry_takes_the_full_solve():
    # dropping edge (0, 1) keeps its mirror (n-2, n-1), so the graph is no
    # longer mirror-symmetric: one n x n solve
    for n in range(3, 65):
        path = AdjacencyMatrix(n, np.arange(n - 1), np.arange(1, n))
        for graph in (gen_ring(n, 1 + n // 5), path):
            short = AdjacencyMatrix(n, graph.rows[1:], graph.cols[1:])
            assert _split_and_full_solves(short) == [n], n
    for seed in range(4):
        rows, cols = np.triu_indices(20, k=1)
        hit = np.random.default_rng(seed).random(rows.size) < 0.3
        graph = _mirror(20, rows[hit], cols[hit])
        # drop an edge that is not its own mirror, i + j != n - 1
        keep = np.arange(graph.edge_count) != np.flatnonzero(graph.rows + graph.cols != 19)[0]
        short = AdjacencyMatrix(20, graph.rows[keep], graph.cols[keep])
        assert _split_and_full_solves(short) == [20], seed
    assert _split_and_full_solves(gen_watts_strogatz(60, 3, 0.2, 0)) == [60]


def test_eigh_keeps_one_real_matrix():
    n = 600
    graph = gen_watts_strogatz(n, 10, 0.1, 0)
    graph.entries  # the graph keeps its dense matrix once read; count only eigh's
    es, _, kept = _peak_and_kept_bytes(lambda: eigendecompose_symmetric(graph))
    assert es.vectors.dtype == float
    # the eigenvectors (8 n^2 bytes), the eigenvalues and small change
    assert kept <= 8 * n * n + 64 * n


def test_eigensystem_for_picks_the_route():
    # the name is kept from the retired eigensystem_for: Propagator picks the route
    for graph in (gen_ring(12, 2), gen_complete(9)):
        assert Propagator(graph, 0.5, [1.0]).route == "cdt"
        es = cdt_eigensystem(graph.generating_vector())
        u = cdt_fourier_matrix(graph.n)
        assert np.abs(u.conj().T @ np.diag(es.eigenvalues) @ u - graph.entries).max() < 1e-12
    # any other graph takes the Lanczos basis of each state
    for graph in (gen_erdos_renyi(20, 0.3, 0), gen_watts_strogatz(20, 2, 0.3, 0)):
        prop = Propagator(graph, 0.5, [1.0])
        assert prop.route == "lanczos" and prop.graph is graph


def test_cdt_and_eigh_agree_on_rings():
    for n, k in ((8, 2), (12, 5), (33, 16), (256, 17)):
        a = np.sort(cdt_eigenvalues(ring_generating_vector(n, k)).real)
        b = np.sort(eigendecompose_symmetric(gen_ring(n, k)).eigenvalues.real)
        assert np.abs(a - b).max() < 1e-9, (n, k)


# --------------------------------------------------------------- propagator

def test_propagator_identity_at_t0():
    graph = gen_ring(6, 2)
    x0 = np.exp(1j * np.linspace(-3, 3, 6))
    assert np.abs(apply_propagator(graph, 0.7, 0.0, x0) - x0).max() < 1e-12


def test_propagator_uniform_mode_growth():
    # the all-ones state is an eigenvector of K3 with eigenvalue 2
    graph = gen_ring(3, 1)
    x0 = np.ones(3, dtype=complex)
    gamma, t = 0.5, 1.3
    x = apply_propagator(graph, gamma, t, x0)
    assert np.abs(x - np.exp(gamma * t * 2.0)).max() < 1e-9


def test_propagator_taylor_oracle():
    # 4th-order Taylor agrees to 1e-8 while gamma * t * ||A|| stays at 0.04
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(2, 33))
        m = np.triu((rng.random((n, n)) < 0.4).astype(float), 1)
        m = m + m.T
        graph = AdjacencyMatrix.from_dense(n, m)
        norm = float(np.abs(eigenvalues_symmetric(graph).real).max()) or 1.0
        gamma = 0.5
        t = 0.04 / (gamma * norm)
        x0 = np.exp(1j * (np.pi - 2 * np.pi * rng.random(n)))
        x = apply_propagator(graph, gamma, t, x0)
        acc = x0.astype(complex)
        term = x0.astype(complex)
        for k in range(1, 5):
            term = (gamma * t / k) * (m @ term)
            acc = acc + term
        assert np.abs(x - acc).max() < 1e-8


@pytest.mark.parametrize("n, k", [(30, 4), (31, 15), (200, 100)])
def test_fft_propagation_matches_basis_product(n, k):
    # a ring applies its Fourier basis through the FFT; the complete graphs
    # (k = n // 2) take their two eigenspaces, which the same product checks
    graph = gen_ring(n, k)
    x0 = np.exp(1j * np.linspace(-3.0, 3.0, n))
    times = np.linspace(0.0, 1.0, 7)
    want, _ = fourier_oracle(graph, 0.4, times, x0)
    assert np.abs(Propagator(graph, 0.4, times)(x0)[0] - want).max() < 1e-12


@pytest.mark.parametrize("graph", [gen_erdos_renyi(40, 0.3, 5),
                                   gen_watts_strogatz(60, 4, 0.2, 6)], ids=["er", "ws"])
def test_real_basis_propagation_matches_complex_product(graph):
    # the Lanczos route against the product of eigh's real eigenvectors
    x0 = np.exp(1j * np.linspace(-3.0, 3.0, graph.n))
    times = np.linspace(0.0, 1.0, 7)
    want, _ = eigh_oracle(graph, 0.4, times, x0)
    assert np.abs(Propagator(graph, 0.4, times)(x0)[0] - want).max() < 1e-12


def test_propagator_semigroup():
    graph = gen_ring(8, 3)
    x0 = np.exp(1j * np.linspace(0.0, 2.0, 8))
    full = apply_propagator(graph, 0.3, 2.5, x0)
    comp = apply_propagator(graph, 0.3, 1.5, apply_propagator(graph, 0.3, 1.0, x0))
    assert np.abs(full - comp).max() / np.abs(full).max() < 1e-8


def test_guard_preserves_arguments():
    # the guard rescales moduli only: the guarded states have x(t)'s phases,
    # on the ring's FFT, the complete graph's repulsive form and the Lanczos
    # route, also at |gamma| * t_end = 64, where x0's Krylov space grows
    ws = gen_watts_strogatz(200, 4, 0.2, 0)
    cases = {"ring": (gen_ring(40, 3), 1.0, 1.0), "complete": (gen_complete(200), -5.0, 2.0),
             "ws": (ws, 0.25, 1.0), "ws-strong": (ws, 10.0, 10.0)}
    for name, (graph, kappa, t_end) in cases.items():
        times = np.linspace(0.0, t_end, 101)
        x0 = np.exp(1j * initial_phases(graph.n, 0))
        states, shift = Propagator(graph, 2 * kappa / np.pi, times)(x0)
        assert shift[-1] != 0.0, name
        gap = _wrapped_gap(np.angle(unguarded(states, shift)), np.angle(states))
        assert gap < 1e-10, name


@pytest.mark.parametrize("gamma", [-3.2, -0.5, 0.0, 0.7, 3.2])
def test_guarded_exponents_are_nonpositive(gamma):
    times = np.linspace(0.0, 2.0, 5)
    for es in (cdt_eigensystem(ring_generating_vector(200, 100)),
               eigendecompose_symmetric(gen_erdos_renyi(50, 0.3, 3))):
        expo = propagator_exponents(es, gamma, times)
        # t * (gamma*lambda - rate): the dominant mode's exponent is exactly 0
        assert expo.real.max() == 0.0
        rate = (gamma * es.eigenvalues.real).max()
        assert np.array_equal(expo, np.outer(times, gamma * es.eigenvalues - rate))


def test_astronomical_gamma_leaves_no_guard_residual():
    # t * (gamma*lambda_max) minus (gamma*lambda_max) * t is exactly 0 even
    # where gamma * lambda * t is near 1e301
    graph = gen_erdos_renyi(200, 0.2, 0)
    es = eigendecompose_symmetric(graph)
    gamma = 2e300 / np.pi
    states, shift = eigh_oracle(graph, gamma, [1.0], np.exp(1j * initial_phases(200, 0)))
    assert np.all(np.isfinite(states)) and np.all(np.isfinite(shift))
    assert propagator_exponents(es, gamma, [1.0]).real.max() == 0.0


def test_gamma_past_the_float_range_raises():
    # |gamma| * t * 2 * rho(A) past float max: no exponent or shift can be formed
    x0 = np.exp(1j * initial_phases(30, 1))
    graph = gen_erdos_renyi(30, 0.3, 1)
    for system in (graph, gen_complete(30), gen_ring(30, 2)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SpectralError, match="floating-point range"):
                Propagator(system, 1e308, [0.0, 2.0])
            states, shift = Propagator(system, 1e300, [0.0, 2.0])(x0)
        assert np.all(np.isfinite(states)) and np.all(np.isfinite(shift))
    # on the Lanczos route the max degree bounds rho(A): the bound is
    # float max / (2 * t * max degree), on either side of which gamma raises and runs
    edge = np.finfo(float).max / (2.0 * 2.0 * graph.degrees().max())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SpectralError, match="floating-point range"):
            Propagator(graph, edge * (1.0 + 1e-9), [0.0, 2.0])
        states, shift = Propagator(graph, -edge * (1.0 - 1e-9), [0.0, 2.0])(x0)
    assert np.all(np.isfinite(states)) and np.all(np.isfinite(shift))


def test_astronomical_exponent_is_reported_in_one_short_line():
    # gamma * lambda_max * t is about 1.7e301 here: x(t) itself is past the
    # float range, and the exponent prints in six significant digits
    x0 = np.exp(1j * initial_phases(50, 0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SpectralError) as exc:
            apply_propagator(gen_erdos_renyi(50, 0.5, 0), 2e300 / np.pi, 1.0, x0)
    line = f"error: {exc.value}"
    assert line.startswith("error: propagator overflow: exponent ") and "\n" not in line
    assert len(line) < 100


def test_guard_prevents_overflow():
    graph = gen_ring(200, 100)
    x0 = np.ones(200, dtype=complex)
    with pytest.raises(SpectralError):
        apply_propagator(graph, 1.0, 10.0, x0)
    x = Propagator(graph, 1.0, [10.0])(x0)[0]
    assert np.all(np.isfinite(x))


def test_propagator_rejects_bad_arguments():
    graph = gen_ring(4, 1)
    x0 = np.ones(4, dtype=complex)
    with pytest.raises(ValueError):
        apply_propagator(graph, np.inf, 1.0, x0)
    with pytest.raises(ValueError):
        apply_propagator(graph, 1.0, -1.0, x0)
    with pytest.raises(ValueError):
        apply_propagator(graph, 1.0, 1.0, np.ones(5, dtype=complex))


# -------------------------------------------------------------- Lanczos route

def _star(n):
    entries = np.zeros((n, n))
    entries[0, 1:] = entries[1:, 0] = 1.0
    return AdjacencyMatrix.from_dense(n, entries)


def _from_disk(tmp_path, graph):
    path = tmp_path / "graph.edges"
    write_edge_list(graph, path)
    return read_edge_list(path)


def _wrapped_gap(a, b):
    return float(np.abs(np.remainder(a - b + np.pi, 2 * np.pi) - np.pi).max())


# name: (graph, kappa, t_end, dt, record_every); kappa = 50/N as in figure 4
LANCZOS_CASES = {
    "er200": (lambda tmp: gen_erdos_renyi(200, 0.2, 0), 50 / 200, 1.0, 1e-3, 1),
    "ws200": (lambda tmp: gen_watts_strogatz(200, 10, 0.1, 0), 50 / 200, 1.0, 1e-3, 1),
    "er1500": (lambda tmp: gen_erdos_renyi(1500, 0.02, 1), 50 / 1500, 1.0, 1e-3, 100),
    "ws1500": (lambda tmp: gen_watts_strogatz(1500, 10, 0.1, 2), 50 / 1500, 1.0, 1e-3, 100),
    "edge_list": (lambda tmp: _from_disk(tmp, gen_watts_strogatz(300, 5, 0.2, 4)),
                  50 / 300, 1.0, 1e-3, 10),
    "repulsive": (lambda tmp: gen_erdos_renyi(200, 0.2, 2), -50 / 200, 1.0, 1e-3, 1),
    # Gershgorin bounds the spectrum by n - 1 = 399, lambda_max is sqrt(399) = 19.97
    "star": (lambda tmp: _star(400), 1.0, 2.0, 1e-2, 1),
    # |gamma| * t_end = 100: a Krylov space of about a hundred vectors
    "long": (lambda tmp: gen_watts_strogatz(200, 10, 0.1, 0), np.pi / 2, 100.0, 0.1, 1),
    "long_repulsive": (lambda tmp: gen_erdos_renyi(200, 0.2, 0), -np.pi / 2, 20.0, 0.1, 1),
    # the runs a cost rule once sent to eigh: gamma * t_end = -50, 50 and -1000
    "strong_repulsive": (lambda tmp: gen_watts_strogatz(200, 10, 0.1, 0), -np.pi, 25.0,
                         0.25, 10),
    "ws60": (lambda tmp: gen_watts_strogatz(60, 3, 0.1, 0), np.pi / 2, 50.0, 0.5, 10),
    "dense_repulsive": (lambda tmp: gen_erdos_renyi(400, 0.5, 0), -5 * np.pi, 100.0, 1.0, 10),
}


# The tests named for the Chebyshev route keep the names and cases under
# which they first pinned the matrix-free closed form.
@pytest.mark.parametrize("case", sorted(LANCZOS_CASES))
def test_chebyshev_phases_match_eigh_oracle(case, tmp_path):
    make, kappa, t_end, dt, every = LANCZOS_CASES[case]
    graph = make(tmp_path)
    cfg = SimulationConfig(graph=graph, kappa=kappa, dt=dt, t_end=t_end, seed=3,
                           record_every=every)
    theta0 = initial_phases(graph.n, 3)
    lanczos = analytic_trajectory(cfg, theta0)
    states, _ = eigh_oracle(graph, cfg.gamma, lanczos.times, np.exp(1j * theta0))
    oracle = np.angle(states) + cfg.omega * lanczos.times[:, None]
    assert _wrapped_gap(lanczos.states, oracle) <= 1e-10
    diag = lanczos.diagnostics
    assert diag["route"] == "lanczos" and 1 <= diag["krylov_dimension"] <= graph.n
    # no more products than a Chebyshev expansion over [-max degree, max degree] would take
    z = abs(cfg.gamma) * t_end * graph.degrees().max()
    assert diag["krylov_dimension"] <= 12 * np.sqrt(z) + 32
    if case == "star":  # its Krylov spaces have three dimensions: the Ritz values are exact
        assert np.abs(np.subtract(diag["interval"], [-np.sqrt(399.0), np.sqrt(399.0)])).max() < 1e-9


@pytest.mark.parametrize("graph", [
    *(gen_erdos_renyi(100, 0.1, s) for s in range(5)),
    *(gen_watts_strogatz(100, 3, 0.3, s) for s in range(5)),
    gen_ring(50, 4), _star(50), gen_erdos_renyi(30, 0.0, 0),
    *(gen_erdos_renyi(200, 0.2, s) for s in range(3)),
    *(gen_watts_strogatz(200, 10, 0.1, s) for s in range(3)),
    gen_watts_strogatz(200, 2, 0.5, 2), gen_erdos_renyi(1500, 0.02, 1),
    # the large-graph family, seed 16 included, where the lower end misses
    *(gen_watts_strogatz(1500, 10, 0.1, s) for s in (0, 1, 2, 16))])
def test_chebyshev_interval_holds_the_spectrum(graph):
    # [-max degree, max degree], which the spread check reads, holds the
    # spectrum, and the interval a call reports, x0's extreme Ritz values, lies inside it
    lam = eigenvalues_symmetric(graph).real
    assert np.abs(lam).max() <= graph.degrees().max()
    prop = Propagator(graph, 0.5, [0.0, 1.0])
    prop(np.exp(1j * initial_phases(graph.n, 0)))
    if graph.generating_vector() is not None:  # the ring and the empty graph take the FFT
        assert prop.route == "cdt" and prop.interval is None
        return
    lo, hi = prop.interval
    assert lam.min() - 1e-9 <= lo <= hi <= lam.max() + 1e-9


def test_chebyshev_guard_shift_and_unguarded_values():
    # the second graph's x0 excites lambda_min's mode enough that 20 steps from
    # another start, the guard ends the Lanczos route once kept, missed it
    for graph, seed, gammas, samples in ((gen_watts_strogatz(60, 4, 0.2, 6), 1, (0.5, -0.5), 6),
                                         (gen_watts_strogatz(200, 2, 0.5, 2), 0, (-1.0,), 11)):
        lam = eigenvalues_symmetric(graph).real
        x0 = np.exp(1j * initial_phases(graph.n, seed))
        times = np.linspace(0.0, 1.0, samples)
        for gamma in gammas:
            prop = Propagator(graph, gamma, times)
            states, shift = prop(x0)
            # t * max gamma*theta over the Ritz values of x0, inside the spectrum
            lo, hi = prop.interval
            assert np.array_equal(shift, max(gamma * lo, gamma * hi) * times)
            assert np.all(shift <= (gamma * lam).max() * times + 1e-12)
            want = unguarded(*eigh_oracle(graph, gamma, times, x0))
            assert np.abs(unguarded(states, shift) - want).max() <= 1e-12 * np.abs(want).max()
            assert _wrapped_gap(np.angle(states), np.angle(want)) <= 1e-10
    with pytest.raises(SpectralError):
        apply_propagator(graph, 50.0, 10.0, x0)
    assert np.all(np.isfinite(Propagator(graph, 50.0, [10.0])(x0)[0]))


def test_propagator_takes_x0s_krylov_space():
    graph = gen_watts_strogatz(200, 10, 0.1, 0)
    x0 = np.exp(1j * initial_phases(200, 5))
    short = Propagator(graph, 0.2, np.linspace(0.0, 1.0, 11))
    short(x0)
    # as figure 4's runs: 20 steps
    assert short.route == "lanczos" and short.krylov_dimension == 20
    # |gamma| * t_end = 50, repulsive: more steps, where eigh once took over
    long = Propagator(graph, -2.0, np.linspace(0.0, 25.0, 11))
    states, _ = long(x0)
    assert long.route == "lanczos" and 20 < long.krylov_dimension <= graph.n
    # each call builds x0's basis anew, to the same bits
    assert np.array_equal(long(x0)[0], states)


def test_lanczos_basis_grows_with_the_steps_taken():
    n = 20000
    graph = gen_ring(n, 3)
    x = np.exp(1j * initial_phases(n, 0))

    def steps(limit, count):
        for basis, _, _ in spectral._lanczos(graph, x, limit):
            if len(basis) == count:
                return basis.copy()

    # a budget of every node's worth of steps reserves no n x n basis
    short, peak, _ = _peak_and_kept_bytes(lambda: steps(n, 12))
    assert peak < 2048 * n
    # and each row is the one a budget of exactly the steps taken gives
    assert np.array_equal(short, steps(12, 12))


@pytest.mark.parametrize("method", ["numerical", "analytic"])
def test_sparse_graph_runs_on_edge_products(tmp_path, method, monkeypatch):
    path = tmp_path / "ws.edges"
    write_edge_list(gen_watts_strogatz(1500, 10, 0.1, 0), path)
    graph = read_edge_list(path)
    cfg = SimulationConfig(graph=graph, kappa=50 / 1500, dt=1e-3, t_end=0.2, seed=1,
                           record_every=20)
    traj = simulate(cfg, method)
    assert graph.sparse and graph._entries is None
    if method == "analytic":
        assert traj.diagnostics["route"] == "lanczos"
    # the same run on dense products moves only trailing bits
    monkeypatch.setattr(graphs, "_EDGE_CALL_NS", math.inf)
    dense = read_edge_list(path)
    want = simulate(dataclasses.replace(cfg, graph=dense), method)
    assert not dense.sparse and dense._entries is not None
    assert _wrapped_gap(traj.states, want.states) <= 1e-13


@pytest.mark.parametrize("expand", [False, True])
def test_zero_state_stays_zero(expand):
    # on the Lanczos route, which takes no product, and on the eigh oracle
    graph = gen_erdos_renyi(40, 0.3, 1)
    if expand:
        prop = Propagator(graph, 50.0, [10.0])
        states, shift = prop(np.zeros(40))
        assert prop.graph is graph and prop.krylov_dimension == 0
    else:
        states, shift = eigh_oracle(graph, 50.0, [10.0], np.zeros(40))
    assert not states.any() and np.all(np.isfinite(shift))


def test_chebyshev_on_an_empty_graph_is_the_identity():
    # the empty graph is circulant, c = 0, and takes the FFT
    x0 = np.exp(1j * np.arange(10.0))
    prop = Propagator(gen_erdos_renyi(10, 0.0, 0), 2.0, [0.0, 1.5])
    states, shift = prop(x0)
    assert prop.route == "cdt" and not shift.any()
    assert np.abs(states - x0).max() <= 4 * np.finfo(float).eps
    # on a path 0 - 1 - 2 and seven isolated nodes, with x0_1 = 0 and
    # x0_0 = -x0_2, A x0 = 0 too: the steps break down at the first, with T_1 = [0]
    x0[:3] = 1.0, 0.0, -1.0
    prop = Propagator(AdjacencyMatrix(10, np.array([0, 1]), np.array([1, 2])), 2.0, [0.0, 1.5])
    states, shift = prop(x0)
    assert prop.krylov_dimension == 1 and prop.interval == [0.0, 0.0] and not shift.any()
    assert np.abs(states - x0).max() <= 4 * np.finfo(float).eps


def test_lanczos_route_on_a_graph_below_four_nodes():
    # x0 excites all three eigenvalues, 1, -1 and 0: its Krylov space is the
    # whole space at m = n, where T_3 holds the spectrum exactly
    path = AdjacencyMatrix.from_dense(3, np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0.0]]))
    x0 = np.exp(1j * np.arange(3.0))
    prop = Propagator(path, 1.0, [0.0, 1.0])
    got = unguarded(*prop(x0))
    want = unguarded(*eigh_oracle(path, 1.0, [0.0, 1.0], x0))
    assert prop.route == "lanczos" and prop.krylov_dimension == 3
    assert np.abs(got - want).max() <= 1e-15


# "chebyshev" names the matrix-free route these cases first pinned
@pytest.mark.parametrize("case", ["complete", "cdt", "chebyshev", "chebyshev_long", "eigh"])
def test_every_route_returns_one_state_row_per_sample(case):
    graph = {"complete": gen_complete(50), "cdt": gen_ring(40, 3)}.get(
        case, gen_watts_strogatz(60, 4, 0.2, 6))
    gamma, t_end = (2.0, 20.0) if case in ("chebyshev_long", "eigh") else (0.5, 2.0)
    times = np.linspace(0.0, t_end, 9)
    x0 = np.exp(1j * initial_phases(graph.n, 5))
    if case == "eigh":  # the oracle, which no command runs
        prop, (states, shift) = None, eigh_oracle(graph, gamma, times, x0)
    else:
        prop = Propagator(graph, gamma, times)
        states, shift = prop(x0)
    assert states.shape == (times.size, graph.n) and shift.shape == (times.size,)
    if prop is not None:
        assert prop.route == ("cdt" if case in ("complete", "cdt") else "lanczos")
        assert prop.graph.is_complete == (case == "complete")
        assert (prop.krylov_dimension is not None) == case.startswith("chebyshev")
    # the eigh reference, one row per sample
    vals, vecs = np.linalg.eigh(graph.entries)
    want = (vecs @ (np.exp(gamma * np.outer(vals, times)) * (vecs.T @ x0)[:, None])).T
    gap = np.abs(unguarded(states, shift) - want).max(axis=1)
    assert np.all(gap <= 1e-10 * np.abs(want).max(axis=1))


# ----------------------------------------------------------- complete graphs

def _complete_from_file(n, tmp_path):
    path = tmp_path / f"k{n}.edges"
    write_edge_list(gen_complete(n), path)
    return read_edge_list(path)


def test_eigensystem_for_marks_every_pair_coupled(tmp_path):
    # the name is kept from the retired eigensystem_for: the graph marks it
    for graph in (gen_complete(2), gen_complete(200), gen_ring(9, 4), gen_ring(10, 5),
                  _complete_from_file(7, tmp_path)):
        assert graph.is_complete and Propagator(graph, 0.5, [1.0]).route == "cdt", graph.kind
        es = cdt_eigensystem(graph.generating_vector())
        want = cdt_eigenvalues(ring_generating_vector(graph.n, graph.n // 2))
        assert np.array_equal(es.eigenvalues, want)
    for graph in (gen_ring(9, 3), gen_ring(200, 99)):
        assert not graph.is_complete


def test_every_pair_coupled_is_decided_once(tmp_path):
    # the graph answers; the coupling kernel and the closed form's route both read it
    for graph, coupled in ((gen_ring(10, 5), True), (gen_ring(9, 4), True),
                           (_complete_from_file(7, tmp_path), True), (gen_ring(9, 3), False),
                           (gen_erdos_renyi(9, 0.5, 0), False)):
        assert graph.is_complete == coupled, graph.kind
        theta = np.array([initial_phases(graph.n, s) for s in range(3)])
        z = np.exp(1j * theta)
        coupling, sums = coupling_kernel(graph)(theta)
        assert np.abs(coupling - np.imag(np.conj(z) * (z @ graph.entries))).max() < 1e-12
        prop = Propagator(graph, 0.5, [1.0])
        assert (prop.route == "cdt" and prop.graph.is_complete) == coupled
        if coupled:  # the mean-field sums, per row, axis kept
            assert np.array_equal(sums[0], np.cos(theta).sum(axis=-1, keepdims=True))
            assert np.array_equal(sums[1], np.sin(theta).sum(axis=-1, keepdims=True))
        else:
            assert sums is None


def test_generating_vector_names_the_route_eigensystem_for_builds(tmp_path):
    # the route is read from the edges, not the kind: a ring read back from
    # its edge list and a Watts-Strogatz graph that rewired nothing are circulant
    write_edge_list(gen_ring(12, 2), tmp_path / "ring.edges")
    for graph, route in ((gen_complete(9), "complete"), (gen_ring(10, 5), "complete"),
                         (_complete_from_file(7, tmp_path), "complete"),
                         (gen_ring(12, 2), "ring"),
                         (read_edge_list(tmp_path / "ring.edges"), "ring"),
                         (gen_watts_strogatz(20, 2, 0.0, 0), "ring"),
                         (gen_erdos_renyi(20, 0.3, 0), "lanczos"),
                         (gen_watts_strogatz(20, 2, 0.3, 0), "lanczos")):
        c = graph.generating_vector()
        assert (c is None) == (route == "lanczos"), graph.kind
        prop = Propagator(graph, 0.5, [1.0])
        built = ("lanczos" if prop.route == "lanczos" else "complete" if graph.is_complete
                 else "ring")
        assert built == route, graph.kind
        if c is not None:  # the guard's rate is read from c's eigenvalues
            assert prop.shift[0] == 0.5 * cdt_eigenvalues(c).real.max(), graph.kind


def test_astronomical_coupling_stays_on_lanczos_without_warnings():
    # at gamma = 1e300 x0's Krylov space is resolved at m <= n, where it is
    # invariant at the latest, and no step warns
    graph = gen_watts_strogatz(50, 2, 0.3, 0)
    times, x0 = np.linspace(0.0, 1.0, 5), np.exp(1j * initial_phases(50, 4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        prop = Propagator(graph, 1e300, times)
        states, shift = prop(x0)
    assert prop.route == "lanczos" and 1 <= prop.krylov_dimension <= graph.n
    assert np.all(np.isfinite(states)) and np.all(np.isfinite(shift))
    want, want_shift = eigh_oracle(graph, 1e300, times, x0)
    assert np.abs(shift - want_shift).max() <= 1e-12 * np.abs(want_shift).max()
    assert _wrapped_gap(np.angle(states), np.angle(want)) <= 1e-10


@pytest.mark.parametrize("graph", [gen_complete(2), gen_complete(3), gen_complete(200),
                                   gen_ring(9, 4)], ids=["K2", "K3", "K200", "ring9-4"])
@pytest.mark.parametrize("gamma", [0.7, -0.4, 0.0])
@pytest.mark.parametrize("guard", [True, False])
def test_complete_route_matches_fft_and_eigh(graph, gamma, guard):
    def propagate(prop, x0):  # guard off: x(t) itself, with no shift
        states, shift = prop(x0)
        return (states, shift) if guard else (unguarded(states, shift), 0.0 * shift)

    n = graph.n
    times = np.linspace(0.0, 2.0, 11)
    x0 = np.exp(1j * initial_phases(n, 3))
    prop = Propagator(graph, gamma, times)
    assert prop.graph is graph and prop.krylov_dimension is None
    states, shift = propagate(prop, x0)
    assert states.shape == (times.size, n)
    assert np.array_equal(states[0], x0)  # the t = 0 sample is x0 itself
    want_shift = times * max(gamma * (n - 1), -gamma) if guard else 0.0 * times
    assert np.array_equal(shift, want_shift)
    for oracle in (fourier_oracle, eigh_oracle):
        want, route_shift = propagate(lambda x: oracle(graph, gamma, times, x), x0)
        assert np.abs(shift - route_shift).max() <= 1e-12 * max(1.0, np.abs(shift).max())
        assert np.abs(states - want).max() <= 1e-12 * np.abs(want).max()
        assert _wrapped_gap(np.angle(states), np.angle(want)) <= 1e-12


@pytest.mark.parametrize("gamma", [0.7, -0.4])
def test_complete_route_amplitudes_match_unguarded_oracle(gamma):
    graph = gen_complete(200)
    cfg = SimulationConfig(graph=graph, kappa=gamma * np.pi / 2, dt=1e-3, t_end=1.0)
    theta0 = initial_phases(200, 4)
    x0 = np.exp(1j * theta0)
    oracle = -np.log(np.abs(unguarded(*eigh_oracle(graph, cfg.gamma, [1.0], x0))[0]))
    for guard in (True, False):
        if guard:
            values, shift = analytic_amplitudes(cfg, theta0, 1.0)
        else:
            values, shift = -np.log(np.abs(apply_propagator(graph, cfg.gamma, 1.0, x0))), 0.0
        assert shift == (max(gamma * 199, -gamma) if guard else 0.0)
        assert np.abs(values - shift - oracle).max() <= 1e-12 * np.abs(oracle).max()


def test_complete_route_overflow():
    graph = gen_complete(200)
    x0 = np.ones(200, dtype=complex)
    with pytest.raises(SpectralError, match="read the guarded states instead"):
        unguarded(*Propagator(graph, 1.0, [0.0, 10.0])(x0))
    x = Propagator(graph, 1.0, [10.0])(x0)[0][0]
    assert np.abs(x - 1.0).max() <= 1e-15  # the uniform mode, rescaled to 1
    # repulsive coupling: the guard divides by e^{gamma * t} instead
    states, shift = Propagator(graph, -30.0, [0.0, 10.0])(np.exp(1j * np.arange(200.0)))
    assert shift[-1] == 300.0 and np.all(np.isfinite(states))


def test_complete_route_holds_no_state_sized_factors():
    graph = gen_complete(200)
    times = np.linspace(0.0, 1.0, 1001)
    prop, _, kept = _peak_and_kept_bytes(lambda: Propagator(graph, 0.5, times))
    assert prop.krylov_dimension is None
    # two factor vectors and the shift, against 16 * n * samples for FFT factors
    assert kept <= 4 * 8 * times.size


def test_complete_route_reads_no_edges(monkeypatch):
    # K_n's route is read from graph.is_complete, in O(1): building and
    # calling a propagator, a sweep chunk's per-kappa propagators and an
    # analytic simulate run scan no edges and run no FFT
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("generating_vector", "degrees"):
        monkeypatch.setattr(AdjacencyMatrix, name, counted(name, getattr(AdjacencyMatrix, name)))
    for name in ("fft", "ifft"):
        monkeypatch.setattr(np.fft, name, counted(name, getattr(np.fft, name)))
    graph = gen_complete(200)
    x0 = np.exp(1j * initial_phases(200, 0))
    Propagator(graph, 0.5, np.linspace(0.0, 1.0, 11))(x0)
    _sweep_task((200, [0.1, 1.0], [0, 1], 1e-3, 0.1))
    cfg = SimulationConfig(graph=graph, kappa=0.5, dt=1e-3, t_end=0.1)
    assert simulate(cfg, "analytic").diagnostics["route"] == "cdt"
    assert calls == []
    # the counters do see a ring's route and a numerical run's stability rule
    Propagator(gen_ring(200, 5), 0.5, [1.0])(x0)
    simulate(cfg)
    assert calls == ["generating_vector", "fft", "fft", "ifft", "degrees"]


# ------------------------------------------------------------- BLAS threads

class _FakeBlas:
    """Stands in for openblas_set_num_threads_local: sets the count, returns the last."""

    def __init__(self, threads):
        self.threads = threads

    def __call__(self, threads):
        previous, self.threads = self.threads, threads
        return previous


def test_one_blas_thread_sets_one_and_restores_the_callers_count(monkeypatch):
    blas = _FakeBlas(2)
    monkeypatch.setattr(spectral, "_blas_thread_setter", lambda: blas)
    with spectral._one_blas_thread():
        assert blas.threads == 1
    assert blas.threads == 2
    with pytest.raises(ZeroDivisionError), spectral._one_blas_thread():
        assert blas.threads == 1
        1 / 0
    assert blas.threads == 2


def test_one_blas_thread_on_the_loaded_openblas():
    setter = spectral._blas_thread_setter()
    if setter is None:
        pytest.skip("the loaded BLAS has no openblas_set_num_threads_local")
    caller = setter(2)
    try:
        with spectral._one_blas_thread():
            inside = setter(1)  # returns the count the body runs on
        after = setter(2)
        with pytest.raises(ZeroDivisionError), spectral._one_blas_thread():
            1 / 0
        after_raise = setter(2)
    finally:
        setter(caller)
    assert (inside, after, after_raise) == (1, 2, 2)


def test_one_blas_thread_without_openblas_runs_the_body_as_it_is(monkeypatch):
    real = spectral._blas_thread_setter()
    graph = gen_watts_strogatz(200, 3, 0.1, 0)
    x0 = np.exp(1j * initial_phases(200, 0))
    times = np.linspace(0.0, 1.0, 101)
    expected, expected_shift = Propagator(graph, -5.0, times)(x0)
    monkeypatch.setattr(spectral, "_blas_thread_setter", lambda: None)
    caller = real(2) if real else None
    try:
        with spectral._one_blas_thread():
            inside = real(2) if real else None  # the count is not touched
        with pytest.raises(ZeroDivisionError), spectral._one_blas_thread():
            1 / 0
        states, shift = Propagator(graph, -5.0, times)(x0)
    finally:
        if real:
            real(caller)
    assert inside == (2 if real else None)
    assert np.array_equal(states, expected) and np.array_equal(shift, expected_shift)


@pytest.mark.parametrize("maps", [None, "", "7f00-7f01 r-xp 0 00:00 0 /nowhere/libopenblas.so\n"])
def test_blas_thread_lookup_finds_nothing_without_openblas(monkeypatch, maps):
    # no /proc (another OS), no OpenBLAS among the mapped files (another
    # BLAS), and a listed OpenBLAS that cannot be loaded
    def fake_open(path, *args, **kwargs):
        if maps is None:
            raise FileNotFoundError(path)
        return io.StringIO(maps)

    monkeypatch.setattr(spectral, "open", fake_open, raising=False)
    assert spectral._blas_thread_setter.__wrapped__() is None


def test_small_problems_take_one_blas_thread(monkeypatch):
    # every eigensolve of order _ONE_THREAD_ORDER or less, the Ritz checks
    # among them, and every BLAS call of a Lanczos call on a graph of that
    # order run on one thread; larger ones keep the caller's count
    blas = _FakeBlas(2)
    monkeypatch.setattr(spectral, "_blas_thread_setter", lambda: blas)
    seen = []

    def record(name, fn):
        def wrapper(a, *args, **kwargs):
            seen.append((name, a.shape[0], blas.threads))
            return fn(a, *args, **kwargs)
        return wrapper

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, record(name, getattr(np.linalg, name)))
    monkeypatch.setattr(spectral, "_real_matmul", record("readout", spectral._real_matmul))
    product = AdjacencyMatrix.product
    monkeypatch.setattr(AdjacencyMatrix, "product", lambda graph, x: seen.append(
        ("product", graph.n, blas.threads)) or product(graph, x))
    limit = spectral._ONE_THREAD_ORDER
    eigenvalues_symmetric(gen_ring(2 * limit, 3))  # two mirror blocks of order limit
    eigenvalues_symmetric(gen_ring(2 * limit + 2, 3))
    eigenvalues_symmetric(gen_watts_strogatz(limit, 3, 0.3, 0))
    eigendecompose_symmetric(gen_watts_strogatz(limit + 1, 3, 0.3, 0))
    assert seen == [("eigvalsh", limit, 1)] * 2 + [("eigvalsh", limit + 1, 2)] * 2 + [
        ("eigvalsh", limit, 1), ("eigh", limit + 1, 2)]
    for n, threads in ((limit, 1), (limit + 1, 2)):
        seen.clear()
        Propagator(gen_watts_strogatz(n, 3, 0.1, 0), -5.0, np.linspace(0.0, 1.0, 11))(
            np.exp(1j * initial_phases(n, 0)))
        assert {name for name, _, _ in seen} == {"product", "eigh", "readout"}
        for name, order, count in seen:
            assert count == (1 if name == "eigh" else threads), (name, order, count)
        assert blas.threads == 2


# ---------------------------------------------------------------------- I/O

def test_spectrum_csv_round_trip(tmp_path):
    vals = cdt_eigenvalues(ring_generating_vector(7, 2))
    path = tmp_path / "spec.csv"
    write_spectrum_csv(vals, path)
    text = path.read_text()
    assert text.startswith("lambda_re,lambda_im\n")
    back = read_spectrum_csv(path)
    assert np.array_equal(back, vals)
