"""Closed-form circulant spectra, the numerical eigensolver, and the propagator."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from kurasim.dynamics import (SimulationConfig, analytic_amplitudes, analytic_trajectory,
                              coupling_kernel, initial_phases)
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
from kurasim import spectral
from kurasim.spectral import (
    ChebyshevOperator,
    Propagator,
    SpectralError,
    _scaled_bessel,
    apply_propagator,
    cdt_eigensystem,
    cdt_eigenvalues,
    cdt_fourier_matrix,
    chebyshev_operator,
    eigendecompose_symmetric,
    eigensystem_for,
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


@pytest.mark.parametrize("n, k", [(3, 1), (64, 5), (1500, 10), (200, 100)])
def test_fft_eigenvalues_match_direct_sum_on_graphs(n, k):
    # rings n = 3, 64, 1500 and the complete graph on 200 nodes (k = n // 2)
    c = ring_generating_vector(n, k)
    assert np.abs(cdt_eigenvalues(c) - _dft_direct_sum(c)).max() < 1e-9


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


def test_eigh_keeps_one_real_matrix():
    n = 600
    graph = gen_watts_strogatz(n, 10, 0.1, 0)
    graph.entries  # the graph keeps its dense matrix once read; count only eigh's
    es, _, kept = _peak_and_kept_bytes(lambda: eigendecompose_symmetric(graph))
    assert es.vectors.dtype == float
    # the eigenvectors (8 n^2 bytes), the eigenvalues and small change
    assert kept <= 8 * n * n + 64 * n


def test_eigensystem_for_picks_the_route():
    for graph in (gen_ring(12, 2), gen_complete(9)):
        es = eigensystem_for(graph)
        assert es.source == "cdt"
        u = cdt_fourier_matrix(graph.n)
        assert np.abs(u.conj().T @ np.diag(es.eigenvalues) @ u - graph.entries).max() < 1e-12
    for graph in (gen_erdos_renyi(20, 0.3, 0), gen_watts_strogatz(20, 2, 0.3, 0)):
        op = eigensystem_for(graph)
        assert isinstance(op, ChebyshevOperator) and op.source == "chebyshev"


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
    x = apply_propagator(es, gamma, t, x0)
    assert np.abs(x - np.exp(gamma * t * 2.0)).max() < 1e-9


def test_propagator_taylor_oracle():
    # 4th-order Taylor agrees to 1e-8 while gamma * t * ||A|| stays at 0.04
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(2, 33))
        m = np.triu((rng.random((n, n)) < 0.4).astype(float), 1)
        m = m + m.T
        es = eigendecompose_symmetric(AdjacencyMatrix.from_dense(n, m))
        norm = float(np.abs(es.eigenvalues.real).max()) or 1.0
        gamma = 0.5
        t = 0.04 / (gamma * norm)
        x0 = np.exp(1j * (np.pi - 2 * np.pi * rng.random(n)))
        x = apply_propagator(es, gamma, t, x0)
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
    times = np.linspace(0.0, 1.0, 7)
    factors = np.exp(propagator_exponents(es, 0.4, times))
    u = cdt_fourier_matrix(n)
    want = (u.conj().T @ (factors.T * (u @ x0)[:, None])).T
    assert np.abs(Propagator(es, 0.4, times)(x0)[0] - want).max() < 1e-12


@pytest.mark.parametrize("graph", [gen_erdos_renyi(40, 0.3, 5),
                                   gen_watts_strogatz(60, 4, 0.2, 6)], ids=["er", "ws"])
def test_real_basis_propagation_matches_complex_product(graph):
    es = eigendecompose_symmetric(graph)
    x0 = np.exp(1j * np.linspace(-3.0, 3.0, graph.n))
    times = np.linspace(0.0, 1.0, 7)
    factors = np.exp(propagator_exponents(es, 0.4, times))
    want = (es.vectors.astype(complex) @ (factors.T * (es.vectors.T @ x0)[:, None])).T
    assert np.abs(Propagator(es, 0.4, times)(x0)[0] - want).max() < 1e-12


def test_propagator_semigroup():
    es = cdt_eigensystem(ring_generating_vector(8, 3))
    x0 = np.exp(1j * np.linspace(0.0, 2.0, 8))
    full = apply_propagator(es, 0.3, 2.5, x0)
    comp = apply_propagator(es, 0.3, 1.5, apply_propagator(es, 0.3, 1.0, x0))
    assert np.abs(full - comp).max() / np.abs(full).max() < 1e-8


def test_guard_preserves_arguments():
    es = cdt_eigensystem(ring_generating_vector(10, 4))
    x0 = np.exp(1j * np.linspace(-2.0, 2.0, 10))
    a = apply_propagator(es, 1.0, 3.0, x0)
    b = Propagator(es, 1.0, [3.0])(x0)[0][0]
    diff = np.angle(a) - np.angle(b)
    diff = np.abs(np.remainder(diff + np.pi, 2 * np.pi) - np.pi)
    assert diff.max() < 1e-10


@pytest.mark.parametrize("gamma", [-3.2, -0.5, 0.0, 0.7, 3.2])
def test_guarded_exponents_are_nonpositive(gamma):
    times = np.linspace(0.0, 2.0, 5)
    for es in (cdt_eigensystem(ring_generating_vector(200, 100)),
               eigendecompose_symmetric(gen_erdos_renyi(50, 0.3, 3))):
        expo = propagator_exponents(es, gamma, times)
        # gamma*(lambda*t) and (gamma*lambda)*t may round one ulp apart
        assert expo.real.max() <= 1e-12
        if gamma >= 0.0:  # the shift is gamma*lambda_max*t, bit for bit
            raw = gamma * np.outer(times, es.eigenvalues)
            lambda_max = es.eigenvalues.real.max()
            assert np.array_equal(expo, raw - gamma * lambda_max * times[:, None])


def test_guard_prevents_overflow():
    es = cdt_eigensystem(ring_generating_vector(200, 100))
    x0 = np.ones(200, dtype=complex)
    with pytest.raises(SpectralError):
        apply_propagator(es, 1.0, 10.0, x0)
    x = Propagator(es, 1.0, [10.0])(x0)[0]
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


# ------------------------------------------------------------ Chebyshev route

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


def test_scaled_bessel_matches_integral_oracle():
    # e^{-z} I_k(z) = (1/pi) int_0^pi e^{z (cos u - 1)} cos(k u) du; the
    # trapezoid rule converges geometrically on this smooth periodic integrand
    z = np.array([0.0, 1e-9, 0.3, 4.3, 32.0, 100.0])
    got = _scaled_bessel(z)
    u = np.linspace(0.0, np.pi, 4097)
    weights = np.ones(u.size)
    weights[[0, -1]] = 0.5
    k = np.arange(got.shape[0])
    want = (np.cos(np.outer(k, u)) * weights) @ np.exp(np.outer(np.cos(u) - 1.0, z)) / (u.size - 1)
    assert np.abs(got - want).max() < 1e-15
    assert np.array_equal(got[:, 0], np.eye(got.shape[0])[0])  # z = 0: exactly 1, 0, 0, ...


# name: (graph, kappa, t_end, dt, record_every); kappa = 50/N as in figure 4
CHEBYSHEV_CASES = {
    "er200": (lambda tmp: gen_erdos_renyi(200, 0.2, 0), 50 / 200, 1.0, 1e-3, 1),
    "ws200": (lambda tmp: gen_watts_strogatz(200, 10, 0.1, 0), 50 / 200, 1.0, 1e-3, 1),
    "er1500": (lambda tmp: gen_erdos_renyi(1500, 0.02, 1), 50 / 1500, 1.0, 1e-3, 100),
    "ws1500": (lambda tmp: gen_watts_strogatz(1500, 10, 0.1, 2), 50 / 1500, 1.0, 1e-3, 100),
    "edge_list": (lambda tmp: _from_disk(tmp, gen_watts_strogatz(300, 5, 0.2, 4)),
                  50 / 300, 1.0, 1e-3, 10),
    "repulsive": (lambda tmp: gen_erdos_renyi(200, 0.2, 2), -50 / 200, 1.0, 1e-3, 1),
    # Gershgorin puts hi at n - 1 = 399, lambda_max is sqrt(399) = 19.97
    "star": (lambda tmp: _star(400), 1.0, 2.0, 1e-2, 1),
    # |gamma| * t_end * radius is in the thousands: one expansion of a few hundred terms
    "long": (lambda tmp: gen_watts_strogatz(200, 10, 0.1, 0), np.pi / 2, 100.0, 0.1, 1),
    "long_repulsive": (lambda tmp: gen_erdos_renyi(200, 0.2, 0), -np.pi / 2, 20.0, 0.1, 1),
}


@pytest.fixture
def expansion_only(monkeypatch):
    """Keep Propagator on the Chebyshev route however many products it needs."""
    monkeypatch.setattr(spectral, "_PRODUCTS_PER_NODE", math.inf)


@pytest.mark.parametrize("case", sorted(CHEBYSHEV_CASES))
def test_chebyshev_phases_match_eigh_oracle(case, tmp_path, expansion_only):
    make, kappa, t_end, dt, every = CHEBYSHEV_CASES[case]
    graph = make(tmp_path)
    cfg = SimulationConfig(graph=graph, kappa=kappa, dt=dt, t_end=t_end, seed=3,
                           record_every=every)
    theta0 = initial_phases(graph.n, 3)
    op = chebyshev_operator(graph)
    cheb = analytic_trajectory(op, cfg, theta0)
    oracle = analytic_trajectory(eigendecompose_symmetric(graph), cfg, theta0)
    assert _wrapped_gap(cheb.states, oracle.states) <= 1e-10
    diag = cheb.diagnostics
    lo, hi = op.interval(cfg.gamma)
    assert diag["route"] == "chebyshev" and diag["interval"] == [lo, hi]
    # the one expansion's terms grow like sqrt(z), z = |gamma| * t_end * radius
    z = abs(cfg.gamma) * t_end * 0.5 * (hi - lo)
    assert diag["chebyshev_terms"] <= 12 * np.sqrt(z) + 32
    if case == "star":
        assert op.hi - np.sqrt(399.0) < 1e-9 and np.sqrt(399.0) + op.lo < 1e-9


@pytest.mark.parametrize("graph", [
    *(gen_erdos_renyi(100, 0.1, s) for s in range(5)),
    *(gen_watts_strogatz(100, 3, 0.3, s) for s in range(5)),
    gen_ring(50, 4), _star(50), gen_erdos_renyi(30, 0.0, 0),
    *(gen_erdos_renyi(200, 0.2, s) for s in range(3)),
    *(gen_watts_strogatz(200, 10, 0.1, s) for s in range(3)),
    gen_watts_strogatz(200, 2, 0.5, 2), gen_erdos_renyi(1500, 0.02, 1),
    # the large-graph family, seed 16 included, where the tight lower end misses
    *(gen_watts_strogatz(1500, 10, 0.1, s) for s in (0, 1, 2, 16))])
def test_chebyshev_interval_holds_the_spectrum(graph):
    op = chebyshev_operator(graph)
    lam = eigenvalues_symmetric(graph).real
    degree = graph.degrees().max()
    assert -degree <= op.lo <= lam.min() <= op.ritz_lo + 1e-9
    assert op.ritz_hi - 1e-9 <= lam.max() <= op.hi <= degree
    # the end the guard reads for gamma >= 0, tightened by its Ritz residual
    up, down = op.interval(1.0), op.interval(-1.0)
    assert up[0] == op.lo and lam.max() <= up[1] + 1e-9 and up[1] <= op.hi
    assert down[1] == op.hi and op.lo <= down[0] <= op.ritz_lo


def test_chebyshev_guard_shift_and_unguarded_values(expansion_only):
    graph = gen_watts_strogatz(60, 4, 0.2, 6)
    op = chebyshev_operator(graph)
    es = eigendecompose_symmetric(graph)
    x0 = np.exp(1j * initial_phases(60, 1))
    times = np.linspace(0.0, 1.0, 6)
    for gamma in (0.5, -0.5):
        states, shift = Propagator(op, gamma, times)(x0)
        # the guard drops exactly t * max(gamma*hi, gamma*lo) of the interval expanded over
        lo, hi = op.interval(gamma)
        assert np.array_equal(shift, max(gamma * hi, gamma * lo) * times)
        assert np.all(shift >= (gamma * es.eigenvalues.real).max() * times)
        want = unguarded(*Propagator(es, gamma, times)(x0))
        raw = unguarded(states, shift)
        assert np.abs(raw - want).max() <= 1e-12 * np.abs(want).max()
        assert np.abs(np.exp(shift)[:, None] * states - want).max() <= 1e-12 * np.abs(want).max()
    with pytest.raises(SpectralError):
        apply_propagator(op, 50.0, 10.0, x0)
    assert np.all(np.isfinite(Propagator(op, 50.0, [10.0])(x0)[0]))


def test_propagator_takes_the_cheaper_route():
    graph = gen_watts_strogatz(200, 10, 0.1, 0)
    op = chebyshev_operator(graph)
    x0 = np.exp(1j * initial_phases(200, 5))
    short = Propagator(op, 0.2, np.linspace(0.0, 1.0, 11))
    assert short.system is op and short.terms <= spectral._PRODUCTS_PER_NODE * 200
    # |gamma| * t_end = 50 needs hundreds of matrix products, more than one eigh costs
    times = np.linspace(0.0, 25.0, 11)
    long = Propagator(op, 2.0, times)
    assert long.system.source == "numerical" and long.terms is None
    oracle = Propagator(eigendecompose_symmetric(graph), 2.0, times)(x0)
    states, shift = long(x0)
    assert np.array_equal(shift, oracle[1])
    assert np.abs(states - oracle[0]).max() <= 1e-12
    # the eigendecomposition of the operator's graph, for either sign of gamma
    assert np.array_equal(long.system.vectors, eigendecompose_symmetric(graph).vectors)
    assert Propagator(op, -2.0, times).system.source == "numerical"


@pytest.mark.parametrize("expand", [False, True])
def test_zero_state_stays_zero(expand, monkeypatch):
    if expand:
        monkeypatch.setattr(spectral, "_PRODUCTS_PER_NODE", math.inf)
    op = chebyshev_operator(gen_erdos_renyi(40, 0.3, 1))
    prop = Propagator(op, 50.0, [10.0])
    assert (prop.terms is not None) == expand
    states, shift = prop(np.zeros(40))
    assert not states.any() and np.all(np.isfinite(shift))
    assert not Propagator(eigendecompose_symmetric(op.graph), 50.0, [10.0])(np.zeros(40))[0].any()


@pytest.mark.parametrize("gamma", [0.5, -0.5])
def test_interval_that_misses_the_spectrum_falls_back_to_eigh(gamma, expansion_only):
    graph = gen_erdos_renyi(150, 0.2, 3)
    op = chebyshev_operator(graph)
    # cut a quarter of the spectrum off the end the guard uses
    cut = 0.25 * (op.hi - op.lo)
    bad = dataclasses.replace(op, hi=op.hi - cut) if gamma > 0 else \
        dataclasses.replace(op, lo=op.lo + cut)
    times = np.linspace(0.0, 4.0, 9)
    x0 = np.exp(1j * initial_phases(150, 2))
    prop = Propagator(bad, gamma, times)
    assert prop.terms is not None
    states, shift = prop(x0)
    assert prop.system.source == "numerical" and prop.terms is None
    want, want_shift = Propagator(eigendecompose_symmetric(graph), gamma, times)(x0)
    assert np.array_equal(shift, want_shift)
    assert _wrapped_gap(np.angle(states), np.angle(want)) <= 1e-10
    # the true interval passes the same check
    good = Propagator(op, gamma, times)
    good(x0)
    assert good.system is op


def test_lanczos_miss_of_the_guard_end_falls_back_to_eigh():
    # 20 Lanczos steps leave this graph's lowest Ritz value far from lambda_min,
    # and its residual does not reach it: the tight lower end misses the spectrum
    graph = gen_watts_strogatz(200, 2, 0.5, 2)
    op = chebyshev_operator(graph)
    lam_min = eigenvalues_symmetric(graph).real.min()
    assert op.interval(-1.0)[0] > lam_min >= op.lo
    times = np.linspace(0.0, 1.0, 11)
    x0 = np.exp(1j * initial_phases(200, 0))  # excites lambda_min's mode enough to show
    prop = Propagator(op, -1.0, times)
    assert prop.system is op and prop.terms is not None
    states, shift = prop(x0)
    # the norm check finds x0 outside the interval and takes eigh instead
    assert prop.system.source == "numerical" and prop.terms is None
    want, want_shift = Propagator(eigendecompose_symmetric(graph), -1.0, times)(x0)
    assert np.array_equal(states, want) and np.array_equal(shift, want_shift)
    assert np.array_equal(np.angle(states), np.angle(want))


def test_chebyshev_on_an_empty_graph_is_the_identity():
    op = chebyshev_operator(gen_erdos_renyi(10, 0.0, 0))
    assert (op.lo, op.hi) == (0.0, 0.0)
    x0 = np.exp(1j * np.arange(10.0))
    states, shift = Propagator(op, 2.0, [0.0, 1.5])(x0)
    assert np.array_equal(states, np.vstack([x0, x0])) and not shift.any()


@pytest.mark.parametrize("case", ["complete", "cdt", "chebyshev", "chebyshev_long", "eigh"])
def test_every_route_returns_one_state_row_per_sample(case, monkeypatch):
    graph = {"complete": gen_complete(50), "cdt": gen_ring(40, 3)}.get(
        case, gen_watts_strogatz(60, 4, 0.2, 6))
    gamma, t_end = (2.0, 20.0) if case in ("chebyshev_long", "eigh") else (0.5, 2.0)
    if case.startswith("chebyshev"):
        monkeypatch.setattr(spectral, "_PRODUCTS_PER_NODE", math.inf)
    times = np.linspace(0.0, t_end, 9)
    x0 = np.exp(1j * initial_phases(graph.n, 5))
    prop = Propagator(eigensystem_for(graph), gamma, times)
    states, shift = prop(x0)
    assert states.shape == (times.size, graph.n) and shift.shape == (times.size,)
    route = {"complete": "cdt", "cdt": "cdt", "eigh": "numerical"}.get(case, "chebyshev")
    assert prop.system.source == route
    assert getattr(prop.system, "complete", False) == (case == "complete")
    assert (prop.terms is not None) == case.startswith("chebyshev")
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
    for graph in (gen_complete(2), gen_complete(200), gen_ring(9, 4), gen_ring(10, 5),
                  _complete_from_file(7, tmp_path)):
        es = eigensystem_for(graph)
        assert es.source == "cdt" and es.complete, graph.kind
        want = cdt_eigenvalues(ring_generating_vector(graph.n, graph.n // 2))
        assert np.array_equal(es.eigenvalues, want)
    for graph in (gen_ring(9, 3), gen_ring(200, 99)):
        assert not eigensystem_for(graph).complete
    assert not cdt_eigensystem(ring_generating_vector(9, 4)).complete


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
        es = eigensystem_for(graph)
        assert getattr(es, "complete", False) == coupled
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
                         (gen_erdos_renyi(20, 0.3, 0), "chebyshev"),
                         (gen_watts_strogatz(20, 2, 0.3, 0), "chebyshev")):
        c = graph.generating_vector()
        assert (c is None) == (route == "chebyshev"), graph.kind
        es = eigensystem_for(graph)
        built = "chebyshev" if es.source == "chebyshev" else \
            "complete" if es.complete else "ring"
        assert built == route, graph.kind
        if c is not None:
            assert np.array_equal(es.eigenvalues, cdt_eigenvalues(c)), graph.kind


def test_expansion_cost_is_checked_before_its_coefficients(monkeypatch):
    # at gamma = 1e300 the least term count, 8 * sqrt(z), is far past the
    # product budget; no Bessel table may be built for it
    def refuse(z):
        raise AssertionError("Bessel coefficients were computed")

    monkeypatch.setattr(spectral, "_scaled_bessel", refuse)
    op = chebyshev_operator(gen_watts_strogatz(50, 2, 0.3, 0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        prop = Propagator(op, 1e300, np.linspace(0.0, 1.0, 5))
        states, shift = prop(np.exp(1j * initial_phases(50, 4)))
    assert prop.system.source == "numerical" and prop.terms is None
    assert np.all(np.isfinite(states)) and np.all(np.isfinite(shift))


@pytest.mark.parametrize("graph", [gen_complete(2), gen_complete(3), gen_complete(200),
                                   gen_ring(9, 4)], ids=["K2", "K3", "K200", "ring9-4"])
@pytest.mark.parametrize("gamma", [0.7, -0.4, 0.0])
@pytest.mark.parametrize("guard", [True, False])
def test_complete_route_matches_fft_and_eigh(graph, gamma, guard):
    def propagate(prop, x0):  # guard off: x(t) itself, with no shift
        states, shift = prop(x0)
        return (states, shift) if guard else (unguarded(states, shift), 0.0 * shift)

    n = graph.n
    es = eigensystem_for(graph)
    times = np.linspace(0.0, 2.0, 11)
    x0 = np.exp(1j * initial_phases(n, 3))
    prop = Propagator(es, gamma, times)
    assert prop.system is es and prop.terms is None
    states, shift = propagate(prop, x0)
    assert states.shape == (times.size, n)
    assert np.array_equal(states[0], x0)  # the t = 0 sample is x0 itself
    want_shift = times * max(gamma * (n - 1), -gamma) if guard else 0.0 * times
    assert np.array_equal(shift, want_shift)
    for route in (cdt_eigensystem(ring_generating_vector(n, n // 2)),
                  eigendecompose_symmetric(graph)):
        want, route_shift = propagate(Propagator(route, gamma, times), x0)
        assert np.abs(shift - route_shift).max() <= 1e-12 * max(1.0, np.abs(shift).max())
        assert np.abs(states - want).max() <= 1e-12 * np.abs(want).max()
        assert _wrapped_gap(np.angle(states), np.angle(want)) <= 1e-12


@pytest.mark.parametrize("gamma", [0.7, -0.4])
def test_complete_route_amplitudes_match_unguarded_oracle(gamma):
    graph = gen_complete(200)
    cfg = SimulationConfig(graph=graph, kappa=gamma * np.pi / 2, dt=1e-3, t_end=1.0)
    theta0 = initial_phases(200, 4)
    x0 = np.exp(1j * theta0)
    oracle = -np.log(np.abs(apply_propagator(eigendecompose_symmetric(graph), cfg.gamma, 1.0, x0)))
    for guard in (True, False):
        if guard:
            values, shift = analytic_amplitudes(eigensystem_for(graph), cfg, theta0, 1.0)
        else:
            values, shift = -np.log(np.abs(apply_propagator(eigensystem_for(graph), cfg.gamma,
                                                            1.0, x0))), 0.0
        assert shift == (max(gamma * 199, -gamma) if guard else 0.0)
        assert np.abs(values - shift - oracle).max() <= 1e-12 * np.abs(oracle).max()


def test_complete_route_overflow():
    es = eigensystem_for(gen_complete(200))
    x0 = np.ones(200, dtype=complex)
    with pytest.raises(SpectralError, match="enable the overflow guard"):
        unguarded(*Propagator(es, 1.0, [0.0, 10.0])(x0))
    x = Propagator(es, 1.0, [10.0])(x0)[0][0]
    assert np.abs(x - 1.0).max() <= 1e-15  # the uniform mode, rescaled to 1
    # repulsive coupling: the guard divides by e^{gamma * t} instead
    states, shift = Propagator(es, -30.0, [0.0, 10.0])(np.exp(1j * np.arange(200.0)))
    assert shift[-1] == 300.0 and np.all(np.isfinite(states))


def test_complete_route_holds_no_state_sized_factors():
    es = eigensystem_for(gen_complete(200))
    times = np.linspace(0.0, 1.0, 1001)
    prop, _, kept = _peak_and_kept_bytes(lambda: Propagator(es, 0.5, times))
    assert prop.terms is None
    # two factor vectors and the shift, against 16 * n * samples for FFT factors
    assert kept <= 4 * 8 * times.size


# ---------------------------------------------------------------------- I/O

def test_spectrum_csv_round_trip(tmp_path):
    vals = cdt_eigenvalues(ring_generating_vector(7, 2))
    path = tmp_path / "spec.csv"
    write_spectrum_csv(vals, path)
    text = path.read_text()
    assert text.startswith("lambda_re,lambda_im\n")
    back = read_spectrum_csv(path)
    assert np.array_equal(back, vals)
