"""Phase wrapping, integration, the closed-form trajectory, and order parameter."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import eigh_oracle
from kurasim import dynamics, spectral
from kurasim.dynamics import (
    IntegrationError,
    SimulationConfig,
    Trajectory,
    analytic_amplitudes,
    analytic_trajectory,
    coupling_kernel,
    initial_phases,
    integrate_numerical,
    km_rhs,
    order_parameter,
    read_trajectory_csv,
    simulate,
    step_states,
    wrap_phase,
    write_trajectory_csv,
)
from kurasim.experiments import _sweep_task
from kurasim.graphs import (gen_complete, gen_erdos_renyi, gen_ring,
                            gen_watts_strogatz, read_edge_list, write_edge_list)
from kurasim.spectral import Propagator, eigenvalues_symmetric, unguarded

K3 = gen_complete(3)


def _cfg(**kw):
    base = dict(graph=K3, kappa=1.0, dt=1e-3, t_end=1.0, seed=0)
    base.update(kw)
    return SimulationConfig(**base)


# ------------------------------------------------------------------ wrapping

def test_wrap_examples():
    assert wrap_phase(0.0) == 0.0
    assert wrap_phase(3 * np.pi / 2) == pytest.approx(-np.pi / 2, abs=1e-15)
    assert wrap_phase(-np.pi) == np.pi
    assert wrap_phase(np.pi) == np.pi


@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_wrap_range_and_idempotence(x):
    w = wrap_phase(x)
    assert -np.pi < w <= np.pi
    assert wrap_phase(w) == w


def test_wrap_elementwise_and_scalar_types():
    arr = np.array([[0.0, 4.0], [-4.0, 9.0]])
    w = wrap_phase(arr)
    assert w.shape == arr.shape
    assert isinstance(wrap_phase(1.0), float)


def test_wrap_rejects_non_finite():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            wrap_phase(bad)
    with pytest.raises(ValueError):
        wrap_phase(np.array([0.0, np.nan]))


# ------------------------------------------------------------ initial phases

def test_initial_phases_deterministic():
    assert np.array_equal(initial_phases(50, 3), initial_phases(50, 3))
    assert not np.array_equal(initial_phases(50, 3), initial_phases(50, 4))


def test_initial_phases_range():
    th = initial_phases(1000, 0)
    assert np.all(th > -np.pi)
    assert np.all(th <= np.pi)
    assert initial_phases(1, 9).shape == (1,)


def test_initial_phases_moments():
    # uniform on (-pi, pi]: mean 0 (sigma_mean = pi/sqrt(3n)), var pi^2/3
    th = initial_phases(10_000, 1)
    assert abs(th.mean()) < 4 * np.pi / np.sqrt(3 * 10_000)
    assert abs(th.var() - np.pi**2 / 3) < 0.12


def test_initial_phases_rejects_bad_n():
    with pytest.raises(ValueError):
        initial_phases(0, 0)


# --------------------------------------------------------------------- rhs

def test_rhs_two_node_pull():
    cfg = SimulationConfig(graph=gen_ring(2, 1), kappa=1.0, dt=0.1, t_end=1.0)
    d = km_rhs(np.array([0.0, np.pi / 2]), cfg)
    assert np.allclose(d, [1.0, -1.0], atol=1e-14)


def test_rhs_synchronized_state_is_fixed_point():
    d = km_rhs(np.full(3, 0.7), _cfg())
    assert np.abs(d).max() < 1e-14


def test_rhs_splay_state_leaves_only_drift():
    cfg = _cfg(omega=0.3)
    d = km_rhs(2 * np.pi * np.arange(3) / 3, cfg)
    assert np.allclose(d, 0.3, atol=1e-14)


FAMILIES = {
    "ring": gen_ring(40, 3),
    "complete": gen_complete(40),
    "er": gen_erdos_renyi(40, 0.2, 3),
    "ws": gen_watts_strogatz(40, 4, 0.2, 3),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_coupling_kernel_matches_complex_oracle(family):
    graph = FAMILIES[family]
    kernel = coupling_kernel(graph)
    batch = np.array([initial_phases(graph.n, s) for s in range(4)])
    for theta in (batch[0], batch):
        z = np.exp(1j * theta)
        # sum_j a_ij sin(theta_j - theta_i) = Im(conj(z_i) (A z)_i); A is symmetric
        oracle = np.imag(np.conj(z) * (z @ graph.entries))
        got, _ = kernel(theta)
        assert got.shape == theta.shape
        assert np.abs(got - oracle).max() < 1e-12


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("integrator", ["euler", "rk4"])
def test_phase_sum_conservation(family, integrator):
    # the coupling is antisymmetric in (i, j), so sum_i theta_i' = n * omega
    graph = FAMILIES[family]
    omega = 2 * np.pi * 10
    cfg = SimulationConfig(graph=graph, kappa=0.5, omega=omega, dt=1e-3, t_end=0.1,
                           integrator=integrator)
    theta0 = np.array([initial_phases(graph.n, s) for s in range(3)])
    assert np.abs(km_rhs(theta0[0], cfg).sum() - graph.n * omega) < 1e-9
    for step, state, _ in step_states(cfg, theta0):
        drift = state.sum(axis=-1) - theta0.sum(axis=-1) - graph.n * omega * step * cfg.dt
        assert np.abs(drift).max() < 1e-9


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("integrator", ["euler", "rk4"])
def test_step_states_hands_over_the_order_parameter(family, integrator):
    graph = FAMILIES[family]
    cfg = SimulationConfig(graph=graph, kappa=0.5, omega=3.0, dt=1e-3, t_end=0.05,
                           integrator=integrator)
    batch = np.array([initial_phases(graph.n, s) for s in range(3)])
    for theta0 in (batch, batch[1]):
        steps = list(step_states(cfg, theta0))
        assert [s for s, *_ in steps] == list(range(cfg.n_steps + 1))
        assert np.array_equal(steps[0][1], theta0)
        for step, state, sums in steps:
            if not graph.is_complete or step == cfg.n_steps:
                assert sums is None
                continue
            # the mean-field sums, with the axis kept, are n times r of the state
            assert np.shape(sums[0]) == np.shape(sums[1]) == (*theta0.shape[:-1], 1)
            r = (sums[0] + 1j * sums[1])[..., 0] / graph.n
            assert np.abs(r - order_parameter(state)).max() <= 1e-13


@pytest.mark.parametrize("integrator", ["euler", "rk4"])
def test_kappa_column_steps_each_row_as_alone(integrator):
    # on the mean-field kernel a row of a batch is bit for bit the run of its own kappa
    graph = gen_complete(7)
    kappas = [0.5, 1.0, 2.0]
    cfg = SimulationConfig(graph=graph, kappa=0.0, omega=3.0, dt=1e-3, t_end=0.05,
                           integrator=integrator)
    theta0 = np.array([initial_phases(7, s) for s in range(3)])
    batch = list(step_states(cfg, theta0, kappa=np.array(kappas)[:, None]))
    for row, kappa in enumerate(kappas):
        alone = SimulationConfig(graph=graph, kappa=kappa, omega=3.0, dt=1e-3, t_end=0.05,
                                 integrator=integrator)
        # the row alone as a batch of one, which hands over its sums as the column does
        one = slice(row, row + 1)
        for (_, state, sums), (_, state_1, sums_1) in zip(batch, step_states(alone, theta0[one]),
                                                          strict=True):
            assert np.array_equal(state[one], state_1)
            assert (sums is None) == (sums_1 is None)
            if sums is not None:
                assert np.array_equal(sums[0][one], sums_1[0])
                assert np.array_equal(sums[1][one], sums_1[1])
    with pytest.raises(ValueError, match="broadcast"):
        next(step_states(cfg, theta0, kappa=np.ones((2, 1))))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 7), integrator=st.sampled_from(["euler", "rk4"]),
       kappa=st.floats(-20.0, 20.0).filter(lambda k: k != 0.0),
       omega=st.floats(-100.0, 100.0).filter(lambda w: w != 0.0),
       steps=st.integers(0, 40), record_every=st.integers(1, 50), seed=st.integers(0, 2**32 - 1))
def test_short_complete_row_steps_as_its_numpy_batch(n, integrator, kappa, omega, steps,
                                                      record_every, seed):
    # one row of fewer than 8 phases on K_n takes Euler steps as Python floats
    # and RK4 steps through numpy, the same state as a (1, n) batch: the states
    # are bit for bit equal, and only the batch hands over sums under Euler
    cfg = SimulationConfig(graph=gen_complete(n), kappa=kappa, omega=omega, dt=1e-2,
                           t_end=steps * 1e-2, integrator=integrator, record_every=record_every)
    theta0 = initial_phases(n, seed)
    row, batch = integrate_numerical(cfg, theta0), integrate_numerical(cfg, theta0[None])
    assert np.array_equal(row.states, batch.states[:, 0])
    for (_, state, sums), (_, state_1, _) in zip(step_states(cfg, theta0),
                                                  step_states(cfg, theta0[None]), strict=True):
        assert np.array_equal(state, state_1[0])
        assert sums is None or integrator == "rk4"


def test_step_states_order_with_no_steps():
    # theta0 alone, with no sums, on the float row and the numpy batch alike;
    # the sweep then reads r from order_parameter
    theta0 = initial_phases(3, 2)
    for integrator in ("euler", "rk4"):
        cfg = _cfg(t_end=0.0, integrator=integrator)
        for theta in (theta0, theta0[None]):
            ((step, state, sums),) = step_states(cfg, theta)
            assert step == 0 and np.array_equal(state, theta) and sums is None
    (row,) = _sweep_task((3, [1.0], [2], 1e-3, 0.0))
    assert row[1] == abs(order_parameter(theta0)) and row[2] == 0.0


# -------------------------------------------------------------- integration

def test_zero_coupling_freezes_state():
    th0 = initial_phases(3, 5)
    traj = integrate_numerical(_cfg(kappa=0.0), th0)
    assert np.array_equal(traj.states, np.tile(wrap_phase(th0), (len(traj.times), 1)))


@pytest.mark.parametrize("integrator", ["euler", "rk4"])
def test_zero_coupling_with_drift_is_linear(integrator):
    omega = 2 * np.pi * 10
    th0 = initial_phases(3, 5)
    cfg = _cfg(kappa=0.0, omega=omega, integrator=integrator, record_every=100)
    traj = integrate_numerical(cfg, th0)
    expect = wrap_phase(th0[None, :] + omega * traj.times[:, None])
    assert np.abs(wrap_phase(traj.states - expect)).max() < 1e-9


def test_euler_rk4_cross_check():
    th0 = initial_phases(3, 7)
    cfg_e = _cfg(seed=7, omega=2 * np.pi * 10)
    cfg_r = _cfg(seed=7, omega=2 * np.pi * 10, integrator="rk4")
    a = integrate_numerical(cfg_e, th0)
    b = integrate_numerical(cfg_r, th0)
    assert np.abs(wrap_phase(a.states - b.states)).max() < 1e-3


def test_integration_aborts_on_non_finite():
    # a row of K3 or K5 steps as Python floats, the same state as a (1, n) batch
    # through numpy: both stop at the same step, and the row lets out neither the
    # ValueError of math.cos(inf) nor a warning
    for n in (3, 5):
        for integrator in ("euler", "rk4"):
            cfg = _cfg(graph=gen_complete(n), kappa=1e308, integrator=integrator)
            theta0 = initial_phases(n, 0)
            with pytest.raises(IntegrationError, match="step") as batch:
                integrate_numerical(cfg, theta0[None])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(IntegrationError) as row:
                    integrate_numerical(cfg, theta0)
            assert str(row.value) == str(batch.value)


def test_non_finite_state_is_reported_without_numpy_warnings():
    # the overflow that makes a state non-finite warns nowhere: the error is all
    cfg = _cfg(graph=gen_erdos_renyi(20, 0.5, 0), kappa=1.7e308, t_end=2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationError, match="non-finite state at step 1$"):
            integrate_numerical(cfg, initial_phases(20, 0))
        with pytest.raises(IntegrationError, match="non-finite state at step 1$"):
            _sweep_task((20, [1.7e308], [0, 1], 1e-3, 0.01))


def _first_non_finite_step(cfg, theta0, kappa):
    """The Euler step after which some phase is first non-finite, checked on every phase."""
    kernel, state = coupling_kernel(cfg.graph), theta0
    for step in range(1, cfg.n_steps + 1):
        state = state + cfg.dt * (cfg.omega + kappa * kernel(state)[0])
        if not np.isfinite(state).all():
            return step
    return None


@pytest.mark.parametrize("graph", [gen_complete(5), gen_ring(6, 1), K3],
                         ids=["mean-field", "dense", "K3"])
@pytest.mark.parametrize("t_end", [40.0, 18.0])
def test_non_finite_state_is_reported_at_its_step(graph, t_end):
    # omega * dt = 1e307 per step overflows after 17 steps, under RK4 as under
    # Euler; at t_end = 18 the overflow is on the last step, which has no
    # mean-field sums to check. A row of K3 or K5 steps as Python floats and
    # raises like the batches, with no ValueError or warning of its own.
    theta0 = np.array([initial_phases(graph.n, s) for s in range(3)])
    kappa = np.array([[0.5], [1.0], [2.0]])
    for integrator in ("euler", "rk4"):
        cfg = SimulationConfig(graph=graph, kappa=1.0, omega=1e307, dt=1.0, t_end=t_end,
                               integrator=integrator)
        with np.errstate(over="ignore", invalid="ignore"), warnings.catch_warnings():
            warnings.simplefilter("error")
            want = _first_non_finite_step(cfg, theta0, kappa) if integrator == "euler" else 18
            assert want == 18
            for theta, k in ((theta0, kappa), (theta0[1:2], None), (theta0[1], None)):
                with pytest.raises(IntegrationError, match=f"at step {want}$"):
                    for _ in step_states(cfg, theta, kappa=k):
                        pass


def test_record_grid_includes_final_step():
    cfg = _cfg(dt=0.1, t_end=1.0, record_every=3)
    assert cfg.record_steps().tolist() == [0, 3, 6, 9, 10]
    traj = integrate_numerical(cfg, initial_phases(3, 0))
    assert np.allclose(traj.times, [0.0, 0.3, 0.6, 0.9, 1.0], atol=1e-15)
    assert traj.states.shape == (5, 3)


@pytest.mark.parametrize("graph, exact", [(K3, True), (gen_complete(200), True),
                                          (gen_erdos_renyi(40, 0.3, 2), False)],
                         ids=["K3", "K200", "er40"])
@pytest.mark.parametrize("integrator", ["euler", "rk4"])
def test_batch_matches_single_seed_runs(graph, exact, integrator):
    # the mean-field kernel works row by row, so a row of a batch is bit for bit
    # its own run; the dense kernel's matrix product may sum in another order
    cfg = SimulationConfig(graph=graph, kappa=2.0, omega=3.0, dt=1e-3, t_end=0.2,
                           integrator=integrator, record_every=7)
    theta0 = np.array([initial_phases(graph.n, s) for s in range(4)])
    batch = integrate_numerical(cfg, theta0)
    assert batch.states.shape == (cfg.record_steps().size, 4, graph.n)
    assert batch.n == graph.n
    for row in range(4):
        alone = integrate_numerical(cfg, theta0[row])
        assert np.array_equal(batch.times, alone.times)
        if exact:
            assert np.array_equal(batch.states[:, row], alone.states)
        else:
            gap = np.abs(wrap_phase(batch.states[:, row] - alone.states)).max()
            assert gap <= 1e-12 * np.abs(alone.states).max()
    for bad in (theta0[:, 1:], theta0[None]):
        with pytest.raises(ValueError, match="does not match graph size"):
            integrate_numerical(cfg, bad)


def test_config_validation():
    with pytest.raises(ValueError):
        _cfg(dt=-1e-3)
    with pytest.raises(ValueError):
        _cfg(dt=0.3)  # 1.0 is not a multiple of 0.3
    with pytest.raises(ValueError):
        _cfg(integrator="heun")
    with pytest.raises(ValueError):
        _cfg(record_every=0)
    with pytest.raises(ValueError):
        _cfg(kappa=np.nan)
    with pytest.raises(ValueError):
        integrate_numerical(_cfg(), np.zeros(4))


def test_gamma_rescaling():
    assert _cfg(kappa=1.0).gamma == 2.0 / math.pi
    assert _cfg(kappa=0.0).gamma == 0.0


# ---------------------------------------------------------- analytic route

def test_analytic_t0_row_is_bit_exact():
    th0 = initial_phases(3, 2)
    traj = analytic_trajectory(_cfg(seed=2), th0)
    assert np.array_equal(traj.states[0], wrap_phase(th0))


def test_analytic_readout_memory_is_bounded():
    # the phases are read out in place: the complex states plus one
    # (samples, n) float array, where moduli, angles, the drift add-back and
    # the wrapped copy each took a float array of their own
    graph = gen_complete(200)
    cfg = SimulationConfig(graph=graph, kappa=0.03, omega=5.0, dt=1e-3, t_end=1.0)
    theta0 = initial_phases(200, 0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        traj = analytic_trajectory(cfg, theta0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # measured 24.2 bytes per node and sample (48.1 with a copy per step)
    assert peak <= 26 * traj.states.size


def test_fft_route_memory_is_bounded():
    # the Fourier product is applied in place: the (n, samples) factors and
    # one complex array, where the product and the inverse FFT took one each
    graph = gen_ring(200, 5)
    cfg = SimulationConfig(graph=graph, kappa=0.03, omega=5.0, dt=1e-3, t_end=1.0)
    theta0 = initial_phases(200, 0)
    assert graph.generating_vector() is not None and not graph.is_complete
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        traj = analytic_trajectory(cfg, theta0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert traj.diagnostics["route"] == "cdt"
    # measured 32.8 bytes per node and sample
    assert peak <= 34 * traj.states.size


def test_analytic_synchronized_state_is_stationary():
    th0 = np.full(3, -1.2)
    traj = analytic_trajectory(_cfg(), th0)
    assert np.abs(traj.states - (-1.2)).max() < 1e-12


def test_analytic_zero_coupling_restores_drift_exactly():
    omega = 2 * np.pi * 10
    th0 = initial_phases(3, 4)
    cfg = _cfg(kappa=0.0, omega=omega, record_every=250)
    traj = analytic_trajectory(cfg, th0)
    expect = wrap_phase(th0[None, :] + omega * traj.times[:, None])
    assert np.abs(wrap_phase(traj.states - expect)).max() < 1e-12


def test_analytic_sampling_is_step_free():
    # the same physical time gives the same row regardless of grid spacing
    th0 = initial_phases(3, 6)
    coarse = analytic_trajectory(_cfg(dt=0.4, t_end=0.8), th0)
    fine = analytic_trajectory(_cfg(dt=0.2, t_end=0.8), th0)
    assert np.abs(coarse.states[1] - fine.states[2]).max() < 1e-10
    assert np.abs(coarse.states[2] - fine.states[4]).max() < 1e-10


def _linear_regime_graph(family, tmp_path):
    if family == "edge_list":
        path = tmp_path / "graph.edges"
        write_edge_list(gen_watts_strogatz(50, 3, 0.3, 5), path)
        return read_edge_list(path)
    return {"er": lambda: gen_erdos_renyi(60, 0.3, 1),
            "ws": lambda: gen_watts_strogatz(60, 4, 0.2, 2),
            "ring": lambda: gen_ring(40, 3),
            "complete": lambda: gen_complete(30)}[family]()


@pytest.mark.parametrize("family", ["er", "ws", "ring", "complete", "edge_list"])
def test_routes_agree_in_the_linear_regime(family, tmp_path):
    """Integrator and closed form track each other while gamma*t*max|lambda| <= 0.1.

    To first order in t the two differ only in the coupling rate, kappa
    against gamma = 2*kappa/pi, so node i deviates by (kappa - gamma)*t*|c_i|
    with c_i = sum_j a_ij sin(theta0_j - theta0_i); 25 % covers the next order.
    """
    graph = _linear_regime_graph(family, tmp_path)
    kappa = 1.0
    gamma = 2 * kappa / np.pi
    t_linear = 0.1 / (gamma * float(np.abs(eigenvalues_symmetric(graph).real).max()))
    for seed in range(3):
        theta0 = initial_phases(graph.n, seed)
        cfg = SimulationConfig(graph=graph, kappa=kappa, dt=t_linear / 100,
                               t_end=t_linear, seed=seed)
        dev = np.abs(wrap_phase(integrate_numerical(cfg, theta0).states
                                - analytic_trajectory(cfg, theta0).states)).max()
        c = np.abs((graph.entries * np.sin(theta0[None, :] - theta0[:, None])).sum(axis=1))
        assert dev <= 1.25 * (kappa - gamma) * t_linear * c.max(), (seed, dev)
        assert dev < np.pi / 16


def test_numerical_phase_shift_equivariance():
    th0 = initial_phases(3, 8)
    for c in (-3.0, -1.0, 0.5, 3.0):
        a = integrate_numerical(_cfg(t_end=0.1), th0)
        b = integrate_numerical(_cfg(t_end=0.1), th0 + c)
        assert np.abs(wrap_phase(b.states - a.states - c)).max() < 1e-9


def test_analytic_phase_shift_equivariance():
    th0 = initial_phases(3, 8)
    for c in (-3.0, -1.0, 0.5, 3.0):
        a = analytic_trajectory(_cfg(t_end=0.1), th0)
        b = analytic_trajectory(_cfg(t_end=0.1), th0 + c)
        assert np.abs(wrap_phase(b.states - a.states - c)).max() < 1e-10


# -------------------------------------------------------------- amplitudes

def test_amplitudes_vanish_at_t0():
    th0 = initial_phases(3, 3)
    values, _ = analytic_amplitudes(_cfg(), th0, t=0.0)
    assert np.abs(values).max() < 1e-12


def test_amplitudes_vanish_for_synchronized_state():
    values, _ = analytic_amplitudes(_cfg(), np.full(3, 0.9), t=0.7)
    assert np.abs(values).max() < 1e-12


def test_amplitudes_late_time_mean_projection():
    # guard on: x(t) -> v1 (v1 . x0) = mean(x0) for the complete graph
    g = gen_complete(5)
    th0 = initial_phases(5, 3)
    cfg = SimulationConfig(graph=g, kappa=1.0, dt=1e-3, t_end=1.0, seed=3)
    values, _ = analytic_amplitudes(cfg, th0, t=20.0)
    expect = -np.log(np.abs(np.exp(1j * th0).mean()))
    assert np.abs(values - expect).max() < 1e-8


def test_amplitudes_report_the_guard_shift():
    # Lanczos route, guard on: values - shift are the unguarded -ln|x_i(t)|
    g = gen_watts_strogatz(80, 4, 0.2, 3)
    th0 = initial_phases(80, 2)
    cfg = SimulationConfig(graph=g, kappa=1.0, dt=1e-3, t_end=1.0, seed=2)
    values, shift = analytic_amplitudes(cfg, th0, t=2.5)
    ref = -np.log(np.abs(unguarded(*eigh_oracle(g, cfg.gamma, [2.5], np.exp(1j * th0)))[0]))
    assert shift > 0.0
    assert np.abs(values - shift - ref).max() < 1e-9


# ----------------------------------------------------------- order parameter

def test_order_parameter_identities():
    assert order_parameter(np.full(4, 0.8)) == pytest.approx(np.exp(0.8j), abs=1e-15)
    assert abs(order_parameter(np.array([0.0, np.pi]))) < 1e-16
    for n in range(3, 9):
        assert abs(order_parameter(2 * np.pi * np.arange(n) / n)) < 1e-12


def test_order_parameter_wrap_invariance():
    th = initial_phases(100, 2)
    shifted = th + 2 * np.pi * np.array([3, -2] * 50)
    assert abs(order_parameter(th) - order_parameter(shifted)) < 1e-13


def test_order_parameter_batched():
    states = np.stack([np.zeros(4), np.array([0.0, np.pi, 0.0, np.pi])])
    r = order_parameter(states)
    assert r.shape == (2,)
    assert abs(r[0]) == pytest.approx(1.0, abs=1e-15)
    assert abs(r[1]) < 1e-16


# ------------------------------------------------------------- entry point

def _refuse(*args, **kwargs):
    raise AssertionError("a step or a sample was evaluated")


@pytest.mark.parametrize("kw, method, error, match", [
    # (|omega| + |kappa| * max degree) * t_end = 2e300 rad
    (dict(kappa=1e300), "numerical", ValueError, "max degree.*float resolution"),
    (dict(omega=1e300), "analytic", ValueError, r"\|omega\| \* t_end.*float resolution"),
    # dt * |kappa| * n = 2.4 on K200, past Euler's 2; 2.8 past RK4's 2.785
    (dict(graph=gen_complete(200), kappa=12.0), "numerical", IntegrationError,
     "euler stability bound 2.0$"),
    (dict(graph=gen_complete(200), kappa=-14.0, integrator="rk4"), "numerical",
     IntegrationError, "rk4 stability bound 2.785$"),
    (dict(), "exact", ValueError, "unknown method"),
])
def test_simulate_rejects_a_run_before_any_step_or_sample(monkeypatch, kw, method, error, match):
    monkeypatch.setattr(dynamics, "integrate_numerical", _refuse)
    monkeypatch.setattr(Propagator, "__call__", _refuse)
    with pytest.raises(error, match=match):
        simulate(_cfg(**kw), method)


@pytest.mark.parametrize("graph", [gen_complete(200), gen_watts_strogatz(50, 4, 0.2, 3)],
                         ids=["complete", "ws"])
@pytest.mark.parametrize("integrator", ["euler", "rk4"])
def test_simulate_runs_the_seeded_state_and_reports_its_stability(graph, integrator):
    cfg = _cfg(graph=graph, kappa=-0.5, seed=5, t_end=0.1, integrator=integrator)
    theta0 = initial_phases(graph.n, 5)
    traj = simulate(cfg)
    want = integrate_numerical(cfg, theta0)
    assert np.array_equal(traj.states, want.states) and traj.source == "numerical"
    rho = graph.n if graph.is_complete else 2 * int(graph.degrees().max())
    assert traj.diagnostics == {"step_stability": 1e-3 * 0.5 * rho}
    ana = simulate(cfg, "analytic")
    want = analytic_trajectory(cfg, theta0)
    assert np.array_equal(ana.states, want.states) and ana.diagnostics == want.diagnostics


def test_simulate_passes_a_step_on_its_stability_bound():
    # dt * kappa * n = 1e-3 * 10 * 200 = 2.0, exactly Euler's bound
    traj = simulate(_cfg(graph=gen_complete(200), kappa=10.0, t_end=0.01))
    assert traj.diagnostics == {"step_stability": 2.0}


# ---------------------------------------------------------------------- I/O

def test_trajectory_csv_round_trip(tmp_path):
    th0 = initial_phases(3, 1)
    cfg = _cfg(seed=1, record_every=100)
    traj = integrate_numerical(cfg, th0)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, cfg, path)
    back, meta = read_trajectory_csv(path)
    assert np.array_equal(back.times, traj.times)
    assert np.array_equal(back.states, traj.states)
    assert meta["source"] == "numerical"
    assert meta["config"]["seed"] == 1
    assert meta["config"]["integrator"] == "euler"
    assert meta["config"]["graph"]["kind"] == "complete"


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(times=np.array([0.0, 0.0]), states=np.zeros((2, 3)), source="numerical")
    with pytest.raises(ValueError):
        Trajectory(times=np.array([0.0, 1.0]), states=np.zeros((3, 3)), source="numerical")
