"""Kuramoto dynamics: the sine-coupled ODE and its linear-system counterpart.

The numerical side integrates theta_i' = omega + kappa * sum_j a_ij *
sin(theta_j - theta_i) with fixed-step Euler or RK4, one state row or a
batch of rows at a time, through a coupling kernel chosen once per graph
(a short Euler row on a complete graph steps as Python floats, with numpy's bits).
The analytic side evaluates x(t) = exp(gamma*t*A) e^{i*theta0} with the
rescaled coupling gamma = 2*kappa/pi on the route spectral.Propagator reads
from the graph, takes arguments, and restores the omega*t drift that the rotating
frame removed. simulate checks and runs one seeded config either way.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from functools import reduce
from operator import add
from pathlib import Path

import numpy as np

from ._text import read_json, read_table, write_json, write_table
from .graphs import AdjacencyMatrix
from .seeding import rng_for
from .spectral import Propagator

__all__ = [
    "IntegrationError",
    "SimulationConfig",
    "Trajectory",
    "wrap_phase",
    "initial_phases",
    "coupling_kernel",
    "km_rhs",
    "step_states",
    "integrate_numerical",
    "analytic_trajectory",
    "analytic_amplitudes",
    "simulate",
    "order_parameter",
    "write_trajectory_csv",
    "read_trajectory_csv",
]

TWO_PI = 2.0 * math.pi


class IntegrationError(RuntimeError):
    pass


def wrap_phase(x, out=None):
    """Wrap angles to (-pi, pi]; the boundary -pi maps to +pi.

    Idempotent, works elementwise on arrays, rejects non-finite input.
    out, a float array shaped like x (x itself is allowed), takes the result.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("wrap_phase requires finite input")
    w = np.remainder(arr, TWO_PI, out=np.empty_like(arr) if out is None else out)
    np.subtract(w, TWO_PI, out=w, where=w > np.pi)
    return float(w) if np.isscalar(x) or arr.ndim == 0 else w


def initial_phases(n: int, seed: int) -> np.ndarray:
    """n i.i.d. phases uniform on (-pi, pi], deterministic in seed."""
    if int(n) != n or n < 1:
        raise ValueError(f"node count must be a positive integer, got {n}")
    # rng.random() is uniform on [0, 1); pi - 2*pi*u lands in (-pi, pi]
    u = rng_for(seed, "initial_phases").random(int(n))
    return np.pi - TWO_PI * u


@dataclass(eq=False)
class SimulationConfig:
    """All parameters of one run; gamma is always derived as 2*kappa/pi."""

    graph: AdjacencyMatrix
    kappa: float
    dt: float
    t_end: float
    omega: float = 0.0
    seed: int = 0
    integrator: str = "euler"
    record_every: int = 1

    def __post_init__(self):
        if not np.isfinite(self.kappa):
            raise ValueError(f"kappa must be finite, got {self.kappa}")
        if not np.isfinite(self.omega):
            raise ValueError(f"omega must be finite, got {self.omega}")
        if not (np.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not (np.isfinite(self.t_end) and self.t_end >= 0.0):
            raise ValueError(f"t_end must be >= 0, got {self.t_end}")
        if self.integrator not in ("euler", "rk4"):
            raise ValueError(f"unknown integrator {self.integrator!r}")
        if int(self.record_every) != self.record_every or self.record_every < 1:
            raise ValueError(f"record_every must be a positive integer, got {self.record_every}")
        steps = self.t_end / self.dt
        if not np.isfinite(steps):
            raise ValueError(f"t_end={self.t_end} / dt={self.dt} is not a finite step count")
        if abs(round(steps) * self.dt - self.t_end) > 1e-9 * max(1.0, self.t_end):
            raise ValueError(f"t_end={self.t_end} is not an integer multiple of dt={self.dt}")

    @property
    def gamma(self) -> float:
        return 2.0 * self.kappa / math.pi

    @property
    def n_steps(self) -> int:
        return round(self.t_end / self.dt)

    def record_steps(self) -> np.ndarray:
        steps = np.arange(0, self.n_steps + 1, self.record_every)
        if steps[-1] != self.n_steps:  # the final state is always recorded
            steps = np.append(steps, self.n_steps)
        return steps

    def sample_times(self) -> np.ndarray:
        return self.record_steps() * self.dt

    def to_dict(self) -> dict:
        return {
            "graph": {"kind": self.graph.kind, "n": self.graph.n,
                      "params": dict(self.graph.params)},
            "kappa": self.kappa,
            "omega": self.omega,
            "dt": self.dt,
            "t_end": self.t_end,
            "seed": self.seed,
            "integrator": self.integrator,
            "record_every": self.record_every,
        }


@dataclass(eq=False)
class Trajectory:
    """Sampled phase history: times (s) and the wrapped phases per sample.

    states is shaped (samples, n), or (samples, batch, n) for a batch of
    initial states integrated together; the CSV writer and
    compare_trajectories take single runs.

    Diagnostics: the closed form's on an analytic trajectory (see
    analytic_trajectory), step_stability on a numerical run of simulate.
    """

    times: np.ndarray
    states: np.ndarray
    source: str
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        if self.states.shape[0] != self.times.size:
            raise ValueError("one state row per sample time required")
        if self.times.size > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("sample times must be strictly increasing")

    @property
    def n(self) -> int:
        return self.states.shape[-1]


def coupling_kernel(graph: AdjacencyMatrix) -> Callable[[np.ndarray], tuple]:
    """theta -> (coupling, sums), the coupling sum_j a_ij sin(theta_j - theta_i).

    The returned function maps states shaped (n,) or (batch, n) to coupling
    terms of the same shape. With c = cos(theta) and s = sin(theta) the sum is
    c_i (A s)_i - s_i (A c)_i. Where every pair is coupled, A s and A c are the
    row sums minus the node's own term, and the own terms cancel, so the
    kernel is Kuramoto's mean-field form at O(n) per row; sums is then
    (sum cos theta, sum sin theta) over the last axis, with the axis kept.
    Any other graph takes two graph.product calls, and sums is None.
    The coupling is a new array each call.
    """
    if graph.is_complete:
        def kernel(theta):
            c, s = np.cos(theta), np.sin(theta)
            sum_c, sum_s = c.sum(axis=-1, keepdims=True), s.sum(axis=-1, keepdims=True)
            c *= sum_s
            s *= sum_c
            return c - s, (sum_c, sum_s)
    else:
        rows = (-1, graph.n)

        def kernel(theta):
            c, s = np.cos(theta), np.sin(theta)
            # one state as a batch of one row: a dense product then applies A
            # to rows (x @ A) for a state and a batch alike
            a_s = graph.product(s.reshape(rows)).reshape(s.shape)
            a_c = graph.product(c.reshape(rows)).reshape(c.shape)
            return c * a_s - s * a_c, None
    return kernel


def km_rhs(theta: np.ndarray, cfg: SimulationConfig) -> np.ndarray:
    """Right-hand side omega + kappa * sum_j a_ij sin(theta_j - theta_i)."""
    coupling, _ = coupling_kernel(cfg.graph)(np.asarray(theta, dtype=float))
    return cfg.omega + cfg.kappa * coupling


# numpy's add.reduce sums a row of fewer than this many values left to right
# from 0.0; from here on its pairwise sum adds eight interleaved partial sums
_FLOAT_ROW_LIMIT = 8


def step_states(cfg: SimulationConfig, theta0: np.ndarray, kappa=None) -> Iterator[tuple]:
    """(step, state, sums) from step 0 (theta0 itself) on; states are (n,) or (batch, n).

    kappa, when given, replaces cfg.kappa: a scalar, or an array that
    broadcasts to the state's shape, such as a (batch, 1) column that gives
    each row its own coupling. On the mean-field kernel every operation is
    elementwise or a sum along a row, so each row of a batch steps bit for
    bit as it would alone; the figure-3 sweep steps all its (kappa, seed)
    pairs this way, as one state.
    sums is the mean-field kernel's (sum cos, sum sin) of state per row,
    with the axis kept, which it evaluates at the start of the next step;
    it is None on other graphs, after the last step and on a Python-float row.
    States stay unwrapped. Raises IntegrationError with the step index as
    soon as the state turns non-finite. On the mean-field kernel that is
    read from sum cos(theta) per row, which is non-finite exactly when a
    phase of the row is, except after the last step, where no sums exist.
    A single finite row of fewer than 8 phases on a complete graph, with a
    scalar kappa, takes Euler steps as Python floats (_float_steps), with the
    same bits.
    """
    theta0 = np.asarray(theta0, dtype=float)
    if theta0.shape[-1:] != (cfg.graph.n,) or theta0.ndim > 2:
        raise ValueError(f"theta0 shape {theta0.shape} does not match graph size {cfg.graph.n}")
    kappa = cfg.kappa if kappa is None else np.asarray(kappa, dtype=float)
    np.broadcast_to(kappa, theta0.shape)  # raises ValueError where kappa does not fit
    if (cfg.integrator == "euler" and cfg.graph.is_complete and cfg.graph.n < _FLOAT_ROW_LIMIT
            and theta0.ndim == 1 and np.ndim(kappa) == 0 and np.isfinite(theta0).all()):
        return _float_steps(cfg, theta0, float(kappa))
    return _array_steps(cfg, theta0, kappa)


def _array_steps(cfg: SimulationConfig, theta0: np.ndarray, kappa) -> Iterator[tuple]:
    """step_states through numpy, sums those of coupling_kernel or None."""
    kernel = coupling_kernel(cfg.graph)
    omega, dt, n_steps = cfg.omega, cfg.dt, cfg.n_steps

    def stage(theta):
        slope, sums = kernel(theta)
        slope *= kappa
        slope += omega
        return slope, sums

    def rhs(theta):
        return stage(theta)[0]

    state = theta0.copy()
    # the first stage of each step is evaluated as soon as its state exists
    slope, sums = stage(state) if n_steps else (None, None)
    yield 0, state, sums
    for step in range(1, n_steps + 1):
        if cfg.integrator == "euler":
            state = state + dt * slope
        else:
            k1 = slope
            k2 = rhs(state + 0.5 * dt * k1)
            k3 = rhs(state + 0.5 * dt * k2)
            k4 = rhs(state + dt * k3)
            state = state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        slope, sums = stage(state) if step < n_steps else (None, None)
        if not np.isfinite(state if sums is None else sums[0]).all():
            raise IntegrationError(f"non-finite state at step {step}")
        yield step, state, sums


def _float_steps(cfg: SimulationConfig, theta0: np.ndarray, kappa: float) -> Iterator[tuple]:
    """Euler _array_steps for one row of a complete graph of fewer than _FLOAT_ROW_LIMIT nodes.

    The state is a list of Python floats, and every value is computed by the
    operation, in the order, that the mean-field kernel and _array_steps
    apply elementwise, with sums left to right from 0.0 as numpy's below
    _FLOAT_ROW_LIMIT values. So the states are numpy's bit for bit, at a
    fraction of numpy's per-call cost on a few values. sums is None.
    """
    omega, dt, n_steps = cfg.omega, cfg.dt, cfg.n_steps
    cos, sin = math.cos, math.sin

    def stage(theta):
        c, s = list(map(cos, theta)), list(map(sin, theta))
        sum_c, sum_s = reduce(add, c, 0.0), reduce(add, s, 0.0)
        return [(ci * sum_s - si * sum_c) * kappa + omega for ci, si in zip(c, s)], sum_c

    state = theta0.tolist()
    slope, sum_c = stage(state) if n_steps else (None, None)
    yield 0, theta0.copy(), None
    for step in range(1, n_steps + 1):
        try:
            state = [x + dt * v for x, v in zip(state, slope)]
            slope, sum_c = stage(state) if step < n_steps else (None, None)
        except ValueError:  # math.cos of an infinite phase, where np.cos gives nan
            raise IntegrationError(f"non-finite state at step {step}") from None
        if not (math.isfinite(sum_c) if step < n_steps else all(map(math.isfinite, state))):
            raise IntegrationError(f"non-finite state at step {step}")
        yield step, np.array(state), None


def integrate_numerical(cfg: SimulationConfig, theta0: np.ndarray) -> Trajectory:
    """Fixed-step integration from theta0; snapshots wrapped only at recording.

    theta0 is shaped (n,) or (batch, n), as step_states takes it, and the
    states are recorded shaped (samples, *theta0.shape). The internal state
    stays unwrapped so step-size halving studies see a smooth trajectory.
    Aborts with the step index if the state turns non-finite.
    """
    theta0 = np.asarray(theta0, dtype=float)
    record = cfg.record_steps()
    out = np.empty((record.size, *theta0.shape))
    nxt = 0
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite step raises instead
        for step, state, _ in step_states(cfg, theta0):
            if nxt < record.size and step == record[nxt]:
                out[nxt] = state
                nxt += 1
    return Trajectory(times=record * cfg.dt, states=wrap_phase(out), source="numerical")


def analytic_trajectory(cfg: SimulationConfig, theta0: np.ndarray) -> Trajectory:
    """Closed-form phases arg(exp(gamma*t*A) e^{i*theta0}) + omega*t on cfg.graph.

    Every sample is evaluated without stepping error, so the sample grid is
    arbitrary. The overflow guard rescales moduli per sample and never
    changes an argument, so the phases are those of x(t) itself. The
    diagnostics record the route spectral.Propagator read from the graph
    (cdt or lanczos), on the Lanczos route the krylov_dimension m and x0's
    extreme Ritz values as interval, the guard shift at the last sample, and
    the smallest min_i |x_i| / max_j |x_j| over the samples, where the phase
    readout loses meaning as it nears 0.
    """
    theta0 = np.asarray(theta0, dtype=float)
    n = cfg.graph.n
    if theta0.shape != (n,):
        raise ValueError("graph and theta0 sizes must agree")
    times = cfg.sample_times()
    prop = Propagator(cfg.graph, cfg.gamma, times)
    states, shift = prop(np.exp(1j * theta0))
    diagnostics = {"route": prop.route}
    if prop.krylov_dimension is not None:
        diagnostics.update(krylov_dimension=prop.krylov_dimension, interval=prop.interval)
    del prop  # its factors: one (samples, n) array fewer while the phases are read out
    # one (samples, n) array holds the moduli, then the phases, in place
    phases = np.abs(states, out=np.empty((times.size, n)))
    top = phases.max(axis=1)
    relative = np.divide(phases.min(axis=1), top, out=np.zeros_like(top), where=top > 0.0)
    diagnostics.update(guard_shift=float(shift[-1]), min_relative_modulus=float(relative.min()))
    # np.angle's arctan2 lands in [-pi, pi]; the add-back then re-wraps to (-pi, pi]
    np.arctan2(states.imag, states.real, out=phases)
    del states
    phases += cfg.omega * times[:, None]
    wrap_phase(phases, out=phases)
    phases[0] = wrap_phase(theta0)  # exp(i*theta) -> arg round-trip is not bit-exact
    return Trajectory(times=times, states=phases, source="analytic", diagnostics=diagnostics)


def analytic_amplitudes(cfg: SimulationConfig, theta0: np.ndarray,
                        t: float) -> tuple[np.ndarray, float]:
    """Imaginary phase components at one time: (values, shift), as Propagator returns.

    values are -ln of the guarded moduli per node and shift is what the
    guard subtracted from every log-modulus, so -ln|x_i(t)| = values_i - shift
    on whichever route spectral.Propagator reads from cfg.graph. A vanishing
    |x_i| reports positive infinity.
    """
    theta0 = np.asarray(theta0, dtype=float)
    if theta0.shape != (cfg.graph.n,):
        raise ValueError("graph and theta0 sizes must agree")
    states, shift = Propagator(cfg.graph, cfg.gamma, [float(t)])(np.exp(1j * theta0))
    with np.errstate(divide="ignore"):
        values = -np.log(np.abs(states[0]))
    return values, float(shift[0])


# The largest dt*|kappa|*rho(L) at which each fixed step is stable near
# synchrony, where the Jacobian is -kappa*L, L the graph Laplacian: the ends
# of the Euler and RK4 stability regions on the negative real axis.
_STABILITY_LIMITS = {"euler": 2.0, "rk4": 2.785}


def simulate(cfg: SimulationConfig, method: str = "numerical") -> Trajectory:
    """One run of cfg from initial_phases(n, cfg.seed), checked before it starts.

    Raises ValueError where a phase can pass 1/eps, and IntegrationError where
    the fixed step is past its stability bound; a value on a bound passes.
    """
    if method not in ("numerical", "analytic"):
        raise ValueError(f"unknown method {method!r}, expected 'numerical' or 'analytic'")
    graph, numerical = cfg.graph, method == "numerical"
    # the largest phase a run can reach: a node sums at most max-degree coupling
    # terms, and the closed form's phases drift by omega alone
    degree = int(graph.degrees().max()) if numerical else 0
    reach = (abs(cfg.omega) + abs(cfg.kappa) * degree) * cfg.t_end
    if reach > 1.0 / np.finfo(float).eps:
        bound = "(|omega| + |kappa| * max degree)" if numerical else "|omega|"
        raise ValueError(f"{bound} * t_end = {reach:.6g} rad is past float resolution; "
                         "every wrapped phase would be rounding noise")
    theta0 = initial_phases(graph.n, cfg.seed)
    if not numerical:
        return analytic_trajectory(cfg, theta0)
    # rho bounds the Laplacian's spectral radius: n on K_n, where exact, else 2 * max degree
    stability = cfg.dt * abs(cfg.kappa) * (graph.n if graph.is_complete else 2 * degree)
    limit = _STABILITY_LIMITS[cfg.integrator]
    if stability > limit:
        raise IntegrationError(f"dt * |kappa| * rho = {stability:.6g} is past the "
                               f"{cfg.integrator} stability bound {limit}")
    traj = integrate_numerical(cfg, theta0)
    traj.diagnostics = {"step_stability": stability}
    return traj


def order_parameter(theta: np.ndarray):
    """Complex mean of unit phasors over the last axis; |r| = 1 is full synchrony."""
    z = np.asarray(theta, dtype=float) * 1j
    if z.shape[-1] < 1:
        raise ValueError("order parameter needs at least one phase")
    return np.exp(z, out=z).mean(axis=-1)


def write_trajectory_csv(traj: Trajectory, cfg: SimulationConfig, path: str | Path) -> Path:
    """Write "t,theta_0,...,theta_{n-1}" rows plus a JSON sidecar.

    The sidecar (same basename, ".meta" suffix) records the method that
    ran the trajectory (its source) and the SimulationConfig, so a run can
    be identified and reproduced later.
    """
    header = "t," + ",".join(f"theta_{i}" for i in range(traj.n))
    path = write_table(path, header, np.column_stack((traj.times, traj.states)))
    write_json(path.with_suffix(".meta"), {"source": traj.source, "config": cfg.to_dict()})
    return path


def read_trajectory_csv(path: str | Path):
    """Read a trajectory CSV back; returns (Trajectory, meta dict or None)."""
    path = Path(path)
    header, table = read_table(path)
    if not header.startswith("t,theta_0"):
        raise ValueError(f"not a trajectory CSV: {path}")
    meta_path = path.with_suffix(".meta")
    meta = read_json(meta_path) if meta_path.exists() else None
    source = meta.get("source", "numerical") if meta else "numerical"
    return Trajectory(table[:, 0], table[:, 1:], source), meta
