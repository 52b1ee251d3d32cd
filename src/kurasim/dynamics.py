"""Kuramoto dynamics: the sine-coupled ODE and its linear-system counterpart.

The numerical side integrates theta_i' = omega + kappa * sum_j a_ij *
sin(theta_j - theta_i) with fixed-step Euler or RK4, one state row or a
batch of rows at a time, through a coupling kernel chosen once per graph.
The analytic side exponentiates x = e^{i*theta} through the adjacency
eigensystem with the rescaled coupling gamma = 2*kappa/pi, takes
arguments, and restores the omega*t drift that the rotating frame removed.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._text import fmt
from .graphs import AdjacencyMatrix
from .seeding import rng_for
from .spectral import EigenSystem, propagate, propagator_exponents

__all__ = [
    "IntegrationError",
    "SimulationConfig",
    "Trajectory",
    "AmplitudeResult",
    "wrap_phase",
    "initial_phases",
    "coupling_kernel",
    "km_rhs",
    "step_states",
    "integrate_numerical",
    "analytic_trajectory",
    "analytic_amplitudes",
    "order_parameter",
    "write_trajectory_csv",
    "read_trajectory_csv",
]

TWO_PI = 2.0 * math.pi


class IntegrationError(RuntimeError):
    pass


def wrap_phase(x):
    """Wrap angles to (-pi, pi]; the boundary -pi maps to +pi.

    Idempotent, works elementwise on arrays, rejects non-finite input.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("wrap_phase requires finite input")
    w = np.remainder(arr, TWO_PI)
    w = np.where(w > np.pi, w - TWO_PI, w)
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
        steps = round(self.t_end / self.dt)
        if abs(steps * self.dt - self.t_end) > 1e-9 * max(1.0, self.t_end):
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
    """Sampled phase history: times (s) and one wrapped phase row per sample."""

    times: np.ndarray
    states: np.ndarray
    source: str

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        if self.states.shape[0] != self.times.size:
            raise ValueError("one state row per sample time required")
        if self.times.size > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("sample times must be strictly increasing")

    @property
    def n(self) -> int:
        return self.states.shape[1]


def coupling_kernel(graph: AdjacencyMatrix) -> Callable[[np.ndarray], np.ndarray]:
    """The coupling sum_j a_ij sin(theta_j - theta_i), chosen once per graph.

    The returned function maps states shaped (n,) or (batch, n) to coupling
    terms of the same shape. With c = cos(theta) and s = sin(theta) the sum is
    c_i (A s)_i - s_i (A c)_i. On the complete graph A s and A c are the row
    sums minus the node's own term, and the own terms cancel, so the kernel is
    Kuramoto's mean-field form at O(n) per row. Any other graph takes two real
    matrix products.
    """
    n = graph.n
    if graph.edge_count == n * (n - 1) // 2:  # every pair coupled
        def kernel(theta):
            c, s = np.cos(theta), np.sin(theta)
            return (c * s.sum(axis=-1, keepdims=True)
                    - s * c.sum(axis=-1, keepdims=True))
    else:
        entries = graph.entries

        def kernel(theta):
            c, s = np.cos(theta), np.sin(theta)
            # A is symmetric, so x @ A applies it to every row of a batch
            return c * (s @ entries) - s * (c @ entries)
    return kernel


def km_rhs(theta: np.ndarray, cfg: SimulationConfig) -> np.ndarray:
    """Right-hand side omega + kappa * sum_j a_ij sin(theta_j - theta_i)."""
    return cfg.omega + cfg.kappa * coupling_kernel(cfg.graph)(np.asarray(theta, dtype=float))


def step_states(cfg: SimulationConfig, theta0: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (step, state) after each fixed step from theta0, shaped (n,) or (batch, n).

    States stay unwrapped. Raises IntegrationError with the step index as
    soon as the state turns non-finite.
    """
    theta0 = np.asarray(theta0, dtype=float)
    if theta0.shape[-1:] != (cfg.graph.n,) or theta0.ndim > 2:
        raise ValueError(f"theta0 shape {theta0.shape} does not match graph size {cfg.graph.n}")
    kernel = coupling_kernel(cfg.graph)
    kappa, omega, dt = cfg.kappa, cfg.omega, cfg.dt

    def rhs(theta):
        return omega + kappa * kernel(theta)

    state = theta0.copy()
    for step in range(1, cfg.n_steps + 1):
        if cfg.integrator == "euler":
            state = state + dt * rhs(state)
        else:
            k1 = rhs(state)
            k2 = rhs(state + 0.5 * dt * k1)
            k3 = rhs(state + 0.5 * dt * k2)
            k4 = rhs(state + dt * k3)
            state = state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(state)):
            raise IntegrationError(f"non-finite state at step {step}")
        yield step, state


def integrate_numerical(cfg: SimulationConfig, theta0: np.ndarray) -> Trajectory:
    """Fixed-step integration from theta0; snapshots wrapped only at recording.

    The internal state stays unwrapped so step-size halving studies see a
    smooth trajectory. Aborts with the step index if the state turns
    non-finite.
    """
    theta0 = np.asarray(theta0, dtype=float)
    if theta0.shape != (cfg.graph.n,):
        raise ValueError(f"theta0 shape {theta0.shape} does not match graph size {cfg.graph.n}")
    record = cfg.record_steps()
    out = np.empty((record.size, theta0.size))
    out[0] = theta0
    nxt = 1
    for step, state in step_states(cfg, theta0):
        if nxt < record.size and step == record[nxt]:
            out[nxt] = state
            nxt += 1
    return Trajectory(times=record * cfg.dt, states=wrap_phase(out), source="numerical")


def analytic_trajectory(es: EigenSystem, cfg: SimulationConfig, theta0: np.ndarray,
                        guard: bool = True) -> Trajectory:
    """Closed-form phases arg(V exp(gamma*t*D) V^{-1} e^{i*theta0}) + omega*t.

    Every sample is evaluated directly from t=0, so there is no accumulation
    of stepping error and the sample grid is arbitrary. The overflow guard
    rescales moduli per sample and never changes an argument.
    """
    theta0 = np.asarray(theta0, dtype=float)
    if es.n != cfg.graph.n or theta0.shape != (es.n,):
        raise ValueError("eigensystem, graph and theta0 sizes must agree")
    times = cfg.sample_times()
    factors = np.exp(propagator_exponents(es, cfg.gamma, times, guard))
    states = propagate(es, np.exp(1j * theta0), factors)
    del factors  # one (n, samples) array fewer while the phases are read out
    # np.angle lands in [-pi, pi]; the add-back then re-wraps to (-pi, pi]
    phases = wrap_phase(np.angle(states).T + cfg.omega * times[:, None])
    if times[0] == 0.0:  # exp(i*theta) -> arg round-trip is not bit-exact
        phases[0] = wrap_phase(theta0)
    return Trajectory(times=times, states=phases, source="analytic")


@dataclass(eq=False)
class AmplitudeResult:
    """Log-amplitudes -ln|x_i(t)| with the guard convention that produced them."""

    values: np.ndarray
    t: float
    guard: bool


def analytic_amplitudes(es: EigenSystem, cfg: SimulationConfig, theta0: np.ndarray,
                        t: float, guard: bool = True) -> AmplitudeResult:
    """Imaginary phase components at one time, -ln|x_i(t)| per node.

    With the guard on, values are relative to the dominant mode (shifted by
    t * max_r Re(gamma*lambda_r), gamma*lambda_max*t for gamma >= 0). A
    vanishing |x_i| reports positive infinity.
    """
    theta0 = np.asarray(theta0, dtype=float)
    if es.n != cfg.graph.n or theta0.shape != (es.n,):
        raise ValueError("eigensystem, graph and theta0 sizes must agree")
    expo = propagator_exponents(es, cfg.gamma, np.array([float(t)]), guard)
    x = propagate(es, np.exp(1j * theta0), np.exp(expo[:, 0]))
    with np.errstate(divide="ignore"):
        values = -np.log(np.abs(x))
    return AmplitudeResult(values=values, t=float(t), guard=guard)


def order_parameter(theta: np.ndarray):
    """Complex mean of unit phasors over the last axis; |r| = 1 is full synchrony."""
    arr = np.asarray(theta, dtype=float)
    if arr.shape[-1] < 1:
        raise ValueError("order parameter needs at least one phase")
    return np.exp(1j * arr).mean(axis=-1)


def write_trajectory_csv(traj: Trajectory, cfg: SimulationConfig, path: str | Path,
                         extra_meta: dict | None = None) -> Path:
    """Write "t,theta_0,...,theta_{n-1}" rows plus a JSON sidecar.

    The sidecar (same basename, ".meta" suffix) records the full
    SimulationConfig so a run can be identified and reproduced later.
    """
    path = Path(path)
    header = "t," + ",".join(f"theta_{i}" for i in range(traj.n))
    lines = [header]
    for t, row in zip(traj.times, traj.states):
        lines.append(",".join([fmt(t)] + [fmt(v) for v in row]))
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    meta = {"source": traj.source, "config": cfg.to_dict()}
    if extra_meta:
        meta.update(extra_meta)
    path.with_suffix(".meta").write_text(
        json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="ascii")
    return path


def read_trajectory_csv(path: str | Path):
    """Read a trajectory CSV back; returns (Trajectory, meta dict or None)."""
    path = Path(path)
    lines = path.read_text(encoding="ascii").splitlines()
    if not lines or not lines[0].startswith("t,theta_0"):
        raise ValueError(f"not a trajectory CSV: {path}")
    n = len(lines[0].split(",")) - 1
    times, states = [], []
    for ln in lines[1:]:
        cells = [float(tok) for tok in ln.split(",")]
        if len(cells) != n + 1:
            raise ValueError(f"row with {len(cells) - 1} phases, expected {n}")
        times.append(cells[0])
        states.append(cells[1:])
    meta = None
    meta_path = path.with_suffix(".meta")
    if meta_path.exists():
        meta = json.loads(meta_path.read_text(encoding="ascii"))
    source = meta.get("source", "numerical") if meta else "numerical"
    return Trajectory(np.asarray(times), np.asarray(states), source), meta
