"""Numerical-vs-analytic comparison experiments and their file artifacts.

Each experiment pairs a shared-seed numerical integration with the
closed-form evaluation on the same graph, then reduces the pair to
agreement metrics: wrapped phase deviation and order-parameter series.
The coupling sweep aggregates time-averaged order parameters over a
logarithmic kappa grid.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._text import fmt
from .dynamics import (SimulationConfig, Trajectory, analytic_trajectory,
                       initial_phases, integrate_numerical, order_parameter,
                       step_states, wrap_phase, write_trajectory_csv)
from .graphs import gen_complete, gen_erdos_renyi, gen_watts_strogatz
from .spectral import eigensystem_for, propagate, propagator_exponents

__all__ = [
    "ComparisonReport",
    "SweepResult",
    "FigureOutput",
    "compare_trajectories",
    "run_fig1",
    "run_fig2",
    "run_fig3",
    "run_fig4",
    "write_report_csv",
    "write_sweep_csv",
    "read_sweep_csv",
    "write_pgm",
]

SWEEP_HEADER = "kappa,mean_r_num,std_r_num,mean_r_ana,std_r_ana"
REPORT_HEADER = "t,max_dev,abs_r_num,abs_r_ana"


@dataclass(eq=False)
class ComparisonReport:
    """Agreement metrics between one numerical and one analytic trajectory."""

    times: np.ndarray
    per_time_deviation: np.ndarray
    max_wrapped_deviation: float
    order_param_series_numerical: np.ndarray
    order_param_series_analytic: np.ndarray
    mean_abs_order_gap: float


@dataclass(eq=False)
class SweepResult:
    """Per-kappa time-averaged |r|, aggregated over shared-seed realizations."""

    kappas: np.ndarray
    mean_abs_r_numerical: np.ndarray
    std_numerical: np.ndarray
    mean_abs_r_analytic: np.ndarray
    std_analytic: np.ndarray
    realizations: int
    seeds: list = field(default_factory=list)


@dataclass(eq=False)
class FigureOutput:
    report: ComparisonReport
    numerical: Trajectory
    analytic: Trajectory
    artifacts: list = field(default_factory=list)


def compare_trajectories(a: Trajectory, b: Trajectory) -> ComparisonReport:
    """Per-sample wrapped distances and order-parameter agreement of two runs."""
    if a.states.shape != b.states.shape:
        raise ValueError(f"trajectory shapes differ: {a.states.shape} vs {b.states.shape}")
    if not np.array_equal(a.times, b.times):
        raise ValueError("trajectories must share identical sample times")
    dev = np.abs(wrap_phase(a.states - b.states))
    per_time = dev.max(axis=1)
    r_a = np.abs(order_parameter(a.states))
    r_b = np.abs(order_parameter(b.states))
    return ComparisonReport(
        times=a.times.copy(),
        per_time_deviation=per_time,
        max_wrapped_deviation=float(per_time.max()),
        order_param_series_numerical=r_a,
        order_param_series_analytic=r_b,
        mean_abs_order_gap=float(np.abs(r_a - r_b).mean()),
    )


def write_report_csv(report: ComparisonReport, path: str | Path) -> Path:
    path = Path(path)
    lines = [REPORT_HEADER]
    for t, d, rn, ra in zip(report.times, report.per_time_deviation,
                            report.order_param_series_numerical,
                            report.order_param_series_analytic):
        lines.append(f"{fmt(t)},{fmt(d)},{fmt(rn)},{fmt(ra)}")
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    return path


def write_pgm(states: np.ndarray, path: str | Path) -> Path:
    """Render wrapped phases as a binary 8-bit grayscale PGM raster.

    One pixel per (node, sample): nodes run along the horizontal axis, time
    along the vertical. Phases map linearly from (-pi, pi] to 0..255, so
    values near -pi come out dark and values near +pi come out light.
    """
    path = Path(path)
    arr = np.asarray(states, dtype=float)
    gray = np.rint((arr + np.pi) / (2.0 * np.pi) * 255.0)
    gray = np.clip(gray, 0, 255).astype(np.uint8)
    header = f"P5\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode("ascii")
    path.write_bytes(header + gray.tobytes())
    return path


def _comparison_pair(graph, es, kappa, omega, dt, t_end, seed, guard=True):
    theta0 = initial_phases(graph.n, seed)
    cfg = SimulationConfig(graph=graph, kappa=kappa, omega=omega, dt=dt,
                           t_end=t_end, seed=seed, integrator="euler")
    num = integrate_numerical(cfg, theta0)
    ana = analytic_trajectory(es, cfg, theta0, guard=guard)
    return cfg, num, ana


def _emit_comparison(out_dir, report, num, ana, cfg, rasters):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    artifacts = [write_report_csv(report, out_dir / "report.csv")]
    for traj, name in ((num, "trajectory_numerical"), (ana, "trajectory_analytic")):
        p = write_trajectory_csv(traj, cfg, out_dir / f"{name}.csv",
                                 extra_meta={"method": traj.source})
        artifacts.extend([p, p.with_suffix(".meta")])
    if rasters:
        artifacts.append(write_pgm(num.states, out_dir / "raster_numerical.pgm"))
        artifacts.append(write_pgm(ana.states, out_dir / "raster_analytic.pgm"))
    return artifacts


def run_fig1(seed: int = 0, t_end: float = 1.0, dt: float = 1e-3,
             out_dir=None) -> FigureOutput:
    """Three fully coupled oscillators at kappa=1, omega/2pi = 10 Hz.

    Euler integration against the closed form from shared uniform initial
    conditions; the headline metric is the maximum wrapped deviation.
    """
    graph = gen_complete(3)
    es = eigensystem_for(graph)
    cfg, num, ana = _comparison_pair(graph, es, kappa=1.0, omega=2.0 * math.pi * 10.0,
                                     dt=dt, t_end=t_end, seed=seed)
    report = compare_trajectories(num, ana)
    artifacts = _emit_comparison(out_dir, report, num, ana, cfg, rasters=False) \
        if out_dir is not None else []
    return FigureOutput(report, num, ana, artifacts)


def run_fig2(seed: int = 0, n: int = 200, kappa: float | None = None,
             t_end: float = 1.0, dt: float = 1e-3, out_dir=None) -> FigureOutput:
    """Complete graph on 200 nodes at kappa = 6/N, emitted with rasters.

    The analytic path uses the closed-form circulant spectrum of the
    complete graph rather than a numerical decomposition.
    """
    if kappa is None:
        kappa = 6.0 / n
    graph = gen_complete(n)
    es = eigensystem_for(graph)
    cfg, num, ana = _comparison_pair(graph, es, kappa=kappa, omega=0.0,
                                     dt=dt, t_end=t_end, seed=seed)
    report = compare_trajectories(num, ana)
    artifacts = _emit_comparison(out_dir, report, num, ana, cfg, rasters=True) \
        if out_dir is not None else []
    return FigureOutput(report, num, ana, artifacts)


def run_fig4(variant: str, seed: int = 0, n: int = 200, kappa: float | None = None,
             p: float = 0.2, k: int = 10, q: float = 0.1,
             t_end: float = 1.0, dt: float = 1e-3, out_dir=None) -> FigureOutput:
    """Random-graph pipeline: Erdos-Renyi or Watts-Strogatz at kappa = 50/N.

    The adjacency spectrum is always estimated numerically here, since
    neither random family is circulant.
    """
    if variant not in ("er", "ws"):
        raise ValueError(f"unknown variant {variant!r}, expected 'er' or 'ws'")
    if kappa is None:
        kappa = 50.0 / n
    if variant == "er":
        graph = gen_erdos_renyi(n, p, seed)
    else:
        graph = gen_watts_strogatz(n, k, q, seed)
    es = eigensystem_for(graph)
    cfg, num, ana = _comparison_pair(graph, es, kappa=kappa, omega=0.0,
                                     dt=dt, t_end=t_end, seed=seed)
    report = compare_trajectories(num, ana)
    artifacts = _emit_comparison(out_dir, report, num, ana, cfg, rasters=True) \
        if out_dir is not None else []
    return FigureOutput(report, num, ana, artifacts)


# one cache per worker process: the sweep reuses the same complete graph
_SWEEP_CACHE: dict = {}


def _sweep_task(task):
    """One kappa row of the sweep: kappa, then the mean and std over seeds of
    the time-averaged |r|, numerical and analytic.

    All seeds step together as one (seeds, n) state, and |r| is summed as
    the run goes, so no trajectory is stored. The analytic route computes
    the propagator factors once and then evaluates one seed at a time.
    """
    n, kappa, seeds, dt, t_end = task
    if n not in _SWEEP_CACHE:
        graph = gen_complete(n)
        _SWEEP_CACHE[n] = (graph, eigensystem_for(graph))
    graph, es = _SWEEP_CACHE[n]
    cfg = SimulationConfig(graph=graph, kappa=kappa, dt=dt, t_end=t_end)
    theta0 = np.array([initial_phases(n, s) for s in seeds])
    r_num = np.abs(order_parameter(theta0))
    for _, state in step_states(cfg, theta0):
        r_num += np.abs(order_parameter(state))
    r_num /= cfg.n_steps + 1
    factors = np.exp(propagator_exponents(es, cfg.gamma, cfg.sample_times(), guard=True))
    r_ana = np.array([_mean_abs_r_of(propagate(es, np.exp(1j * th), factors))
                      for th in theta0])
    return (kappa, float(r_num.mean()), float(r_num.std()),
            float(r_ana.mean()), float(r_ana.std()))


def _mean_abs_r_of(x):
    """Time-averaged |r| of complex states x shaped (n, samples), read through arg x.

    Normalizes x in place to the unit phasors e^{i arg x}, so a seed's
    evaluation holds no second (n, samples) array.
    """
    modulus = np.abs(x)
    np.divide(x, modulus, out=x, where=modulus > 0.0)
    x[modulus == 0.0] = 1.0  # arg 0, as np.angle reads a vanishing x_i
    return np.abs(x.mean(axis=0)).mean()


def _parse_sweep_lines(lines, path):
    if not lines or lines[0] != SWEEP_HEADER:
        raise ValueError(f"not a sweep CSV: {path}")
    rows = [tuple(float(tok) for tok in ln.split(",")) for ln in lines[1:]]
    for i, row in enumerate(rows):
        if len(row) != 5:
            raise ValueError(f"sweep row {i} of {path} has {len(row)} fields, expected 5")
    return rows


def read_sweep_csv(path: str | Path) -> SweepResult:
    path = Path(path)
    rows = _parse_sweep_lines(path.read_text(encoding="ascii").splitlines(), path)
    arr = np.asarray(rows, dtype=float).reshape(len(rows), 5)
    return SweepResult(kappas=arr[:, 0], mean_abs_r_numerical=arr[:, 1],
                       std_numerical=arr[:, 2], mean_abs_r_analytic=arr[:, 3],
                       std_analytic=arr[:, 4], realizations=0)


def write_sweep_csv(result: SweepResult, path: str | Path) -> Path:
    path = Path(path)
    lines = [SWEEP_HEADER]
    for i in range(result.kappas.size):
        lines.append(",".join(fmt(v) for v in (
            result.kappas[i], result.mean_abs_r_numerical[i], result.std_numerical[i],
            result.mean_abs_r_analytic[i], result.std_analytic[i])))
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    return path


def _resume_sweep(path: Path, config: dict) -> list:
    """Rows of a sweep CSV to resume, after checking its parameter sidecar.

    A torn last row, one without a trailing newline or without 5 fields,
    is cut off the file so that it is computed again.
    """
    meta_path = path.with_suffix(".meta")
    if not meta_path.exists():
        raise ValueError(f"cannot resume {path}: parameter sidecar {meta_path.name} is missing")
    stored = json.loads(meta_path.read_text(encoding="ascii")).get("config")
    if stored != config:
        raise ValueError(f"cannot resume {path}: it was written with {stored}, "
                         f"this run has {config}")
    data = path.read_bytes()
    keep = data[:data.rfind(b"\n") + 1]
    lines = keep.decode("ascii").splitlines()
    if len(lines) > 1 and len(lines[-1].split(",")) != 5:
        keep = keep[:-len(lines.pop()) - 1]
    if keep != data:
        with path.open("r+b") as fh:
            fh.truncate(len(keep))
    return _parse_sweep_lines(lines, path)


def run_fig3(points: int = 100, realizations: int = 10, seed: int = 0,
             n: int = 200, kappa_lo: float = 1e-3, kappa_hi: float = 10.0,
             t_end: float = 1.0, dt: float = 1e-3, jobs: int = 1,
             out_csv=None) -> SweepResult:
    """Synchronization transition: time-averaged |r| over a log kappa grid.

    For each kappa, `realizations` shared-seed numerical/analytic pairs run
    on the complete graph; |r(t)| is averaged over every recorded sample of
    the 1-second run, transient included, then aggregated across
    realizations. With out_csv given, the run's parameters go to a ".meta"
    sidecar, finished kappa rows are flushed immediately, and an interrupted
    sweep resumes after the last complete row if the parameters match.
    With jobs > 1 the kappa rows are spread over a process pool.
    """
    if points < 1 or realizations < 1:
        raise ValueError("points and realizations must be positive")
    kappas = np.logspace(math.log10(kappa_lo), math.log10(kappa_hi), points)
    seeds = [seed + r for r in range(realizations)]
    rows = []
    fh = None
    if out_csv is not None:
        out_csv = Path(out_csv)
        config = {"n": int(n), "seed": int(seed), "realizations": int(realizations),
                  "dt": float(dt), "t_end": float(t_end), "kappa_lo": float(kappa_lo),
                  "kappa_hi": float(kappa_hi), "points": int(points)}
        if out_csv.exists():
            rows = _resume_sweep(out_csv, config)
            if len(rows) > points:
                raise ValueError(f"existing sweep file has {len(rows)} rows for a "
                                 f"{points}-point grid")
            for i, row in enumerate(rows):
                if fmt(kappas[i]) != fmt(row[0]):
                    raise ValueError(f"existing sweep row {i} has kappa {fmt(row[0])}, "
                                     f"expected {fmt(kappas[i])}")
        else:
            # the sidecar goes first: a CSV without one is never resumed
            out_csv.with_suffix(".meta").write_text(
                json.dumps({"config": config}, indent=2, sort_keys=True) + "\n",
                encoding="ascii")
            out_csv.write_text(SWEEP_HEADER + "\n", encoding="ascii")
        fh = out_csv.open("a", encoding="ascii")
    tasks = [(n, float(kappas[i]), seeds, dt, t_end) for i in range(len(rows), points)]
    pool = ProcessPoolExecutor(max_workers=jobs) if jobs > 1 and len(tasks) > 1 else None
    try:
        for row in pool.map(_sweep_task, tasks) if pool else map(_sweep_task, tasks):
            rows.append(row)
            if fh is not None:
                fh.write(",".join(fmt(v) for v in row) + "\n")
                fh.flush()
    finally:
        if pool is not None:
            pool.shutdown()
        if fh is not None:
            fh.close()
    arr = np.asarray(rows, dtype=float)
    return SweepResult(kappas=arr[:, 0], mean_abs_r_numerical=arr[:, 1],
                       std_numerical=arr[:, 2], mean_abs_r_analytic=arr[:, 3],
                       std_analytic=arr[:, 4], realizations=realizations,
                       seeds=seeds)
