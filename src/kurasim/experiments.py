"""Numerical-vs-analytic comparison experiments and their file artifacts.

Each experiment pairs a shared-seed numerical integration with the
closed-form evaluation on the same graph, then reduces the pair to
agreement metrics: wrapped phase deviation and order-parameter series.
The coupling sweep aggregates time-averaged order parameters over a
logarithmic kappa grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from ._text import ensure_parent, fmt, read_json, read_table, write_json, write_table
from .dynamics import (SimulationConfig, Trajectory, initial_phases, order_parameter,
                       simulate, step_states, wrap_phase, write_trajectory_csv)
from .graphs import gen_complete, gen_erdos_renyi, gen_watts_strogatz
from .spectral import Propagator

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
    "read_sweep_csv",
    "write_pgm",
]

SWEEP_HEADER = "kappa,mean_r_num,std_r_num,mean_r_ana,std_r_ana"
REPORT_HEADER = "t,max_dev,abs_r_num,abs_r_ana"

# The paper's fixed settings: every figure steps Euler at DT for T_END seconds
# (figure 1 by default), and figures 2 to 4 run on N nodes.
DT, T_END, N = 1e-3, 1.0, 200


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


@dataclass(eq=False)
class FigureOutput:
    report: ComparisonReport
    numerical: Trajectory
    analytic: Trajectory
    artifacts: list = field(default_factory=list)


def compare_trajectories(a: Trajectory, b: Trajectory) -> ComparisonReport:
    """Per-sample wrapped distances and order-parameter agreement of two runs."""
    if a.states.ndim != 2 or a.states.shape != b.states.shape:
        raise ValueError(f"expected two single runs shaped (samples, n) alike, got "
                         f"{a.states.shape} and {b.states.shape}")
    if not np.array_equal(a.times, b.times):
        raise ValueError("trajectories must share identical sample times")
    dev = wrap_phase(a.states - b.states)
    per_time = np.abs(dev, out=dev).max(axis=1)
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
    return write_table(path, REPORT_HEADER, np.column_stack((
        report.times, report.per_time_deviation,
        report.order_param_series_numerical, report.order_param_series_analytic)))


def write_pgm(states: np.ndarray, path: str | Path) -> Path:
    """Render wrapped phases as a binary 8-bit grayscale PGM raster.

    One pixel per (node, sample): nodes run along the horizontal axis, time
    along the vertical. Phases map linearly from (-pi, pi] to 0..255, so
    values near -pi come out dark and values near +pi come out light.
    """
    path = ensure_parent(path)
    arr = np.asarray(states, dtype=float)
    gray = np.rint((arr + np.pi) / (2.0 * np.pi) * 255.0)
    gray = np.clip(gray, 0, 255).astype(np.uint8)
    header = f"P5\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode("ascii")
    path.write_bytes(header + gray.tobytes())
    return path


def _run_comparison(graph, kappa, omega, seed, t_end, out_dir, rasters) -> FigureOutput:
    """Euler at DT against the closed form, both run by simulate from one seed.

    With out_dir given, writes the report, both trajectories with their
    sidecars and, with rasters, a PGM of each.
    """
    cfg = SimulationConfig(graph=graph, kappa=kappa, omega=omega, dt=DT, t_end=t_end, seed=seed)
    num, ana = simulate(cfg, "numerical"), simulate(cfg, "analytic")
    report = compare_trajectories(num, ana)
    artifacts = []
    if out_dir is not None:
        out_dir = Path(out_dir)
        artifacts.append(write_report_csv(report, out_dir / "report.csv"))
        for traj in (num, ana):
            p = write_trajectory_csv(traj, cfg, out_dir / f"trajectory_{traj.source}.csv")
            artifacts.extend([p, p.with_suffix(".meta")])
        if rasters:
            artifacts.extend(write_pgm(traj.states, out_dir / f"raster_{traj.source}.pgm")
                             for traj in (num, ana))
    return FigureOutput(report, num, ana, artifacts)


def run_fig1(seed: int = 0, t_end: float = T_END, out_dir=None) -> FigureOutput:
    """Three fully coupled oscillators at kappa=1, omega/2pi = 10 Hz.

    Euler integration against the closed form from shared uniform initial
    conditions; the headline metric is the maximum wrapped deviation.
    """
    return _run_comparison(gen_complete(3), 1.0, 2.0 * math.pi * 10.0, seed, t_end,
                           out_dir, rasters=False)


def run_fig2(seed: int = 0, out_dir=None) -> FigureOutput:
    """Complete graph on N = 200 nodes at kappa = 6/N over 1 s, emitted with rasters.

    The analytic path uses the closed-form circulant spectrum of the
    complete graph rather than a numerical decomposition.
    """
    return _run_comparison(gen_complete(N), 6.0 / N, 0.0, seed, T_END, out_dir, rasters=True)


def run_fig4(variant: str = "er", seed: int = 0, kappa: float = 50.0 / N,
             out_dir=None) -> FigureOutput:
    """Random-graph pipeline at kappa = 50/N: ER (p = 0.2) or WS (k = 10, q = 0.1), N = 200.

    Neither random family is circulant, so the closed form takes the
    Lanczos route, which needs no eigendecomposition.
    """
    if variant not in ("er", "ws"):
        raise ValueError(f"unknown variant {variant!r}, expected 'er' or 'ws'")
    graph = (gen_erdos_renyi(N, 0.2, seed) if variant == "er"
             else gen_watts_strogatz(N, 10, 0.1, seed))
    return _run_comparison(graph, kappa, 0.0, seed, T_END, out_dir, rasters=True)


# At most this many values (points x seeds x nodes) in one sweep chunk's
# state, and one kappa point at least. Per node-step, Euler on K_200 costs
# 178 ns at 200 values, 80 at 600, 58 at 1200, then 48-54 from 2400 up to
# 64 000, where cos and sin of the state set the cost; K_30 and K_1000
# follow the same curve in values.
_CHUNK_VALUES = 4096


def _sweep_task(task):
    """Rows of the sweep for a chunk of the kappa grid: per kappa, kappa, then
    the mean and std over seeds of the time-averaged |r|, numerical and analytic.

    Every (kappa, seed) pair of the chunk steps together as one
    (kappas * seeds, n) state, kappa a column of it, and |r| is summed as the
    run goes from the mean-field sums step_states hands over, so no
    trajectory is stored. Each row is bit for bit the row of a one-kappa
    chunk. The analytic route builds one propagator per kappa and then
    evaluates one seed at a time.
    """
    n, kappas, seeds, dt, t_end = task
    graph = gen_complete(n)
    cfg = SimulationConfig(graph=graph, kappa=0.0, dt=dt, t_end=t_end)
    theta0 = np.array([initial_phases(n, s) for s in seeds])
    column = np.repeat(kappas, len(seeds))[:, None]
    r_num = np.zeros(column.size)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite step raises instead
        for _, state, sums in step_states(cfg, np.tile(theta0, (len(kappas), 1)), kappa=column):
            # the mean-field sums are n r; only the last state has none
            r = order_parameter(state) if sums is None else (sums[0] + 1j * sums[1])[:, 0] / n
            r_num += np.abs(r)
    r_num /= cfg.n_steps + 1
    times = cfg.sample_times()
    rows = []
    for kappa, r_row in zip(kappas, r_num.reshape(len(kappas), len(seeds))):
        prop = Propagator(graph, replace(cfg, kappa=kappa).gamma, times)
        r_ana = np.array([_mean_abs_r_of(prop(np.exp(1j * th))[0]) for th in theta0])
        rows.append((kappa, float(r_row.mean()), float(r_row.std()),
                     float(r_ana.mean()), float(r_ana.std())))
    return rows


def _mean_abs_r_of(x):
    """Time-averaged |r| of complex states x shaped (samples, n), read through arg x.

    Normalizes x in place to the unit phasors e^{i arg x}, so a seed's
    evaluation holds no second (samples, n) array.
    """
    modulus = np.abs(x)
    np.divide(x, modulus, out=x, where=modulus > 0.0)
    x[modulus == 0.0] = 1.0  # arg 0, as np.angle reads a vanishing x_i
    return np.abs(x.mean(axis=1)).mean()


def _sweep_table(path: str | Path) -> np.ndarray:
    header, table = read_table(path)
    if header != SWEEP_HEADER:
        raise ValueError(f"not a sweep CSV: {path}")
    return table


def read_sweep_csv(path: str | Path) -> SweepResult:
    return SweepResult(*_sweep_table(path).T)


def _resume_sweep(path: Path, config: dict) -> list:
    """Rows of a sweep CSV to resume, after checking its parameter sidecar.

    A torn last row, one without a trailing newline or without 5 fields,
    is cut off the file so that it is computed again.
    """
    meta_path = path.with_suffix(".meta")
    if not meta_path.exists():
        raise ValueError(f"cannot resume {path}: parameter sidecar {meta_path.name} is missing")
    stored = read_json(meta_path).get("config")
    if stored != config:
        raise ValueError(f"cannot resume {path}: it was written with {stored}, "
                         f"this run has {config}")
    data = path.read_bytes()
    keep = data[:data.rfind(b"\n") + 1]
    lines = keep.splitlines(keepends=True)
    if len(lines) > 1 and len(lines[-1].split(b",")) != 5:
        keep = keep[:-len(lines[-1])]
    if keep != data:
        with path.open("r+b") as fh:
            fh.truncate(len(keep))
    return _sweep_table(path).tolist()


def run_fig3(points: int = 100, realizations: int = 10, seed: int = 0, jobs: int = 1,
             out_csv=None) -> SweepResult:
    """Synchronization transition: time-averaged |r| over a log kappa grid.

    For each of `points` kappas from 1e-3 to 10, `realizations` shared-seed
    numerical/analytic pairs run on the complete graph on N = 200 nodes;
    |r(t)| is averaged over every recorded sample of the 1-second run at
    dt = 1 ms, transient included, then aggregated across
    realizations. Consecutive kappa points are stepped together in chunks
    of at most _CHUNK_VALUES state values (see _sweep_task); with jobs > 1
    at least `jobs` chunks are spread over a process pool. No row depends
    on the chunking. With out_csv given, the run's parameters go to a
    ".meta" sidecar, each chunk's rows are appended in grid order as it
    finishes, and an interrupted sweep resumes after the last complete row
    if the parameters match.
    """
    if points < 1 or realizations < 1 or jobs < 1:
        raise ValueError(f"points, realizations and jobs must be positive, got {points}, "
                         f"{realizations} and {jobs}")
    kappa_lo, kappa_hi = 1e-3, 10.0
    kappas = np.logspace(math.log10(kappa_lo), math.log10(kappa_hi), points)
    seeds = [seed + r for r in range(realizations)]
    rows = []
    if out_csv is not None:
        out_csv = Path(out_csv)
        config = {"n": N, "seed": int(seed), "realizations": int(realizations), "dt": DT,
                  "t_end": T_END, "kappa_lo": kappa_lo, "kappa_hi": kappa_hi,
                  "points": int(points)}
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
            write_json(out_csv.with_suffix(".meta"), {"config": config})
            write_table(out_csv, SWEEP_HEADER, np.empty((0, 5)))
    todo = [float(k) for k in kappas[len(rows):]]
    size = max(1, _CHUNK_VALUES // (realizations * N))
    if jobs > 1:  # at least one chunk per worker
        size = max(1, min(size, math.ceil(len(todo) / jobs)))
    tasks = [(N, todo[i:i + size], seeds, DT, T_END) for i in range(0, len(todo), size)]
    pool = None
    if jobs > 1 and len(tasks) > 1:
        # imported here: the pool's modules cost every other command ~20 ms to load
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(max_workers=jobs)
    try:
        for chunk in pool.map(_sweep_task, tasks) if pool else map(_sweep_task, tasks):
            rows.extend(chunk)
            if out_csv is not None:  # appended chunk by chunk, so an interrupted sweep resumes
                write_table(out_csv, None, chunk)
    finally:
        if pool is not None:
            pool.shutdown()
    return SweepResult(*np.reshape(rows, (-1, 5)).T)
