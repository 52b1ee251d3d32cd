"""The benchmark's workloads and the output check every command must pass.

A workload is a fixed list of kurasim CLI commands, built from the
workload seed, that one client issues in order, each after the previous
one returned (a closed loop with one client). Every command's exit code,
stdout and artifacts are checked; a command that fails any check counts
as a failed operation.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from kurasim import dynamics, experiments, graphs, spectral

WORKLOADS = ("figures", "sweep", "large_graph")

# Key numbers are compared against reference.json (recorded at seed 0 at
# full size) with a tolerance that admits trailing-bit changes from
# reordered floating-point reductions, but no change in the model.
REFERENCE_SEED = 0
REL_TOL = 1e-8
ABS_TOL = 1e-9

# full and self-test sizes of the knobs the CLI exposes
SIZES = {
    "full": {"fig1_t_end": "10", "rk4_n": 200, "sweep_points": 4, "sweep_realizations": 3,
             "pool_points": 2, "pool_realizations": 2, "large_n": 1500},
    "tiny": {"fig1_t_end": "1", "rk4_n": 20, "sweep_points": 2, "sweep_realizations": 1,
             "pool_points": 2, "pool_realizations": 1, "large_n": 120},
}
LARGE_K = 10
SWEEP_KAPPA_RANGE = (1e-3, 10.0)  # the CLI's default figure-3 grid ends


@dataclass
class Op:
    """One CLI command and what its output must look like."""

    label: str
    argv: list
    out: Path
    expect: dict = field(default_factory=dict)


class CheckFailed(Exception):
    pass


def cli_seed(seed: int) -> int:
    # the CLI accepts seeds in [0, 2**64); any integer maps into it
    return seed % 2**32


def build_ops(workload: str, seed: int, pass_dir: Path, size: str = "full") -> list:
    """The commands of one pass, writing under pass_dir."""
    sz = SIZES[size]
    s = str(cli_seed(seed))
    d = Path(pass_dir)

    def op(label, argv, **expect):
        out = d / label
        return Op(label, [*argv, "--out", str(out)], out, expect)

    if workload == "figures":
        n3 = ["--graph", "complete", "--n", "3", "--kappa", "1", "--omega-hz", "10", "--seed", s]
        return [
            op("fig1", ["figure", "1", "--seed", s, "--t-end", sz["fig1_t_end"]], kind="figure1"),
            op("fig2", ["figure", "2", "--seed", s], kind="figure2"),
            op("fig4_er", ["figure", "4", "--variant", "er", "--seed", s], kind="figure4"),
            op("fig4_ws", ["figure", "4", "--variant", "ws", "--seed", s], kind="figure4"),
            op("sim3", ["simulate", *n3], kind="simulate", n=3, samples=1001),
            op("sim3_analytic", ["simulate", *n3, "--method", "analytic"],
               kind="simulate", n=3, samples=1001),
            op("ring64", ["graph", "ring", "--n", "64", "--k", "3"], kind="graph", n=64, edges=192),
            op("spec64", ["spectrum", "--graph", "ring", "--n", "64", "--k", "3", "--mode", "both"],
               kind="spectrum", n=64),
            op("rk4", ["simulate", "--graph", "complete", "--n", str(sz["rk4_n"]),
                       "--kappa-over-n", "6", "--integrator", "rk4", "--seed", s],
               kind="simulate", n=sz["rk4_n"], samples=1001),
        ]
    if workload == "sweep":
        # --jobs 1: see NOTES.md for why the gated sweep runs without the pool
        return [op("fig3", ["figure", "3", "--points", str(sz["sweep_points"]),
                            "--realizations", str(sz["sweep_realizations"]),
                            "--jobs", "1", "--seed", s],
                   kind="figure3", points=sz["sweep_points"],
                   realizations=sz["sweep_realizations"])]
    if workload == "large_graph":
        n = str(sz["large_n"])
        k = str(LARGE_K)
        edges = d / "ws" / "graph.edges"
        analytic = ["--kappa-over-n", "50", "--method", "analytic", "--record-every", "100",
                    "--seed", s]
        return [
            op("ws", ["graph", "ws", "--n", n, "--k", k, "--q", "0.1", "--seed", s],
               kind="graph", n=sz["large_n"], edges=sz["large_n"] * LARGE_K),
            op("ws_spectrum", ["spectrum", "--graph", str(edges)], kind="spectrum",
               n=sz["large_n"]),
            op("ws_analytic", ["simulate", "--graph", str(edges), *analytic],
               kind="simulate", n=sz["large_n"], samples=11),
            op("ring_spectrum", ["spectrum", "--graph", "ring", "--n", n, "--k", k,
                                 "--mode", "both"], kind="spectrum", n=sz["large_n"]),
            op("ring_analytic", ["simulate", "--graph", "ring", "--n", n, "--k", k, *analytic],
               kind="simulate", n=sz["large_n"], samples=11),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def pool_op(seed: int, pass_dir: Path, size: str = "full") -> Op:
    """A figure-3 slice at the CLI's default --jobs (the process pool)."""
    sz = SIZES[size]
    out = Path(pass_dir) / "fig3_pool"
    argv = ["figure", "3", "--points", str(sz["pool_points"]),
            "--realizations", str(sz["pool_realizations"]),
            "--seed", str(cli_seed(seed)), "--out", str(out)]
    return Op("fig3_pool", argv, out, {"kind": "figure3", "points": sz["pool_points"],
                                       "realizations": sz["pool_realizations"]})


def pairs_of(op: Op) -> int:
    """Numerical+analytic (kappa, seed) pairs a command computes."""
    if op.expect["kind"] == "figure3":
        return op.expect["points"] * op.expect["realizations"]
    return 0


# ---------------------------------------------------------------- checking

_NUM = r"([-+]?(?:\d+(?:\.\d*)?(?:e[-+]?\d+)?|inf|nan))"
_DEV = rf"max wrapped deviation = {_NUM}"
SUMMARY = {
    "graph": [r"graph: (\d+) nodes, (\d+) edges"],
    "simulate": [rf"simulate: (\d+) samples, final \|r\| = {_NUM}"],
    "spectrum": [rf"spectrum: (\d+) eigenvalues, largest = {_NUM}"],
    "spectrum_both": [rf"max elementwise gap = {_NUM}"],
    "figure1": [_DEV],
    "figure2": [_DEV, rf"mean \|r\| gap = {_NUM}"],
    "figure3": [rf"sweep: (\d+) kappa points x (\d+) realizations, mean \|r\| gap = {_NUM}"],
    "figure4": [rf"final numerical \|r\| = {_NUM}", _DEV],
}


def _require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def _close(a, b, rel=1e-12, abs_=1e-15):
    return math.isclose(float(a), float(b), rel_tol=rel, abs_tol=abs_)


def _phases_ok(states):
    return bool(np.all(np.isfinite(states)) and np.all(states > -np.pi)
                and np.all(states <= np.pi))


def _read_trajectory(path, n=None, samples=None):
    traj, meta = dynamics.read_trajectory_csv(path)
    _require(meta is not None and "config" in meta, f"{path.name}: missing .meta sidecar")
    _require(_phases_ok(traj.states), f"{path.name}: phases outside (-pi, pi]")
    _require(traj.times[0] == 0.0, f"{path.name}: first sample is not t = 0")
    if n is not None:
        _require(traj.n == n, f"{path.name}: {traj.n} nodes, expected {n}")
    if samples is not None:
        _require(traj.times.size == samples,
                 f"{path.name}: {traj.times.size} samples, expected {samples}")
    return traj


def _abs_r(states):
    return np.abs(np.exp(1j * states).mean(axis=-1))


def _read_report(path):
    lines = path.read_text(encoding="ascii").splitlines()
    _require(lines and lines[0] == experiments.REPORT_HEADER, f"{path.name}: bad header")
    rows = np.array([[float(tok) for tok in ln.split(",")] for ln in lines[1:]])
    _require(rows.ndim == 2 and rows.shape[1] == 4, f"{path.name}: malformed rows")
    return rows


def _check_pgm(path, samples, n):
    data = path.read_bytes()
    header = f"P5\n{n} {samples}\n255\n".encode("ascii")
    _require(data.startswith(header) and len(data) == len(header) + n * samples,
             f"{path.name}: not a {n}x{samples} binary PGM")


def _check_comparison(paths, dev, rasters):
    """figure 1/2/4: report, both trajectories, and their mutual consistency."""
    report = _read_report(paths["report.csv"])
    num = _read_trajectory(paths["trajectory_numerical.csv"])
    ana = _read_trajectory(paths["trajectory_analytic.csv"])
    _require(np.array_equal(num.times, ana.times) and np.array_equal(num.times, report[:, 0]),
             "report and trajectories disagree on sample times")
    _require(np.all((report[:, 1] >= 0) & (report[:, 1] <= np.pi)), "deviation outside [0, pi]")
    _require(np.all((report[:, 2:] >= 0) & (report[:, 2:] <= 1 + 1e-12)), "|r| outside [0, 1]")
    _require(_close(dev, report[:, 1].max()), "printed deviation differs from report.csv")
    per_time = np.abs(dynamics.wrap_phase(num.states - ana.states)).max(axis=1)
    _require(np.allclose(per_time, report[:, 1], rtol=1e-12, atol=1e-15),
             "report deviations differ from the trajectories")
    _require(np.allclose(_abs_r(num.states), report[:, 2], rtol=1e-12, atol=1e-15)
             and np.allclose(_abs_r(ana.states), report[:, 3], rtol=1e-12, atol=1e-15),
             "report |r| series differ from the trajectories")
    if rasters:
        for name in ("raster_numerical.pgm", "raster_analytic.pgm"):
            _require(name in paths, f"{name} missing")
            _check_pgm(paths[name], num.times.size, num.n)
    return report


def check(op: Op, rc, stdout: str) -> dict:
    """Check one command's result; return its key numbers or raise CheckFailed."""
    _require(rc == 0, f"exit code {rc}")
    kind = op.expect["kind"]
    argv = op.argv
    if kind == "spectrum" and "--mode" in argv and argv[argv.index("--mode") + 1] == "both":
        kind = "spectrum_both"
    lines = stdout.splitlines()
    patterns = SUMMARY[kind]
    _require(len(lines) > len(patterns), f"stdout has {len(lines)} lines")
    found = []
    for pattern, line in zip(patterns, lines):
        m = re.fullmatch(pattern, line)
        _require(m is not None, f"summary line {line!r} does not match {pattern!r}")
        found.extend(m.groups())
    nums = [float(v) for v in found]

    printed = [Path(p) for p in lines[len(patterns):]]
    manifest_path = op.out / "manifest.json"
    _require(printed[-1] == manifest_path, "last printed path is not the manifest")
    for p in printed:
        _require(p.parent == op.out and p.is_file(), f"printed artifact {p} does not exist")
    manifest = json.loads(manifest_path.read_text(encoding="ascii"))
    _require(manifest.get("command") == argv[0] and manifest.get("argv") == argv,
             "manifest does not record this command")
    _require(manifest.get("artifacts") == [p.name for p in printed[:-1]],
             "manifest artifacts differ from the printed paths")
    paths = {p.name: p for p in printed[:-1]}
    for name, p in paths.items():
        if name.endswith(".meta"):
            _require("config" in json.loads(p.read_text(encoding="ascii")),
                     f"{name}: no config")

    if kind == "graph":
        n, m = int(nums[0]), int(nums[1])
        g = graphs.read_edge_list(paths["graph.edges"])
        _require((n, m) == (op.expect["n"], op.expect["edges"]) and g.n == n
                 and g.edge_count == m, f"graph has {n} nodes and {m} edges")
        return {"edges": m}
    if kind == "simulate":
        samples, r_final = int(nums[0]), nums[1]
        traj = _read_trajectory(paths["trajectory.csv"], op.expect["n"], op.expect["samples"])
        _require(samples == op.expect["samples"], f"{samples} samples printed")
        _require(0.0 <= r_final <= 1.0 + 1e-12, "final |r| outside [0, 1]")
        _require(_close(r_final, _abs_r(traj.states[-1])),
                 "printed final |r| differs from the trajectory")
        return {"final_r": r_final}
    if kind == "spectrum":
        count, largest = int(nums[0]), nums[1]
        vals = spectral.read_spectrum_csv(paths["spectrum.csv"])
        _require(count == vals.size == op.expect["n"], f"{vals.size} eigenvalues written")
        _require(np.all(np.isfinite(vals)) and _close(largest, vals[0].real),
                 "printed largest eigenvalue differs from spectrum.csv")
        # the eigenvalues of an adjacency matrix sum to its trace, 0
        _require(abs(vals.sum()) <= 1e-9 * vals.size * max(1.0, abs(largest)),
                 "eigenvalues do not sum to 0")
        return {"largest": largest}
    if kind == "spectrum_both":
        gap = nums[0]
        cdt = spectral.read_spectrum_csv(paths["spectrum_cdt.csv"])
        num = spectral.read_spectrum_csv(paths["spectrum_numerical.csv"])
        _require(cdt.size == num.size == op.expect["n"], "spectrum sizes differ")
        _require(_close(gap, np.abs(cdt - num).max()), "printed gap differs from the CSVs")
        # circulant closed form and eigensolver agree up to roundoff
        _require(gap <= 1e-8, f"cdt and numerical spectra differ by {gap}")
        return {"gap": gap}
    if kind == "figure1":
        _check_comparison(paths, nums[0], rasters=False)
        return {"max_dev": nums[0]}
    if kind == "figure2":
        report = _check_comparison(paths, nums[0], rasters=True)
        _require(_close(nums[1], np.abs(report[:, 2] - report[:, 3]).mean()),
                 "printed |r| gap differs from report.csv")
        return {"max_dev": nums[0], "r_gap": nums[1]}
    if kind == "figure4":
        report = _check_comparison(paths, nums[1], rasters=True)
        _require(_close(nums[0], report[-1, 2]), "printed final |r| differs from report.csv")
        return {"final_r": nums[0], "max_dev": nums[1]}
    if kind == "figure3":
        points, realizations, gap = int(nums[0]), int(nums[1]), nums[2]
        _require((points, realizations) == (op.expect["points"], op.expect["realizations"]),
                 "sweep size differs from the command")
        sweep = experiments.read_sweep_csv(paths["sweep.csv"])
        lo, hi = SWEEP_KAPPA_RANGE
        _require(sweep.kappas.size == points and np.allclose(
            sweep.kappas, np.logspace(math.log10(lo), math.log10(hi), points), rtol=1e-12),
            "sweep kappa grid differs from the default range")
        means = np.concatenate([sweep.mean_abs_r_numerical, sweep.mean_abs_r_analytic])
        stds = np.concatenate([sweep.std_numerical, sweep.std_analytic])
        _require(np.all((means >= 0) & (means <= 1 + 1e-12)) and np.all(stds >= 0),
                 "sweep |r| statistics out of range")
        _require(_close(gap, np.abs(sweep.mean_abs_r_numerical
                                    - sweep.mean_abs_r_analytic).mean()),
                 "printed |r| gap differs from sweep.csv")
        rows = np.column_stack([sweep.kappas, sweep.mean_abs_r_numerical, sweep.std_numerical,
                                sweep.mean_abs_r_analytic, sweep.std_analytic])
        return {"rows": rows.tolist(), "r_gap": gap}
    raise ValueError(f"no check for {kind!r}")


def compare_reference(keys: dict, ref: dict):
    """Raise CheckFailed unless every key number matches its reference."""
    _require(set(keys) == set(ref), f"key numbers {sorted(keys)} vs reference {sorted(ref)}")
    for name, value in keys.items():
        got = np.ravel(np.asarray(value, dtype=float))
        want = np.ravel(np.asarray(ref[name], dtype=float))
        _require(got.shape == want.shape and all(
            math.isclose(g, w, rel_tol=REL_TOL, abs_tol=ABS_TOL) for g, w in zip(got, want)),
            f"{name} = {value} differs from the reference {ref[name]}")
