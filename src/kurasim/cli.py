"""Command-line front end: graph | simulate | spectrum | figure."""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from ._text import fmt
from .dynamics import (SimulationConfig, analytic_trajectory, initial_phases,
                       integrate_numerical, order_parameter,
                       write_trajectory_csv)
from .experiments import run_fig1, run_fig2, run_fig3, run_fig4, write_pgm
from .graphs import (gen_complete, gen_erdos_renyi, gen_ring,
                     gen_watts_strogatz, read_edge_list, write_edge_list)
from .spectral import eigensystem_for, eigenvalues_symmetric, write_spectrum_csv

GENERATORS = ("ring", "complete", "er", "ws")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kurasim",
        description="Kuramoto oscillators on finite graphs: numerical "
                    "integration and the spectral closed-form evaluator.")
    parser.add_argument("--version", action="version", version=f"kurasim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    common.add_argument("--out", type=Path, default=Path("."),
                        help="output directory (default: current directory)")
    common.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                        help="worker pool size for the sweep (default: all cores)")

    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("--graph", required=True, metavar="KIND_OR_FILE",
                        help="ring | complete | er | ws, or an edge-list path")
    source.add_argument("--n", type=int, help="node count (generators)")
    source.add_argument("--k", type=int, help="neighbor radius (ring, ws)")
    source.add_argument("--p", type=float, help="edge probability (er)")
    source.add_argument("--q", type=float, help="rewiring probability (ws)")

    p_graph = sub.add_parser("graph", parents=[common], help="generate a graph edge list")
    p_graph.add_argument("kind", choices=GENERATORS)
    p_graph.add_argument("--n", type=int, required=True)
    p_graph.add_argument("--k", type=int)
    p_graph.add_argument("--p", type=float)
    p_graph.add_argument("--q", type=float)

    p_sim = sub.add_parser("simulate", parents=[common, source],
                           help="run one trajectory and write it as CSV")
    coupling = p_sim.add_mutually_exclusive_group(required=True)
    coupling.add_argument("--kappa", type=float, help="coupling strength (1/s)")
    coupling.add_argument("--kappa-over-n", type=float,
                          help="coupling given as kappa*N; divided by the node count")
    p_sim.add_argument("--omega-hz", type=float, default=0.0,
                       help="intrinsic frequency in cycles/s; omega = 2*pi*f")
    p_sim.add_argument("--dt", type=float, default=1e-3)
    p_sim.add_argument("--t-end", type=float, default=1.0)
    p_sim.add_argument("--method", choices=["numerical", "analytic"], default="numerical")
    p_sim.add_argument("--integrator", choices=["euler", "rk4"], default="euler")
    p_sim.add_argument("--record-every", type=int, default=1)
    p_sim.add_argument("--raster", action="store_true", help="also write a PGM raster")
    p_sim.add_argument("--no-guard", action="store_true",
                       help="disable the overflow guard of the analytic method")

    p_spec = sub.add_parser("spectrum", parents=[common, source],
                            help="write adjacency eigenvalues as CSV")
    p_spec.add_argument("--mode", choices=["cdt", "numerical", "both"], default="numerical")

    p_fig = sub.add_parser("figure", parents=[common],
                           help="reproduce one of the four experiments")
    p_fig.add_argument("id", type=int, choices=[1, 2, 3, 4])
    p_fig.add_argument("--t-end", type=float, help="duration for figure 1 (default 1 s)")
    p_fig.add_argument("--points", type=int, default=100, help="kappa grid size (figure 3)")
    p_fig.add_argument("--realizations", type=int, default=10)
    p_fig.add_argument("--full", action="store_true",
                       help="figure 3 long mode: 1000 kappa points")
    p_fig.add_argument("--variant", choices=["er", "ws"], default="er")
    p_fig.add_argument("--kappa", type=float,
                       help="coupling override for figure 4 (default 50/N)")
    return parser


def _graph_from_args(args):
    src = args.graph
    if src not in GENERATORS:
        path = Path(src)
        if not path.exists():
            raise ValueError(f"graph source {src!r} is neither a generator name nor a file")
        return read_edge_list(path)
    if args.n is None:
        raise ValueError(f"generator {src!r} requires --n")
    if src == "ring":
        if args.k is None:
            raise ValueError("ring graph requires --k")
        return gen_ring(args.n, args.k)
    if src == "complete":
        return gen_complete(args.n)
    if src == "er":
        if args.p is None:
            raise ValueError("er graph requires --p")
        return gen_erdos_renyi(args.n, args.p, args.seed)
    if args.k is None or args.q is None:
        raise ValueError("ws graph requires --k and --q")
    return gen_watts_strogatz(args.n, args.k, args.q, args.seed)


def cmd_graph(args):
    setattr(args, "graph", args.kind)
    graph = _graph_from_args(args)
    path = args.out / "graph.edges"
    write_edge_list(graph, path)
    return [path], [f"graph: {graph.n} nodes, {graph.edge_count} edges"]


def cmd_simulate(args):
    graph = _graph_from_args(args)
    kappa = args.kappa if args.kappa is not None else args.kappa_over_n / graph.n
    cfg = SimulationConfig(graph=graph, kappa=kappa, omega=2.0 * np.pi * args.omega_hz,
                           dt=args.dt, t_end=args.t_end, seed=args.seed,
                           integrator=args.integrator, record_every=args.record_every)
    theta0 = initial_phases(graph.n, args.seed)
    if args.method == "numerical":
        traj = integrate_numerical(cfg, theta0)
    else:
        traj = analytic_trajectory(eigensystem_for(graph), cfg, theta0,
                                   guard=not args.no_guard)
    path = args.out / "trajectory.csv"
    write_trajectory_csv(traj, cfg, path,
                         extra_meta={"method": args.method, "guard": not args.no_guard})
    artifacts = [path, path.with_suffix(".meta")]
    if args.raster:
        artifacts.append(write_pgm(traj.states, args.out / "trajectory.pgm"))
    r_final = abs(order_parameter(traj.states[-1]))
    lines = [f"simulate: {traj.times.size} samples, final |r| = {fmt(r_final)}"]
    return artifacts, lines


def _sorted_desc(values: np.ndarray) -> np.ndarray:
    order = np.lexsort((values.imag, values.real))[::-1]
    return values[order]


def cmd_spectrum(args):
    graph = _graph_from_args(args)
    lines = []
    artifacts = []
    if args.mode in ("cdt", "both") and graph.kind not in ("ring", "complete"):
        raise ValueError(f"cdt mode requires a circulant source (ring or complete), "
                         f"got {graph.kind!r}")
    cdt_vals = num_vals = None
    if args.mode in ("cdt", "both"):  # a circulant source: the closed-form spectrum
        cdt_vals = _sorted_desc(eigensystem_for(graph).eigenvalues)
    if args.mode in ("numerical", "both"):
        num_vals = eigenvalues_symmetric(graph)
    if args.mode == "both":
        artifacts.append(args.out / "spectrum_cdt.csv")
        write_spectrum_csv(cdt_vals, artifacts[-1])
        artifacts.append(args.out / "spectrum_numerical.csv")
        write_spectrum_csv(num_vals, artifacts[-1])
        gap = float(np.abs(cdt_vals - num_vals).max())
        lines.append(f"max elementwise gap = {fmt(gap)}")
    else:
        vals = cdt_vals if args.mode == "cdt" else num_vals
        artifacts.append(args.out / "spectrum.csv")
        write_spectrum_csv(vals, artifacts[-1])
        lines.append(f"spectrum: {graph.n} eigenvalues, largest = {fmt(vals[0].real)}")
    return artifacts, lines


def cmd_figure(args):
    if args.id == 1:
        out = run_fig1(seed=args.seed, t_end=args.t_end if args.t_end else 1.0,
                       out_dir=args.out)
        lines = [f"max wrapped deviation = {fmt(out.report.max_wrapped_deviation)}"]
        return out.artifacts, lines
    if args.id == 2:
        out = run_fig2(seed=args.seed, out_dir=args.out)
        lines = [f"max wrapped deviation = {fmt(out.report.max_wrapped_deviation)}",
                 f"mean |r| gap = {fmt(out.report.mean_abs_order_gap)}"]
        return out.artifacts, lines
    if args.id == 3:
        points = 1000 if args.full else args.points
        path = args.out / "sweep.csv"
        result = run_fig3(points=points, realizations=args.realizations,
                          seed=args.seed, jobs=args.jobs, out_csv=path)
        gap = float(np.abs(result.mean_abs_r_numerical - result.mean_abs_r_analytic).mean())
        lines = [f"sweep: {points} kappa points x {args.realizations} realizations, "
                 f"mean |r| gap = {fmt(gap)}"]
        return [path], lines
    out = run_fig4(args.variant, seed=args.seed, kappa=args.kappa, out_dir=args.out)
    r_final = float(out.report.order_param_series_numerical[-1])
    lines = [f"final numerical |r| = {fmt(r_final)}",
             f"max wrapped deviation = {fmt(out.report.max_wrapped_deviation)}"]
    return out.artifacts, lines


_DISPATCH = {"graph": cmd_graph, "simulate": cmd_simulate,
             "spectrum": cmd_spectrum, "figure": cmd_figure}


def _manifest_params(args) -> dict:
    params = {}
    for key, val in vars(args).items():
        if key == "command":
            continue
        params[key] = str(val) if isinstance(val, Path) else val
    return params


def load_manifest(path) -> dict:
    return json.loads(Path(path).read_text(encoding="ascii"))


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        args.out.mkdir(parents=True, exist_ok=True)
        artifacts, lines = _DISPATCH[args.command](args)
    except (ValueError, OSError) as exc:  # invalid input, or a path that cannot be used
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    manifest = {
        "command": args.command,
        "argv": argv,
        "params": _manifest_params(args),
        "seed": args.seed,
        "artifacts": [p.name for p in artifacts],
        "version": __version__,
        "duration_s": time.perf_counter() - start,
    }
    manifest_path = args.out / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                             encoding="ascii")
    for line in lines:
        print(line)
    for p in artifacts + [manifest_path]:
        print(p)
    return 0
