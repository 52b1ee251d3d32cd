"""Command-line front end: graph | simulate | spectrum | figure."""

from __future__ import annotations

import argparse
import inspect
import os
import re
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from ._text import fmt, write_json
from .dynamics import SimulationConfig, order_parameter, simulate, write_trajectory_csv
from .experiments import run_fig1, run_fig2, run_fig3, run_fig4, write_pgm
from .graphs import (gen_complete, gen_erdos_renyi, gen_ring,
                     gen_watts_strogatz, read_edge_list, write_edge_list)
from .spectral import cdt_eigenvalues, eigenvalues_symmetric, write_spectrum_csv

# generator -> the source flags it reads; an edge-list file reads none of them
_SOURCE_FLAGS = {"ring": ("n", "k"), "complete": ("n",), "er": ("n", "p"), "ws": ("n", "k", "q")}
GENERATORS = tuple(_SOURCE_FLAGS)


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

    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("--graph", required=True, metavar="KIND_OR_FILE",
                        help="ring | complete | er | ws, or an edge-list path")
    flags = argparse.ArgumentParser(add_help=False)  # checked against _SOURCE_FLAGS
    flags.add_argument("--n", type=int, help="node count (generators)")
    flags.add_argument("--k", type=int, help="neighbor radius (ring, ws)")
    flags.add_argument("--p", type=float, help="edge probability (er)")
    flags.add_argument("--q", type=float, help="rewiring probability (ws)")

    p_graph = sub.add_parser("graph", parents=[common, flags], help="generate a graph edge list")
    p_graph.add_argument("kind", choices=GENERATORS)

    p_sim = sub.add_parser("simulate", parents=[common, source, flags],
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

    p_spec = sub.add_parser("spectrum", parents=[common, source, flags],
                            help="write adjacency eigenvalues as CSV")
    p_spec.add_argument("--mode", choices=["cdt", "numerical", "both"], default="numerical")

    p_fig = sub.add_parser("figure", parents=[common],
                           help="reproduce one of the four experiments")
    p_fig.add_argument("id", type=int, choices=[1, 2, 3, 4])
    p_fig.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                       help="worker pool size for the sweep (default: all cores)")

    def figure_flag(dest, text, **kwargs):  # None when absent, see _FIGURE_FLAGS
        p_fig.add_argument("--" + dest.replace("_", "-"), **kwargs, help=f"{text} (figure "
                           f"{_FIGURE_FLAGS[dest]}, default {_FLAG_DEFAULTS[dest]})")
    figure_flag("t_end", "duration in seconds", type=float)
    figure_flag("points", "kappa grid size", type=int)
    figure_flag("realizations", "seeds per kappa", type=int)
    figure_flag("variant", "random graph family", choices=["er", "ws"])
    figure_flag("kappa", "coupling strength", type=float)
    # read -5, -.5, -1e6 and -2.5E+1 as values; argparse's own pattern has no exponents
    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")
    return parser


# figure-only flag -> the figure that reads it. Each is a parameter of that
# figure's function, and takes the function's default when absent.
_FIGURE_FLAGS = {"t_end": 1, "kappa": 4, "points": 3, "realizations": 3, "variant": 4}
_FIGURES = {1: run_fig1, 2: run_fig2, 3: run_fig3, 4: run_fig4}
_FLAG_DEFAULTS = {dest: inspect.signature(_FIGURES[fig]).parameters[dest].default
                  for dest, fig in _FIGURE_FLAGS.items()}


def _graph_from_args(args):
    src = args.graph
    if src not in GENERATORS and not Path(src).exists():
        raise ValueError(f"graph source {src!r} is neither a generator name nor a file")
    source = f"graph {src!r}" if src in GENERATORS else "an edge-list file"
    for flag in ("n", "k", "p", "q"):
        given, read = getattr(args, flag) is not None, flag in _SOURCE_FLAGS.get(src, ())
        if given != read:
            raise ValueError(f"{source} {'requires' if read else 'does not read'} --{flag}")
    if src == "ring":
        return gen_ring(args.n, args.k)
    if src == "complete":
        return gen_complete(args.n)
    if src == "er":
        return gen_erdos_renyi(args.n, args.p, args.seed)
    if src == "ws":
        return gen_watts_strogatz(args.n, args.k, args.q, args.seed)
    return read_edge_list(Path(src))


def cmd_graph(args):
    setattr(args, "graph", args.kind)
    graph = _graph_from_args(args)
    path = args.out / "graph.edges"
    write_edge_list(graph, path)
    return [path], [f"graph: {graph.n} nodes, {graph.edge_count} edges"], {}


def cmd_simulate(args):
    graph = _graph_from_args(args)
    kappa = args.kappa if args.kappa is not None else args.kappa_over_n / graph.n
    cfg = SimulationConfig(graph=graph, kappa=kappa, omega=2.0 * np.pi * args.omega_hz,
                           dt=args.dt, t_end=args.t_end, seed=args.seed,
                           integrator=args.integrator, record_every=args.record_every)
    traj = simulate(cfg, args.method)
    path = args.out / "trajectory.csv"
    write_trajectory_csv(traj, cfg, path)
    artifacts = [path, path.with_suffix(".meta")]
    if args.raster:
        artifacts.append(write_pgm(traj.states, args.out / "trajectory.pgm"))
    r_final = abs(order_parameter(traj.states[-1]))
    lines = [f"simulate: {traj.times.size} samples, final |r| = {fmt(r_final)}"]
    return artifacts, lines, {"diagnostics": traj.diagnostics}


def cmd_spectrum(args):
    graph = _graph_from_args(args)
    spectra = {}  # file name -> eigenvalues in descending order
    if args.mode in ("cdt", "both"):
        c = graph.generating_vector()
        if c is None:
            raise ValueError("cdt mode requires a graph whose adjacency matrix is circulant")
        spectra["spectrum_cdt.csv"] = np.sort(cdt_eigenvalues(c))[::-1]
    if args.mode in ("numerical", "both"):
        spectra["spectrum_numerical.csv"] = eigenvalues_symmetric(graph)
    if args.mode == "both":
        cdt_vals, num_vals = spectra.values()
        lines = [f"max elementwise gap = {fmt(np.abs(cdt_vals - num_vals).max())}"]
    else:
        (vals,) = spectra.values()
        spectra = {"spectrum.csv": vals}
        lines = [f"spectrum: {graph.n} eigenvalues, largest = {fmt(vals[0].real)}"]
    for name, vals in spectra.items():
        write_spectrum_csv(vals, args.out / name)
    return [args.out / name for name in spectra], lines, {}


def cmd_figure(args):
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    for dest, figure in _FIGURE_FLAGS.items():
        if getattr(args, dest) is None:
            if args.id == figure:
                setattr(args, dest, _FLAG_DEFAULTS[dest])  # so the manifest records the value used
        elif args.id != figure:
            flag = "--" + dest.replace("_", "-")
            raise ValueError(f"{flag} applies to figure {figure} only, not figure {args.id}")
    if args.id == 3:
        path = args.out / "sweep.csv"
        result = run_fig3(args.points, args.realizations, args.seed, args.jobs, out_csv=path)
        gap = float(np.abs(result.mean_abs_r_numerical - result.mean_abs_r_analytic).mean())
        lines = [f"sweep: {args.points} kappa points x {args.realizations} realizations, "
                 f"mean |r| gap = {fmt(gap)}"]
        return [path], lines, {}
    flags = {dest: getattr(args, dest) for dest, fig in _FIGURE_FLAGS.items() if fig == args.id}
    out = _FIGURES[args.id](seed=args.seed, out_dir=args.out, **flags)
    report = out.report
    lines = [f"max wrapped deviation = {fmt(report.max_wrapped_deviation)}"]
    if args.id == 2:
        lines.append(f"mean |r| gap = {fmt(report.mean_abs_order_gap)}")
    if args.id == 4:
        lines.insert(0, f"final numerical |r| = {fmt(report.order_param_series_numerical[-1])}")
    diagnostics = {"numerical": out.numerical.diagnostics, "analytic": out.analytic.diagnostics}
    return out.artifacts, lines, {"diagnostics": diagnostics}


_DISPATCH = {"graph": cmd_graph, "simulate": cmd_simulate,
             "spectrum": cmd_spectrum, "figure": cmd_figure}


def _manifest_params(args) -> dict:
    params = {}
    for key, val in vars(args).items():
        if key == "command":
            continue
        params[key] = str(val) if isinstance(val, Path) else val
    return params


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        # a command returns its artifacts, its summary lines and extra manifest keys
        artifacts, lines, extra = _DISPATCH[args.command](args)
    except (ValueError, OSError) as exc:  # invalid input, or a path that cannot be used
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a run too large for the memory at hand
        print(f"error: out of memory: {exc}", file=sys.stderr)
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
        **extra,
    }
    manifest_path = write_json(args.out / "manifest.json", manifest)
    for line in lines:
        print(line)
    for p in artifacts + [manifest_path]:
        print(p)
    return 0
