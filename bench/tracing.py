"""Span tracing of kurasim from outside the package.

The tracer replaces kurasim's public functions with thin wrappers that
record one span each: name, start, end, parent span and a few work
counts. Every module attribute bound to a wrapped function is replaced,
so names that `cli` and `experiments` import with `from ... import` are
traced as well. Spans stay in memory. Forked pool workers inherit the
wrappers and the open span stack; each worker writes its spans to one
file when it exits, and the parent reads those files back.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from multiprocessing import util as mp_util
from pathlib import Path

# (module, function) -> per-layer metric its self time is added to
LAYER_METRIC = {
    ("graphs", "gen_ring"): "graphs.gen_s",
    ("graphs", "gen_complete"): "graphs.gen_s",
    ("graphs", "gen_erdos_renyi"): "graphs.gen_s",
    ("graphs", "gen_watts_strogatz"): "graphs.gen_s",
    ("graphs", "ring_generating_vector"): "graphs.gen_s",
    ("graphs", "circulant"): "graphs.gen_s",
    ("graphs", "write_edge_list"): "graphs.edge_list_io_s",
    ("graphs", "read_edge_list"): "graphs.edge_list_io_s",
    ("spectral", "cdt_eigenvalues"): "spectral.cdt_s",
    ("spectral", "cdt_fourier_matrix"): "spectral.cdt_s",
    ("spectral", "cdt_eigensystem"): "spectral.cdt_s",
    ("spectral", "eigendecompose_symmetric"): "spectral.eigh_s",
    ("spectral", "write_spectrum_csv"): "spectral.spectrum_csv_s",
    ("spectral", "propagator_exponents"): "spectral.propagator_s",
    ("spectral", "apply_propagator"): "spectral.propagator_s",
    ("dynamics", "integrate_numerical"): "dynamics.integrate_s",
    ("dynamics", "km_rhs"): "dynamics.integrate_s",
    ("dynamics", "analytic_trajectory"): "dynamics.analytic_s",
    ("dynamics", "analytic_amplitudes"): "dynamics.analytic_s",
    ("dynamics", "write_trajectory_csv"): "dynamics.trajectory_csv_write_s",
    ("dynamics", "read_trajectory_csv"): "dynamics.trajectory_csv_read_s",
    ("experiments", "compare_trajectories"): "experiments.compare_s",
    ("experiments", "write_pgm"): "experiments.write_pgm_s",
    ("experiments", "write_report_csv"): "experiments.report_csv_s",
    ("experiments", "run_fig1"): "experiments.self_s",
    ("experiments", "run_fig2"): "experiments.self_s",
    ("experiments", "run_fig3"): "experiments.self_s",
    ("experiments", "run_fig4"): "experiments.self_s",
    # the pool's task entry point: private, but it is where worker time starts
    ("experiments", "_sweep_task"): "experiments.self_s",
    ("cli", "main"): "cli.self_s",
}

# spans the benchmark itself opens around each command and each output check
OP_SPAN = "bench.op"
CHECK_SPAN = "bench.check"
HARNESS_METRIC = "bench.self_s"
CSV_READ_METRIC = "dynamics.trajectory_csv_read_s"  # only the output check reads
# self times under the commands; together they add up to the traced wall time
SELF_TIME_METRICS = sorted((set(LAYER_METRIC.values()) | {HARNESS_METRIC})
                           - {CSV_READ_METRIC})
COMMANDS = ("graph", "simulate", "spectrum", "figure")


def _integrate_counts(args, result):
    cfg = args[0]
    n, steps = cfg.graph.n, cfg.n_steps
    evals = steps * (4 if cfg.integrator == "rk4" else 1)
    return {"rhs_evals": evals, "node_steps": n * steps,
            # dense float @ complex matvec: 8 flops per entry, A upcast to
            # complex (16 bytes per entry) on every evaluation
            "coupling_flops": 8 * n * n * evals, "coupling_bytes": 16 * n * n * evals}


def _analytic_counts(args, result):
    n, samples = result.states.shape[1], result.times.size
    # inverse_basis @ x0 once, then basis @ (n x samples)
    return {"analytic_flops": 8 * n * n * (samples + 1)}


def _csv_counts(args, result):
    return {"csv_bytes": os.path.getsize(result)}


def _edge_counts(args, result):
    return {"edges": result.edge_count}


def _command(args, result):
    return {"command": list(args[0])[0]}


COUNTERS = {
    "cli.main": _command,
    "dynamics.integrate_numerical": _integrate_counts,
    "dynamics.analytic_trajectory": _analytic_counts,
    "dynamics.write_trajectory_csv": _csv_counts,
    "graphs.gen_ring": _edge_counts,
    "graphs.gen_complete": _edge_counts,
    "graphs.gen_erdos_renyi": _edge_counts,
    "graphs.gen_watts_strogatz": _edge_counts,
    "graphs.read_edge_list": _edge_counts,
}


class Tracer:
    """Records spans of one process; forked children restart the record."""

    def __init__(self, dump_dir):
        self.dump_dir = Path(dump_dir)
        self.pid = os.getpid()
        self.spans = []
        self.stack = []  # open spans, innermost last
        self._next_id = 0
        self._restore = []

    # -- recording ---------------------------------------------------------
    def push(self, name: str, **attrs) -> dict:
        if os.getpid() != self.pid:
            self._become_worker()
        span = {"id": f"{self.pid}:{self._next_id}", "name": name, "pid": self.pid,
                "parent": self.stack[-1]["id"] if self.stack else None,
                "start": time.perf_counter(), "end": None}
        span.update(attrs)
        self._next_id += 1
        self.stack.append(span)
        return span

    def pop(self) -> dict:
        span = self.stack.pop()
        span["end"] = time.perf_counter()
        self.spans.append(span)
        return span

    def _become_worker(self):
        # A forked pool worker: the open stack (the parent's run_fig3 span
        # and its ancestors) stays, so worker spans link to their caller.
        # The closed spans belong to the parent and are dropped.
        self.pid = os.getpid()
        self.spans = []
        self._next_id = 0
        mp_util.Finalize(None, self._dump, exitpriority=100)

    def _dump(self):
        path = self.dump_dir / f"worker-{self.pid}.json"
        path.write_text(json.dumps(self.spans), encoding="ascii")

    def collect_workers(self) -> int:
        """Move spans written by exited workers into this record."""
        count = 0
        for path in sorted(self.dump_dir.glob("worker-*.json")):
            spans = json.loads(path.read_text(encoding="ascii"))
            path.unlink()
            self.spans.extend(spans)
            count += len(spans)
        return count

    # -- wrapping ----------------------------------------------------------
    def _wrap(self, fn, name):
        counter = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.push(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.pop()
            if counter is not None:
                span.update(counter(args, result))
            return result

        return wrapper

    def install(self, package):
        """Replace every binding of a traced function in the package's modules."""
        modules = {short: getattr(package, short)
                   for short in ("graphs", "spectral", "dynamics", "experiments", "cli")}
        wrappers = {}  # id of the original function -> (original, wrapper)
        for (short, fname) in LAYER_METRIC:
            fn = getattr(modules[short], fname)
            wrappers[id(fn)] = (fn, self._wrap(fn, f"{short}.{fname}"))
        for module in [package, *modules.values()]:
            for attr, value in list(vars(module).items()):
                fn, wrapper = wrappers.get(id(value), (None, None))
                if fn is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()


def _layer_of(name: str) -> str | None:
    if name == OP_SPAN:
        return HARNESS_METRIC
    short, _, fname = name.partition(".")
    return LAYER_METRIC.get((short, fname))


def self_times(spans) -> dict:
    """Wall time of each span not covered by its children, by span id.

    At each instant the time goes to the active spans that have no active
    child. When pool workers run in parallel, several such spans are
    active at once and share the instant equally, so the self times of a
    tree always add up to the wall time of its root.
    """
    children = defaultdict(set)
    for s in spans:
        children[s["parent"]].add(s["id"])
    bounds = sorted({t for s in spans for t in (s["start"], s["end"])})
    out = defaultdict(float)
    for lo, hi in zip(bounds, bounds[1:]):
        active = {s["id"] for s in spans if s["start"] <= lo and s["end"] >= hi}
        leaves = [sid for sid in active if not (children[sid] & active)]
        for sid in leaves:
            out[sid] += (hi - lo) / len(leaves)
    return out


def subtree(spans, root_id) -> list:
    by_parent = defaultdict(list)
    for s in spans:
        by_parent[s["parent"]].append(s)
    out, todo = [], [root_id]
    while todo:
        sid = todo.pop()
        out.extend(by_parent[sid])
        todo.extend(s["id"] for s in by_parent[sid])
    return out


def durations_by_op(spans) -> dict:
    """Inclusive span durations keyed "<op label>/<span name>"."""
    by_id = {s["id"]: s for s in spans}
    out = defaultdict(list)
    for s in spans:
        root = s
        while root["parent"] in by_id:
            root = by_id[root["parent"]]
        if "label" in root:
            out[f"{root['label']}/{s['name']}"].append(s["end"] - s["start"])
    return dict(out)


def layer_report(spans) -> dict:
    """Per-layer self times and work counts of one traced pass.

    Only spans under a command root (OP_SPAN) count toward the layers;
    the one exception is the trajectory CSV read, which only the output
    check performs.
    """
    layers = dict.fromkeys([*SELF_TIME_METRICS, CSV_READ_METRIC,
                            *(f"cli.cmd.{c}_s" for c in COMMANDS)], 0.0)
    counts = defaultdict(float)
    by_id = {s["id"]: s for s in spans}
    wall = 0.0
    integrate_busy = 0.0
    for root in (s for s in spans if s["name"] == OP_SPAN):
        tree = [root] + subtree(spans, root["id"])
        wall += root["end"] - root["start"]
        for sid, t in self_times(tree).items():
            layer = _layer_of(by_id[sid]["name"])
            if layer in layers and layer != CSV_READ_METRIC:
                layers[layer] += t
        for s in tree:
            name = s["name"]
            if name == "cli.main" and "command" in s:  # absent if main raised
                layers[f"cli.cmd.{s['command']}_s"] += s["end"] - s["start"]
            if name == "dynamics.integrate_numerical":
                integrate_busy += s["end"] - s["start"]
            parent = by_id.get(s["parent"])
            nested_graph = name.startswith("graphs.") and parent is not None \
                and parent["name"].startswith("graphs.")
            for key in ("rhs_evals", "node_steps", "coupling_flops", "coupling_bytes",
                        "analytic_flops", "csv_bytes", "edges"):
                if key in s and not (key == "edges" and nested_graph):
                    counts[key] += s[key]
    for check in (s for s in spans if s["name"] == CHECK_SPAN):
        for s in subtree(spans, check["id"]):
            if s["name"] == "dynamics.read_trajectory_csv":
                layers[CSV_READ_METRIC] += s["end"] - s["start"]
    layers.update({
        "graphs.edges": counts["edges"],
        "dynamics.rhs_evals": counts["rhs_evals"],
        "dynamics.node_steps_per_s": counts["node_steps"] / integrate_busy
        if integrate_busy else 0.0,
        "dynamics.coupling_flops_computed": counts["coupling_flops"],
        "dynamics.coupling_bytes_computed": counts["coupling_bytes"],
        "dynamics.analytic_flops_computed": counts["analytic_flops"],
        "dynamics.trajectory_csv_bytes": counts["csv_bytes"],
        "trace.wall_s": wall,
    })
    return layers
