"""kurasim benchmark: one workload, timed end to end or traced per layer.

    python3 bench/run.py --workload figures|sweep|large_graph --seed N \
        --seconds S --trace 0|1

Run from the repository root. kurasim is imported from ./src; nothing is
installed. The run times fresh-interpreter start-up (setup_s), runs one
untimed warm-up pass, then repeats timed passes of the workload's CLI
commands for about S seconds, checking every command's output. wall_s
and cpu_s add up each command's median over the timed passes. With
--trace 0 it reports the end-to-end metrics; with --trace 1 it alternates
untraced and traced passes and reports the per-layer metrics. Metric
names and units come from BENCHMARK.json. The environment goes to
stdout first, a readable table to stderr, and the result as one JSON
object on the last stdout line. A full record, with the spans of the
reported traced pass, is written under .bench_work/.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import io
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
BENCH_DIR = Path(__file__).resolve().parent

# kurasim comes from this checkout's sources, never from an installed copy
if not (SRC / "kurasim" / "__init__.py").is_file():
    sys.exit(f"bench: no kurasim sources under {SRC}")
sys.path.insert(0, str(SRC))
import kurasim  # noqa: E402
import kurasim.cli  # noqa: E402

if Path(kurasim.__file__).resolve().parent != SRC / "kurasim":
    sys.exit(f"bench: imported kurasim from {kurasim.__file__}, not from {SRC}")

from tracing import CHECK_SPAN, OP_SPAN, Tracer, durations_by_op, layer_report  # noqa: E402
from workloads import (REFERENCE_SEED, WORKLOADS, build_ops, check,  # noqa: E402
                       compare_reference, pairs_of, pool_op)

SETUP_REPEATS = 7
MIN_PASSES = 3  # per kind of pass (untraced, traced)
SETUP_SNIPPET = ("import sys; sys.path.insert(0, 'src'); import kurasim.cli; "
                 "kurasim.cli.build_parser()")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


# ------------------------------------------------------------- environment

def _blas_runtime_threads():
    """Thread count the loaded OpenBLAS will use, asked from the library."""
    with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
        libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    for path in sorted(p for p in libs if Path(p).is_file()):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return {"library": Path(path).name, "threads": fn()}
    return None


def _cpu_info():
    info = {}
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="ascii",
                                            errors="replace") as fh:
        for line in fh:
            key, _, value = line.partition(":")
            key = key.strip()
            if key in ("model name", "cache size") and key not in info:
                info[key] = value.strip()
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError):
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            caches[f"L{level} {kind}"] = (idx / "size").read_text().strip()
    info["caches"] = caches
    return info


def cli_default_jobs() -> int:
    """Pool size figure 3 uses when --jobs is not given."""
    return kurasim.cli.build_parser().parse_args(["figure", "3"]).jobs


def environment() -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    nproc = shutil.which("nproc")
    return {
        "python": sys.version,
        "numpy": np.__version__,
        "kurasim": kurasim.__version__,
        "blas": deps.get("blas"),
        "lapack": deps.get("lapack"),
        "blas_runtime": _blas_runtime_threads(),
        "nproc": subprocess.run([nproc], capture_output=True, text=True).stdout.strip()
        if nproc else None,
        "os_cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "mp_start_method": multiprocessing.get_context().get_start_method(),
        "cli_default_jobs": cli_default_jobs(),
        "cpu": _cpu_info(),
        # recorded, never set: the benchmark measures kurasim's default threading
        "thread_vars": {k: os.environ.get(k) for k in THREAD_VARS},
        "platform": platform.platform(),
    }


# ----------------------------------------------------------------- running

def setup_seconds() -> list:
    """Wall time of fresh interpreters importing kurasim.cli and building the parser."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_SNIPPET], cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def _cpu_now() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


class Bench:
    """Runs passes of one workload and checks every command's output."""

    def __init__(self, workload, seed, work_dir, size="full", reference=None):
        self.workload = workload
        self.seed = seed
        self.size = size
        self.work_dir = Path(work_dir)
        self.reference = reference
        self.tracer = Tracer(self.work_dir)
        self._passes = 0
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def invoke(self, argv):
        """Run one CLI command in-process; return (exit code, stdout)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = kurasim.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception:  # the op fails; the benchmark keeps going
                rc = "exception: " + traceback.format_exc()
        if rc != 0 and err.getvalue():
            rc = f"{rc}: {err.getvalue().strip()}"
        return rc, out.getvalue()

    def run_ops(self, ops, traced: bool) -> dict:
        """Issue ops in order; each is timed without its output check."""
        tracer = self.tracer
        if traced:
            tracer.install(kurasim)
        worker_spans = 0
        op_walls, op_cpus = {}, {}
        try:
            for op in ops:
                gc.collect()  # every command starts from the same collector state
                cpu0 = _cpu_now()
                if traced:
                    span = tracer.push(OP_SPAN, label=op.label)
                    rc, stdout = self.invoke(op.argv)
                    tracer.pop()
                    op_walls[op.label] = span["end"] - span["start"]
                    worker_spans += tracer.collect_workers()
                else:
                    t0 = time.perf_counter()
                    rc, stdout = self.invoke(op.argv)
                    op_walls[op.label] = time.perf_counter() - t0
                op_cpus[op.label] = _cpu_now() - cpu0
                self.attempted += 1
                if traced:
                    tracer.push(CHECK_SPAN, label=op.label)
                try:
                    keys = check(op, rc, stdout)
                    if self.reference is not None:
                        compare_reference(keys, self.reference[op.label])
                except Exception as exc:  # any broken artifact fails the op
                    self.failed += 1
                    self.errors.append(f"{op.label}: {type(exc).__name__}: {exc}")
                    print(f"bench: op {op.label} failed: {exc}", file=sys.stderr)
                finally:
                    if traced:
                        tracer.pop()
        finally:
            if traced:
                tracer.uninstall()
        spans, tracer.spans = tracer.spans, []
        return {"wall_s": sum(op_walls.values()), "cpu_s": sum(op_cpus.values()),
                "op_walls": op_walls, "op_cpus": op_cpus, "spans": spans,
                "worker_spans": worker_spans}

    def run_pass(self, traced: bool, pool: bool = False) -> dict:
        pass_dir = self.work_dir / f"pass{self._passes}"
        self._passes += 1
        pass_dir.mkdir(parents=True)
        ops = [pool_op(self.seed, pass_dir, self.size)] if pool else \
            build_ops(self.workload, self.seed, pass_dir, self.size)
        try:
            result = self.run_ops(ops, traced)
        finally:
            shutil.rmtree(pass_dir, ignore_errors=True)
        result["pairs"] = sum(map(pairs_of, ops))
        return result


def median_total(passes, key):
    """Sum over commands of each command's median over the passes.

    A pass slowed in one command by the host then moves the total by
    that command's excess only, and does not pick another whole pass as
    the median one.
    """
    labels = passes[0][key]
    return sum(statistics.median(p[key][label] for p in passes) for label in labels)


def _median_pass(passes):
    """The pass with the median wall time (the lower one of an even count)."""
    ordered = sorted(passes, key=lambda p: p["wall_s"])
    return ordered[(len(ordered) - 1) // 2]


def measure(workload, seed, seconds, trace, size="full", min_passes=MIN_PASSES):
    """Run one benchmark; return (metrics by name, record, the Bench)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    reference = None
    if seed == REFERENCE_SEED and size == "full":
        reference = json.loads((BENCH_DIR / "reference.json").read_text())[workload]

    WORK.mkdir(exist_ok=True)
    work_dir = WORK / f"{workload}-{seed}-{os.getpid()}"
    work_dir.mkdir()
    bench = Bench(workload, seed, work_dir, size, reference)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "size": size}
    try:
        setup = setup_seconds()
        bench.run_pass(traced=False)  # warm-up: lazy imports, caches, BLAS threads
        deadline = time.perf_counter() + seconds
        plain, traced = [], []
        last = 0.0
        # stop before a pass that would end after the deadline
        while (len(plain) < min_passes or (trace and len(traced) < min_passes)
               or time.perf_counter() + last < deadline):
            use_trace = bool(trace) and len(traced) < len(plain)
            t0 = time.perf_counter()
            (traced if use_trace else plain).append(bench.run_pass(use_trace))
            last = time.perf_counter() - t0
        pool = bench.run_pass(traced=True, pool=True) if trace and workload == "sweep" \
            else None
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    wall = median_total(plain, "op_walls")
    values = {
        "wall_s": wall,
        "cpu_s": median_total(plain, "op_cpus"),
        "peak_rss_mb": peak_rss_mib(),
        "setup_s": statistics.median(setup),
    }
    record.update({"setup_s_samples": setup,
                   "passes": [{k: p[k] for k in ("wall_s", "cpu_s", "op_walls", "op_cpus")}
                              for p in plain]})
    if trace:
        reported = _median_pass(traced)
        values.update(layer_report(reported["spans"]))
        values.update({
            "trace.overhead_s": median_total(traced, "op_walls") - wall,
            "pairs_per_s": plain[0]["pairs"] / wall,
            "fail_ratio": bench.failed / bench.attempted,
            "pool.jobs": cli_default_jobs() if pool else 0,
            "pool.wall_s": pool["wall_s"] if pool else 0.0,
            "pool.cpu_s": pool["cpu_s"] if pool else 0.0,
            "pool.pairs_per_s": pool["pairs"] / pool["wall_s"] if pool else 0.0,
            "pool.worker_spans": pool["worker_spans"] if pool else 0,
        })
        durations = {}
        for p in traced + ([pool] if pool else []):
            for key, values_s in durations_by_op(p["spans"]).items():
                durations.setdefault(key, []).extend(values_s)
        record.update({"traced_passes": [{k: p[k] for k in ("wall_s", "cpu_s")}
                                         for p in traced],
                       "span_durations": durations,
                       "spans": reported["spans"],
                       "pool_spans": pool["spans"] if pool else []})
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    record.update({"metrics": metrics, "attempted": bench.attempted,
                   "failed": bench.failed, "errors": bench.errors})
    return metrics, record, bench


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args(argv)

    env = environment()
    print(json.dumps({"env": env}, sort_keys=True))

    metrics, record, bench = measure(args.workload, args.seed, args.seconds, args.trace)
    record["env"] = env
    log = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    log.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']}", file=sys.stderr)
    print(f"ops attempted {bench.attempted}, failed {bench.failed}; record: {log}",
          file=sys.stderr)
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
