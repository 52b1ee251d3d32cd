"""Self-test of the benchmark itself.

    python3 bench/selftest.py

Runs every workload at a tiny size, untraced and traced, and checks that
exactly the metrics of BENCHMARK.json come out with their units, that no
operation fails, and that the per-layer self times add up to the traced
wall time. Then it corrupts artifacts after real commands and checks that
each corruption registers as a failed operation, not a pass, and that
full-size passes at seed 0 match reference.json while a wrong reference
value fails. Exits 1 on the first broken expectation.
"""

from __future__ import annotations

import contextlib
import json
import math
import shutil
from pathlib import Path

import run
from tracing import CHECK_SPAN, SELF_TIME_METRICS
from workloads import WORKLOADS, build_ops, pool_op


def expect(cond, msg):
    if not cond:
        raise SystemExit(f"selftest FAILED: {msg}")


@contextlib.contextmanager
def scratch_dir(name):
    path = run.WORK / f"selftest-{name}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def check_metrics(workload, trace):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics, record, bench = run.measure(workload, seed=3, seconds=0, trace=trace,
                                         size="tiny", min_passes=1)
    expect(bench.failed == 0 and bench.attempted > 0, f"{workload}: {record['errors']}")
    expect([(n, m["unit"]) for n, m in metrics.items()]
           == [(m["name"], m["unit"]) for m in wanted], f"{workload}: metric names or units")
    expect(all(math.isfinite(m["value"]) for m in metrics.values()),
           f"{workload}: non-finite metric")
    if trace:
        total = sum(metrics[name]["value"] for name in SELF_TIME_METRICS)
        wall = metrics["trace.wall_s"]["value"]
        expect(math.isclose(total, wall, rel_tol=1e-9),
               f"{workload}: self times add to {total}, traced wall is {wall}")
        expect(any(s["name"] == CHECK_SPAN for s in record["spans"]),
               f"{workload}: output checks were not traced")
        if workload == "sweep":
            expect(metrics["pool.worker_spans"]["value"] > 0, "no spans from pool workers")
    else:
        expect(all(m["value"] > 0 for m in metrics.values()), f"{workload}: a zero metric")
    print(f"ok  {workload} trace={trace}: {len(metrics)} metrics, "
          f"{bench.attempted} ops checked")


def _replace_first_phase(path):
    head, first, *rest = path.read_text(encoding="ascii").splitlines()
    cells = first.split(",")
    cells[1] = "4.0"  # outside (-pi, pi]
    path.write_text("\n".join([head, ",".join(cells), *rest]) + "\n", encoding="ascii")


def _truncate(path):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def _drop_last_line(path):
    lines = path.read_text(encoding="ascii").splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n", encoding="ascii")


def _perturb_last_value(path):
    text = path.read_text(encoding="ascii").rstrip("\n")
    head, _, last = text.rpartition(",")
    path.write_text(f"{head},{float(last) + 1e-3!r}\n", encoding="ascii")


# (workload, op label, artifact, corruption)
CORRUPTIONS = [
    ("figures", "sim3", "trajectory.csv", _replace_first_phase),
    ("figures", "fig1", "trajectory_analytic.csv", _truncate),
    ("figures", "fig2", "raster_numerical.pgm", _truncate),
    ("figures", "spec64", "spectrum_cdt.csv", _perturb_last_value),
    ("figures", "ring64", "graph.edges", _drop_last_line),
    ("sweep", "fig3", "sweep.csv", _drop_last_line),
    ("large_graph", "ws_analytic", "manifest.json", Path.unlink),
]


def check_corruption():
    real_main = run.kurasim.cli.main
    for workload, label, artifact, corrupt in CORRUPTIONS:

        def corrupting_main(argv):
            rc = real_main(argv)
            out = Path(argv[argv.index("--out") + 1])
            if out.name == label:
                corrupt(out / artifact)
            return rc

        with scratch_dir(label) as work_dir:
            ops = build_ops(workload, 3, work_dir, "tiny")
            # commands before the target produce the files it reads
            ops = ops[: [op.label for op in ops].index(label) + 1]
            bench = run.Bench(workload, 3, work_dir, "tiny")
            run.kurasim.cli.main = corrupting_main
            try:
                bench.run_ops(ops, traced=False)
            finally:
                run.kurasim.cli.main = real_main
        expect(bench.failed == 1 and bench.errors[0].startswith(f"{label}:"),
               f"corrupted {label}/{artifact} was not a failed op: {bench.errors}")
        print(f"ok  corrupted {label}/{artifact}: {bench.errors[0]}")


def check_reference_match():
    reference = json.loads((run.BENCH_DIR / "reference.json").read_text(encoding="ascii"))
    for workload in WORKLOADS:
        with scratch_dir(f"reference-{workload}") as work_dir:
            bench = run.Bench(workload, 0, work_dir, reference=reference[workload])
            bench.run_ops(build_ops(workload, 0, work_dir), traced=False)
        expect(bench.failed == 0, f"{workload} at seed 0 differs from reference.json: "
                                  f"{bench.errors}")
        print(f"ok  {workload} at seed 0 matches reference.json")


def check_reference_mismatch():
    with scratch_dir("reference-wrong") as work_dir:
        op = pool_op(3, work_dir, "tiny")
        wrong = {op.label: {"rows": [[0.0] * 5] * 2, "r_gap": 0.0}}
        bench = run.Bench("sweep", 3, work_dir, "tiny", reference=wrong)
        bench.run_ops([op], traced=False)
    expect(bench.failed == 1, "a wrong reference value passed")
    print(f"ok  reference mismatch: {bench.errors[0][:100]}")


def main():
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_metrics(workload, trace)
    check_corruption()
    check_reference_match()
    check_reference_mismatch()
    print("selftest passed")


if __name__ == "__main__":
    main()
