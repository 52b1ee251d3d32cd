"""Record the key numbers of every command at the reference seed.

    python3 bench/record_reference.py

Runs one full-size pass of each workload (and the pooled figure-3 slice)
at seed 0, checks every command, and rewrites bench/reference.json with
the numbers the check extracted. Rerun only when a change to kurasim is
meant to change these numbers, and say so in the change's notes.
"""

from __future__ import annotations

import json
import shutil

from run import BENCH_DIR, WORK, Bench
from workloads import REFERENCE_SEED, WORKLOADS, build_ops, check, pool_op


def main():
    reference = {}
    WORK.mkdir(exist_ok=True)
    for workload in WORKLOADS:
        work_dir = WORK / f"reference-{workload}"
        shutil.rmtree(work_dir, ignore_errors=True)
        work_dir.mkdir()
        bench = Bench(workload, REFERENCE_SEED, work_dir)
        ops = build_ops(workload, REFERENCE_SEED, work_dir)
        if workload == "sweep":
            ops.append(pool_op(REFERENCE_SEED, work_dir))
        try:
            reference[workload] = {op.label: check(op, *bench.invoke(op.argv)) for op in ops}
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
    path = BENCH_DIR / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="ascii")
    print(path)


if __name__ == "__main__":
    main()
