"""Text artifacts: every writer against a per-value reference format, every
table reader's round trip and width error, and bounded-memory writes and reads."""

import json
import re
import tracemalloc

import numpy as np
import pytest

from kurasim import experiments
from kurasim._text import BLOCK_VALUES
from kurasim.dynamics import (SimulationConfig, Trajectory, read_trajectory_csv,
                              write_trajectory_csv)
from kurasim.experiments import (REPORT_HEADER, SWEEP_HEADER, ComparisonReport,
                                 read_sweep_csv, run_fig3, write_report_csv)
from kurasim.graphs import AdjacencyMatrix, gen_complete, gen_ring, write_edge_list
from kurasim.spectral import read_spectrum_csv, write_spectrum_csv

# floats whose shortest round-trip decimals are easy to get wrong
_SPECIAL = [-0.0, 5e-324, 1e308, 0.1, -1.7976931348623157e308, 2.2250738585072014e-308]


def _reference(header, rows, sep=",", conv=float):
    """The artifact format written value by value: the oracle for every writer."""
    lines = [header] + [sep.join(repr(conv(v)) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode("ascii")


def _floats(rows, width, seed=0):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(rows * width) * 10.0 ** rng.integers(-30, 30, rows * width)
    vals[::3] = np.resize(_SPECIAL, vals[::3].size)
    return vals.reshape(rows, width)


def _row_counts(width):
    """0 rows, 1 row, and one block of rows minus one, exactly and plus one."""
    block = BLOCK_VALUES // width
    return [0, 1, block - 1, block, block + 1]


def _complex(table):
    # not re + 1j*im, which turns a -0.0 real part into 0.0
    vals = np.empty(len(table), dtype=complex)
    vals.real, vals.imag = table[:, 0], table[:, 1]
    return vals


def _config(n):
    return SimulationConfig(graph=gen_complete(n), kappa=1.0, dt=1e-3, t_end=1.0, seed=3)


def _trajectory(rows, n):
    return Trajectory(np.arange(rows) * 1e-3, _floats(rows, n), "numerical")


# ------------------------------------------------------- reference format

@pytest.mark.parametrize("rows", _row_counts(2))
def test_edge_list_matches_reference(tmp_path, rows):
    # node ids on both sides of 2**31
    n = 2**31 + 7
    lo = np.arange(rows, dtype=np.int64) + 2**31 - rows
    graph = AdjacencyMatrix(n, lo, lo + 5)
    write_edge_list(graph, tmp_path / "g.edges")
    want = _reference(f"{n} {rows}", np.column_stack((lo, lo + 5)), sep=" ", conv=int)
    assert (tmp_path / "g.edges").read_bytes() == want


@pytest.mark.parametrize("rows", _row_counts(201))
def test_trajectory_matches_reference(tmp_path, rows):
    traj, cfg = _trajectory(rows, 200), _config(200)
    path = write_trajectory_csv(traj, cfg, tmp_path / "t.csv", extra_meta={"method": "x"})
    header = "t," + ",".join(f"theta_{i}" for i in range(200))
    want = _reference(header, np.column_stack((traj.times, traj.states)))
    assert path.read_bytes() == want
    meta = {"source": "numerical", "config": cfg.to_dict(), "method": "x"}
    want_meta = json.dumps(meta, indent=2, sort_keys=True) + "\n"
    assert path.with_suffix(".meta").read_text(encoding="ascii") == want_meta


@pytest.mark.parametrize("rows", _row_counts(2))
def test_spectrum_matches_reference(tmp_path, rows):
    vals = _complex(_floats(rows, 2))
    write_spectrum_csv(vals, tmp_path / "s.csv")
    want = _reference("lambda_re,lambda_im", [(v.real, v.imag) for v in vals])
    assert (tmp_path / "s.csv").read_bytes() == want


@pytest.mark.parametrize("rows", _row_counts(4))
def test_report_matches_reference(tmp_path, rows):
    table = _floats(rows, 4)
    report = ComparisonReport(times=table[:, 0], per_time_deviation=table[:, 1],
                              max_wrapped_deviation=0.0,
                              order_param_series_numerical=table[:, 2],
                              order_param_series_analytic=table[:, 3],
                              mean_abs_order_gap=0.0)
    write_report_csv(report, tmp_path / "report.csv")
    assert (tmp_path / "report.csv").read_bytes() == _reference(REPORT_HEADER, table)


def _fake_sweep(monkeypatch, table):
    """Make the sweep's rows the rows of table, in grid order."""
    rows = iter(table.tolist())
    monkeypatch.setattr(experiments, "_sweep_task",
                        lambda task: [tuple(next(rows)) for _ in task[1]])


@pytest.mark.parametrize("rows", [1, 3])
def test_sweep_rows_match_reference(tmp_path, monkeypatch, rows):
    table = _floats(rows, 5)
    _fake_sweep(monkeypatch, table)
    csv = tmp_path / "sweep.csv"
    run_fig3(points=rows, realizations=1, jobs=1, out_csv=csv)
    assert csv.read_bytes() == _reference(SWEEP_HEADER, table)
    meta = json.loads(csv.with_suffix(".meta").read_text(encoding="ascii"))
    want_meta = json.dumps(meta, indent=2, sort_keys=True) + "\n"
    assert csv.with_suffix(".meta").read_text(encoding="ascii") == want_meta


# ------------------------------------------------------------ readers

def _same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def test_trajectory_round_trip(tmp_path):
    traj = _trajectory(7, 5)
    path = write_trajectory_csv(traj, _config(5), tmp_path / "t.csv")
    back, meta = read_trajectory_csv(path)
    assert _same_bits(back.times, traj.times) and _same_bits(back.states, traj.states)
    assert meta["source"] == back.source == "numerical"


def test_spectrum_round_trip(tmp_path):
    vals = _complex(_floats(9, 2))
    write_spectrum_csv(vals, tmp_path / "s.csv")
    back = read_spectrum_csv(tmp_path / "s.csv")
    assert _same_bits(back.real, vals.real) and _same_bits(back.imag, vals.imag)


def test_sweep_round_trip(tmp_path, monkeypatch):
    table = _floats(4, 5)
    _fake_sweep(monkeypatch, table)
    result = run_fig3(points=4, realizations=1, jobs=1, out_csv=tmp_path / "sweep.csv")
    back = read_sweep_csv(tmp_path / "sweep.csv")
    for col, name in enumerate(("kappas", "mean_abs_r_numerical", "std_numerical",
                                "mean_abs_r_analytic", "std_analytic")):
        assert _same_bits(getattr(back, name), table[:, col]), name
        assert _same_bits(getattr(result, name), table[:, col]), name


def _write_trajectory(path):
    write_trajectory_csv(_trajectory(3, 3), _config(3), path)


def _write_spectrum(path):
    write_spectrum_csv(np.arange(3) + 0.5j, path)


def _write_sweep(path):
    with pytest.MonkeyPatch.context() as mp:
        _fake_sweep(mp, _floats(3, 5))
        run_fig3(points=3, realizations=1, jobs=1, out_csv=path)


@pytest.mark.parametrize("write, read, width", [
    (_write_trajectory, read_trajectory_csv, 4),
    (_write_spectrum, read_spectrum_csv, 2),
    (_write_sweep, read_sweep_csv, 5),
], ids=["trajectory", "spectrum", "sweep"])
@pytest.mark.parametrize("change", ["short", "long"])
def test_reader_names_row_and_path_of_a_row_of_wrong_width(tmp_path, write, read,
                                                            width, change):
    path = tmp_path / "table.csv"
    write(path)
    lines = path.read_text(encoding="ascii").splitlines()
    fields = lines[2].split(",")
    fields = fields[:-1] if change == "short" else fields + ["0.5"]
    lines[2] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    want = f"row 1 of {path} has {len(fields)} fields, expected {width}"
    with pytest.raises(ValueError, match=re.escape(want)):
        read(path)


# ------------------------------------------------------------- memory

def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_edge_list_write_memory_is_bounded(tmp_path):
    graph = gen_ring(200_000, 2)  # 400 000 edges
    peak = _traced_peak(lambda: write_edge_list(graph, tmp_path / "g.edges"))
    assert peak < 16 * 2**20


def test_trajectory_write_memory_is_bounded(tmp_path):
    traj, cfg = _trajectory(1001, 200), _config(200)
    peak = _traced_peak(lambda: write_trajectory_csv(traj, cfg, tmp_path / "t.csv"))
    assert peak < 8 * 2**20


def test_trajectory_read_memory_is_bounded(tmp_path):
    # rows are converted one at a time: all 201 000 fields split into strings
    # at once peaked near 20 MiB, and the allocator kept a varying share of it
    path = tmp_path / "t.csv"
    write_trajectory_csv(_trajectory(1001, 200), _config(200), path)
    peak = _traced_peak(lambda: read_trajectory_csv(path))
    assert peak < 8 * 2**20
