"""Text artifacts: every writer against a per-value reference format, the
shortest-decimal kernel against repr value by value, every table reader's
round trip and width error, and bounded-memory writes and reads."""

import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kurasim import _text, experiments
from kurasim._text import BLOCK_VALUES, write_table
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
    """0 rows, 1 row, one block of rows minus one, exactly and plus one, and
    the same around 2**16 values: many blocks."""
    counts = [0, 1]
    for values in (BLOCK_VALUES, 1 << 16):
        rows = values // width
        counts += [rows - 1, rows, rows + 1]
    return counts


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
    path = write_trajectory_csv(traj, cfg, tmp_path / "t.csv")
    header = "t," + ",".join(f"theta_{i}" for i in range(200))
    want = _reference(header, np.column_stack((traj.times, traj.states)))
    assert path.read_bytes() == want
    meta = {"source": "numerical", "config": cfg.to_dict()}
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


# ------------------------------------------- the shortest-decimal kernel

def _ulps(x, k=3):
    """x and its k float neighbours on each side."""
    below, above = [x], [x]
    for _ in range(k):
        below.append(np.nextafter(below[-1], -np.inf))
        above.append(np.nextafter(above[-1], np.inf))
    return below[::-1] + above[1:]


def _kernel_cases():
    rng = np.random.default_rng(11)
    edges = [v for k in range(-5, 18) for v in _ulps(10.0 ** k)]
    edges += [v for k in range(-14, 52) for v in _ulps(2.0 ** k)]
    edges += _ulps(1e-4) + _ulps(2.0 ** 50)  # the ends of the kernel's range
    tiny = 2.2250738585072014e-308
    return {
        "edges": np.array(edges),
        "sample_times": np.arange(20001) * 1e-3,
        "short_decimals": rng.integers(-10**6, 10**6, 20000) / 10.0 ** rng.integers(0, 9, 20000),
        "integers": np.concatenate([rng.integers(0, 2**53, 5000), 2**53 - np.arange(5),
                                    rng.integers(0, 10**6, 5000)]).astype(float),
        "phases": np.concatenate([rng.uniform(-np.pi, np.pi, 20000), [np.pi, -np.pi]]),
        "specials": np.array([0.0, -0.0, 5e-324, tiny, np.nextafter(tiny, 0), 1e308,
                              np.inf, -np.inf, np.nan]),
    }


_KERNEL_CASES = _kernel_cases()


def _signed_table(values, width=7):
    """values and their negations, repeated to fill rows of width."""
    values = np.concatenate([values, -values])
    return np.resize(values, (-(-values.size // width), width))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("sep", [",", " "], ids=["comma", "space"])
@pytest.mark.parametrize("case", sorted(_KERNEL_CASES))
def test_float_kernel_matches_reference(tmp_path, case, sep):
    table = _signed_table(_KERNEL_CASES[case])
    path = write_table(tmp_path / "t.csv", "h", table, sep=sep)
    assert path.read_bytes() == _reference("h", table, sep=sep)


@pytest.mark.filterwarnings("error")
def test_float_kernel_appends_rows(tmp_path):
    table = _signed_table(_KERNEL_CASES["phases"][:BLOCK_VALUES])
    path = tmp_path / "t.csv"
    write_table(path, "h", table[:3])
    write_table(path, None, table[3:])
    write_table(path, None, np.empty((0, table.shape[1])))
    assert path.read_bytes() == _reference("h", table)


@pytest.mark.filterwarnings("error")
@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.floats() | st.floats(-2.0 ** 50, 2.0 ** 50), min_size=1, max_size=80),
       st.integers(1, 7), st.sampled_from([",", " "]))
def test_float_kernel_matches_reference_on_any_floats(values, width, sep):
    table = np.resize(np.array(values), (-(-len(values) // width), width))
    assert b"h\n" + _text._float_rows(table, sep) == _reference("h", table, sep=sep)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("shift", [-1e-9, 1e-9], ids=["below", "above"])
def test_float_kernel_leaves_a_misjudged_decade_to_repr(tmp_path, monkeypatch, shift):
    # a log10 a hair off at powers of ten puts 10**k in the wrong decade
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda x: log10(x) + shift)
    near = np.array([1e-3, 0.1, 1000.0, 1e15])
    table = _signed_table(np.concatenate([near, near * (1 - 1e-10), [3.5]]), width=4)
    seen = []
    repr_batch = _text._repr_batch
    monkeypatch.setattr(_text, "_repr_batch", lambda text, v: seen.append(v.size) or repr_batch(text, v))
    path = write_table(tmp_path / "t.csv", "h", table)
    assert path.read_bytes() == _reference("h", table)
    assert sum(seen) >= 6


@pytest.mark.parametrize("sep", [";;", "", "%", "\u00e9"])
def test_float_table_refuses_a_separator_the_kernel_cannot_write(tmp_path, sep):
    with pytest.raises(ValueError, match="separator"):
        write_table(tmp_path / "t.csv", "h", np.zeros((1, 2)), sep=sep)
    assert not (tmp_path / "t.csv").exists()


def test_figure4_leaves_few_values_to_repr(tmp_path, monkeypatch):
    # the kernel's range covers what the figures write: phases, sample
    # times, order parameters and deviations
    seen = {"values": 0, "left": 0}
    float_rows, repr_batch = _text._float_rows, _text._repr_batch

    def counted_rows(block, sep):
        seen["values"] += np.count_nonzero(block)
        return float_rows(block, sep)

    def counted_batch(text, values):
        seen["left"] += values.size
        return repr_batch(text, values)

    monkeypatch.setattr(_text, "_float_rows", counted_rows)
    monkeypatch.setattr(_text, "_repr_batch", counted_batch)
    experiments.run_fig4("er", seed=0, out_dir=tmp_path)
    assert seen["values"] > 400_000
    assert seen["left"] <= 0.001 * seen["values"], seen


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


def test_float_block_temporaries_are_bounded():
    # one block of a 200-node trajectory; measured at 0.82 MiB
    block = _signed_table(_KERNEL_CASES["phases"], width=201)[:BLOCK_VALUES // 201]
    _text._float_rows(block, ",")
    peak = _traced_peak(lambda: _text._float_rows(block, ","))
    assert peak < 1.5 * 2**20


def test_float_kernel_tables_are_small():
    tables = [v for v in vars(_text).values() if isinstance(v, np.ndarray)]
    assert sum(t.nbytes for t in tables) < 64 * 2**10


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
