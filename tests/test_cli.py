"""End-to-end CLI behavior: artifacts, exit codes, manifests, reproducibility."""

import contextlib
import inspect
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import kurasim
from kurasim import dynamics, graphs, spectral
from kurasim._text import read_json
from kurasim.cli import _FIGURE_FLAGS, _FIGURES, build_parser, main
from kurasim.dynamics import read_trajectory_csv
from kurasim.graphs import gen_complete, gen_ring, gen_watts_strogatz, write_edge_list


def _run(argv):
    return main([str(a) for a in argv])


def _read_csv_rows(path):
    return path.read_text().splitlines()


# ------------------------------------------------------------------- graph

def test_graph_ring_exact_output(tmp_path, capsys):
    assert _run(["graph", "ring", "--n", 5, "--k", 1, "--out", tmp_path]) == 0
    assert (tmp_path / "graph.edges").read_text() == "5 5\n0 1\n0 4\n1 2\n2 3\n3 4\n"
    out = capsys.readouterr().out
    assert "graph: 5 nodes, 5 edges" in out
    assert (tmp_path / "manifest.json").exists()


def test_graph_ws_edge_count(tmp_path):
    assert _run(["graph", "ws", "--n", 200, "--k", 10, "--q", 0.1,
                 "--seed", 7, "--out", tmp_path]) == 0
    header = (tmp_path / "graph.edges").read_text().splitlines()[0]
    assert header == "200 2000"


def test_graph_er_p0_writes_empty_edge_list(tmp_path):
    assert _run(["graph", "er", "--n", 10, "--p", 0, "--out", tmp_path]) == 0
    assert (tmp_path / "graph.edges").read_text() == "10 0\n"


def test_graph_missing_parameter_exits_2(tmp_path, capsys):
    assert _run(["graph", "ring", "--n", 5, "--out", tmp_path]) == 2
    capsys.readouterr()
    # a missing --n reads as simulate's one error line, not argparse's usage message
    assert _run(["graph", "ring", "--k", 2, "--out", tmp_path]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error:") and "--n" in line
    assert not (tmp_path / "manifest.json").exists()


# ---------------------------------------------------------------- simulate

def test_simulate_sample_count(tmp_path, capsys):
    assert _run(["simulate", "--graph", "complete", "--n", 3, "--kappa", 1,
                 "--omega-hz", 10, "--seed", 5, "--out", tmp_path]) == 0
    rows = _read_csv_rows(tmp_path / "trajectory.csv")
    assert rows[0] == "t,theta_0,theta_1,theta_2"
    assert len(rows) == 1 + 1001
    assert (tmp_path / "trajectory.meta").exists()
    assert "simulate: 1001 samples" in capsys.readouterr().out


def test_simulate_methods_share_initial_row(tmp_path):
    a = tmp_path / "num"
    b = tmp_path / "ana"
    _run(["simulate", "--graph", "complete", "--n", 3, "--kappa", 1,
          "--seed", 5, "--out", a])
    _run(["simulate", "--graph", "complete", "--n", 3, "--kappa", 1,
          "--seed", 5, "--method", "analytic", "--out", b])
    row_num = _read_csv_rows(a / "trajectory.csv")[1]
    row_ana = _read_csv_rows(b / "trajectory.csv")[1]
    assert row_num == row_ana


def test_simulate_zero_coupling_is_frozen(tmp_path):
    _run(["simulate", "--graph", "complete", "--n", 4, "--kappa", 0,
          "--seed", 2, "--out", tmp_path])
    rows = _read_csv_rows(tmp_path / "trajectory.csv")[1:]
    phases = {",".join(r.split(",")[1:]) for r in rows}
    assert len(phases) == 1


def test_simulate_kappa_over_n(tmp_path):
    _run(["simulate", "--graph", "complete", "--n", 200, "--kappa-over-n", 6,
          "--out", tmp_path])
    meta = json.loads((tmp_path / "trajectory.meta").read_text())
    assert meta["config"]["kappa"] == 6 / 200
    assert meta["source"] == "numerical"


def test_simulate_coupling_flags_are_exclusive(tmp_path):
    with pytest.raises(SystemExit) as exc:
        _run(["simulate", "--graph", "complete", "--n", 3,
              "--kappa", 1, "--kappa-over-n", 3, "--out", tmp_path])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        _run(["simulate", "--graph", "complete", "--n", 3, "--out", tmp_path])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["simulate", "--graph", "complete", "--n", 3, "--kappa", 1, "--method", "analytic",
     "--no-guard"],
    ["figure", 3, "--full"],
], ids=["no-guard", "full"])
def test_retired_flags_are_rejected_by_argparse(tmp_path, capsys, argv):
    # the guard is always on, and figure 3's grid size is --points alone
    with pytest.raises(SystemExit) as exc:
        _run([*argv, "--out", tmp_path])
    assert exc.value.code == 2 and "unrecognized arguments" in capsys.readouterr().err


def test_simulate_raster(tmp_path):
    _run(["simulate", "--graph", "complete", "--n", 8, "--kappa", 1,
          "--raster", "--out", tmp_path])
    raw = (tmp_path / "trajectory.pgm").read_bytes()
    assert raw.startswith(b"P5\n8 1001\n255\n")


def _k200_guard_shift(out, *flags):
    assert _run(["simulate", "--graph", "complete", "--n", 200, *flags,
                 "--method", "analytic", "--out", out]) == 0
    diag = read_json(out / "manifest.json")["diagnostics"]
    assert diag["route"] == "cdt"
    return diag["guard_shift"]


def test_simulate_analytic_overflow_exits_3(tmp_path, capsys):
    # x(1) on K200 at kappa = 50 reaches e^{gamma * (n - 1)} = e^6.3e3, past the
    # float range; the guard divides it out and the run reports what it divided
    shift = _k200_guard_shift(tmp_path / "k50", "--kappa", 50)
    assert shift == 2 * 50 / np.pi * 199
    # an exponent past the float range itself cannot be formed, guard or not
    assert _run(["simulate", "--graph", "complete", "--n", 200, "--kappa", 1e306,
                 "--method", "analytic", "--out", tmp_path / "far"]) == 3
    assert "exceeds the floating-point range" in capsys.readouterr().err
    assert not (tmp_path / "far" / "trajectory.csv").exists()


def test_simulate_complete_graph_long_horizon_overflow_exits_3(tmp_path, capsys):
    # gamma * (n - 1) * t_end is about 6.3e4 here; the guarded run finishes
    shift = _k200_guard_shift(tmp_path / "k50", "--kappa", 50, "--t-end", 10)
    assert shift == 2 * 50 / np.pi * 199 * 10
    # the bound on the exponent grows with t_end: a coupling that runs for 1 s
    # exits 3 for 10 s
    _k200_guard_shift(tmp_path / "short", "--kappa", 2e305)
    capsys.readouterr()
    assert _run(["simulate", "--graph", "complete", "--n", 200, "--kappa", 2e305,
                 "--t-end", 10, "--method", "analytic", "--out", tmp_path / "long"]) == 3
    assert "exceeds the floating-point range" in capsys.readouterr().err


@pytest.mark.parametrize("graph, build, kappa, route", [
    (["--graph", "ring", "--n", 40, "--k", 3, "--kappa", 1],
     lambda: gen_ring(40, 3), 1.0, "cdt"),
    (["--graph", "complete", "--n", 200, "--kappa", -5, "--t-end", 2],
     lambda: gen_complete(200), -5.0, "cdt"),
    (["--graph", "ws", "--n", 200, "--k", 4, "--q", 0.2, "--kappa-over-n", 50],
     lambda: gen_watts_strogatz(200, 4, 0.2, 0), 50 / 200, "lanczos"),
    # |gamma| * t_end = 64, where eigh once took over: still x0's Krylov space
    (["--graph", "ws", "--n", 200, "--k", 4, "--q", 0.2, "--kappa", 10, "--t-end", 10,
      "--record-every", 100], lambda: gen_watts_strogatz(200, 4, 0.2, 0), 10.0, "lanczos"),
], ids=["ring", "complete", "ws", "eigh"])
def test_no_guard_writes_the_guarded_phases(tmp_path, graph, build, kappa, route):
    # the guard rescales moduli only, so the written phases are those of x(t)
    # itself, which unguarded gives back from the guarded states
    assert _run(["simulate", *graph, "--method", "analytic", "--out", tmp_path]) == 0
    assert read_json(tmp_path / "manifest.json")["diagnostics"]["route"] == route
    written = read_trajectory_csv(tmp_path / "trajectory.csv")[0]
    graph = build()
    x0 = np.exp(1j * dynamics.initial_phases(graph.n, 0))
    states, shift = spectral.Propagator(graph, 2 * kappa / np.pi, written.times)(x0)
    x = spectral.unguarded(states, shift)
    gap = np.remainder(np.angle(x) - written.states + np.pi, 2 * np.pi) - np.pi
    assert np.abs(gap).max() < 1e-10


def test_simulate_repulsive_coupling_guard(tmp_path, monkeypatch):
    # kappa < 0: the dominant mode is lambda_min = -1, and the guard shifts by
    # it; the ring/complete closed form never builds a dense Fourier matrix
    monkeypatch.setattr(spectral, "cdt_fourier_matrix", _no_dense_fourier)
    assert _run(["simulate", "--graph", "complete", "--n", 200, "--kappa", -5,
                 "--method", "analytic", "--t-end", 2, "--out", tmp_path]) == 0
    diag = read_json(tmp_path / "manifest.json")["diagnostics"]
    gamma = 2 * -5 / np.pi
    assert diag["route"] == "cdt" and diag["guard_shift"] == -gamma * 2.0


def test_unknown_graph_source_exits_2(tmp_path, capsys):
    code = _run(["simulate", "--graph", "no_such_file.txt", "--kappa", 1,
                 "--out", tmp_path])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["simulate", "--graph", "ring", "--n", 10, "--k", 2, "--q", 0.5, "--kappa", 1], "--q"),
    (["simulate", "--graph", "ring", "--n", 10, "--k", 2, "--p", 0.5, "--kappa", 1], "--p"),
    (["simulate", "--graph", "complete", "--n", 5, "--k", 2, "--kappa", 1], "--k"),
    (["spectrum", "--graph", "er", "--n", 10, "--p", 0.5, "--q", 0.1], "--q"),
    (["spectrum", "--graph", "er", "--n", 10, "--p", 0.5, "--k", 3], "--k"),
    (["simulate", "--graph", "ws", "--n", 10, "--k", 2, "--q", 0.1, "--p", 0.5,
      "--kappa", 1], "--p"),
    (["graph", "ring", "--n", 10, "--k", 2, "--q", 0.5], "--q"),
    (["graph", "complete", "--n", 10, "--p", 0.5], "--p"),
    (["spectrum", "--graph", "FILE", "--n", 7], "--n"),
    (["simulate", "--graph", "FILE", "--k", 2, "--kappa", 1], "--k"),
])
def test_source_flags_the_graph_does_not_read_exit_2(tmp_path, capsys, argv, flag):
    write_edge_list(gen_ring(12, 2), tmp_path / "ring.edges")
    argv = [tmp_path / "ring.edges" if a == "FILE" else a for a in argv]
    assert _run([*argv, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and flag in err
    assert not (tmp_path / "out" / "manifest.json").exists()


@pytest.mark.parametrize("method", ["numerical", "analytic"])
def test_phases_past_float_resolution_exit_2(tmp_path, capsys, method):
    # |omega| * t_end past 1/eps rad leaves no bits of a phase below 2*pi
    argv = ["simulate", "--graph", "ring", "--n", 6, "--k", 1, "--kappa", 1,
            "--method", method, "--out", tmp_path]
    assert _run([*argv, "--omega-hz", 1e300]) == 2
    assert "float resolution" in capsys.readouterr().err
    assert _run([*argv, "--omega-hz", 8e14]) == 2  # 5.0e15 rad at t_end = 1 s
    assert _run([*argv, "--omega-hz", 1e14, "--t-end", 0.01, "--dt", 1e-3]) == 0


def test_coupled_phases_past_float_resolution_exit_2(tmp_path, capsys):
    # a numerical run's phases can reach (|omega| + |kappa| * max degree) * t_end
    argv = ["simulate", "--graph", "complete", "--n", 3, "--kappa", 1e300, "--out", tmp_path]
    assert _run(argv) == 2
    err = capsys.readouterr().err
    assert "max degree" in err and "float resolution" in err
    assert not (tmp_path / "trajectory.csv").exists()
    # 2.5e15 rad passes; the closed form keeps the omega rule
    assert _run(["simulate", "--graph", "complete", "--n", 3, "--kappa", 1.25e15,
                 "--dt", 0.5, "--out", tmp_path]) == 3  # past Euler's stability bound
    assert _run([*argv, "--method", "analytic"]) == 0


@pytest.mark.parametrize("integrator, kappa, code", [
    ("euler", 10, 0), ("euler", 12, 3), ("rk4", 12, 0), ("rk4", 14, 3)])
def test_integrator_stability_bound(tmp_path, capsys, integrator, kappa, code):
    # dt * |kappa| * n on K200: 2.0 sits on Euler's bound and passes, 2.4 is
    # past it; RK4's bound is 2.785
    argv = ["simulate", "--graph", "complete", "--n", 200, "--kappa", kappa,
            "--integrator", integrator, "--out", tmp_path]
    assert _run(argv) == code
    if code == 3:
        (line,) = capsys.readouterr().err.splitlines()
        assert "stability bound" in line and not (tmp_path / "trajectory.csv").exists()
    else:
        diag = read_json(tmp_path / "manifest.json")["diagnostics"]
        assert diag == {"step_stability": 1e-3 * kappa * 200}


def test_negative_seed_exits_2(tmp_path):
    assert _run(["simulate", "--graph", "complete", "--n", 3, "--kappa", 1,
                 "--seed", -1, "--out", tmp_path]) == 2


# Runs the CLI with its address space capped at 4 GiB, so that an allocation
# larger than that fails on any host, whatever its overcommit policy.
_CAPPED_MAIN = """
import resource, sys
from kurasim.cli import main
soft, hard = resource.getrlimit(resource.RLIMIT_AS)
cap = 4 << 30 if hard == resource.RLIM_INFINITY else min(4 << 30, hard)
resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("dt", ["1e-12", "1e-300", "1e-320"])
def test_run_too_large_for_memory_exits_2(tmp_path, dt):
    # dt = 1e-12 asks for 10^12 recorded samples (7.28 TiB of sample times);
    # dt = 1e-300 for more than numpy can index, dt = 1e-320 for a step count
    # past the float range
    src = str(Path(kurasim.__file__).resolve().parents[1])
    argv = ["simulate", "--graph", "complete", "--n", "3", "--kappa", "1",
            "--dt", dt, "--t-end", "1", "--out", str(tmp_path)]
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, "-c", _CAPPED_MAIN, *argv], capture_output=True,
                         text=True, env=env, timeout=120)
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith("error: ") and "Traceback" not in out.stderr


@pytest.mark.parametrize("argv, code", [
    (["graph", "ring", "--k", 2], 2),
    (["simulate", "--graph", "complete", "--n", 200, "--kappa", 12], 3),
    (["graph", "ring", "--n", 5, "--k", 1], 0),
    (["figure", 3, "--points", 1, "--realizations", 1, "--jobs", 1], 0),
])
def test_out_directory_comes_with_the_first_artifact(tmp_path, argv, code):
    # a rejected run leaves no trace of a nested --out; a run that writes makes it
    assert _run([*argv, "--out", tmp_path / "new" / "out"]) == code
    assert (tmp_path / "new").exists() == (code == 0)
    assert (tmp_path / "new" / "out" / "manifest.json").exists() == (code == 0)


def test_out_below_regular_file_exits_2(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory\n")
    code = _run(["graph", "ring", "--n", 8, "--k", 1, "--out", blocker / "sub"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


# ---------------------------------------------------------------- spectrum

def test_spectrum_cdt_triangle(tmp_path, capsys):
    assert _run(["spectrum", "--graph", "complete", "--n", 3, "--mode", "cdt",
                 "--out", tmp_path]) == 0
    rows = _read_csv_rows(tmp_path / "spectrum.csv")
    assert rows[0] == "lambda_re,lambda_im"
    vals = [float(r.split(",")[0]) for r in rows[1:]]
    assert np.allclose(vals, [2.0, -1.0, -1.0], atol=1e-12)
    assert "largest = 2.0" in capsys.readouterr().out


def test_spectrum_both_routes_agree_on_ring(tmp_path, capsys):
    assert _run(["spectrum", "--graph", "ring", "--n", 64, "--k", 3,
                 "--mode", "both", "--out", tmp_path]) == 0
    assert (tmp_path / "spectrum_cdt.csv").exists()
    assert (tmp_path / "spectrum_numerical.csv").exists()
    line = [ln for ln in capsys.readouterr().out.splitlines()
            if ln.startswith("max elementwise gap")][0]
    assert float(line.split("=")[1]) <= 1e-9


def test_spectrum_both_writes_real_ring_spectra(tmp_path):
    # a ring's adjacency matrix is symmetric, so both files carry an all-zero
    # imaginary column, the circulant one with no FFT round-off in it
    assert _run(["spectrum", "--graph", "ring", "--n", 1500, "--k", 10,
                 "--mode", "both", "--out", tmp_path]) == 0
    for name in ("spectrum_cdt.csv", "spectrum_numerical.csv"):
        rows = _read_csv_rows(tmp_path / name)[1:]
        assert len(rows) == 1500 and {row.split(",")[1] for row in rows} == {"0.0"}, name


def _no_dense_fourier(n):
    raise AssertionError("dense Fourier matrix built")


def test_spectrum_both_is_basis_free(tmp_path, capsys, monkeypatch):
    def no_eigenvectors(a):
        raise AssertionError("eigenvectors computed")

    monkeypatch.setattr(np.linalg, "eigh", no_eigenvectors)
    monkeypatch.setattr(spectral, "cdt_fourier_matrix", _no_dense_fourier)
    n, k = 300, 10
    assert _run(["spectrum", "--graph", "ring", "--n", n, "--k", k,
                 "--mode", "both", "--out", tmp_path]) == 0
    line = [ln for ln in capsys.readouterr().out.splitlines()
            if ln.startswith("max elementwise gap")][0]
    assert float(line.split("=")[1]) <= 1e-8
    for name in ("spectrum_cdt.csv", "spectrum_numerical.csv"):
        vals = spectral.read_spectrum_csv(tmp_path / name)
        assert vals.size == n
        assert np.all(np.diff(vals.real) <= 0.0), name
        # a hollow adjacency matrix has zero trace
        assert abs(vals.sum()) <= 1e-9 * n * vals.real.max(), name


def test_spectrum_numerical_er_trace(tmp_path):
    assert _run(["spectrum", "--graph", "er", "--n", 50, "--p", 0.2,
                 "--seed", 3, "--out", tmp_path]) == 0
    rows = _read_csv_rows(tmp_path / "spectrum.csv")[1:]
    trace = sum(float(r.split(",")[0]) for r in rows)
    assert abs(trace) < 1e-9


def test_spectrum_cdt_rejects_non_circulant(tmp_path, capsys):
    code = _run(["spectrum", "--graph", "er", "--n", 20, "--p", 0.5,
                 "--mode", "cdt", "--out", tmp_path])
    assert code == 2
    assert "circulant" in capsys.readouterr().err


def test_spectrum_cdt_takes_the_graphs_the_closed_form_routes_to_cdt(tmp_path):
    # the route is read from the edges: an edge list of K_n or of a ring is
    # circulant, with the generating vector of the generated graph
    for source, gen in (("k9", ["complete", "--n", 9]), ("ring", ["ring", "--n", 12, "--k", 2]),
                        ("ring1500", ["ring", "--n", 1500, "--k", 10])):
        assert _run(["graph", *gen, "--out", tmp_path / source]) == 0
        assert _run(["spectrum", "--graph", gen[0], *gen[1:], "--mode", "cdt",
                     "--out", tmp_path / source / "gen"]) == 0
        assert _run(["spectrum", "--graph", tmp_path / source / "graph.edges", "--mode", "cdt",
                     "--out", tmp_path / source / "file"]) == 0
        want = (tmp_path / source / "gen" / "spectrum.csv").read_bytes()
        assert (tmp_path / source / "file" / "spectrum.csv").read_bytes() == want, source


def test_analytic_trajectory_of_a_ring_file_is_the_generated_rings(tmp_path):
    ring = ["--n", 1500, "--k", 10]
    analytic = ["--kappa-over-n", 50, "--method", "analytic", "--record-every", 100]
    assert _run(["graph", "ring", *ring, "--out", tmp_path]) == 0
    assert _run(["simulate", "--graph", "ring", *ring, *analytic, "--out", tmp_path / "gen"]) == 0
    assert _run(["simulate", "--graph", tmp_path / "graph.edges", *analytic,
                 "--out", tmp_path / "file"]) == 0
    want = (tmp_path / "gen" / "trajectory.csv").read_bytes()
    assert (tmp_path / "file" / "trajectory.csv").read_bytes() == want
    for run in ("gen", "file"):
        assert read_json(tmp_path / run / "manifest.json")["diagnostics"]["route"] == "cdt"


@pytest.mark.parametrize("mode", ["cdt", "both"])
def test_spectrum_cdt_rejects_non_circulant_without_building_the_route(tmp_path, capsys,
                                                                       monkeypatch, mode):
    # the route is read from the graph's structure; no Lanczos step, and no
    # product with the graph, runs for it to be rejected
    assert _run(["graph", "er", "--n", 60, "--p", 0.1, "--out", tmp_path]) == 0

    def refuse(*args):
        raise AssertionError("a Lanczos step ran")

    monkeypatch.setattr(spectral, "_lanczos", refuse)
    monkeypatch.setattr(graphs.AdjacencyMatrix, "product", refuse)
    capsys.readouterr()
    assert _run(["spectrum", "--graph", tmp_path / "graph.edges", "--mode", mode,
                 "--out", tmp_path / "spec"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "circulant" in err


# ------------------------------------------------------------------ figure

def test_figure1_reports_deviation(tmp_path, capsys):
    assert _run(["figure", "1", "--seed", 7, "--t-end", 10, "--out", tmp_path]) == 0
    line = [ln for ln in capsys.readouterr().out.splitlines()
            if ln.startswith("max wrapped deviation")][0]
    assert float(line.split("=")[1]) < np.pi / 16
    assert (tmp_path / "report.csv").exists()


@pytest.mark.parametrize("method", ["numerical", "analytic"])
def test_figure1_runs_what_simulate_runs(tmp_path, method):
    # one seeded run path: figure 1's trajectories and their sidecars are
    # simulate's, byte for byte
    assert _run(["figure", "1", "--seed", 7, "--out", tmp_path / "fig"]) == 0
    assert _run(["simulate", "--graph", "complete", "--n", 3, "--kappa", 1, "--omega-hz", 10,
                 "--seed", 7, "--method", method, "--out", tmp_path / "sim"]) == 0
    for suffix in (".csv", ".meta"):
        figure = (tmp_path / "fig" / f"trajectory_{method}").with_suffix(suffix).read_bytes()
        assert figure == (tmp_path / "sim" / "trajectory").with_suffix(suffix).read_bytes()
    diagnostics = read_json(tmp_path / "fig" / "manifest.json")["diagnostics"]
    assert diagnostics[method] == read_json(tmp_path / "sim" / "manifest.json")["diagnostics"]


@pytest.mark.parametrize("argv, code, reason", [
    # dt * |kappa| * 2 * max degree = 2.12 on this ER graph, past Euler's 2
    (["--variant", "er", "--kappa", 20], 3, "stability bound"),
    (["--kappa", 1e300], 2, "float resolution"),
])
def test_figure4_exits_as_simulate_does(tmp_path, capsys, argv, code, reason):
    assert _run(["figure", 4, *argv, "--out", tmp_path]) == code
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and reason in line and "--" not in line
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("fig, jobs", [(1, 0), (4, -3)])
def test_every_figure_rejects_jobs_below_one(tmp_path, capsys, fig, jobs):
    assert _run(["figure", fig, "--jobs", jobs, "--out", tmp_path]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error:") and "--jobs" in line
    assert list(tmp_path.iterdir()) == []


def test_figure1_late_time_wander_is_deterministic(tmp_path, capsys):
    # seed 11 locks to a mean phase visibly off the spectral prediction;
    # the run must reproduce that wander exactly, not hide it
    assert _run(["figure", "1", "--seed", 11, "--t-end", 10, "--out", tmp_path]) == 0
    line = [ln for ln in capsys.readouterr().out.splitlines()
            if ln.startswith("max wrapped deviation")][0]
    assert float(line.split("=")[1]) == pytest.approx(0.571942040061515, rel=1e-9)


def test_figure1_honours_zero_t_end(tmp_path):
    assert _run(["figure", "1", "--t-end", 0, "--out", tmp_path]) == 0
    for name in ("trajectory_numerical.csv", "trajectory_analytic.csv"):
        rows = _read_csv_rows(tmp_path / name)
        assert len(rows) == 2 and rows[1].startswith("0.0,"), name


# the value each figure-only flag is given, where 5 would not parse
_FLAG_VALUES = {"--variant": ["ws"]}


@pytest.mark.parametrize("fig, flag", [(2, "--t-end"), (3, "--t-end"), (4, "--t-end"),
                                       (1, "--kappa"), (2, "--kappa"), (3, "--kappa"),
                                       (1, "--points"), (4, "--points"),
                                       (2, "--realizations"),
                                       (1, "--variant"), (3, "--variant")])
def test_figure_rejects_flags_of_other_figures(tmp_path, capsys, fig, flag):
    assert _run(["figure", fig, flag, *_FLAG_VALUES.get(flag, [5]), "--out", tmp_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and flag in err
    assert not (tmp_path / "manifest.json").exists()


def test_figure_manifest_records_the_values_used(tmp_path):
    assert _run(["figure", "1", "--out", tmp_path / "f1"]) == 0
    params = {1: read_json(tmp_path / "f1" / "manifest.json")["params"]}
    assert params[1]["t_end"] == 1.0
    assert params[1]["points"] is params[1]["variant"] is None
    assert _run(["figure", "3", "--points", 2, "--jobs", 1, "--out", tmp_path / "f3"]) == 0
    params[3] = read_json(tmp_path / "f3" / "manifest.json")["params"]
    assert (params[3]["points"], params[3]["realizations"], params[3]["jobs"]) == (2, 10, 1)
    assert params[3]["t_end"] is params[3]["kappa"] is params[3]["variant"] is None
    assert _run(["figure", "4", "--out", tmp_path / "f4"]) == 0
    params[4] = read_json(tmp_path / "f4" / "manifest.json")["params"]
    assert (params[4]["kappa"], params[4]["variant"]) == (0.25, "er")
    assert params[4]["t_end"] is params[4]["points"] is params[4]["realizations"] is None
    # an absent flag records its figure function's default (figure 2 has no flags)
    for figure, recorded in params.items():
        defaults = inspect.signature(_FIGURES[figure]).parameters
        for dest in defaults.keys() & (_FIGURE_FLAGS.keys() - {"points"}):
            assert recorded[dest] == defaults[dest].default, (figure, dest)


@pytest.mark.parametrize("argv, dest, want", [
    (["simulate", "--graph", "ring", "--kappa", "-1e6"], "kappa", -1e6),
    (["simulate", "--graph", "ring", "--kappa", "1", "--omega-hz", "-2.5e1"], "omega_hz", -25.0),
    (["simulate", "--graph", "ring", "--kappa-over-n", "-.5E-3"], "kappa_over_n", -5e-4),
    (["simulate", "--graph", "ring", "--kappa", "-5"], "kappa", -5.0),
    (["simulate", "--graph", "ring", "--kappa", "-7.", "--dt", "1e-4"], "kappa", -7.0),
    (["figure", "4", "--kappa", "-1e+2"], "kappa", -100.0),
])
def test_negative_numbers_parse_in_exponent_form(argv, dest, want):
    # argparse alone reads "-1e6" as an option and stops with "expected one argument"
    assert getattr(build_parser().parse_args(argv), dest) == want


def test_negative_exponent_value_reaches_the_run(tmp_path):
    argv = ["simulate", "--graph", "complete", "--n", 3, "--kappa", 1, "--t-end", 0.01]
    assert _run([*argv, "--omega-hz", "-2.5e1", "--out", tmp_path / "exp"]) == 0
    assert _run([*argv, "--omega-hz=-25", "--out", tmp_path / "eq"]) == 0
    want = (tmp_path / "eq" / "trajectory.csv").read_bytes()
    assert (tmp_path / "exp" / "trajectory.csv").read_bytes() == want


def test_only_figure_takes_jobs(tmp_path):
    assert build_parser().parse_args(["figure", "3"]).jobs == (os.cpu_count() or 1)
    with pytest.raises(SystemExit) as exc:
        _run(["graph", "ring", "--n", 5, "--k", 1, "--jobs", 7, "--out", tmp_path])
    assert exc.value.code == 2
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("jobs", [0, -3])
def test_figure3_rejects_jobs_below_one(tmp_path, capsys, jobs):
    assert _run(["figure", "3", "--points", 2, "--realizations", 1, "--jobs", jobs,
                 "--out", tmp_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "jobs" in err
    assert not (tmp_path / "sweep.csv").exists()
    assert not (tmp_path / "manifest.json").exists()

def test_figure3_rows_do_not_depend_on_jobs(tmp_path):
    for jobs in (1, 2):
        assert _run(["figure", "3", "--points", 20, "--realizations", 4, "--jobs", jobs,
                     "--out", tmp_path / f"jobs{jobs}"]) == 0
    serial = (tmp_path / "jobs1" / "sweep.csv").read_bytes()
    assert serial == (tmp_path / "jobs2" / "sweep.csv").read_bytes()
    assert len(serial.splitlines()) == 21


def test_figure3_smoke(tmp_path, capsys):
    assert _run(["figure", "3", "--points", 5, "--realizations", 2,
                 "--jobs", 1, "--out", tmp_path]) == 0
    rows = _read_csv_rows(tmp_path / "sweep.csv")
    assert rows[0] == "kappa,mean_r_num,std_r_num,mean_r_ana,std_r_ana"
    assert len(rows) == 6
    for r in rows[1:]:
        vals = [float(tok) for tok in r.split(",")]
        assert 0.0 <= vals[1] <= 1.0
        assert 0.0 <= vals[3] <= 1.0
    manifest = read_json(tmp_path / "manifest.json")
    assert manifest["artifacts"] == ["sweep.csv"]


# ------------------------------------------------------------ memory

_RING_FILE = ["--graph", "ring.edges"]  # gen_ring(20000, 3), written before the run


@pytest.mark.parametrize("argv", [
    ["graph", "ring", "--n", 200000, "--k", 2],
    ["spectrum", "--graph", "ring", "--n", 20000, "--k", 3, "--mode", "cdt"],
    ["simulate", "--graph", "ring", "--n", 20000, "--k", 3, "--kappa", 1,
     "--method", "analytic", "--t-end", 0.01],
    ["spectrum", *_RING_FILE, "--mode", "cdt"],
    ["simulate", *_RING_FILE, "--kappa", 1, "--method", "analytic", "--t-end", 0.01],
], ids=["graph", "spectrum", "simulate", "spectrum-file", "simulate-file"])
def test_ring_commands_allocate_no_dense_matrix(tmp_path, argv):
    if argv[1:3] == _RING_FILE:
        n = 20000
        write_edge_list(gen_ring(n, 3), tmp_path / "ring.edges")
        argv = [argv[0], "--graph", tmp_path / "ring.edges", *argv[3:]]
    else:
        n = argv[argv.index("--n") + 1]
    tracemalloc.start()
    try:
        assert _run([*argv, "--out", tmp_path]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # O(n) bytes, where one n x n float array takes 8 n^2
    assert peak < 2048 * n


@pytest.mark.parametrize("method", ["numerical", "analytic"])
def test_sparse_simulate_allocates_no_dense_matrix(tmp_path, method):
    n = 20000
    path = tmp_path / "ws.edges"
    write_edge_list(gen_watts_strogatz(n, 3, 0.1, 0), path)
    argv = ["simulate", "--graph", path, "--kappa", 1, "--method", method, "--t-end", 0.01]
    tracemalloc.start()
    try:
        assert _run([*argv, "--out", tmp_path / "out"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # edge-array products and a Lanczos basis of the steps taken: O(edges)
    # bytes, where one n x n float array takes 8 n^2
    assert peak < 2048 * n


# ------------------------------------------------------------ work counts

_N3 = ["--graph", "complete", "--n", 3, "--kappa", 1, "--omega-hz", 10, "--seed", 7]


@pytest.mark.parametrize("argv, evaluations", [
    (["figure", 1, "--seed", 7, "--t-end", 10], 0),
    (["simulate", *_N3], 0),
    (["simulate", *_N3, "--method", "analytic"], 0),
    (["figure", 2, "--seed", 7], 1000),
    (["simulate", "--graph", "complete", "--n", 200, "--kappa-over-n", 6,
      "--integrator", "rk4", "--seed", 7], 4000),
], ids=["figure1", "simulate3", "simulate3-analytic", "figure2", "rk4-K200"])
def test_numpy_coupling_kernel_evaluations_per_command(tmp_path, monkeypatch, argv, evaluations):
    # a 3-node row steps as Python floats and never calls the numpy kernel; K200
    # calls it once per Euler step and four times per RK4 step (1000 steps of 1 ms)
    calls = []
    numpy_kernel = dynamics.coupling_kernel

    def counting(graph):
        kernel = numpy_kernel(graph)

        def counted(theta):
            calls.append(theta.shape)
            return kernel(theta)
        return counted

    monkeypatch.setattr(dynamics, "coupling_kernel", counting)
    assert _run([*argv, "--out", tmp_path]) == 0
    assert len(calls) == evaluations


def _count_solver_work(monkeypatch):
    """Count graph products and the sizes of the matrices numpy's symmetric
    eigensolvers are given, from here to the end of the test."""
    work = {"products": 0, "eigh": [], "eigvalsh": []}
    product = graphs.AdjacencyMatrix.product

    def counted_product(graph, x):
        work["products"] += 1
        return product(graph, x)

    def counted(name):
        solver = getattr(np.linalg, name)

        def solve(a, *args, **kwargs):
            work[name].append(len(a))
            return solver(a, *args, **kwargs)
        return solve

    monkeypatch.setattr(graphs.AdjacencyMatrix, "product", counted_product)
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counted(name))
    return work


@pytest.mark.parametrize("variant", ["er", "ws"])
def test_figure4_products_and_eigensolves(tmp_path, monkeypatch, variant):
    # two products per Euler RHS evaluation over 1000 steps, and m = 20 Lanczos
    # steps with an eigh of T_m every 4 steps; no n x n eigensolver
    work = _count_solver_work(monkeypatch)
    for seed in range(4):
        work.update(products=0, eigh=[], eigvalsh=[])
        assert _run(["figure", 4, "--variant", variant, "--seed", seed,
                     "--out", tmp_path / str(seed)]) == 0
        diagnostics = read_json(tmp_path / str(seed) / "manifest.json")["diagnostics"]
        assert diagnostics["analytic"]["krylov_dimension"] == 20, seed
        assert work == {"products": 2000 + 20, "eigh": [4, 8, 12, 16, 20], "eigvalsh": []}, seed


@pytest.mark.parametrize("seed", [0, 1])
def test_large_ws_closed_form_products(tmp_path, monkeypatch, seed):
    # the large_graph benchmark's ws_analytic command: WS(1500, 10, 0.1) read
    # from its edge file takes the Lanczos route with m = 12 products and an
    # eigh of T_m every 4 steps; neither command builds the dense entries
    work = _count_solver_work(monkeypatch)
    built = []
    entries = graphs.AdjacencyMatrix.entries
    monkeypatch.setattr(graphs.AdjacencyMatrix, "entries",
                        property(lambda graph: built.append(graph.n) or entries.fget(graph)))
    assert _run(["graph", "ws", "--n", 1500, "--k", 10, "--q", 0.1, "--seed", seed,
                 "--out", tmp_path / "ws"]) == 0
    assert work == {"products": 0, "eigh": [], "eigvalsh": []}
    assert _run(["simulate", "--graph", tmp_path / "ws" / "graph.edges", "--kappa-over-n", 50,
                 "--method", "analytic", "--record-every", 100, "--seed", seed,
                 "--out", tmp_path / "analytic"]) == 0
    assert work == {"products": 12, "eigh": [4, 8, 12], "eigvalsh": []}
    assert built == []
    diagnostics = read_json(tmp_path / "analytic" / "manifest.json")["diagnostics"]
    assert diagnostics["route"] == "lanczos" and diagnostics["krylov_dimension"] == 12


@pytest.mark.parametrize("argv, eigvalsh", [
    (["graph", "ring", "--n", 64, "--k", 3], []),
    (["simulate", *_N3], []),
    (["simulate", *_N3, "--method", "analytic"], []),
    (["spectrum", "--graph", "ring", "--n", 64, "--k", 3, "--mode", "both"], [32, 32]),
    (["figure", 1, "--seed", 7, "--t-end", 10], []),
    (["figure", 2, "--seed", 7], []),
    # README's figure 3 on a smaller grid, in-process: its rows take the same routes
    (["figure", 3, "--points", 2, "--realizations", 2, "--jobs", 1], []),
], ids=["graph", "simulate3", "simulate3-analytic", "spectrum", "figure1", "figure2", "figure3"])
def test_readme_commands_take_no_products_or_eigh(tmp_path, monkeypatch, argv, eigvalsh):
    # complete graphs run the mean-field kernel and the two-eigenspace closed
    # form, rings the FFT; only spectrum --mode numerical|both calls eigvalsh,
    # on a ring's two half-size blocks. README's figure 4 is seed 0 of the
    # test above
    work = _count_solver_work(monkeypatch)
    assert _run([*argv, "--out", tmp_path]) == 0
    assert work == {"products": 0, "eigh": [], "eigvalsh": eigvalsh}


def test_large_graph_spectra_eigvalsh_sizes(tmp_path, monkeypatch):
    # the large_graph benchmark's spectra: the n = 1500 ring is mirror-symmetric
    # and takes two half-size blocks, the WS(1500, 10, 0.1) edge file is not
    # and takes one full solve; neither takes a product or an eigh
    work = _count_solver_work(monkeypatch)
    assert _run(["spectrum", "--graph", "ring", "--n", 1500, "--k", 10, "--mode", "both",
                 "--out", tmp_path / "ring"]) == 0
    assert work == {"products": 0, "eigh": [], "eigvalsh": [750, 750]}
    assert _run(["graph", "ws", "--n", 1500, "--k", 10, "--q", 0.1, "--seed", 0,
                 "--out", tmp_path / "ws"]) == 0
    work["eigvalsh"].clear()
    assert _run(["spectrum", "--graph", tmp_path / "ws" / "graph.edges",
                 "--out", tmp_path / "ws_spectrum"]) == 0
    assert work == {"products": 0, "eigh": [], "eigvalsh": [1500]}


# ------------------------------------------------------------ BLAS threads

# Runs one CLI command and prints, as JSON, the CPU ticks (utime + stime of
# /proc/self/task/*/stat) the main thread and each other thread gained over
# it; exits 77 where the loaded BLAS has no openblas_set_num_threads_local.
# OpenBLAS's workers spin for about 0.05 s after numpy's import starts them,
# which the sleep waits out.
_THREAD_TICKS_MAIN = """
import json, os, sys, time
from kurasim.cli import main
from kurasim.spectral import _blas_thread_setter

def ticks():
    out = {}
    for tid in os.listdir("/proc/self/task"):
        with open(f"/proc/self/task/{tid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        out[int(tid)] = int(fields[11]) + int(fields[12])
    return out

if _blas_thread_setter() is None:
    sys.exit(77)
time.sleep(0.3)
before = ticks()
code = main(sys.argv[1:])
gained = {tid: n - before.get(tid, 0) for tid, n in ticks().items()}
print(json.dumps({"main": gained.pop(os.getpid()), "others": sorted(gained.values())}))
sys.exit(code)
"""


def _default_threads_env():
    """The environment with kurasim on the path and OpenBLAS left at its default threads."""
    src = str(Path(kurasim.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS",
                                                             "OMP_NUM_THREADS")}
    return {**env, "PYTHONPATH": src}


def test_figure4_gives_blas_worker_threads_no_cpu(tmp_path):
    # the closed form on figure 4's n = 200 graph runs on one BLAS thread, and
    # its Euler products were measured to leave OpenBLAS's worker asleep, so
    # no thread but the main one gains CPU; split over two threads, the closed
    # form's readout left a worker spinning for 60-130 ms of CPU
    if not Path("/proc/self/task").is_dir():
        pytest.skip("no /proc/self/task to read per-thread CPU from")
    argv = ["figure", "4", "--variant", "ws", "--seed", "0", "--out", str(tmp_path)]
    out = subprocess.run([sys.executable, "-c", _THREAD_TICKS_MAIN, *argv], capture_output=True,
                         text=True, env=_default_threads_env(), timeout=120)
    if out.returncode == 77:
        pytest.skip("the loaded BLAS has no openblas_set_num_threads_local")
    assert out.returncode == 0, out.stderr
    ticks = json.loads(out.stdout.splitlines()[-1])
    assert ticks["main"] > 0 and not any(ticks["others"]), ticks


@pytest.mark.parametrize("variant", ["er", "ws"])
def test_figure4_bytes_do_not_depend_on_blas_threads(tmp_path, variant):
    runs = []
    for threads in ({}, {"OPENBLAS_NUM_THREADS": "1"}):
        out = tmp_path / str(len(runs))
        subprocess.run([sys.executable, "-m", "kurasim", "figure", "4", "--variant", variant,
                        "--seed", "0", "--out", str(out)], capture_output=True, check=True,
                       env={**_default_threads_env(), **threads}, timeout=120)
        files = {path.name: path.read_bytes() for path in out.iterdir()
                 if path.name != "manifest.json"}
        runs.append((files, read_json(out / "manifest.json")["diagnostics"]))
    assert len(runs[0][0]) == 7 and runs[0] == runs[1]


# --------------------------------------------------------------- manifests

def test_manifest_contents(tmp_path):
    _run(["graph", "ring", "--n", 6, "--k", 2, "--seed", 4, "--out", tmp_path])
    manifest = read_json(tmp_path / "manifest.json")
    assert manifest["command"] == "graph"
    assert manifest["seed"] == 4
    assert manifest["artifacts"] == ["graph.edges"]
    assert manifest["argv"][0] == "graph"
    assert manifest["duration_s"] >= 0.0
    assert isinstance(manifest["version"], str)


def test_simulate_analytic_manifest_diagnostics(tmp_path):
    ws = ["--graph", "ws", "--n", 200, "--k", 4, "--q", 0.2, "--kappa-over-n", 50]
    assert _run(["simulate", *ws, "--method", "analytic", "--out", tmp_path / "ws"]) == 0
    manifest = read_json(tmp_path / "ws" / "manifest.json")
    diag = manifest["diagnostics"]
    assert diag["route"] == "lanczos"
    lo, hi = diag["interval"]
    assert lo < 0.0 < hi and 1 <= diag["krylov_dimension"] <= 50
    # the guard shift at t_end = 1 s is gamma times x0's largest Ritz value, hi
    gamma = 2 * (50 / 200) / np.pi
    assert diag["guard_shift"] == gamma * hi
    assert 0.0 < diag["min_relative_modulus"] <= 1.0
    assert manifest["artifacts"] == ["trajectory.csv", "trajectory.meta"]
    meta = json.loads((tmp_path / "ws" / "trajectory.meta").read_text())
    assert "diagnostics" not in meta
    assert _run(["simulate", "--graph", "ring", "--n", 40, "--k", 3, "--kappa", 1,
                 "--method", "analytic", "--out", tmp_path / "ring"]) == 0
    diag = read_json(tmp_path / "ring" / "manifest.json")["diagnostics"]
    assert diag["route"] == "cdt" and "interval" not in diag
    # strong coupling over 10 s, where eigh once took over: x0's Krylov space
    # grows, up to n at the most
    assert _run(["simulate", "--graph", "ws", "--n", 200, "--k", 4, "--q", 0.2, "--kappa", 10,
                 "--t-end", 10, "--method", "analytic", "--out", tmp_path / "strong"]) == 0
    diag = read_json(tmp_path / "strong" / "manifest.json")["diagnostics"]
    assert diag["route"] == "lanczos" and 50 < diag["krylov_dimension"] <= 200
    lo, hi = diag["interval"]
    assert lo < 0.0 < hi
    # a numerical run records dt * |kappa| * 2 * max degree, its step's stability number
    assert _run(["simulate", *ws, "--out", tmp_path / "num"]) == 0
    diag = read_json(tmp_path / "num" / "manifest.json")["diagnostics"]
    degree = int(gen_watts_strogatz(200, 4, 0.2, 0).degrees().max())
    assert diag == {"step_stability": 1e-3 * (50 / 200) * (2 * degree)}


def test_manifest_replays_to_identical_artifacts(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    _run(["figure", "1", "--seed", 3, "--out", a])
    manifest = read_json(a / "manifest.json")
    argv = list(manifest["argv"])
    argv[argv.index("--out") + 1] = str(b)
    assert main(argv) == 0
    for name in manifest["artifacts"]:
        assert (b / name).read_bytes() == (a / name).read_bytes(), name


def test_rerun_is_bit_reproducible(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        _run(["simulate", "--graph", "er", "--n", 50, "--p", 0.2, "--seed", 9,
              "--kappa", 0.5, "--out", out])
    assert (a / "trajectory.csv").read_bytes() == (b / "trajectory.csv").read_bytes()


def test_printed_artifact_paths_exist(tmp_path, capsys):
    from pathlib import Path

    _run(["simulate", "--graph", "complete", "--n", 3, "--kappa", 1,
          "--out", tmp_path])
    lines = capsys.readouterr().out.splitlines()
    paths = [Path(ln) for ln in lines[1:]]
    assert paths, "artifact paths are printed after the summary"
    assert all(p.exists() for p in paths)
    assert paths[-1].name == "manifest.json"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("kurasim")


# ------------------------------------------------------- exit-code property

# finite extremes and non-finite values; hypothesis adds its own floats
_EXTREME = st.sampled_from([0.0, -0.0, 5e-324, 1e-320, 1e-300, 1e15, 1e300, 1.7e308, -1e-3,
                            -1e300, math.inf, -math.inf, math.nan]) | st.floats()


@st.composite
def _argv(draw):
    """A graph, spectrum or simulate command on a generated graph of at most 50 nodes.

    One value in four is drawn from its extreme or invalid range, the rest
    from an ordinary one, so that every exit code is reached.
    """
    def value(ordinary, extreme=_EXTREME):
        return draw(extreme if draw(st.sampled_from([0, 0, 0, 1])) else ordinary)

    command = draw(st.sampled_from(["graph", "spectrum", "simulate"]))
    kind = draw(st.sampled_from(["ring", "complete", "er", "ws"]))
    argv = ["graph", kind] if command == "graph" else [command, "--graph", kind]
    n = value(st.integers(2, 50), st.integers(-1, 1))
    argv += ["--n", n, "--seed", value(st.integers(0, 2**32), st.integers(-1, 2**64))]
    # the source flags the generator reads, now and then one that it does not
    flags = {"ring": "k", "complete": "", "er": "p", "ws": "kq"}[kind]
    for flag in "kpq" if draw(st.sampled_from([0] * 7 + [1])) else flags:
        if flag == "k":
            argv += ["--k", value(st.integers(1, max(1, (n - 1) // 2)), st.integers(-1, 25))]
        else:
            argv += [f"--{flag}", value(st.floats(0.0, 1.0))]
    if command == "spectrum":
        argv += ["--mode", draw(st.sampled_from(["cdt", "numerical", "both"]))]
    if command == "simulate":
        dt = value(st.sampled_from([1e-3, 0.01, 0.1]))
        t_end = value(st.sampled_from([0.0, 0.01, 0.5, 1.0, 2.0]))
        with np.errstate(all="ignore"):
            steps = np.float64(t_end) / np.float64(dt)
        assume(not (np.isfinite(steps) and abs(steps) > 2000))  # at most 2000 steps
        argv += ["--kappa", value(st.floats(-20.0, 20.0)),
                 "--omega-hz", value(st.floats(-100.0, 100.0)),
                 "--dt", dt, "--t-end", t_end,
                 "--record-every", value(st.integers(1, 3), st.integers(-1, 0)),
                 "--method", draw(st.sampled_from(["numerical", "analytic"])),
                 "--integrator", draw(st.sampled_from(["euler", "rk4"]))]
    return [str(a) for a in argv]


def _finite_number(text):
    value = float(text)
    assert math.isfinite(value), text
    return value


def _exits_0_2_or_3_with_finite_artifacts(argv):
    """Run argv through main; a failure is one stderr line, and a success
    writes only finite numbers. A numpy warning counts as stderr."""
    with tempfile.TemporaryDirectory() as out:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:  # an exception escaping main is the traceback a user would see
                code = main([*argv, "--out", out])
            except SystemExit as exc:  # argparse rejects an argument
                code = exc.code
                assert stderr.getvalue().rstrip().splitlines()[-1].startswith(
                    ("usage: ", "kurasim")), stderr.getvalue()
                return
        err = stderr.getvalue() + "".join(
            warnings.formatwarning(w.message, w.category, w.filename, w.lineno) for w in caught)
        assert code in (0, 2, 3), (code, err)
        if code != 0:
            assert err.startswith("error: ") and err.count("\n") == 1, err
            return
        lines = stdout.getvalue().splitlines()
        paths = [Path(p) for p in lines if Path(p).is_absolute()]
        assert paths and paths[-1].name == "manifest.json" and not lines[0].startswith("/")
        for path in paths:
            if path.suffix == ".csv":
                for row in path.read_text().splitlines()[1:]:
                    [_finite_number(v) for v in row.split(",")]
            elif path.suffix in (".json", ".meta"):
                json.loads(path.read_text(), parse_constant=_finite_number)
            elif path.suffix == ".edges":
                [int(v) for v in path.read_text().split()]


@settings(max_examples=150, deadline=None)
@example(["simulate", "--graph", "complete", "--n", "3", "--kappa", "1", "--dt", "1e-320"])
@example(["simulate", "--graph", "er", "--n", "20", "--p", "0.5", "--kappa", "1.7e308",
          "--t-end", "2"])
@example(["graph", "ring", "--k", "2"])
@given(_argv())
def test_every_command_exits_0_2_or_3_with_finite_artifacts(argv):
    _exits_0_2_or_3_with_finite_artifacts(argv)


@st.composite
def _figure_argv(draw):
    """figure 1, 2 or 4: figure 1 with a --t-end of at most 2 s, figure 4
    with --kappa drawn from extreme floats. Figure 3 is left out: a sweep
    takes seconds."""
    figure = draw(st.sampled_from(["1", "2", "4"]))
    argv = ["figure", figure, "--seed", draw(st.integers(0, 3))]
    if figure == "1":
        argv += ["--t-end", draw(st.sampled_from([0.0, 0.001, 0.5, 2.0])
                                 | st.floats(max_value=2.0))]
    if figure == "4":
        argv += ["--variant", draw(st.sampled_from(["er", "ws"])),
                 "--kappa", draw(_EXTREME | st.floats(-100.0, 100.0))]
    return [str(a) for a in argv]


@settings(max_examples=20, deadline=None)
@example(["figure", "4", "--kappa", "1e300"])
@example(["figure", "4", "--variant", "er", "--kappa", "20"])
@given(_figure_argv())
def test_every_figure_exits_0_2_or_3_with_finite_artifacts(argv):
    _exits_0_2_or_3_with_finite_artifacts(argv)
