"""End-to-end CLI behavior: artifacts, exit codes, manifests, reproducibility."""

import json

import numpy as np
import pytest

from kurasim import spectral
from kurasim.cli import load_manifest, main
from kurasim.dynamics import read_trajectory_csv


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


def test_graph_missing_parameter_exits_2(tmp_path):
    assert _run(["graph", "ring", "--n", 5, "--out", tmp_path]) == 2


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
    assert meta["method"] == "numerical"


def test_simulate_coupling_flags_are_exclusive(tmp_path):
    with pytest.raises(SystemExit) as exc:
        _run(["simulate", "--graph", "complete", "--n", 3,
              "--kappa", 1, "--kappa-over-n", 3, "--out", tmp_path])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        _run(["simulate", "--graph", "complete", "--n", 3, "--out", tmp_path])
    assert exc.value.code == 2


def test_simulate_raster(tmp_path):
    _run(["simulate", "--graph", "complete", "--n", 8, "--kappa", 1,
          "--raster", "--out", tmp_path])
    raw = (tmp_path / "trajectory.pgm").read_bytes()
    assert raw.startswith(b"P5\n8 1001\n255\n")


def test_simulate_analytic_overflow_exits_3(tmp_path, capsys):
    code = _run(["simulate", "--graph", "complete", "--n", 200, "--kappa", 50,
                 "--method", "analytic", "--no-guard", "--out", tmp_path])
    assert code == 3
    assert "error:" in capsys.readouterr().err
    # the guard makes the same run finish
    assert _run(["simulate", "--graph", "complete", "--n", 200, "--kappa", 50,
                 "--method", "analytic", "--out", tmp_path]) == 0


def test_simulate_repulsive_coupling_guard(tmp_path, monkeypatch):
    # kappa < 0: the dominant mode is lambda_min, and the guard must shift by it
    argv = ["simulate", "--graph", "complete", "--n", 200, "--kappa", -5,
            "--method", "analytic", "--t-end", 2]
    assert _run(argv + ["--no-guard", "--out", tmp_path / "raw"]) == 0
    # the ring/complete closed form never builds a dense Fourier matrix
    monkeypatch.setattr(spectral, "cdt_fourier_matrix", _no_dense_fourier)
    assert _run(argv + ["--out", tmp_path / "guarded"]) == 0
    raw = read_trajectory_csv(tmp_path / "raw" / "trajectory.csv")[0].states
    guarded = read_trajectory_csv(tmp_path / "guarded" / "trajectory.csv")[0].states
    diff = np.remainder(guarded - raw + np.pi, 2 * np.pi) - np.pi
    assert np.abs(diff).max() <= 1e-9


def test_unknown_graph_source_exits_2(tmp_path, capsys):
    code = _run(["simulate", "--graph", "no_such_file.txt", "--kappa", 1,
                 "--out", tmp_path])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_negative_seed_exits_2(tmp_path):
    assert _run(["simulate", "--graph", "complete", "--n", 3, "--kappa", 1,
                 "--seed", -1, "--out", tmp_path]) == 2


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


# ------------------------------------------------------------------ figure

def test_figure1_reports_deviation(tmp_path, capsys):
    assert _run(["figure", "1", "--seed", 7, "--t-end", 10, "--out", tmp_path]) == 0
    line = [ln for ln in capsys.readouterr().out.splitlines()
            if ln.startswith("max wrapped deviation")][0]
    assert float(line.split("=")[1]) < np.pi / 16
    assert (tmp_path / "report.csv").exists()


def test_figure1_late_time_wander_is_deterministic(tmp_path, capsys):
    # seed 11 locks to a mean phase visibly off the spectral prediction;
    # the run must reproduce that wander exactly, not hide it
    assert _run(["figure", "1", "--seed", 11, "--t-end", 10, "--out", tmp_path]) == 0
    line = [ln for ln in capsys.readouterr().out.splitlines()
            if ln.startswith("max wrapped deviation")][0]
    assert float(line.split("=")[1]) == pytest.approx(0.571942040061515, rel=1e-9)


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
    manifest = load_manifest(tmp_path / "manifest.json")
    assert manifest["artifacts"] == ["sweep.csv"]


# --------------------------------------------------------------- manifests

def test_manifest_contents(tmp_path):
    _run(["graph", "ring", "--n", 6, "--k", 2, "--seed", 4, "--out", tmp_path])
    manifest = load_manifest(tmp_path / "manifest.json")
    assert manifest["command"] == "graph"
    assert manifest["seed"] == 4
    assert manifest["artifacts"] == ["graph.edges"]
    assert manifest["argv"][0] == "graph"
    assert manifest["duration_s"] >= 0.0
    assert isinstance(manifest["version"], str)


def test_manifest_replays_to_identical_artifacts(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    _run(["figure", "1", "--seed", 3, "--out", a])
    manifest = load_manifest(a / "manifest.json")
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
