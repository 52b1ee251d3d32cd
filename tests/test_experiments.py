"""Comparison reports, figure drivers, the coupling sweep, and rasters."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import eigh_oracle, fourier_oracle
from kurasim._text import write_json
from kurasim.dynamics import (
    SimulationConfig,
    Trajectory,
    analytic_trajectory,
    initial_phases,
    integrate_numerical,
    order_parameter,
    simulate,
    step_states,
    wrap_phase,
)
from kurasim import dynamics, experiments
from kurasim.experiments import (
    REPORT_HEADER,
    SWEEP_HEADER,
    _sweep_task,
    compare_trajectories,
    read_sweep_csv,
    run_fig1,
    run_fig2,
    run_fig3,
    run_fig4,
    write_pgm,
    write_report_csv,
)
from kurasim.graphs import gen_complete


def _traj(times, states):
    return Trajectory(times=np.asarray(times, float),
                      states=np.asarray(states, float), source="numerical")


# -------------------------------------------------------------- comparisons

def test_compare_identical_trajectories():
    t = _traj([0.0, 1.0], [[0.1, 0.2], [0.3, 0.4]])
    rep = compare_trajectories(t, t)
    assert rep.max_wrapped_deviation == 0.0
    assert np.all(rep.per_time_deviation == 0.0)
    assert rep.mean_abs_order_gap == 0.0


def test_compare_single_node_offset():
    a = _traj([0.0], [[0.0, 0.0, 0.0]])
    b = _traj([0.0], [[0.0, 0.0, np.pi]])
    rep = compare_trajectories(a, b)
    assert rep.max_wrapped_deviation == pytest.approx(np.pi, abs=1e-15)


def test_compare_uniform_shift_keeps_order_parameter():
    th0 = initial_phases(5, 1)
    a = _traj([0.0, 1.0], [th0, th0])
    b = _traj([0.0, 1.0], [wrap_phase(th0 + 1.3), wrap_phase(th0 + 1.3)])
    rep = compare_trajectories(a, b)
    assert rep.max_wrapped_deviation == pytest.approx(1.3, abs=1e-12)
    assert rep.mean_abs_order_gap < 1e-12


def test_compare_rejects_mismatched_grids():
    a = _traj([0.0, 1.0], np.zeros((2, 3)))
    b = _traj([0.0, 2.0], np.zeros((2, 3)))
    with pytest.raises(ValueError):
        compare_trajectories(a, b)
    c = _traj([0.0, 1.0], np.zeros((2, 4)))
    with pytest.raises(ValueError):
        compare_trajectories(a, c)
    batch = _traj([0.0, 1.0], np.zeros((2, 2, 3)))  # two runs integrated together
    with pytest.raises(ValueError):
        compare_trajectories(batch, batch)


# ------------------------------------------------------------------- fig 1

def test_fig1_triangle_tracks_closed_form():
    out = run_fig1(seed=7, t_end=10.0)
    assert out.report.max_wrapped_deviation < np.pi / 16
    r_1s = out.report.order_param_series_numerical[
        np.searchsorted(out.report.times, 1.0)]
    assert r_1s > 0.99


def test_fig1_synchronized_start_never_deviates():
    th0 = np.full(3, 0.4)
    g = gen_complete(3)
    cfg = SimulationConfig(graph=g, kappa=1.0, omega=2 * np.pi * 10,
                           dt=1e-3, t_end=1.0)
    num = integrate_numerical(cfg, th0)
    ana = analytic_trajectory(cfg, th0)
    rep = compare_trajectories(num, ana)
    assert rep.max_wrapped_deviation < 1e-9


def test_fig1_artifacts(tmp_path):
    out = run_fig1(seed=7, out_dir=tmp_path)
    names = sorted(p.name for p in out.artifacts)
    assert names == ["report.csv",
                     "trajectory_analytic.csv", "trajectory_analytic.meta",
                     "trajectory_numerical.csv", "trajectory_numerical.meta"]
    assert all(p.exists() for p in out.artifacts)
    text = (tmp_path / "report.csv").read_text()
    assert text.startswith(REPORT_HEADER + "\n")
    assert len(text.splitlines()) == 1002


# ------------------------------------------------------------------- fig 2

def test_fig2_complete_graph_order_parameter():
    out = run_fig2(seed=7)
    assert out.report.mean_abs_order_gap < 0.1
    assert out.report.order_param_series_numerical[-1] > 0.9


def test_fig2_analytic_route_is_solver_independent():
    # swapping the closed form for the dense Fourier or eigh product must
    # not move the phases beyond roundoff
    n, seed = 200, 7
    g = gen_complete(n)
    th0 = initial_phases(n, seed)
    cfg = SimulationConfig(graph=g, kappa=6.0 / n, dt=1e-3, t_end=1.0, seed=seed)
    a = analytic_trajectory(cfg, th0)
    for oracle in (fourier_oracle, eigh_oracle):
        b = np.angle(oracle(g, cfg.gamma, a.times, np.exp(1j * th0))[0])
        assert np.abs(wrap_phase(a.states - b)).max() < 1e-6


def test_fig2_zero_coupling_routes_agree_exactly():
    cfg = SimulationConfig(graph=gen_complete(200), kappa=0.0, dt=1e-3, t_end=1.0, seed=3)
    report = compare_trajectories(simulate(cfg, "numerical"), simulate(cfg, "analytic"))
    assert report.max_wrapped_deviation < 1e-9
    assert np.abs(np.diff(report.order_param_series_numerical)).max() < 1e-12


def test_fig2_rasters(tmp_path):
    out = run_fig2(seed=7, out_dir=tmp_path)
    names = {p.name for p in out.artifacts}
    assert {"raster_numerical.pgm", "raster_analytic.pgm"} <= names
    raw = (tmp_path / "raster_numerical.pgm").read_bytes()
    assert raw.startswith(b"P5\n200 1001\n255\n")
    assert len(raw) == len(b"P5\n200 1001\n255\n") + 200 * 1001


# ------------------------------------------------------------------- fig 3

def test_fig3_smoke_and_resume(tmp_path):
    full_csv = tmp_path / "new" / "full.csv"  # the sweep makes its directory
    res = run_fig3(points=5, realizations=2, seed=0, out_csv=full_csv)
    assert res.kappas.shape == (5,)
    assert np.all((res.mean_abs_r_numerical >= 0) & (res.mean_abs_r_numerical <= 1))
    assert np.all((res.mean_abs_r_analytic >= 0) & (res.mean_abs_r_analytic <= 1))
    assert np.all(res.std_numerical >= 0)

    # interrupting after three grid points and rerunning yields identical bytes
    want = full_csv.read_bytes()
    part = tmp_path / "part.csv"
    lines = want.decode("ascii").splitlines(keepends=True)
    part.write_text("".join(lines[:4]), encoding="ascii")
    # resuming needs the parameter sidecar of the run being continued
    part.with_suffix(".meta").write_bytes(full_csv.with_suffix(".meta").read_bytes())
    run_fig3(points=5, realizations=2, seed=0, out_csv=part)
    assert part.read_bytes() == want

    back = read_sweep_csv(full_csv)
    assert np.array_equal(back.kappas, res.kappas)
    assert np.array_equal(back.mean_abs_r_numerical, res.mean_abs_r_numerical)


_SMALL_SWEEP = dict(points=3, realizations=1, seed=0)


def test_fig3_rejects_foreign_grid(tmp_path):
    # rows of another kappa grid under this run's sidecar
    csv = tmp_path / "sweep.csv"
    run_fig3(**_SMALL_SWEEP, out_csv=csv)
    lines = csv.read_text(encoding="ascii").splitlines(keepends=True)
    lines[2] = "0.5" + lines[2][lines[2].index(","):]
    csv.write_text("".join(lines), encoding="ascii")
    with pytest.raises(ValueError, match="existing sweep row 1 has kappa 0.5"):
        run_fig3(**_SMALL_SWEEP, out_csv=csv)


@pytest.mark.parametrize("change", [{"seed": 99}, {"realizations": 4}, {"n": 50},
                                    {"t_end": 0.2}, {"dt": 5e-4}, {"kappa_lo": 1e-2},
                                    {"kappa_hi": 5.0}])
def test_fig3_refuses_resume_with_other_parameters(tmp_path, change):
    csv, meta = tmp_path / "sweep.csv", tmp_path / "sweep.meta"
    run_fig3(**_SMALL_SWEEP, out_csv=csv)
    lines = csv.read_text(encoding="ascii").splitlines(keepends=True)
    csv.write_text("".join(lines[:2]), encoding="ascii")  # interrupted after one row
    args = {key: value for key, value in change.items() if key in _SMALL_SWEEP}
    if not args:  # a fixed setting: the file comes from a run that had another
        write_json(meta, {"config": {**json.loads(meta.read_text())["config"], **change}})
    before = csv.read_bytes(), meta.read_bytes()
    with pytest.raises(ValueError, match="cannot resume"):
        run_fig3(**{**_SMALL_SWEEP, **args}, out_csv=csv)
    assert (csv.read_bytes(), meta.read_bytes()) == before


def test_fig3_refuses_resume_without_sidecar(tmp_path):
    csv = tmp_path / "sweep.csv"
    run_fig3(**_SMALL_SWEEP, out_csv=csv)
    csv.with_suffix(".meta").unlink()
    with pytest.raises(ValueError, match="sidecar"):
        run_fig3(**_SMALL_SWEEP, out_csv=csv)


@pytest.mark.parametrize("torn", ["cut", "short"])
def test_fig3_recomputes_torn_last_row(tmp_path, torn):
    csv = tmp_path / "sweep.csv"
    run_fig3(**_SMALL_SWEEP, out_csv=csv)
    want = csv.read_bytes()
    lines = want.decode("ascii").splitlines(keepends=True)
    last = lines[3].split(",")
    # a write killed mid-row leaves no newline; a short row lacks fields
    tail = ",".join(last[:2]) if torn == "cut" else ",".join(last[:2]) + "\n"
    csv.write_text("".join(lines[:3]) + tail, encoding="ascii")
    res = run_fig3(**_SMALL_SWEEP, out_csv=csv)
    assert csv.read_bytes() == want
    assert res.kappas.size == 3


@pytest.mark.parametrize("kappa", [1e-3, 10.0])
def test_sweep_row_matches_per_pair_path(kappa):
    # kappa = 10 puts Euler at its stability edge on K200: dt * kappa * N = 2
    n, seeds, dt, t_end = 200, [0, 1, 2], 1e-3, 1.0
    graph = gen_complete(n)
    r_num, r_ana = [], []
    for s in seeds:
        cfg = SimulationConfig(graph=graph, kappa=kappa, dt=dt, t_end=t_end, seed=s)
        theta0 = initial_phases(n, s)
        num = integrate_numerical(cfg, theta0)
        # the closed form as the dense Fourier product of the per-pair path
        ana, _ = fourier_oracle(graph, cfg.gamma, cfg.sample_times(), np.exp(1j * theta0))
        r_num.append(np.abs(order_parameter(num.states)).mean())
        r_ana.append(np.abs(order_parameter(np.angle(ana))).mean())
    want = (kappa, np.mean(r_num), np.std(r_num), np.mean(r_ana), np.std(r_ana))
    (row,) = _sweep_task((n, [kappa], seeds, dt, t_end))
    assert row == pytest.approx(want, rel=1e-10, abs=0.0)


def test_sweep_numerical_r_matches_order_parameter_of_the_states():
    # the sweep reads |r| from the mean-field kernel's sums; order_parameter
    # takes exp() of every phase of the same states
    n, kappa, seeds, dt, t_end = 200, 2.0, [0, 1, 2], 1e-3, 0.3
    cfg = SimulationConfig(graph=gen_complete(n), kappa=kappa, dt=dt, t_end=t_end)
    theta0 = np.array([initial_phases(n, s) for s in seeds])
    r = np.zeros(len(seeds))
    for _, state, _ in step_states(cfg, theta0):
        r += np.abs(order_parameter(state))
    r /= cfg.n_steps + 1
    (row,) = _sweep_task((n, [kappa], seeds, dt, t_end))
    assert abs(row[1] - r.mean()) <= 1e-13 and abs(row[2] - r.std()) <= 1e-13


def test_sweep_chunk_steps_once_and_reads_r_from_the_sums(monkeypatch):
    # one stepping loop per chunk of two kappas and two seeds, one mean-field
    # kernel evaluation per Euler step (1000 steps of 1 ms), and one
    # order_parameter call: on the last state, the one without sums
    work = {"step_states": 0, "kernel": 0, "order_parameter": []}
    last = []
    kernel_of = dynamics.coupling_kernel

    def counted_steps(*args, **kwargs):
        work["step_states"] += 1
        for step, state, sums in step_states(*args, **kwargs):
            last[:] = [state]
            yield step, state, sums

    def counted_kernel(graph):
        kernel = kernel_of(graph)

        def counted(theta):
            work["kernel"] += 1
            return kernel(theta)
        return counted

    def counted_order(theta):
        work["order_parameter"].append(theta)
        return order_parameter(theta)

    monkeypatch.setattr(experiments, "step_states", counted_steps)
    monkeypatch.setattr(dynamics, "coupling_kernel", counted_kernel)
    monkeypatch.setattr(experiments, "order_parameter", counted_order)
    rows = _sweep_task((experiments.N, [0.5, 2.0], [0, 1], experiments.DT, experiments.T_END))
    assert len(rows) == 2
    assert work["step_states"] == 1 and work["kernel"] == 1000
    (theta,) = work["order_parameter"]
    assert theta is last[0] and theta.shape == (4, experiments.N)


@settings(max_examples=12, deadline=None)
@given(points=st.integers(1, 6), realizations=st.integers(1, 4),
       jobs=st.sampled_from([1, 2]), chunk_values=st.integers(1, 6 * 4 * experiments.N))
def test_sweep_rows_do_not_depend_on_chunking(points, realizations, jobs, chunk_values):
    # any chunking of the grid, serial or pooled, gives each row bit for bit
    # the row of a chunk holding its kappa alone
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "_CHUNK_VALUES", chunk_values)
        res = run_fig3(points, realizations, seed=3, jobs=jobs)
    seeds = [3 + r for r in range(realizations)]
    for i, kappa in enumerate(res.kappas):
        (row,) = _sweep_task((experiments.N, [float(kappa)], seeds, experiments.DT,
                              experiments.T_END))
        got = (res.kappas[i], res.mean_abs_r_numerical[i], res.std_numerical[i],
               res.mean_abs_r_analytic[i], res.std_analytic[i])
        assert got == row, i


def test_fig3_resume_inside_a_chunk(tmp_path, monkeypatch):
    # 6 points x 2 seeds x 200 nodes is 2400 values; 1600 puts 4 points in a chunk
    monkeypatch.setattr(experiments, "_CHUNK_VALUES", 1600)
    sweep = dict(points=6, realizations=2, seed=0)
    full = tmp_path / "full.csv"
    run_fig3(**sweep, out_csv=full)
    want = full.read_bytes()
    lines = want.decode("ascii").splitlines(keepends=True)
    for cut in (2, 3, 6):  # after 1, 2 and 5 rows, each inside a chunk of the full run
        part = tmp_path / f"part{cut}.csv"
        part.write_text("".join(lines[:cut]), encoding="ascii")
        part.with_suffix(".meta").write_bytes(full.with_suffix(".meta").read_bytes())
        run_fig3(**sweep, out_csv=part)
        assert part.read_bytes() == want, cut
    # a finished sweep resumes with nothing left to compute, pooled or not
    for jobs in (1, 2):
        assert run_fig3(**sweep, jobs=jobs, out_csv=full).kappas.size == 6
        assert full.read_bytes() == want


# ------------------------------------------------------------------- fig 4

def test_fig4_er_synchronizes():
    out = run_fig4("er", seed=0)
    assert out.report.order_param_series_numerical[-1] > 0.9


def test_fig4_ws_order_grows():
    out = run_fig4("ws", seed=0)
    series = out.report.order_param_series_numerical
    assert series[-1] > series[0]
    assert np.std(out.numerical.states, axis=0).max() > 0.1


def test_fig4_rejects_unknown_variant():
    with pytest.raises(ValueError):
        run_fig4("ba", seed=0)


# ---------------------------------------------------------------- artifacts

def test_pgm_bytes_exact(tmp_path):
    states = np.array([[-np.pi + 0.01, 0.0], [np.pi / 2, np.pi]])
    path = tmp_path / "t.pgm"
    write_pgm(states, path)
    # (theta + pi) / 2pi * 255, rounded half to even: 0, 128, 191, 255
    assert path.read_bytes() == b"P5\n2 2\n255\n\x00\x80\xbf\xff"


def test_report_csv_round_trip(tmp_path):
    out = run_fig1(seed=0, t_end=0.1)
    path = tmp_path / "report.csv"
    write_report_csv(out.report, path)
    rows = path.read_text().splitlines()
    assert rows[0] == REPORT_HEADER
    assert len(rows) == 1 + out.report.times.size
    first = rows[1].split(",")
    assert float(first[0]) == out.report.times[0]
    assert float(first[1]) == out.report.per_time_deviation[0]


def test_sweep_header_constant():
    assert SWEEP_HEADER == "kappa,mean_r_num,std_r_num,mean_r_ana,std_r_ana"
    assert REPORT_HEADER == "t,max_dev,abs_r_num,abs_r_ana"
