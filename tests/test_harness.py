"""Configuration parsing, error indicators and the experiment drivers."""

import configparser
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from laxrom import (
    ExperimentConfig,
    assemble,
    build_uniform_mesh_1d,
    compare_frobenius,
    dynamics,
    eps_amplitude,
    eps_l2,
    harness,
    load_config,
    orthonormalize_g,
    propagate_basis,
    reconstruct_nodal,
    run_chi_sweep,
    run_experiment,
    run_scsa,
)

TINY_ADVECTION = """
[experiment]
problem = advection
[mesh]
a = 0.0
b = 1.0
n_nodes = 81
[reduction]
chi = 60
nm_list = 4 6
[time]
dt = 0.03125
t_max = 0.25
[model]
c = 0.5
"""


def write_config(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


# ---------------------------------------------------------------------------
# configuration files


ROUND_TRIP = """
[experiment]
problem = kdv_soliton
out_dir = results
[mesh]
a = -5
b = 25
n_nodes = 500
[reduction]
chi = 1.0
nm_list = 26, 28, 30
[time]
dt = 2e-3
t_max = 5.0
[solver]
fp_tol = 1e-10
tol_deg = 1e-7
[model]
beta_speed = 4.0
x0 = 0.0
amplitude_law = separated
"""

# every key ROUND_TRIP leaves at its default
ROUND_TRIP_REST = """
[experiment]
problem = fkpp
[mesh]
n_per_side = 6
bc = Dirichlet
[reduction]
chi = 25
nm_list = 4 8
nm_ref = 12
[time]
dt = 0.01
t_max = 0.05
[solver]
fp_max_iters = 7
[model]
c = 0.25
nu = 50
c_scatter = 0.05, 0.15
k_scatter = 1.0 1.5
[scsa]
signal = signal.csv
chi_grid = 10, 20.5
n_modes_cap = 7
methods = eigen
"""


def test_config_round_trip(tmp_path):
    covered = set()
    for text in (ROUND_TRIP, ROUND_TRIP_REST):
        parser = configparser.ConfigParser()
        parser.read_string(text)
        covered |= {key for section in parser.sections() for key in parser[section]}
    assert covered == {key for keys in harness._SCHEMA.values() for key in keys}

    path = write_config(tmp_path, ROUND_TRIP)
    cfg = load_config(path)
    assert cfg.problem == "kdv_soliton"
    assert cfg.out_dir == "results"
    assert cfg.a == -5.0 and cfg.b == 25.0 and cfg.n_nodes == 500
    assert cfg.nm_list == (26, 28, 30)
    assert cfg.dt == 2e-3 and cfg.t_max == 5.0
    assert cfg.fp_tol == 1e-10 and cfg.tol_deg == 1e-7
    assert cfg.beta_speed == 4.0 and cfg.amplitude_law == "separated"
    assert cfg.source_path == str(path)
    assert len(cfg.source_hash) == 64

    cfg = load_config(write_config(tmp_path, ROUND_TRIP_REST, "rest.ini"))
    assert cfg.problem == "fkpp" and cfg.out_dir is None
    assert cfg.n_per_side == 6 and cfg.bc == "dirichlet"
    assert cfg.chi == 25.0 and cfg.nm_list == (4, 8) and cfg.nm_ref == 12
    assert cfg.fp_max_iters == 7
    assert cfg.c == 0.25 and cfg.nu == 50.0
    assert cfg.c_scatter == (0.05, 0.15) and cfg.k_scatter == (1.0, 1.5)
    assert cfg.signal == "signal.csv" and cfg.chi_grid == (10.0, 20.5)
    assert cfg.n_modes_cap == 7 and cfg.methods == ("eigen",)


def test_config_rejects_unknown_section(tmp_path):
    path = write_config(tmp_path, TINY_ADVECTION + "\n[plotting]\nstyle = fancy\n")
    with pytest.raises(ValueError, match="unknown section"):
        load_config(path)


def test_config_rejects_unknown_key(tmp_path):
    path = write_config(tmp_path, TINY_ADVECTION + "\n[solver]\nnewton = yes\n")
    with pytest.raises(ValueError, match="unknown key"):
        load_config(path)


def test_config_requires_problem(tmp_path):
    path = write_config(tmp_path, "[mesh]\nn_nodes = 10\n")
    with pytest.raises(ValueError, match="problem"):
        load_config(path)


def test_config_rejects_unknown_problem(tmp_path):
    path = write_config(tmp_path, "[experiment]\nproblem = burgers\n")
    with pytest.raises(ValueError, match="unknown problem"):
        load_config(path)


# ---------------------------------------------------------------------------
# error indicators


@pytest.fixture(scope="module")
def fem_line():
    return assemble(build_uniform_mesh_1d(0.0, 1.0, 101))


def test_eps_l2_trivial_cases(fem_line):
    x = fem_line.coords
    u = np.sin(np.pi * x)
    assert eps_l2(fem_line, u, u) == 0.0
    assert abs(eps_l2(fem_line, u, np.zeros_like(u)) - 1.0) < 1e-14
    # doubling the field doubles the difference, so the ratio is exactly one
    assert abs(eps_l2(fem_line, u, 2.0 * u) - 1.0) < 1e-14


def test_eps_l2_rejects_zero_reference(fem_line):
    with pytest.raises(ValueError):
        eps_l2(fem_line, np.zeros(fem_line.n_active), np.ones(fem_line.n_active))


def test_amplitude_error_compares_peaks():
    u = np.array([0.0, 1.0, 0.2])
    assert eps_amplitude(u, u) == 0.0
    assert abs(eps_amplitude(np.array([1.0]), np.array([0.9968])) - 0.0032) < 1e-12
    # a shifted copy has the same peak value
    assert eps_amplitude(u, np.roll(u, 1)) == 0.0


# ---------------------------------------------------------------------------
# experiment driver


@pytest.fixture(scope="module")
def advection_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("adv")
    cfg = ExperimentConfig(problem="advection")
    cfg.n_nodes = 81
    cfg.chi, cfg.c = 60.0, 0.5
    cfg.dt, cfg.t_max = 1.0 / 32, 0.25
    cfg.nm_list = (4, 6)
    cfg.out_dir = str(out)
    report = run_experiment(cfg)
    return cfg, report


def test_experiment_reports_one_row_per_mode_count(advection_run):
    cfg, report = advection_run
    assert report.errors == {}
    assert [r.nm for r in report.rows] == [4, 6]
    for r in report.rows:
        for val in (r.mean_eps_l2, r.max_eps_l2, r.eps_final, r.eps_amp):
            assert np.isfinite(val) and val >= 0.0
    # more modes, better resolution
    assert report.rows[1].mean_eps_l2 < report.rows[0].mean_eps_l2


def test_experiment_writes_tables_and_snapshots(advection_run):
    cfg, report = advection_run
    files = set(os.listdir(cfg.out_dir))
    assert "table.csv" in files and "manifest.txt" in files
    for nm in (4, 6):
        assert f"errors_nm{nm:03d}.csv" in files
        assert f"mnorm_nm{nm:03d}.csv" in files
        for tag in ("t000", "t025", "t050", "t100"):
            assert f"snapshot_nm{nm:03d}_{tag}.csv" in files
    table = np.loadtxt(os.path.join(cfg.out_dir, "table.csv"),
                       delimiter=",", skiprows=1)
    assert table.shape == (len(cfg.nm_list), 5)
    series = np.loadtxt(os.path.join(cfg.out_dir, "errors_nm004.csv"),
                        delimiter=",", skiprows=1)
    assert series.shape == (9, 3)  # 8 steps + initial level


def test_experiment_manifest_records_config(advection_run):
    cfg, _ = advection_run
    text = Path(cfg.out_dir, "manifest.txt").read_text()
    assert "problem = advection" in text
    assert "numpy =" in text and "laxrom =" in text


def test_repeated_runs_are_bit_identical(tmp_path):
    outputs = []
    for name in ("one", "two"):
        cfg = ExperimentConfig(problem="advection")
        cfg.n_nodes = 61
        cfg.chi, cfg.c = 60.0, 0.5
        cfg.dt, cfg.t_max = 1.0 / 16, 0.25
        cfg.nm_list = (5,)
        cfg.out_dir = str(tmp_path / name)
        run_experiment(cfg)
        outputs.append(Path(cfg.out_dir, "errors_nm005.csv").read_text())
    assert outputs[0] == outputs[1]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_failures_are_recorded_per_mode_count(tmp_path):
    # a deliberately oversized time step makes the midpoint iteration diverge
    cfg = ExperimentConfig(problem="fkpp")
    cfg.n_nodes = 61
    cfg.chi, cfg.nu = 40.0, 400.0
    cfg.dt, cfg.t_max = 0.05, 0.1
    cfg.nm_list = (4, 6)
    cfg.out_dir = str(tmp_path)
    report = run_experiment(cfg)
    assert set(report.errors) == {4, 6}
    assert all("FixedPointError" in msg for msg in report.errors.values())
    assert report.rows == []
    failures = Path(cfg.out_dir, "failures.txt").read_text()
    assert "N_M=4" in failures and "N_M=6" in failures


def test_failures_record_a_basis_off_g_orthonormal(tmp_path, monkeypatch):
    # modes scaled by 1 + 1e-9 run normally but end 2e-9 off G-orthonormal
    solve = harness.solve_schrodinger_eig

    def scaled(*args):
        basis = solve(*args)
        return replace(basis, B=basis.B * (1.0 + 1e-9))

    monkeypatch.setattr(harness, "solve_schrodinger_eig", scaled)
    cfg = ExperimentConfig(problem="advection")
    cfg.n_nodes = 61
    cfg.chi, cfg.c = 60.0, 0.5
    cfg.dt, cfg.t_max = 1.0 / 16, 0.25
    cfg.nm_list = (4, 5)
    cfg.out_dir = str(tmp_path)
    report = run_experiment(cfg)
    assert report.rows == []
    for nm in (4, 5):
        assert report.errors[nm].startswith(f"InvariantError: N_M={nm}: ")
    failures = Path(cfg.out_dir, "failures.txt").read_text()
    assert "N_M=4: InvariantError" in failures and "N_M=5: InvariantError" in failures


@pytest.mark.parametrize("problem", ["advection", "kdv_soliton"])
def test_error_series_matches_per_level_definition(problem):
    cfg = ExperimentConfig(problem=problem)
    if problem == "advection":
        cfg.n_nodes, cfg.chi, cfg.c = 121, 60.0, 0.5
        cfg.dt, cfg.t_max = 1.0 / 256, 0.5
        nm = 8
    else:
        cfg.a, cfg.b, cfg.n_nodes = -5.0, 15.0, 201
        cfg.beta_speed, cfg.x0 = 4.0, 0.0
        cfg.dt, cfg.t_max = 2e-3, 0.3
        nm = 10
    n_steps = cfg.solver().n_steps()
    assert n_steps + 1 > 2 * harness._CHUNK  # levels in three chunks
    fem, u0, basis_full, model = harness._setup(cfg, nm)
    ref = harness._reference_series(cfg, fem, u0, n_steps)
    basis, traj = harness._trajectory(cfg, basis_full, model, u0, nm)
    law = model.coefficient_law
    snap_indices = [0, harness._CHUNK + 1, n_steps]
    eps, amp, snaps = harness._error_series(basis, traj, law, ref, snap_indices)
    assert sorted(snaps) == snap_indices

    # the definition, one level at a time: the same midpoint steps, each
    # generator's Cayley factor applied and Gram-Schmidt at every step
    solver, eye, h = cfg.solver(), np.eye(nm), 0.5 * cfg.dt
    state, Q = dynamics.initial_state(basis, traj.coeffs[0], model), eye
    for k in range(n_steps + 1):
        u = reconstruct_nodal(propagate_basis(basis, Q), traj.coeffs[k], law)
        assert eps[k] == pytest.approx(eps_l2(fem, ref[k], u), rel=1e-12)
        assert amp[k] == pytest.approx(eps_amplitude(ref[k], u), rel=1e-12)
        if k in snaps:
            np.testing.assert_allclose(snaps[k], u, rtol=0, atol=1e-12 * np.abs(u).max())
        if k < n_steps:
            state, M = dynamics.step_midpoint(state, model, solver)
            np.testing.assert_array_equal(state.coeffs, traj.coeffs[k + 1])
            Q = orthonormalize_g(Q @ np.linalg.solve(eye - h * M, eye + h * M))


@pytest.mark.parametrize("problem, model", [
    ("advection", {"c": 0.5}),
    ("kdv_eigen", {"beta_speed": 4.0, "x0": 0.0}),
    ("kdv_eigen", {"c_scatter": (5.0e-2, 1.5e-1, 1.0e1), "k_scatter": (1.0, 1.5, 1.75)}),
])
def test_reference_series_blocks_match_per_level_exact(problem, model):
    # 2501 levels: 39 full blocks and one of 5
    cfg = replace(ExperimentConfig(problem=problem), a=-5.0, b=15.0, n_nodes=101,
                  dt=2e-4, t_max=0.5, **model)
    n_steps = cfg.solver().n_steps()
    assert (n_steps + 1) % harness._CHUNK == 5
    fem = harness._build_space(cfg)
    ref = harness._reference_series(cfg, fem, None, n_steps)
    for i, row in enumerate(ref):
        np.testing.assert_array_equal(row, harness._exact(cfg, fem.coords, cfg.dt * i))


def test_n_soliton_reference_blocks_are_bounded(monkeypatch):
    # the n-soliton form holds 2^n arrays of a block's size, so a block of
    # six solitons has at most 64 x 8 / 2^6 levels
    shapes = []
    inner = harness.kdv_n_soliton

    def recording(c, k, x, t):
        shapes.append(np.shape(t))
        return inner(c, k, x, t)

    monkeypatch.setattr(harness, "kdv_n_soliton", recording)
    k = tuple(1.0 + 0.1 * m for m in range(6))
    cfg = replace(ExperimentConfig(problem="kdv_eigen"), a=-5.0, b=15.0, n_nodes=101,
                  dt=1e-3, t_max=0.02, c_scatter=(1.0,) * 6, k_scatter=k)
    n_steps = cfg.solver().n_steps()
    fem = harness._build_space(cfg)
    ref = harness._reference_series(cfg, fem, None, n_steps)
    assert len(shapes) > 1 and sum(s[0] for s in shapes) == n_steps + 1
    assert all(s[0] * 2 ** 6 <= harness._CHUNK * 8 for s in shapes)
    for i, row in enumerate(ref):
        np.testing.assert_array_equal(row, inner(cfg.c_scatter, k, fem.coords, cfg.dt * i))


def test_csv_values_carry_full_precision(advection_run):
    cfg, report = advection_run
    line = Path(cfg.out_dir, "table.csv").read_text().splitlines()[1]
    written = float(line.split(",")[1])
    assert written == report.rows[0].mean_eps_l2  # %.17g round-trips doubles


def test_operators_are_assembled_once_per_run(tmp_path, monkeypatch):
    calls = {}

    def counting(name):
        inner = getattr(dynamics, name)

        def counted(*args):
            calls[name] = calls.get(name, 0) + 1
            return inner(*args)
        return counted

    for name in ("assemble_T", "assemble_D"):
        monkeypatch.setattr(dynamics, name, counting(name))
    cfg = load_config(write_config(tmp_path, TINY_ADVECTION.replace("nm_list = 4 6",
                                                                    "nm_list = 4 6 5")))
    report = run_experiment(cfg)
    assert [r.nm for r in report.rows] == [4, 6, 5] and not report.errors
    assert calls == {"assemble_T": 1, "assemble_D": 1}


_SPECIAL = [0.0, -0.0, np.nan, np.inf, -np.inf, 1e-300, 1e300, -1e-300, 0.1, 1.0 / 3.0, 12.0]


@pytest.mark.parametrize("array", [
    np.array(_SPECIAL),
    np.array([_SPECIAL]),
    np.array(_SPECIAL[:10]).reshape(5, 2) * np.arange(1, 3),
    np.random.default_rng(1).standard_normal((7, 4)),
], ids=["1d", "one_row", "specials_2d", "random_2d"])
def test_csv_writer_matches_savetxt(tmp_path, array):
    header = "t,eps_l2,eps_amp"
    harness._save_csv(str(tmp_path), "one_pass.csv", header, array)
    np.savetxt(tmp_path / "savetxt.csv", np.atleast_2d(array), fmt="%.17g",
               delimiter=",", header=header, comments="")
    assert (tmp_path / "one_pass.csv").read_bytes() == (tmp_path / "savetxt.csv").read_bytes()


# ---------------------------------------------------------------------------
# residual-norm comparison and sweeps


def test_frobenius_reference_against_itself_vanishes(tmp_path):
    cfg = ExperimentConfig(problem="advection")
    cfg.n_nodes = 81
    cfg.chi, cfg.c = 60.0, 0.5
    cfg.dt, cfg.t_max = 1.0 / 32, 0.25
    cfg.nm_list = (4, 8)
    cfg.nm_ref = 8
    cfg.out_dir = str(tmp_path)
    rows, errors = compare_frobenius(cfg)
    assert errors == {}
    by_nm = {nm: (mean, mx) for nm, mean, mx in rows}
    assert by_nm[8] == (0.0, 0.0)
    assert by_nm[4][0] > 0.0
    files = set(os.listdir(tmp_path))
    assert "frobenius.csv" in files and "eps_m_nm004.csv" in files


def test_chi_sweep_collects_all_runs(tmp_path):
    cfg = ExperimentConfig(problem="advection")
    cfg.n_nodes = 61
    cfg.c = 0.5
    cfg.dt, cfg.t_max = 1.0 / 16, 0.25
    cfg.nm_list = (4, 6)
    cfg.chi_grid = (40.0, 80.0)
    cfg.out_dir = str(tmp_path)
    reports = run_chi_sweep(cfg)
    assert sorted(reports) == [40.0, 80.0]
    sweep = np.loadtxt(os.path.join(tmp_path, "sweep.csv"),
                       delimiter=",", skiprows=1)
    assert sweep.shape == (4, 6)
    assert os.path.isdir(os.path.join(tmp_path, "chi_40"))
    assert os.path.isdir(os.path.join(tmp_path, "chi_80"))


def test_chi_sweep_requires_grid():
    cfg = ExperimentConfig(problem="advection")
    with pytest.raises(ValueError, match="chi_grid"):
        run_chi_sweep(cfg)


def test_scsa_driver_writes_sweep_tables(tmp_path):
    cfg = ExperimentConfig(problem="scsa")
    cfg.n_nodes = 201
    cfg.chi_grid = (50.0, 150.0)
    cfg.n_modes_cap = 12
    cfg.out_dir = str(tmp_path)
    results = run_scsa(cfg)
    assert set(results) == {"soliton", "eigen"}
    files = set(os.listdir(tmp_path))
    assert {"sweep_eigen.csv", "best_eigen.csv", "sweep_soliton.csv",
            "best_soliton.csv", "summary.csv", "manifest.txt"} <= files
    best = np.loadtxt(os.path.join(tmp_path, "best_eigen.csv"),
                      delimiter=",", skiprows=1)
    assert best.shape == (12, 3)
    assert np.all(best[:, 2] >= 0.0)


def test_scsa_driver_rejects_dynamic_experiment():
    cfg = ExperimentConfig(problem="scsa")
    cfg.chi_grid = (50.0,)
    with pytest.raises(ValueError):
        run_experiment(cfg)
    dyn = ExperimentConfig(problem="advection")
    with pytest.raises(ValueError):
        run_scsa(dyn)
