"""Configuration parsing, error indicators and the experiment drivers."""

import configparser
import os
import pickle
import re
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from laxrom import (
    ExperimentConfig,
    InvariantError,
    SolverConfig,
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
    scsa,
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


def test_experiment_config_is_a_solver_config():
    # the solver's fields are declared once, on SolverConfig
    solver_fields = {f.name for f in fields(SolverConfig)}
    assert issubclass(ExperimentConfig, SolverConfig)
    assert solver_fields == {"chi", "dt", "t_max", "fp_tol", "fp_max_iters", "tol_deg"}
    assert not solver_fields & set(ExperimentConfig.__annotations__)
    assert not hasattr(ExperimentConfig, "solver")


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
    assert cfg.beta_speed == 4.0
    assert cfg.source_path == str(path)
    assert len(cfg.source_hash) == 64

    cfg = load_config(write_config(tmp_path, ROUND_TRIP_REST, "rest.ini"))
    assert cfg.problem == "fkpp" and cfg.out_dir == "out"
    assert cfg.n_per_side == 6 and cfg.bc == "dirichlet"
    assert cfg.chi == 25.0 and cfg.nm_list == (4, 8) and cfg.nm_ref == 12
    assert cfg.fp_max_iters == 7
    assert cfg.c == 0.25 and cfg.nu == 50.0
    assert cfg.c_scatter == (0.05, 0.15) and cfg.k_scatter == (1.0, 1.5)
    assert cfg.signal == "signal.csv" and cfg.chi_grid == (10.0, 20.5)
    assert cfg.n_modes_cap == 7 and cfg.methods == ("eigen",)
    # tol_deg = 0 masks only exact degeneracies and is valid; below 0 is not
    zero = write_config(tmp_path, ROUND_TRIP.replace("tol_deg = 1e-7", "tol_deg = 0"), "zero.ini")
    assert load_config(zero).tol_deg == 0.0


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
PRESETS = sorted(CONFIGS.glob("*.ini"))


@pytest.mark.parametrize("path", PRESETS, ids=[p.stem for p in PRESETS])
def test_shipped_preset_loads(path):
    # every preset passes the strict parser and its range checks
    assert load_config(path).source_path == str(path)


@pytest.mark.parametrize("path", PRESETS + [None],
                         ids=[p.stem for p in PRESETS] + ["square_dirichlet"])
def test_dofs_are_counted_without_assembly(path, tmp_path, monkeypatch):
    def unassembled(*args):
        raise AssertionError("the range checks assembled the operators")

    if path is None:  # a 2D Dirichlet square of 6 x 6 nodes: 16 interior
        path = write_config(tmp_path, ROUND_TRIP_REST)
    monkeypatch.setattr(harness, "assemble", unassembled)
    cfg = load_config(path)
    if cfg.problem != "scsa":
        harness._check(cfg, "frobenius")
    monkeypatch.undo()
    assert harness._dofs(cfg) == harness._build_space(cfg).n_active
    if cfg.n_per_side is not None and cfg.bc == "dirichlet":
        assert harness._dofs(cfg) == 16


def test_config_rejects_unknown_section(tmp_path):
    path = write_config(tmp_path, TINY_ADVECTION + "\n[plotting]\nstyle = fancy\n")
    with pytest.raises(ValueError, match="unknown section"):
        load_config(path)


def test_config_rejects_unknown_key(tmp_path):
    path = write_config(tmp_path, TINY_ADVECTION + "\n[solver]\nnewton = yes\n")
    with pytest.raises(ValueError, match="unknown key"):
        load_config(path)


@pytest.mark.parametrize("out_dir", ["out/run%1", "out/%(problem)s"])
def test_config_values_are_literal(tmp_path, out_dir):
    # no % interpolation: "%1" is no syntax error and "%(problem)s" no reference
    text = TINY_ADVECTION.replace("problem = advection\n",
                                  f"problem = advection\nout_dir = {out_dir}\n")
    assert load_config(write_config(tmp_path, text)).out_dir == out_dir


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


def test_drivers_write_into_out_by_default(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = ExperimentConfig(problem="advection", n_nodes=61, chi=60.0, c=0.5,
                           dt=1.0 / 16, t_max=0.25, nm_list=(4,))
    assert cfg.out_dir == "out"
    run_experiment(cfg)
    assert (tmp_path / "out" / "table.csv").is_file()
    assert (tmp_path / "out" / "manifest.txt").is_file()


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


def test_near_degenerate_crossing_names_its_pair(tmp_path):
    # The 2D preset at half its dt fails at N_M = 10: eigenvalues 1 and 2
    # close in, the mask catches the pair on some iterates and not on
    # others, and the iteration never settles.  This pins that defect of
    # the masking rule (at its own dt and at dt/4 the preset passes).
    cfg = load_config(CONFIGS / "fkpp2d_square.ini")
    cfg.out_dir = str(tmp_path)
    cfg.dt /= 2
    cfg.nm_list = (10,)
    report = run_experiment(cfg)
    assert report.rows == []
    assert re.fullmatch(
        r"FixedPointError: N_M=10 step 101 at t=0\.02525: no convergence in 100 "
        r"iterations \(last delta \S+\); closest unmasked pair \(1, 2\): gap 1\.61 x "
        r"its tol_deg threshold and \|M_ij\| 5\.0\d\de\+02 at the step start, "
        r"0\.98 x and 0\.000e\+00 at the last half-step iterate",
        report.errors[10]), report.errors


def test_closest_pair_at_zero_tol_deg_is_an_unmasked_upper_pair(tmp_path, recwarn):
    # tol_deg = 0 makes every threshold 0 and every gap inf times it; the
    # pair named is still one i < j that build_M keeps, found without a warning
    cfg = load_config(write_config(
        tmp_path, TINY_ADVECTION + "[solver]\ntol_deg = 0\nfp_max_iters = 1\n"))
    cfg.out_dir = str(tmp_path / "out")
    report = run_experiment(cfg)
    assert report.rows == [] and sorted(report.errors) == [4, 6]
    lam = harness._setup(cfg, 6)[2].lam
    for nm, msg in report.errors.items():
        pair = re.search(r"closest unmasked pair \((\d+), (\d+)\): gap inf x its tol_deg", msg)
        assert msg.startswith("FixedPointError: ") and pair, msg
        i, j = map(int, pair.groups())
        assert i < j < nm and lam[i] != lam[j]
    assert "(0, 0)" not in Path(cfg.out_dir, "failures.txt").read_text()
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


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


def test_failures_record_a_failed_reference(tmp_path, monkeypatch):
    def failing(*args):
        raise RuntimeError("reference diverged")

    monkeypatch.setattr(harness, "fkpp_reference", failing)
    cfg = ExperimentConfig(problem="fkpp", n_nodes=61, chi=40.0, dt=1e-3, t_max=4e-3,
                           nm_list=(4, 6), out_dir=str(tmp_path))
    report = run_experiment(cfg)
    assert report.rows == []
    assert report.errors == {nm: "RuntimeError: reference diverged" for nm in (4, 6)}
    failures = Path(cfg.out_dir, "failures.txt").read_text()
    assert "N_M=4: RuntimeError" in failures and "N_M=6: RuntimeError" in failures


def test_failures_record_a_zero_norm_reference_level(tmp_path, monkeypatch):
    # a block's norm is checked once for all N_M: a zero level in the second
    # block fails every one of them, as eps_l2 would
    inner = harness.fkpp_reference

    def zeroed(*args):
        for level, u in enumerate(inner(*args)):
            yield 0.0 * u if level == 80 else u

    monkeypatch.setattr(harness, "fkpp_reference", zeroed)
    cfg = ExperimentConfig(problem="fkpp", n_nodes=61, chi=40.0, dt=1e-3, t_max=0.1,
                           nm_list=(4, 6), out_dir=str(tmp_path))
    assert cfg.n_steps() == 100 and 80 >= harness._CHUNK
    report = run_experiment(cfg)
    message = "ValueError: reference solution has zero norm"
    assert report.rows == []
    assert report.errors == {nm: message for nm in (4, 6)}
    assert Path(cfg.out_dir, "failures.txt").read_text() == (
        f"N_M=4: {message}\nN_M=6: {message}\n")


def test_failures_record_a_failed_mnorm_write(tmp_path, monkeypatch):
    # the trajectories are written right after the stage: a failed write
    # drops its N_M from scoring, and the other mode counts go on
    save = harness._save_csv

    def failing(out_dir, name, *args):
        if name == "mnorm_nm004.csv":
            raise OSError("disk full")
        return save(out_dir, name, *args)

    monkeypatch.setattr(harness, "_save_csv", failing)
    cfg = replace(load_config(write_config(tmp_path, TINY_ADVECTION)),
                  out_dir=str(tmp_path / "out"))
    report = run_experiment(cfg)
    assert report.errors == {4: "OSError: disk full"}
    assert [r.nm for r in report.rows] == [6]
    assert not [p.name for p in (tmp_path / "out").iterdir() if "nm004" in p.name]


def test_bound_states_do_not_depend_on_tol_deg():
    # tol_deg masks degenerate pairs only: the speed-4 soliton's one bound
    # state, lambda = -1, counts although it lies above -tol_deg
    cfg = ExperimentConfig(problem="kdv_soliton", a=-5.0, b=15.0, n_nodes=201,
                           beta_speed=4.0, tol_deg=2.0)
    basis_full, model = harness._setup(cfg, 4)[2:]
    assert basis_full.lam[0] == pytest.approx(-1.0, abs=1e-2)
    assert basis_full.lam[0] > -cfg.tol_deg
    assert model.n_soliton == 1


@pytest.mark.parametrize("nm_list", [(2, 4), (2,)])
def test_kdv_soliton_nm_below_the_bound_state_count_fails_that_nm(tmp_path, nm_list):
    # three bound states: two modes cannot hold the three amplitudes, so
    # N_M = 2 fails in failures.txt and N_M = 4 still runs.  With N_M = 2
    # alone both solved modes are bound, and the count goes on past them
    cfg = replace(load_config(CONFIGS / "kdv3_soliton.ini"), nm_list=nm_list, t_max=0.002,
                  out_dir=str(tmp_path))
    report = run_experiment(cfg)
    message = "ValueError: N_M=2 is below the model's 3 bound states"
    assert report.errors == {2: message}
    assert [r.nm for r in report.rows] == list(nm_list[1:])
    assert (tmp_path / "failures.txt").read_text() == f"N_M=2: {message}\n"
    assert not list(tmp_path.glob("*nm002*"))


@pytest.mark.parametrize("problem", ["advection", "kdv_soliton"])
def test_error_series_matches_per_level_definition(problem, tmp_path, monkeypatch):
    cfg = ExperimentConfig(problem=problem, out_dir=str(tmp_path))
    if problem == "advection":
        cfg.n_nodes, cfg.chi, cfg.c = 121, 60.0, 0.5
        cfg.dt, cfg.t_max = 1.0 / 256, 0.5
        nm = 8
    else:
        cfg.a, cfg.b, cfg.n_nodes = -5.0, 15.0, 201
        cfg.beta_speed, cfg.x0 = 4.0, 0.0
        cfg.dt, cfg.t_max = 2e-3, 0.3
        nm = 10
    n_steps = cfg.n_steps()
    assert n_steps + 1 > 2 * harness._CHUNK  # levels in three chunks
    fem, u0, basis_full, model = harness._setup(cfg, nm)
    trajectories = []
    inner = harness.run

    def recording(*args):
        trajectories.append(inner(*args))
        return trajectories[-1]

    monkeypatch.setattr(harness, "run", recording)
    track = harness._track(cfg, basis_full, model, u0, nm)
    (traj,) = trajectories
    law = model.coefficient_law
    errors = {}
    scores = harness._score(cfg, fem, u0, basis_full, {nm: track}, errors)
    assert errors == {}
    eps, amp = scores[nm]
    snap_indices = [0, n_steps // 4, n_steps // 2, n_steps]
    snaps = {i: np.loadtxt(tmp_path / f"snapshot_nm{nm:03d}_t{round(100 * i / n_steps):03d}.csv",
                           delimiter=",", skiprows=1) for i in snap_indices}
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"snapshot_nm{nm:03d}_t{tag:03d}.csv" for tag in (0, 25, 50, 100))
    assert any(i % harness._CHUNK for i in snap_indices[1:])  # one inside a chunk

    # the definition, one level at a time: the same midpoint steps, each
    # generator's Cayley factor applied and Gram-Schmidt at every step
    eye, h = np.eye(nm), 0.5 * cfg.dt
    basis = basis_full.truncate(nm)
    state, Q = dynamics.initial_state(basis, traj.coeffs[0], model), eye
    for k in range(n_steps + 1):
        ref = harness._exact(cfg, fem.coords, cfg.dt * k)
        u = reconstruct_nodal(propagate_basis(basis, Q), traj.coeffs[k], law)
        assert eps[k] == pytest.approx(eps_l2(fem, ref, u), rel=1e-12)
        assert amp[k] == pytest.approx(eps_amplitude(ref, u), rel=1e-12)
        if k in snaps:
            np.testing.assert_array_equal(snaps[k][:, 0], fem.coords)
            np.testing.assert_array_equal(snaps[k][:, 1], ref)
            np.testing.assert_allclose(snaps[k][:, 2], u, rtol=0, atol=1e-12 * np.abs(u).max())
        if k < n_steps:
            state, M = dynamics.step_midpoint(state, model, cfg)
            np.testing.assert_array_equal(state.coeffs, traj.coeffs[k + 1])
            Q = orthonormalize_g(Q @ np.linalg.solve(eye - h * M, eye + h * M))


def test_track_result_is_its_arrays(tmp_path):
    # a stage result carries the trajectory's arrays alone: no basis, root,
    # mesh or assembled operators ride along when it is kept or pickled
    cfg = replace(load_config(CONFIGS / "kdv1_eigen.ini"), t_max=0.2, out_dir=str(tmp_path))
    fem, u0, basis_full, model = harness._setup(cfg, 26)
    track = harness._track(cfg, basis_full, model, u0, 26)
    assert track._fields == ("frame", "coeffs", "frob") and track.coeffs is None
    arrays = sum(a.nbytes for a in track if a is not None)
    assert len(pickle.dumps(track)) <= arrays + 2048


def test_track_writes_nothing(tmp_path):
    # the stage returns arrays; run_experiment writes mnorm_nmXXX.csv from them
    cfg = replace(load_config(write_config(tmp_path, TINY_ADVECTION)),
                  out_dir=str(tmp_path / "out"))
    fem, u0, basis_full, model = harness._setup(cfg, 6)
    track = harness._track(cfg, basis_full, model, u0, 6)
    assert not (tmp_path / "out").exists()
    assert track.frob.shape == (cfg.n_steps(),)


def test_written_times_are_the_config_grid(tmp_path):
    # every t and t_half written is read from cfg.times(): a clock summed
    # step by step (t + dt) lands off k dt at most levels of this grid
    cfg = replace(ExperimentConfig(problem="kdv_eigen"), a=-5.0, b=15.0, n_nodes=101,
                  beta_speed=4.0, dt=2e-3, t_max=0.3, nm_list=(6, 8), nm_ref=8)
    times = cfg.times()
    np.testing.assert_array_equal(times, 2e-3 * np.arange(151))
    t_half = 2e-3 * (np.arange(150) + 0.5)
    summed = np.add.accumulate(np.r_[0.0, np.full(cfg.n_steps(), cfg.dt)])
    assert np.count_nonzero(summed != times) > 100
    report = run_experiment(replace(cfg, out_dir=str(tmp_path / "run")))
    rows, errors = compare_frobenius(replace(cfg, out_dir=str(tmp_path / "frobenius")))
    assert report.errors == {} and errors == {} and len(rows) == 2

    def first_column(name):
        return np.loadtxt(tmp_path / name, delimiter=",", skiprows=1)[:, 0]

    for nm in cfg.nm_list:
        np.testing.assert_array_equal(first_column(f"run/errors_nm{nm:03d}.csv"), times)
        np.testing.assert_array_equal(first_column(f"run/mnorm_nm{nm:03d}.csv"), t_half)
        np.testing.assert_array_equal(first_column(f"frobenius/eps_m_nm{nm:03d}.csv"), t_half)


def reference_levels(cfg, fem):
    """The reference blocks of cfg, checked to follow each other, stacked."""
    n_steps = cfg.n_steps()
    blocks = list(harness._reference_blocks(cfg, fem, None))
    starts = [start for start, _ in blocks]
    assert starts == [0] + [start + len(ref) for start, ref in blocks[:-1]]
    assert all(len(ref) <= harness._CHUNK for _, ref in blocks)
    ref = np.concatenate([ref for _, ref in blocks])
    assert ref.shape == (n_steps + 1, fem.n_active)
    return ref


@pytest.mark.parametrize("problem, model", [
    ("advection", {"c": 0.5}),
    ("kdv_eigen", {"beta_speed": 4.0, "x0": 0.0}),
    ("kdv_eigen", {"c_scatter": (5.0e-2, 1.5e-1, 1.0e1), "k_scatter": (1.0, 1.5, 1.75)}),
])
def test_reference_series_blocks_match_per_level_exact(problem, model):
    # 2501 levels: 39 full blocks and one of 5
    cfg = replace(ExperimentConfig(problem=problem), a=-5.0, b=15.0, n_nodes=101,
                  dt=2e-4, t_max=0.5, **model)
    n_steps = cfg.n_steps()
    assert (n_steps + 1) % harness._CHUNK == 5
    fem = harness._build_space(cfg)
    ref = reference_levels(cfg, fem)
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
    n_steps = cfg.n_steps()
    fem = harness._build_space(cfg)
    ref = reference_levels(cfg, fem)
    assert len(shapes) > 1 and sum(s[0] for s in shapes) == n_steps + 1
    assert all(s[0] * 2 ** 6 <= harness._CHUNK * 8 for s in shapes)
    for i, row in enumerate(ref):
        np.testing.assert_array_equal(row, inner(cfg.c_scatter, k, fem.coords, cfg.dt * i))


def test_run_never_holds_the_reference_series(tmp_path):
    # 513 levels of 799 nodes: the whole series alone would be 3.28 MB,
    # whether a closed form evaluates it or the FKPP integrator steps it
    for cfg in (ExperimentConfig(problem="advection", n_nodes=801, chi=60.0, c=0.5,
                                 dt=1.0 / 1024, t_max=0.5, nm_list=(4, 6),
                                 out_dir=str(tmp_path / "advection")),
                ExperimentConfig(problem="fkpp", n_nodes=801, chi=40.0, nu=50.0,
                                 dt=1e-4, t_max=5.12e-2, nm_list=(4, 6),
                                 out_dir=str(tmp_path / "fkpp"))):
        levels = cfg.n_steps() + 1
        assert levels == 513
        tracemalloc.start()
        try:
            report = run_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.errors == {} and [r.nm for r in report.rows] == [4, 6]
        assert peak < levels * 799 * 8, cfg.problem


def test_each_reference_level_is_evaluated_once(tmp_path, monkeypatch):
    blocks, single = [], []
    inner = harness.kdv_one_soliton

    def counting(beta_speed, x0, x, t):
        (blocks if np.ndim(t) else single).append(np.ravel(t))
        return inner(beta_speed, x0, x, t)

    monkeypatch.setattr(harness, "kdv_one_soliton", counting)
    cfg = replace(ExperimentConfig(problem="kdv_eigen"), a=-5.0, b=15.0, n_nodes=101,
                  beta_speed=4.0, dt=2e-3, t_max=0.3, nm_list=(6, 8), out_dir=str(tmp_path))
    report = run_experiment(cfg)
    assert report.errors == {} and [r.nm for r in report.rows] == [6, 8]
    assert len(single) == 1  # the initial condition
    assert len(blocks) > 1
    np.testing.assert_array_equal(np.concatenate(blocks),
                                  cfg.dt * np.arange(cfg.n_steps() + 1))


def test_scoring_arrays_are_bounded_on_a_large_mesh(tmp_path, monkeypatch):
    # 4096 dofs: blocks of 2^16 / 4096 = 16 levels, five for 71 levels, and
    # no reference block or reconstruction holds more than 2^16 values
    ref_shapes, nodal_shapes = [], []
    blocks, nodal = harness._reference_blocks, harness.reconstruct_nodal

    def recording_blocks(*args):
        for start, ref in blocks(*args):
            ref_shapes.append(ref.shape)
            yield start, ref

    def recording_nodal(*args):
        u = nodal(*args)
        nodal_shapes.append(u.shape)
        return u

    monkeypatch.setattr(harness, "_reference_blocks", recording_blocks)
    monkeypatch.setattr(harness, "reconstruct_nodal", recording_nodal)
    cfg = ExperimentConfig(problem="fkpp", n_per_side=64, chi=25.0, nu=50.0, tol_deg=2e-3,
                           dt=5e-4, t_max=3.5e-2, nm_list=(3, 5), out_dir=str(tmp_path))
    report = run_experiment(cfg)
    assert report.errors == {} and [r.nm for r in report.rows] == [3, 5]
    assert ref_shapes == [(16, 4096)] * 4 + [(7, 4096)]
    assert sorted(nodal_shapes) == sorted(ref_shapes * 2)
    assert all(np.prod(shape) <= 2 ** 16 for shape in ref_shapes + nodal_shapes)


@pytest.mark.parametrize("n_nodes, levels", [(1026, 64), (1027, 63)])
def test_1d_meshes_keep_chunk_level_blocks(n_nodes, levels):
    # up to 1024 dofs a block has _CHUNK = 64 levels; one dof more takes one off
    assert harness._CHUNK == 64
    cfg = ExperimentConfig(problem="advection", n_nodes=n_nodes, dt=1.0 / 256, t_max=0.5)
    fem = harness._build_space(cfg)
    blocks = list(harness._reference_blocks(cfg, fem, None))
    assert [start for start, _ in blocks] == [0, levels, 2 * levels]
    assert [len(ref) for _, ref in blocks] == [levels, levels, 129 - 2 * levels]


@pytest.fixture(scope="module")
def fkpp2d_run(tmp_path_factory):
    cfg = ExperimentConfig(problem="fkpp", n_per_side=8, chi=25.0, nu=50.0, tol_deg=2e-3,
                           dt=5e-4, t_max=4e-3, nm_list=(3, 5))
    cfg.out_dir = str(tmp_path_factory.mktemp("fkpp2d"))
    report = run_experiment(cfg)
    return cfg, report


@pytest.mark.parametrize("run", ["advection_run", "fkpp2d_run"])
def test_snapshot_files_match_savetxt(run, request, tmp_path):
    cfg, report = request.getfixturevalue(run)
    assert report.errors == {}
    files = sorted(Path(cfg.out_dir).glob("snapshot_*.csv"))
    assert len(files) == 4 * len(cfg.nm_list)
    shared = {}
    for f in files:
        text = f.read_text()
        header = text.split("\n", 1)[0]
        np.savetxt(tmp_path / "savetxt.csv", np.loadtxt(f, delimiter=",", skiprows=1),
                   fmt="%.17g", delimiter=",", header=header, comments="")
        assert f.read_bytes() == (tmp_path / "savetxt.csv").read_bytes()
        # the columns before u_rom are the same for every N_M
        before_u_rom = [line.rsplit(",", 1)[0] for line in text.splitlines()]
        tag = f.name.rsplit("_", 1)[1]
        assert before_u_rom == shared.setdefault(tag, before_u_rom)
    assert len(shared) == 4


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
    cfg.out_dir = str(tmp_path / "run")
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


def test_frobenius_reference_against_itself_vanishes(tmp_path, monkeypatch):
    # nm_ref in nm_list: its trajectory is integrated once and reused
    runs = []
    inner = harness.run

    def recording(basis, *args):
        runs.append(basis.n_modes)
        return inner(basis, *args)

    monkeypatch.setattr(harness, "run", recording)
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
    assert runs == [8, 4]
    files = set(os.listdir(tmp_path))
    assert "frobenius.csv" in files and "eps_m_nm004.csv" in files


def test_frobenius_checks_the_transported_basis(tmp_path, monkeypatch):
    # modes from the fifth on scaled by 1 + 1e-9: every trajectory with them
    # ends 2e-9 off G-orthonormal, as in run_experiment
    solve = harness.solve_schrodinger_eig
    first_scaled = 4

    def scaled(*args):
        basis = solve(*args)
        B = basis.B.copy()
        B[:, first_scaled:] *= 1.0 + 1e-9
        return replace(basis, B=B)

    monkeypatch.setattr(harness, "solve_schrodinger_eig", scaled)
    cfg = ExperimentConfig(problem="advection", n_nodes=61, chi=60.0, c=0.5, dt=1.0 / 16,
                           t_max=0.25, nm_list=(4, 5), nm_ref=4, out_dir=str(tmp_path))
    rows, errors = compare_frobenius(cfg)
    assert rows == [(4, 0.0, 0.0)]
    assert list(errors) == [5]
    assert errors[5].startswith("InvariantError: N_M=5: transported basis has ")
    failures = Path(cfg.out_dir, "failures.txt").read_text()
    assert failures.startswith("N_M=5: InvariantError: N_M=5: ")
    # a failed reference fails the run
    first_scaled = 0
    with pytest.raises(InvariantError, match="N_M=4: transported basis"):
        compare_frobenius(cfg)


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


def test_n_per_side_outside_fkpp_is_rejected_in_process(tmp_path):
    # _mesh owns the rule, so a config built in process meets it too
    cfg = ExperimentConfig(problem="advection", n_per_side=20, n_nodes=81, chi=60.0,
                           dt=0.03125, t_max=0.25, nm_list=(4,), out_dir=str(tmp_path / "out"))
    for study in (run_experiment, compare_frobenius):
        with pytest.raises(ValueError, match=r"^\[mesh\] n_per_side is for fkpp only, "
                                             r"got problem 'advection'$"):
            study(cfg)
    assert not (tmp_path / "out").exists()


def test_non_finite_mesh_end_is_rejected_in_process(tmp_path):
    cfg = ExperimentConfig(problem="advection", a=-np.inf, n_nodes=81, chi=60.0,
                           dt=0.03125, t_max=0.25, nm_list=(4,), out_dir=str(tmp_path / "out"))
    with pytest.raises(ValueError, match="^a must be finite, got -inf$"):
        run_experiment(cfg)
    assert not (tmp_path / "out").exists()


def test_chi_sweep_requires_grid(tmp_path):
    cfg = ExperimentConfig(problem="advection", out_dir=str(tmp_path / "out"))
    with pytest.raises(ValueError, match="^sweep needs a chi_grid$"):
        run_chi_sweep(cfg)
    assert not (tmp_path / "out").exists()


def test_frobenius_driver_checks_nm_ref_before_set_up(tmp_path, monkeypatch):
    # the command line's message, raised in process before any eigensolve
    def unsolved(*args):
        raise AssertionError("nm_ref reached the eigensolve")

    monkeypatch.setattr(harness, "solve_schrodinger_eig", unsolved)
    cfg = load_config(write_config(tmp_path, TINY_ADVECTION))
    cfg.out_dir = str(tmp_path / "out")
    cfg.nm_ref = 100
    with pytest.raises(ValueError, match="^nm_ref = 100 modes requested from a mesh of 79 dofs$"):
        compare_frobenius(cfg)
    assert not (tmp_path / "out").exists()


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


def test_scsa_preset_solves_once_per_chi(tmp_path, monkeypatch):
    # both representations come from one capped eigensolve per chi
    cfg = load_config(CONFIGS / "scsa_double_gaussian.ini")
    cfg.out_dir = str(tmp_path)
    requested = []
    solve = scsa.solve_schrodinger_eig

    def counting(fem, u, chi, n_modes):
        requested.append((chi, n_modes))
        return solve(fem, u, chi, n_modes)

    monkeypatch.setattr(scsa, "solve_schrodinger_eig", counting)
    results = run_scsa(cfg)
    assert list(results) == ["soliton", "eigen"]
    assert requested == [(chi, cfg.n_modes_cap) for chi in cfg.chi_grid]
    assert len(requested) == 8


def test_scsa_driver_rejects_dynamic_experiment(tmp_path):
    out = tmp_path / "out"
    cfg = ExperimentConfig(problem="scsa", out_dir=str(out))
    cfg.chi_grid = (50.0,)
    for study, command in [(run_experiment, "run"), (compare_frobenius, "frobenius"),
                           (run_chi_sweep, "sweep")]:
        with pytest.raises(ValueError, match=f"^{command} needs a dynamic problem; "):
            study(cfg)
    # a chi_grid does not make a dynamic problem a signal study
    dyn = ExperimentConfig(problem="advection", chi_grid=(50.0,), out_dir=str(out))
    with pytest.raises(ValueError, match="scsa needs an scsa problem, got 'advection'"):
        run_scsa(dyn)
    assert not out.exists()
