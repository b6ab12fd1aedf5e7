"""Command line interface."""

import importlib.util
import logging
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from laxrom import FixedPointError, harness
from laxrom.cli import build_parser, main

ROOT = Path(__file__).resolve().parent.parent
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

ADVECTION_INI = """
[experiment]
problem = advection
[mesh]
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


@pytest.fixture
def advection_ini(tmp_path):
    path = tmp_path / "advection.ini"
    path.write_text(ADVECTION_INI)
    return str(path)


def test_parser_accepts_all_subcommands():
    parser = build_parser()
    for sub in ("run", "sweep", "scsa", "frobenius"):
        args = parser.parse_args([sub, "cfg.ini", "--out", "d", "--verbose"])
        assert args.command == sub
        assert args.config == "cfg.ini"
        assert args.out == "d" and args.verbose


def test_parser_requires_a_subcommand(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_rejects_threads_option(capsys):
    # mode counts run one after the other; there is no thread pool to size
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["run", "cfg.ini", "--threads", "2"])
    assert exc.value.code == 2


def _child(args, blas_threads, tmp_path):
    """Run ``python args`` from tmp_path with every BLAS variable at blas_threads."""
    env = dict(os.environ, **dict.fromkeys(BLAS_VARS, str(blas_threads)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, cwd=tmp_path, capture_output=True,
                          text=True, timeout=120, check=True).stdout


def test_outputs_do_not_depend_on_blas_threads(tmp_path):
    # importing laxrom pins BLAS to one thread, so the variables a shell
    # exports cannot move the last digits of the tables
    text = (ROOT / "configs" / "kdv1_eigen.ini").read_text()
    (tmp_path / "kdv1.ini").write_text(
        text.replace("nm_list = 26 28 30 32 34 36", "nm_list = 36")
        .replace("t_max = 5.0", "t_max = 0.2"))
    run = ["-m", "laxrom.cli", "run", "kdv1.ini", "--out"]
    # numpy imported first has sized its pool before laxrom could set the variables
    numpy_first = ["-c", "import sys, numpy; from laxrom.cli import main; "
                   "sys.exit(main(sys.argv[1:]))", "run", "kdv1.ini", "--out"]
    for args, threads, out in [(run, 1, "one"), (run, 2, "two"), (numpy_first, 2, "first")]:
        _child(args + [out], threads, tmp_path)
    names = sorted(os.listdir(tmp_path / "one"))
    assert {"table.csv", "errors_nm036.csv", "mnorm_nm036.csv"} <= set(names)
    for out in ("two", "first"):
        assert sorted(os.listdir(tmp_path / out)) == names
        for name in names:
            same = (tmp_path / out / name).read_bytes() == (tmp_path / "one" / name).read_bytes()
            assert same, f"{out}/{name} differs from the one-thread run"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux /proc")
def test_importing_laxrom_starts_no_blas_threads(tmp_path):
    code = ("import os, laxrom, numpy as np; a = np.ones((300, 300)); a @ a; "
            "print(len(os.listdir('/proc/self/task')))")
    assert _child(["-c", code], 2, tmp_path).strip() == "1"


def test_run_subcommand_writes_tables(advection_ini, tmp_path):
    out = str(tmp_path / "out")
    assert main(["run", advection_ini, "--out", out]) == 0
    files = set(os.listdir(out))
    assert "table.csv" in files and "manifest.txt" in files
    table = np.loadtxt(os.path.join(out, "table.csv"), delimiter=",", skiprows=1)
    assert table.shape == (2, 5)


def test_verbose_run_logs_progress(advection_ini, tmp_path, caplog):
    assert main(["run", advection_ini, "--out", str(tmp_path / "a"), "--verbose"]) == 0
    assert "[advection] N_M=  4  mean eps_L2=" in caplog.text
    caplog.clear()
    assert main(["run", advection_ini, "--out", str(tmp_path / "b")]) == 0
    assert not [r for r in caplog.records if r.levelno < logging.WARNING]


def test_missing_config_exits_with_usage_error(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.ini")]) == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_config_exits_with_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    soliton = ADVECTION_INI.replace("problem = advection", "problem = kdv_soliton")
    scsa = "[experiment]\nproblem = scsa\n[scsa]\nchi_grid = 50\n"
    kdv3 = (ADVECTION_INI.replace("problem = advection", "problem = kdv_eigen")
            .replace("c = 0.5", "c_scatter = 0.05 0.15 10.0\nk_scatter = 1.0 1.5 1.75"))
    three = tmp_path / "three.csv"  # a signal file of 3 samples: 3 Neumann dofs
    three.write_text("x,u\n0,1\n1,2\n2,1\n")
    taken = tmp_path / "taken"  # a file where the output directory would go
    taken.write_text("")
    for command, text, message in [
        ("run", ADVECTION_INI + "\n[plotting]\nstyle = 3\n", "unknown section"),
        ("run", ADVECTION_INI.replace("t_max = 0.25", "t_max = 0.26"), "not a multiple of dt"),
        ("run", ADVECTION_INI + "[solver]\ndamping = 0.5\n", "unknown key 'damping'"),
        ("run", "[DEFAULT]\nout_dir = results\n" + ADVECTION_INI,  # no keys every section inherits
         f"{path}: unknown section [DEFAULT]"),
        ("run", soliton, "kdv_soliton needs chi = 1"),
        ("run", soliton.replace("chi = 60", "chi = 1") + "amplitude_law = frozen\n",
         "unknown key 'amplitude_law' in [model]"),
        ("scsa", scsa + "methods = eigen, fourier\n", "methods must be among"),
        ("run", ADVECTION_INI.replace("n_nodes = 81", "n_nodes = 81\nbc = periodic"),
         "bc must be"),
        ("run", ADVECTION_INI.replace("nm_list = 4 6", "nm_list = 0 4"),
         "nm_list entries must be at least 1"),
        ("run", ADVECTION_INI.replace("dt = 0.03125", "dt = 0"), "dt must be positive"),
        ("run", ADVECTION_INI.replace("dt = 0.03125\nt_max = 0.25", "dt = 1e-300\nt_max = 1e300"),
         f"{path}: t_max / dt must be finite, got 1e+300 / 1e-300"),
        ("run", ADVECTION_INI.replace("chi = 60", "chi = -60"), "chi must be positive"),
        ("run", ADVECTION_INI.replace("n_nodes = 81", "n_nodes = 2"), "at least 3 nodes"),
        ("run", ADVECTION_INI.replace("nm_list = 4 6", "nm_list = 4 80"),
         "80 modes requested from a mesh of 79 dofs"),
        ("run", ADVECTION_INI + "[solver]\nfp_max_iters = 0\n",
         "fp_max_iters must be at least 1"),
        ("scsa", scsa + "n_modes_cap = 501\n", "501 modes requested from a mesh of 500 dofs"),
        ("scsa", scsa + "n_modes_cap = 0\n", "n_modes_cap must be at least 1, got 0"),
        ("scsa", scsa.replace("chi_grid = 50", "chi_grid ="), "scsa needs a chi_grid"),
        ("sweep", soliton.replace("chi = 60", "chi = 1") + "[sweep]\nchi_grid = 1 2\n",
         "kdv_soliton needs chi = 1, got 2"),
        ("scsa", scsa + "[sweep]\nchi_grid = 50\n", "chi_grid is set in more than one section"),
        ("scsa", scsa + "methods = eigen, soliton, eigen\n", "each once"),
        ("run", ADVECTION_INI.replace("chi = 60", "chi = 60\nchi = 70"), "already exists"),
        ("run", ADVECTION_INI.replace("[experiment]\n", ""), "no section headers"),
        ("frobenius", ADVECTION_INI.replace("chi = 60", "chi = 60\nnm_ref = 100"),
         "nm_ref = 100 modes requested from a mesh of 79 dofs"),
        ("frobenius", scsa, "needs a dynamic problem"),
        ("run", scsa, "run needs a dynamic problem"),
        ("sweep", scsa, "sweep needs a dynamic problem"),
        ("sweep", ADVECTION_INI, "sweep needs a chi_grid"),
        ("scsa", ADVECTION_INI, "scsa needs an scsa problem, got 'advection'"),
        ("scsa", ADVECTION_INI + "[sweep]\nchi_grid = 40 80\n",
         "scsa needs an scsa problem, got 'advection'"),
        ("run", ADVECTION_INI.replace("n_nodes = 81", "n_per_side = 20"),
         f"{path}: [mesh] n_per_side is for fkpp only, got problem 'advection'"),
        ("scsa", scsa + "signal = signal.csv\n[mesh]\nn_per_side = 20\n",
         f"{path}: [mesh] n_per_side is for fkpp only, got problem 'scsa'"),
        ("frobenius", ADVECTION_INI.replace("chi = 60", "chi = 60\nnm_ref = 0"),
         "nm_ref must be at least 1, got 0"),
        ("run", ADVECTION_INI + "[solver]\nfp_tol = 0\n", "fp_tol must be positive"),
        ("run", ADVECTION_INI + "[solver]\nfp_tol = -1e-9\n", "fp_tol must be positive"),
        ("run", ADVECTION_INI + "[solver]\ntol_deg = -1\n",
         f"{path}: [solver] tol_deg must be at least 0, got -1"),
        ("run", ADVECTION_INI + "[solver]\ntol_deg = nan\n",
         f"{path}: [solver] tol_deg must be at least 0, got nan"),
        ("run", ADVECTION_INI.replace("chi = 60", "chi = nan"),
         f"{path}: chi must be finite, got nan"),
        ("run", ADVECTION_INI.replace("chi = 60", "chi = inf"),
         f"{path}: chi must be finite, got inf"),
        ("sweep", ADVECTION_INI + "[sweep]\nchi_grid = 40 nan\n",
         f"{path}: chi_grid must be finite, got (40.0, nan)"),
        ("run", ADVECTION_INI.replace("dt = 0.03125", "dt = inf"),
         f"{path}: dt must be finite, got inf"),
        ("run", ADVECTION_INI.replace("t_max = 0.25", "t_max = inf"),
         f"{path}: t_max must be finite, got inf"),
        ("run", ADVECTION_INI.replace("c = 0.5", "c = nan"), f"{path}: c must be finite, got nan"),
        ("run", ADVECTION_INI + "[solver]\nfp_tol = inf\n", f"{path}: fp_tol must be finite, got inf"),
        ("run", ADVECTION_INI + "[solver]\ntol_deg = inf\n",
         f"{path}: tol_deg must be finite, got inf"),
        ("run", ADVECTION_INI.replace("n_nodes = 81", "n_nodes = 81\na = -inf"),
         f"{path}: a must be finite, got -inf"),
        ("run", ADVECTION_INI.replace("n_nodes = 81", "n_nodes = 81\nb = inf"),
         f"{path}: b must be finite, got inf"),
        ("run", DIVERGING_FKPP_INI.replace("nu = 400", "nu = nan"),
         f"{path}: nu must be finite, got nan"),
        ("run", soliton.replace("chi = 60", "chi = 1") + "beta_speed = nan\n",
         f"{path}: beta_speed must be finite, got nan"),
        ("run", soliton.replace("chi = 60", "chi = 1") + "beta_speed = inf\n",
         f"{path}: beta_speed must be finite, got inf"),
        ("run", soliton.replace("chi = 60", "chi = 1") + "beta_speed = 4\nx0 = -inf\n",
         f"{path}: x0 must be finite, got -inf"),
        ("run", kdv3.replace("c_scatter = 0.05 0.15 10.0", "c_scatter = 0.05 nan 10.0"),
         f"{path}: c_scatter must be finite, got (0.05, nan, 10.0)"),
        ("run", kdv3.replace("k_scatter = 1.0 1.5 1.75", "k_scatter = 1.0 1.5 inf"),
         f"{path}: k_scatter must be finite, got (1.0, 1.5, inf)"),
        ("run", kdv3.replace("k_scatter = 1.0 1.5 1.75", "k_scatter = 1.0 1.5"),
         "c_scatter and k_scatter must be given together"),
        ("run", kdv3.replace("c_scatter = 0.05 0.15 10.0", "c_scatter = 0.05 -0.15 10.0"),
         "c_scatter and k_scatter entries must be positive"),
        ("run", soliton.replace("chi = 60", "chi = 1") + "beta_speed = -4\n",
         "KdV needs scattering data or beta_speed > 0"),
        ("run", kdv3.replace("c_scatter = 0.05 0.15 10.0\nk_scatter = 1.0 1.5 1.75", ""),
         "KdV needs scattering data or beta_speed > 0"),
        ("run", ADVECTION_INI.replace("n_nodes = 81", "n_nodes = abc"),
         f"{path}: [mesh] n_nodes: invalid literal for int()"),
        ("run", ADVECTION_INI.replace("nm_list = 4 6", "nm_list = 4, x"),
         f"{path}: [reduction] nm_list: invalid literal for int() with base 10: 'x'"),
        ("run", ADVECTION_INI.replace("nm_list = 4 6", "nm_list = 6 6 4"),
         f"{path}: nm_list entries must be distinct, got (6, 6, 4)"),
        ("scsa", scsa.replace("chi_grid = 50", "chi_grid = 50 50"),
         f"{path}: chi_grid entries must be distinct, got (50.0, 50.0)"),
        ("sweep", ADVECTION_INI + "[sweep]\nchi_grid = 400 400.0001\n",
         f"{path}: chi_grid values must name distinct directories, got ['chi_400', 'chi_400']"),
        ("scsa", scsa + f"signal = {three}\nn_modes_cap = 10\n",
         f"{path}: 10 modes requested from a mesh of 3 dofs"),
        ("run", ADVECTION_INI.replace("problem = advection", "problem = advection\nout_dir ="),
         f"{path}: out_dir must not be empty"),
        ("run", ADVECTION_INI.replace("problem = advection", f"problem = advection\nout_dir = {taken}"),
         f"{path}: out_dir {taken} is not a directory"),
    ]:
        path.write_text(text)
        out = tmp_path / "out"
        assert main([command, str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert err.count("\n") == 1  # one line
        assert not out.exists()  # rejected before any work
    assert taken.read_text() == ""


DIVERGING_FKPP_INI = """
[experiment]
problem = fkpp
[mesh]
n_nodes = 61
[reduction]
chi = 40
nm_list = 4
[time]
dt = 0.05
t_max = 0.1
[model]
nu = 400
"""


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_failed_stage_exits_nonzero(tmp_path, capsys):
    path = tmp_path / "diverging.ini"
    path.write_text(DIVERGING_FKPP_INI)
    out = str(tmp_path / "out")
    assert main(["run", str(path), "--out", out]) == 1
    assert "N_M=4" in capsys.readouterr().err
    assert os.path.exists(os.path.join(out, "failures.txt"))

    # a set-up failure (a soliton too low for a bound state on [0, 1]) leaves
    # no output directory behind
    path.write_text(ADVECTION_INI.replace("problem = advection", "problem = kdv_soliton")
                    .replace("chi = 60", "chi = 1").replace("c = 0.5", "beta_speed = 4"))
    out = tmp_path / "setup"
    assert main(["run", str(path), "--out", str(out)]) == 1
    assert "no bound state" in capsys.readouterr().err
    assert not out.exists()


def test_empty_out_option_exits_with_usage_error(advection_ini, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["run", advection_ini, "--out", ""]) == 2
    assert capsys.readouterr().err == "error: out_dir must not be empty\n"
    assert os.listdir(tmp_path) == ["advection.ini"]  # rejected before any work


def test_out_option_naming_a_file_exits_with_usage_error(advection_ini, tmp_path, monkeypatch,
                                                         capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "taken").write_text("")
    assert main(["run", advection_ini, "--out", "taken"]) == 2
    assert capsys.readouterr().err == "error: out_dir taken is not a directory\n"
    assert sorted(os.listdir(tmp_path)) == ["advection.ini", "taken"]  # rejected before any work
    assert (tmp_path / "taken").read_text() == ""


def test_clean_rerun_removes_stale_failures(tmp_path, capsys):
    path = tmp_path / "advection.ini"
    path.write_text(ADVECTION_INI + "[solver]\nfp_max_iters = 1\n")
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 1
    failed = (out / "failures.txt").read_text()
    assert failed.startswith("N_M=4: ") and "\nN_M=6: " in failed
    capsys.readouterr()

    path.write_text(ADVECTION_INI)
    assert main(["run", str(path), "--out", str(out)]) == 0
    assert np.loadtxt(out / "table.csv", delimiter=",", skiprows=1)[:, 0].tolist() == [4, 6]
    assert not (out / "failures.txt").exists()


def test_scsa_subcommand(tmp_path):
    path = tmp_path / "scsa.ini"
    path.write_text(
        """
[experiment]
problem = scsa
[mesh]
n_nodes = 201
[scsa]
chi_grid = 50 150
n_modes_cap = 10
"""
    )
    out = str(tmp_path / "out")
    assert main(["scsa", str(path), "--out", out]) == 0
    files = set(os.listdir(out))
    assert {"sweep_eigen.csv", "best_soliton.csv", "summary.csv"} <= files


def test_frobenius_subcommand(advection_ini, tmp_path):
    # reuse the advection config but compare against a small reference count
    text = Path(advection_ini).read_text() + "\n"
    path = tmp_path / "frob.ini"
    path.write_text(text.replace("nm_list = 4 6", "nm_list = 4 6\nnm_ref = 8"))
    out = str(tmp_path / "out")
    assert main(["frobenius", str(path), "--out", out]) == 0
    rows = np.loadtxt(os.path.join(out, "frobenius.csv"), delimiter=",", skiprows=1)
    assert rows.shape == (2, 3)
    assert rows[0, 1] >= rows[1, 1] >= 0.0


def _failing_at(monkeypatch, bad_nm):
    """Make harness.run raise a FixedPointError for bad_nm modes only."""
    inner = harness.run

    def run(basis, *args):
        if basis.n_modes == bad_nm:
            raise FixedPointError(f"N_M={bad_nm} step 3 at t=0.1: midpoint iteration diverged")
        return inner(basis, *args)
    monkeypatch.setattr(harness, "run", run)


def test_frobenius_records_a_failing_mode_count_and_goes_on(advection_ini, tmp_path,
                                                             monkeypatch, capsys):
    path = tmp_path / "frob.ini"
    path.write_text(Path(advection_ini).read_text().replace(
        "nm_list = 4 6", "nm_list = 6 4 5\nnm_ref = 8"))
    _failing_at(monkeypatch, 4)
    out = tmp_path / "out"
    assert main(["frobenius", str(path), "--out", str(out)]) == 1
    msg = "FixedPointError: N_M=4 step 3 at t=0.1: midpoint iteration diverged"
    assert capsys.readouterr().err == f"error: N_M=4: {msg}\n"
    rows = np.loadtxt(out / "frobenius.csv", delimiter=",", skiprows=1)
    assert rows[:, 0].tolist() == [6, 5]
    assert sorted(p.name for p in out.iterdir()) == [
        "eps_m_nm005.csv", "eps_m_nm006.csv", "failures.txt", "frobenius.csv", "manifest.txt"]
    assert (out / "failures.txt").read_text() == f"N_M=4: {msg}\n"

    # a failure at nm_ref is a set-up failure: nothing is written
    _failing_at(monkeypatch, 8)
    out = tmp_path / "ref"
    assert main(["frobenius", str(path), "--out", str(out)]) == 1
    assert "N_M=8" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_subcommand(advection_ini, tmp_path):
    text = Path(advection_ini).read_text() + "\n[sweep]\nchi_grid = 40 80\n"
    path = tmp_path / "sweep.ini"
    path.write_text(text)
    out = str(tmp_path / "out")
    assert main(["sweep", str(path), "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "sweep.csv"))
    assert os.path.isdir(os.path.join(out, "chi_40"))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_sweep_that_fails_every_chi_writes_its_manifest(tmp_path, capsys):
    path = tmp_path / "sweep.ini"
    path.write_text(DIVERGING_FKPP_INI + "[sweep]\nchi_grid = 40 80\n")
    out = tmp_path / "out"
    assert main(["sweep", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.count("diverged") == 2
    assert sorted(p.name for p in out.iterdir()) == ["chi_40", "chi_80", "manifest.txt"]


def test_default_output_directory_is_out(advection_ini, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["run", advection_ini]) == 0
    assert os.path.exists(os.path.join(str(tmp_path), "out", "table.csv"))


def test_benchmark_hooks_are_harness_globals(advection_ini, tmp_path, monkeypatch):
    # laxbench/launch.py and laxbench/tracer.py wrap these names on
    # laxrom.harness, so the drivers must look them up there at call time
    calls = Counter()

    def counting(name):
        inner = getattr(harness, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return counted

    for name in ("run", "chi_sweep"):
        monkeypatch.setattr(harness, name, counting(name))
    scsa = tmp_path / "scsa.ini"
    scsa.write_text("[experiment]\nproblem = scsa\n[mesh]\nn_nodes = 101\n"
                    "[scsa]\nchi_grid = 50\nn_modes_cap = 4\nmethods = soliton, eigen\n")
    assert main(["run", advection_ini, "--out", str(tmp_path / "run")]) == 0
    assert main(["scsa", str(scsa), "--out", str(tmp_path / "scsa")]) == 0
    assert calls == {"run": 2, "chi_sweep": 1}

    path = os.path.join(os.path.dirname(__file__), os.pardir, "laxbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("laxbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = module.Tracer()
    try:
        tracer.install()  # getattr raises AttributeError for a missing name
        # the reduced step still calls each wrapped layer through its name
        assert main(["run", advection_ini, "--out", str(tmp_path / "traced")]) == 0
    finally:
        tracer.unwrap()
    traced = Counter(name for name, *_ in tracer.spans)
    for name in ("tensors.bracket3", "tensors.commutator", "dynamics.build_M", "models.gamma"):
        assert traced[name] > 0, name
    assert tracer.counts["tensors.bracket3_calls"] == traced["tensors.bracket3"]
