"""The three benchmark workloads: their inputs, studies and output checks.

All inputs are fixed physical problems.  laxrom draws no random numbers, so
the benchmark's ``--seed`` selects nothing; it is recorded only.

A workload is a list of studies, each one ``laxrom run`` or ``laxrom scsa``
command line, and a check that maps the studies' output directories to
``{operation: [Failure, ...]}``.
"""

from __future__ import annotations

import configparser
import functools
import math
import os
from dataclasses import dataclass

# numpy and the checks are imported only when a check runs: the traced run
# times the first import of laxrom, numpy and scipy in this process.

INPUTS = os.path.join(".laxbench", "inputs")

KDV_NM = (26, 36)
FKPP_NM = (5, 10, 15, 20, 25, 30)
DG_CHI = (50.0, 100.0, 150.0, 200.0, 250.0, 300.0, 400.0, 500.0)
SECH2_CHI = (1.0, 2.0)
# u = 6 sech^2 x is reflectionless for chi = 1 and 2: chi u = l(l+1) sech^2 x
# with l = 2 and 3, which has exactly l bound states
SECH2_BOUND = {1.0: 2, 2.0: 3}


@dataclass
class Study:
    label: str
    command: str  # laxrom subcommand
    config: str   # path relative to the repository root


@dataclass
class Workload:
    name: str
    studies: list
    operations: list
    check: object  # callable({label: out_dir}) -> {op: [Failure]}
    setup_probes: int  # extra set-up-only launches per run


def _cut_kdv_config():
    """configs/kdv1_eigen.ini with nm_list cut to 26 and 36."""
    path = os.path.join(INPUTS, "kdv1_eigen_26_36.ini")
    with open(os.path.join("configs", "kdv1_eigen.ini")) as f:
        lines = f.read().splitlines()
    cut = [f"nm_list = {' '.join(map(str, KDV_NM))}" if ln.startswith("nm_list") else ln
           for ln in lines]
    if cut == lines:
        raise ValueError("configs/kdv1_eigen.ini has no nm_list line")
    with open(path, "w") as f:
        f.write("\n".join(cut) + "\n")
    return path


SECH2_CSV = os.path.join(INPUTS, "sech2.csv")


def _sech2_inputs():
    """601 samples of u = 6 sech^2 x on [-12, 12] and a scsa config for them."""
    with open(SECH2_CSV, "w") as f:
        f.write("x,u\n")
        for i in range(601):
            x = -12.0 + 24.0 * i / 600
            f.write(f"{x:.17g},{6.0 / math.cosh(x) ** 2:.17g}\n")
    ini_path = os.path.join(INPUTS, "scsa_sech2.ini")
    with open(ini_path, "w") as f:
        f.write("[experiment]\nproblem = scsa\n\n[scsa]\n"
                f"signal = {SECH2_CSV}\n"
                f"chi_grid = {' '.join(f'{c:g}' for c in SECH2_CHI)}\n"
                "n_modes_cap = 50\nmethods = soliton, eigen\n")
    return ini_path


@functools.cache
def _signal_references():
    """Both signal studies and their direct errors, computed once per run."""
    import numpy as np

    import checks

    ini = configparser.ConfigParser()
    ini.read(os.path.join("configs", "scsa_double_gaussian.ini"))
    x = np.linspace(ini.getfloat("mesh", "a"), ini.getfloat("mesh", "b"),
                    ini.getint("mesh", "n_nodes"))
    u = np.exp(-250.0 * (x - 0.25) ** 2) - np.exp(-250.0 * (x - 0.75) ** 2)
    chis = tuple(float(c) for c in ini.get("scsa", "chi_grid").split())
    if chis != DG_CHI or ini.getint("scsa", "n_modes_cap") != 50:
        raise ValueError("configs/scsa_double_gaussian.ini changed its sweep")
    dg = checks.SignalStudy("double_gaussian", x, u, chis, 50)
    # the program meshes [x_0, x_end] uniformly and keeps the CSV values
    samples = np.loadtxt(SECH2_CSV, delimiter=",", skiprows=1)
    sech2 = checks.SignalStudy("sech2", np.linspace(-12.0, 12.0, 601), samples[:, 1],
                               SECH2_CHI, 50)
    direct = {s.label: checks.direct_errors(s) for s in (dg, sech2)}
    for chi, n in SECH2_BOUND.items():
        if direct["sech2"]["bound_states", chi] != n:
            raise RuntimeError(f"sech^2 at chi={chi:g} should have {n} bound states")
    return dg, sech2, direct


def make(name):
    """Write the workload's inputs under .laxbench/inputs and return it."""
    os.makedirs(INPUTS, exist_ok=True)
    if name == "kdv1_eigen_26_36":
        path = _cut_kdv_config()
        ini = configparser.ConfigParser()
        ini.read(path)

        def check(dirs):
            import checks

            return checks.check_kdv(dirs["kdv1"], ini, list(KDV_NM))

        return Workload(name, [Study("kdv1", "run", path)], list(KDV_NM), check,
                        setup_probes=4)
    if name == "fkpp2d_square":
        config = os.path.join("configs", "fkpp2d_square.ini")
        ini = configparser.ConfigParser()
        ini.read(config)

        def check(dirs):
            import checks

            return checks.check_fkpp(dirs["fkpp2d"], ini, list(FKPP_NM))

        return Workload(name, [Study("fkpp2d", "run", config)], list(FKPP_NM), check,
                        setup_probes=0)
    if name == "scsa_signals":
        ini_path = _sech2_inputs()

        def check(dirs):
            import checks

            dg, sech2, direct = _signal_references()
            fails = checks.check_scsa(dirs["double_gaussian"], dg, direct["double_gaussian"])
            fails.update(checks.check_scsa(dirs["sech2"], sech2, direct["sech2"],
                                           reflectionless=True))
            return fails

        operations = [(label, method, chi)
                      for label, chis in (("double_gaussian", DG_CHI), ("sech2", SECH2_CHI))
                      for method in ("soliton", "eigen") for chi in chis]
        config = os.path.join("configs", "scsa_double_gaussian.ini")
        return Workload(name, [Study("double_gaussian", "scsa", config),
                               Study("sech2", "scsa", ini_path)],
                        operations, check, setup_probes=2)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("kdv1_eigen_26_36", "fkpp2d_square", "scsa_signals")
