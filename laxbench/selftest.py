"""Self-test of the benchmark's output checks and its traced run.

    python3 laxbench/selftest.py [WORKLOAD ...]

For each workload (default: all three) it runs one untraced and one traced
round, then shows that

1. the checks pass the pristine outputs, apart from the known chi_sweep
   fault;
2. the traced run writes files byte-identical to the untraced run's (the
   sha256 of each table is printed for information);
3. every check fails on a deliberately corrupted copy of the outputs: a
   perturbed table.csv row, a shifted snapshot, a non-orthonormal basis, a
   drifting ||T||_F, a zeroed sweep error, and more.

Exits 0 when every case behaves as stated, 1 otherwise.  Takes about three
minutes for all workloads on two cores.
"""

from __future__ import annotations

import os
import shutil
import sys
from types import SimpleNamespace

import run

OUT = os.path.join(run.OUT, "selftest")


def edit_csv(path, edit):
    """Rewrite a laxrom CSV after ``edit(data)`` changed its array in place."""
    import numpy as np

    with open(path) as f:
        header = f.readline().strip()
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    edit(data)
    np.savetxt(path, data, fmt="%.17g", delimiter=",", header=header, comments="")


def corruptions(name):
    """(description, label, file, edit, operation, expected check) per case."""
    if name == "kdv1_eigen_26_36":
        def bump_eps_final(d):
            d[d[:, 0] == 36, 3] *= 1.0 + 1e-6

        def raise_mean(d):
            d[d[:, 0] == 36, 1] = 0.09

        def shift(d):
            d[:, 1] = [*d[1:, 1], 0.0]

        return [
            ("perturbed eps_final row", "kdv1", "table.csv", bump_eps_final, 36, "kdv.eps_final"),
            ("mean error above 0.08", "kdv1", "table.csv", raise_mean, 36, "kdv.criterion04"),
            ("u_ref shifted one node", "kdv1", "snapshot_nm026_t050.csv", shift, 26, "kdv.u_ref"),
        ]
    if name == "fkpp2d_square":
        def break_order(d):
            d[d[:, 0] == 20, 1] = d[d[:, 0] == 15, 1] * 1.01

        def overshoot(d):
            d[d[:, 2].argmax(), 2] = 1.0 + 1e-9

        def shrink(d):
            d[:, 2] *= 0.1

        def rom_mass(d):
            d[:, 3] *= 1.5

        return [
            ("error not decreasing", "fkpp2d", "table.csv", break_order, 20, "fkpp.monotone"),
            ("u_ref above 1", "fkpp2d", "snapshot_nm010_t100.csv", overshoot, 10, "fkpp.range"),
            ("reference mass drops", "fkpp2d", "snapshot_nm015_t100.csv", shrink, 15,
             "fkpp.mass_growth"),
            ("ROM mass off", "fkpp2d", "snapshot_nm030_t050.csv", rom_mass, 30,
             "fkpp.mass_track"),
        ]
    if name == "scsa_signals":
        def zero(chi, n):
            def edit(d):
                d[(d[:, 0] == chi) & (d[:, 1] == n), 2] = 0.0
            return edit

        def unsettled(d):
            d[(d[:, 0] == 2.0) & (d[:, 1] == 10), 2] *= 1.0 + 1e-6

        return [
            ("zeroed soliton sweep error", "double_gaussian", "sweep_soliton.csv",
             zero(100.0, 10), ("double_gaussian", "soliton", 100.0), "scsa.direct"),
            ("zeroed eigen sweep error", "sech2", "sweep_eigen.csv", zero(1.0, 50),
             ("sech2", "eigen", 1.0), "scsa.parseval"),
            ("soliton error moves after n=3", "sech2", "sweep_soliton.csv", unsettled,
             ("sech2", "soliton", 2.0), "scsa.saturation"),
        ]
    raise ValueError(name)


def expect(problems, what, fails, op, check):
    found = [f.check for f in fails.get(op, [])]
    status = "ok" if check in found else "MISSED"
    print(f"  {status}: {what} -> {check} on {op}")
    if check not in found:
        problems.append(f"{what}: {check} not raised on {op} (got {found})")


def selftest(name, problems):
    import workloads

    import checks

    work = workloads.make(name)
    base = os.path.join(OUT, name)
    shutil.rmtree(base, ignore_errors=True)
    print(f"{name}: running one untraced and one traced round")
    ok, _ = run.untraced_round(work, os.path.join(base, "untraced"))
    traced_ok, _, tracer = run.traced_round(
        work, os.path.join(base, "traced"), os.path.join(base, "trace.csv"))
    if not (ok and traced_ok):
        problems.append(f"{name}: a study exited with an error")
        return
    dirs = {s.label: os.path.join(base, "untraced", s.label) for s in work.studies}

    fails = work.check(dirs)
    stray = [(op, f.check) for op, fs in fails.items() for f in fs
             if f.check not in checks.KNOWN_FAULTS]
    print(f"  {'ok' if not stray else 'FAILED'}: pristine outputs pass")
    if stray:
        problems.append(f"{name}: pristine outputs fail {stray}")

    for s in work.studies:
        differ = run.identical_outputs(dirs[s.label], os.path.join(base, "traced", s.label))
        print(f"  {'ok' if not differ else 'FAILED'}: traced {s.label} outputs byte-identical")
        if differ:
            problems.append(f"{name}: traced outputs differ: {differ}")

    for what, label, fname, edit, op, check in corruptions(name):
        bad = os.path.join(base, "corrupt")
        shutil.rmtree(bad, ignore_errors=True)
        shutil.copytree(dirs[label], bad)
        edit_csv(os.path.join(bad, fname), edit)
        expect(problems, what, work.check({**dirs, label: bad}), op, check)

    if any(s.command == "run" for s in work.studies):
        nm = work.operations[-1]
        ortho = tracer.orthonormality()
        drifting = {**tracer.t_drift, nm: (1e-3, tracer.t_drift[nm][1])}
        expect(problems, "||T||_F drifting", checks.check_transport(
            work.operations, drifting, ortho), nm, "trace.t_norm")
        basis = tracer.last_basis[nm]
        skewed = SimpleNamespace(B=basis.B * (1.0 + 1e-6), fem=basis.fem, n_modes=nm)
        tracer.last_basis[nm] = skewed
        expect(problems, "non-orthonormal basis", checks.check_transport(
            work.operations, tracer.t_drift, tracer.orthonormality()), nm,
            "trace.orthonormal")


def main(argv):
    import workloads

    os.chdir(run.ROOT)
    run.set_blas_threads()
    problems = []
    for name in argv or workloads.NAMES:
        selftest(name, problems)
    for p in problems:
        print(f"FAILED: {p}")
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
