"""Benchmark of laxrom end to end (untraced) and per module (traced).

    python3 laxbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  Untraced, each round launches the workload's
``laxrom run`` / ``laxrom scsa`` command lines as child processes through
``laxbench/launch.py`` and measures them: wall, set-up, CPU time and peak
resident memory.  Rounds repeat until ``--seconds`` of them have been
measured (at least one); the medians are reported.  Traced, the same rounds
run and then one more round runs inside this process with every layer
boundary wrapped (``laxbench/tracer.py``).  Every round's outputs are
checked (``laxbench/checks.py``).  The last line of standard output is one
JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = ".laxbench"
PROCESS_LIMIT_S = 170.0  # a child still running after this is killed


def set_blas_threads():
    """BLAS threads: set explicitly to the library's own default here, nproc.

    Call before anything in this process imports numpy; child processes
    inherit the setting.
    """
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = nproc
    return nproc


def program_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def launch(study, out_dir, setup_only=False):
    """Run one study in a child process; return its measurements."""
    os.makedirs(out_dir, exist_ok=True)
    mark = os.path.join(out_dir, "setup_mark")
    if os.path.exists(mark):
        os.remove(mark)
    cmd = [sys.executable, os.path.join(HERE, "launch.py"), mark]
    cmd += ["--setup-only"] if setup_only else []
    cmd += ["--", study.command, study.config, "--out", out_dir]
    with open(os.path.join(out_dir, "process.log"), "w") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, env=program_env(), stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(PROCESS_LIMIT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    setup = None
    if os.path.exists(mark):
        with open(mark) as f:
            setup = float(f.read()) - t0
    return {
        "rc": proc.returncode,
        "wall_s": wall,
        "setup_s": setup,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB
    }


def untraced_round(workload, round_dir):
    """Every study once; sums of times, maximum of memory."""
    runs = [launch(s, os.path.join(round_dir, s.label)) for s in workload.studies]
    ok = all(r["rc"] == 0 and r["setup_s"] is not None for r in runs)
    return ok, {
        "wall_s": sum(r["wall_s"] for r in runs),
        "setup_s": sum(r["setup_s"] or 0.0 for r in runs),
        "cpu_s": sum(r["cpu_s"] for r in runs),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
    }


def setup_probe(workload, probe_dir):
    """Every study's set-up alone; the summed set-up time, or None."""
    runs = [launch(s, os.path.join(probe_dir, s.label), setup_only=True)
            for s in workload.studies]
    if any(r["rc"] != 0 or r["setup_s"] is None for r in runs):
        return None
    return sum(r["setup_s"] for r in runs)


def traced_round(workload, round_dir, trace_path):
    """Every study once inside this process, with the layers wrapped."""
    from tracer import Tracer

    tracer = Tracer()
    t0 = time.perf_counter()
    with tracer.span("cli.import"):
        sys.path.insert(0, os.path.join(ROOT, "src"))
        import laxrom.cli
    tracer.install()
    codes = []
    try:
        for s in workload.studies:
            with tracer.span("harness"):
                codes.append(laxrom.cli.main(
                    [s.command, s.config, "--out", os.path.join(round_dir, s.label)]))
    finally:
        wall = time.perf_counter() - t0
        tracer.unwrap()
    tracer.write(trace_path)
    return all(c == 0 for c in codes), wall, tracer


def output_bytes(round_dir):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(round_dir) for f in files)


def identical_outputs(dir_a, dir_b):
    """Names of the files the two output directories do not share byte for byte.

    Prints the sha256 of each table, for information only.
    """
    import filecmp
    import hashlib

    differ = []
    for d, _, files in os.walk(dir_a):
        for f in sorted(set(files) - {"process.log", "setup_mark"}):
            a = os.path.join(d, f)
            name = os.path.relpath(a, dir_a)
            b = os.path.join(dir_b, name)
            if not (os.path.exists(b) and filecmp.cmp(a, b, shallow=False)):
                differ.append(name)
            elif f == "table.csv" or f.startswith("sweep_"):
                with open(a, "rb") as fh:
                    print(f"info: sha256 {name} {hashlib.sha256(fh.read()).hexdigest()}")
    return differ


def check_round(workload, round_dir, extra=None):
    """(failed operations, operations failed by other than a known fault).

    ``extra`` holds more failures per operation, from the traced run's
    invariant checks.
    """
    import checks

    fails = workload.check({s.label: os.path.join(round_dir, s.label)
                            for s in workload.studies})
    failed, unexpected = 0, 0
    for op in workload.operations:
        found = fails.get(op, []) + (extra or {}).get(op, [])
        for f in found:
            print(f"check: {workload.name} {op}: {f.check}: {f.message}")
        failed += bool(found)
        unexpected += any(f.check not in checks.KNOWN_FAULTS for f in found)
    return failed, unexpected


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="recorded only: every input is a fixed physical problem")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    if not os.path.isfile(os.path.join("src", "laxrom", "cli.py")):
        print("error: run from a laxrom checkout (src/laxrom is missing)", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; one of {workloads.NAMES}",
              file=sys.stderr)
        return 2
    nproc = set_blas_threads()

    work = workloads.make(args.workload)
    base = os.path.join(OUT, "runs", work.name)
    shutil.rmtree(base, ignore_errors=True)
    print(f"info: workload {work.name}, seed {args.seed} (unused), BLAS threads {nproc}")

    rounds, ok, spent = [], True, 0.0
    while not rounds or spent < args.seconds:
        round_ok, m = untraced_round(work, os.path.join(base, f"r{len(rounds)}"))
        ok &= round_ok
        rounds.append(m)
        spent += m["wall_s"]
    setups = [m["setup_s"] for m in rounds]
    if args.trace:
        # before any check: the checks import numpy, which cli.import must time
        traced_dir = os.path.join(base, "traced")
        os.makedirs(os.path.join(OUT, "traces"), exist_ok=True)
        traced_ok, wall, tracer = traced_round(
            work, traced_dir, os.path.join(OUT, "traces", f"{work.name}.csv"))
        ok &= traced_ok
    else:
        for p in range(work.setup_probes):
            setup = setup_probe(work, os.path.join(base, f"probe{p}"))
            ok &= setup is not None
            setups.append(setup or 0.0)

    results = [check_round(work, os.path.join(base, f"r{i}")) for i in range(len(rounds))]
    if args.trace:
        import checks

        extra = {}
        if any(s.command == "run" for s in work.studies):
            ortho = tracer.orthonormality()
            print(f"info: ||T||_F drift {tracer.t_drift}, |B^T G B - I| {ortho}")
            extra = checks.check_transport(work.operations, tracer.t_drift, ortho)
        results.append(check_round(work, traced_dir, extra))
    failed = sum(f for f, _ in results)
    unexpected = sum(u for _, u in results)
    attempted = len(work.operations) * len(results)

    if args.trace:
        for s in work.studies:
            differ = identical_outputs(os.path.join(base, "r0", s.label),
                                       os.path.join(traced_dir, s.label))
            if differ:
                print(f"check: traced outputs differ from untraced: {differ}")
                ok = False
        gap = wall - tracer.accounted()
        print(f"info: traced wall {wall:.3f} s, layers account for all but {gap:.4f} s")
        ok &= abs(gap) <= 0.01 * wall
        metrics = tracer.layer_metrics(wall)
        metrics["harness.output_bytes"] = (output_bytes(traced_dir), "bytes")
        metrics["trace.overhead_s"] = (
            wall - statistics.median(m["wall_s"] for m in rounds), "s")
    else:
        metrics = {
            "wall_s": (statistics.median(m["wall_s"] for m in rounds), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "cpu_s": (statistics.median(m["cpu_s"] for m in rounds), "s"),
            "peak_rss_mb": (statistics.median(m["peak_rss_mb"] for m in rounds), "MiB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"metric: {name} = {value:.6g} {unit}")
    print(f"info: {len(rounds)} untraced round(s), {attempted} operations, {failed} failed")
    print(json.dumps({
        "correct": bool(ok and unexpected == 0),
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
