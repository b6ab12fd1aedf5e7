"""Command line entry point.

    laxrom run CONFIG        full experiment: tables, error series, snapshots
    laxrom sweep CONFIG      repeat the experiment over a chi grid
    laxrom scsa CONFIG       static signal representation study
    laxrom frobenius CONFIG  residual-norm comparison against a reference N_M

All subcommands share --out (override the configured output directory)
and --verbose (progress lines, logged to stderr).
"""

from __future__ import annotations

import argparse
import ctypes
import logging
import sys

from .harness import (
    check_frobenius,
    compare_frobenius,
    load_config,
    run_chi_sweep,
    run_experiment,
    run_scsa,
)


def _add_common(sub):
    sub.add_argument("config", help="experiment configuration file (INI)")
    sub.add_argument("--out", help="output directory (overrides the config)")
    sub.add_argument("--verbose", action="store_true", help="progress output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="laxrom",
        description="Reduced-order modeling on a moving Schrodinger eigenbasis",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, text in [
        ("run", "run one experiment and write its error tables"),
        ("sweep", "run the experiment for every chi in [sweep] chi_grid"),
        ("scsa", "signal representation chi sweep (static)"),
        ("frobenius", "compare residual norms against nm_ref"),
    ]:
        _add_common(subs.add_parser(name, help=text, description=text))
    return parser


def _keep_freed_heap() -> None:
    """Stop glibc from returning freed heap to the kernel after every step.

    Each reduced step allocates and frees several arrays of n^2(n+1)/2
    doubles (0.19 MB at 36 modes): the pair matrix of the interaction tensor
    and the bracket's GEMM product, beside the state-sized ones (89 KB at 36
    modes).  With
    glibc's start-up thresholds (128 KiB) that memory goes back to the
    kernel and comes back as fresh zeroed pages, one page fault per 4 KiB.
    The values set here are the ones glibc's own adaptive rule reaches once
    the process has freed a 32 MiB block.  Other C libraries are left as
    they are.
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3  # glibc <malloc.h>
    mallopt(m_mmap_threshold, 32 << 20)
    mallopt(m_trim_threshold, 64 << 20)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _keep_freed_heap()
    logging.basicConfig(format="%(message)s")
    logging.getLogger("laxrom").setLevel(logging.INFO if args.verbose else logging.WARNING)
    try:
        cfg = load_config(args.config)
        if args.command == "frobenius":
            check_frobenius(cfg)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out is not None:
        cfg.out_dir = args.out
    if cfg.out_dir is None:
        cfg.out_dir = "out"

    try:
        if args.command == "run":
            report = run_experiment(cfg)
            for nm, msg in sorted(report.errors.items()):
                print(f"error: N_M={nm}: {msg}", file=sys.stderr)
            return 1 if report.errors else 0
        if args.command == "sweep":
            reports = run_chi_sweep(cfg)
            bad = {
                (chi, nm): msg
                for chi, rep in reports.items()
                for nm, msg in rep.errors.items()
            }
            for (chi, nm), msg in sorted(bad.items()):
                print(f"error: chi={chi:g} N_M={nm}: {msg}", file=sys.stderr)
            return 1 if bad else 0
        if args.command == "scsa":
            run_scsa(cfg)
            return 0
        if args.command == "frobenius":
            compare_frobenius(cfg)
            return 0
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
