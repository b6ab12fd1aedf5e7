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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
        if args.command in ("run", "frobenius"):
            errors = (run_experiment(cfg).errors if args.command == "run"
                      else compare_frobenius(cfg)[1])
            failed = {f"N_M={nm}": msg for nm, msg in sorted(errors.items())}
        elif args.command == "sweep":
            failed = {
                f"chi={chi:g} N_M={nm}": msg
                for chi, rep in sorted(run_chi_sweep(cfg).items())
                for nm, msg in sorted(rep.errors.items())
            }
        else:
            run_scsa(cfg)
            failed = {}
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for where, msg in failed.items():
        print(f"error: {where}: {msg}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
