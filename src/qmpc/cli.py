"""Command-line entry point.

Exit codes: 0 on success, 2 on configuration errors, 3 on numerical failures
(solver divergence, value-fit abort, failed oracle suite).  Log verbosity is
controlled by the QMPC_LOG_LEVEL environment variable (DEBUG/INFO/WARNING/...).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys

from .config import load_config
from .errors import ConfigError, QmpcError
from .harness import run_cstr_vfmpc, run_lq_reinforce, run_oracle_suite

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="qmpc", description="Optimization-based Q/policy models with RL tuning")
    sub = p.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run an experiment from a config file")
    runp.add_argument("--config", required=True)
    runp.add_argument("--out", default=None, help="output directory (overrides config)")
    runp.add_argument("--seed", type=int, default=None, help="master seed override")
    runp.add_argument("--reps", type=int, default=None, help="repetition count override")

    valp = sub.add_parser("validate", help="check a config file and exit")
    valp.add_argument("--config", required=True)

    orp = sub.add_parser("oracle-suite", help="run dynamic-programming and sensitivity property checks")
    orp.add_argument("--out", required=True)
    orp.add_argument("--seed", type=int, default=0)
    return p


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if args.reps is not None:
        if args.reps < 1:
            raise ConfigError("--reps must be at least 1")
        cfg = dataclasses.replace(cfg, repetitions=args.reps)
    out = args.out if args.out is not None else cfg.out_dir
    if out is None:
        raise ConfigError("no output directory: pass --out or set out_dir in the config")

    if cfg.experiment == "lq_reinforce":
        summary = run_lq_reinforce(cfg, out)
    else:  # parse_config admits the two studies only
        summary = run_cstr_vfmpc(cfg, out)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        level=os.environ.get("QMPC_LOG_LEVEL", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "validate":
            load_config(args.config)
            print(f"{args.config}: OK")
            return EXIT_OK
        if args.command == "oracle-suite":
            summary = run_oracle_suite(args.out, seed=args.seed)
            print(json.dumps(summary, indent=2, sort_keys=True))
            return EXIT_OK if summary["passed"] else EXIT_NUMERIC
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except QmpcError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
