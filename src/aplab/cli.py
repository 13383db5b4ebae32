"""Command-line entry point for the experiment runner."""

from __future__ import annotations

import argparse
import json
import sys

from .experiments import EXPERIMENT_KINDS, default_params, run_experiment


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="aplab",
        description="Run transport-scheme experiments defined in JSON configs.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the experiments in a config file")
    run_p.add_argument("config", help="path to a JSON experiment config")
    run_p.add_argument("--out", default=None, metavar="DIR",
                       help="output directory (default: next to the config)")
    run_p.add_argument("--workers", type=int, default=1, metavar="N",
                       help="parallel experiments (>= 1), capped at the batch size and CPUs")

    sub.add_parser("list-kinds", help="list available experiment kinds")

    pd = sub.add_parser("print-defaults", help="show the defaults of one kind")
    pd.add_argument("kind")

    args = parser.parse_args(argv)
    if args.command == "run":
        return run_experiment(args.config, args.out, args.workers)
    if args.command == "list-kinds":
        for kind in EXPERIMENT_KINDS:
            print(kind)
        return 0
    try:
        defaults = default_params(args.kind)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(defaults, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
