"""Command-line surface: ``augrkhs <subcommand> --config <file>``.

Exit codes: 0 on full success, 1 on configuration errors, 2 when some grid
cells failed (their rows carry an ``error`` column).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .exceptions import ValidationError
from .harness import COMMANDS, load_config, resolve_config, run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="augrkhs",
        description=("Exact experiments on finite augmentation processes: "
                     "complexity sweeps, spectra, pretraining objectives, "
                     "constrained regression, and trace-gap rates."),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--jobs", type=int, default=None,
                       help="1 only; cells run in grid order")
        p.add_argument("--seed", type=int, default=None,
                       help="override the seed list with a single seed")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--budget", type=int, default=None,
                       help="max enumeration entries")
        p.add_argument("--print-config", action="store_true",
                       help="echo the resolved config and exit")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        raw = load_config(args.config)
        config = resolve_config(raw, command=args.command, seed=args.seed,
                                out=args.out, budget=args.budget,
                                jobs=args.jobs)
    except (ValidationError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    if args.print_config:
        print(json.dumps(dataclasses.asdict(config), indent=2, sort_keys=True))
        return 0
    try:
        outcome = run(config)
    except OSError as exc:
        print(f"startup error: {exc}", file=sys.stderr)
        return 1
    for name, path in sorted(outcome.files.items()):
        print(f"{name}: {path}")
    if outcome.failures:
        print(f"{outcome.failures} cell(s) failed", file=sys.stderr)
    return outcome.exit_code


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
