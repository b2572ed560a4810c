"""Command-line surface: ``augrkhs <subcommand> --config <file>``.

The config is a sweep's one input: the subcommand, ``--out`` and ``--jobs``
become its ``command``, ``output_dir`` and ``jobs`` before it is checked
once, and a ``command`` naming another subcommand is refused.  Exit codes:
0 on success, 1 on config and usage errors, 2 when some grid cells failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .exceptions import ValidationError
from .harness import COMMANDS, load_config, resolve_config, run


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1, not 2, which means failed cells
        raise ValidationError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="augrkhs",
        description=("Exact experiments on finite augmentation processes: "
                     "complexity sweeps, spectra, pretraining objectives, "
                     "constrained regression, and trace-gap rates."),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", required=True, help="JSON config file")
        # --jobs and --out, when given, set their keys; otherwise no attribute
        p.add_argument("--jobs", type=int, default=argparse.SUPPRESS,
                       help="1 only; cells run in grid order")
        p.add_argument("--out", dest="output_dir", default=argparse.SUPPRESS,
                       help="output directory")
        p.add_argument("--print-config", action="store_true",
                       help="echo the resolved config and exit")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        raw = load_config(args.config)
        if raw.setdefault("command", args.command) != args.command:
            raise ValidationError(f"the config's command {raw['command']!r} "
                                  f"is not the subcommand {args.command!r}")
        raw |= {key: value for key, value in vars(args).items()
                if key in ("jobs", "output_dir")}
        config = resolve_config(raw)
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
