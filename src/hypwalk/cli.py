"""Command-line entry point.

Exit codes: 0 all selected verifications passed; 1 a verification failed
(report still written); 2 config schema violation; 3 budget exhaustion.
"""

from __future__ import annotations

import argparse
import json
import sys

from .config import apply_overrides, parse_config, read_config
from .errors import BudgetExceededError, ConfigError
from .report import run_experiment

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_CONFIG = 2
EXIT_BUDGET = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypwalk",
        description=(
            "Compute Green/Martin kernels, harmonic measure and the boundary "
            "type classification for nearest-neighbour walks on hyperbolic group models."
        ),
    )
    parser.add_argument("--config", required=True, help="path to the JSON experiment config")
    parser.add_argument("--out", default=None, help="output directory (default: config output.dir)")
    parser.add_argument(
        "--subcommands",
        default=None,
        help="comma-separated experiment list overriding the config selection",
    )
    parser.add_argument(
        "--override",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="config override with a dotted path, e.g. budgets.maxlen=2 (repeatable)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # Overrides apply to the file's raw config, which is parsed once,
        # so that only the experiments selected load their modules.
        raw = read_config(args.config)
        overrides = list(args.override)
        if args.subcommands:
            names = [s.strip() for s in args.subcommands.split(",") if s.strip()]
            overrides.append("experiments=" + json.dumps(names))
        if overrides:
            raw = apply_overrides(raw, overrides)
        cfg = parse_config(raw)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        bundle = run_experiment(cfg, out_dir=args.out)
    except BudgetExceededError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    for name, verdict in bundle.report["verdicts"].items():
        print(f"{name}: {verdict}")
    print(f"report: {bundle.files[-1]}")
    return EXIT_OK if bundle.passed else EXIT_VERIFICATION_FAILED


if __name__ == "__main__":
    sys.exit(main())
