"""Command-line entry point.

Exit codes: 0 success, 2 configuration error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import (
    ROW_KEYS,
    ConfigError,
    RunConfig,
    config_reference,
    parse_config,
    parse_value,
)
from .runner import run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="atomreadout",
        description=(
            "Simulate nondestructive fluorescence readout of single trapped-atom "
            "qubits and write machine-readable result tables."
        ),
    )
    parser.add_argument("--experiment", choices=("histogram", "survival", "rabi", "budget"),
                        help="experiment to run (overrides the config file)")
    parser.add_argument("--config", metavar="PATH", help="config file (section.key = value lines)")
    parser.add_argument("--seed", type=int, help="master seed, unsigned 64-bit")
    parser.add_argument("--trials", type=int,
                        help="trial count override (both histogram states / atoms)")
    parser.add_argument("--out", metavar="PATH", help="output file stem")
    parser.add_argument("--format", choices=("csv", "json"), help="result table format")
    parser.add_argument("--nd", type=int, help="counts required to call the atom bright")
    parser.add_argument("--workers", type=int, help="process-pool workers")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override any config key (repeatable)")
    parser.add_argument("--list-keys", action="store_true",
                        help="print the configuration key reference and exit")
    return parser


def load_config(args: argparse.Namespace) -> RunConfig:
    text = Path(args.config).read_text() if args.config else ""
    config = parse_config(text)

    overrides: dict[str, object] = {}
    for item in args.set:
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError("expected KEY=VALUE", key="--set")
        key = key.strip()
        overrides[key] = parse_value(key, value.strip())
    if args.experiment:
        overrides["experiment"] = args.experiment
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["output.path"] = args.out
    if args.format is not None:
        overrides["output.format"] = args.format
    if args.nd is not None:
        overrides["readout.nd"] = args.nd
    if args.workers is not None:
        overrides["workers"] = args.workers
    config = config.with_updates(overrides)

    if args.trials is not None:
        if config.experiment not in ROW_KEYS:
            raise ConfigError(f"the {config.experiment} experiment takes no trial count",
                              key="--trials")
        config = config.with_updates(dict.fromkeys(ROW_KEYS[config.experiment], args.trials))
    return config


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_keys:
        print(config_reference(), end="")
        return 0
    try:
        config = load_config(args)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        output = run(config)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - surface anything as a runtime failure
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    for path in output.result_files:
        print(path)
    print(output.manifest_file)
    return 0


if __name__ == "__main__":
    sys.exit(main())
