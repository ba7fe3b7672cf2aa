"""Command-line entry point.

Exit codes: 0 success, 2 configuration error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import sys
from pathlib import Path

from .config import (
    ROW_KEYS,
    SCHEMA,
    ConfigError,
    RunConfig,
    config_reference,
    parse_config,
    parse_entries,
)
from .runner import run

# At exit, CPython's shutdown collections would walk every object still alive,
# about 22,000 from importing numpy and this package, for some 20 ms a process.
# Freezing the heap first makes them skip those objects; it runs only as the
# interpreter ends, so an in-process caller's heap and gc state stay as they were.
atexit.register(gc.freeze)

# each named flag and the one key it sets; --trials sets the experiment's ROW_KEYS
FLAG_KEYS = {"--experiment": "experiment", "--seed": "seed", "--out": "output.path",
             "--format": "output.format", "--workers": "workers"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="atomreadout",
        description=(
            "Simulate nondestructive fluorescence readout of single trapped-atom "
            "qubits and write machine-readable result tables."
        ),
    )
    parser.add_argument("--config", action="append", metavar="PATH",
                        help="config file (section.key = value lines)")
    for flag, key in FLAG_KEYS.items():
        choices = f", one of {', '.join(SCHEMA[key].choices)}" if SCHEMA[key].choices else ""
        parser.add_argument(flag, action="append", dest=key,
                            help=f"set {key}: {SCHEMA[key].help}{choices}")
    parser.add_argument("--trials", action="append",
                        help="trial count override (both histogram states / atoms)")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override any config key (repeatable)")
    parser.add_argument("--list-keys", action="store_true",
                        help="print the configuration key reference and exit")
    return parser


def load_config(args: argparse.Namespace) -> RunConfig:
    """The config file overridden by the command line, each parsed as one source."""
    if args.config and len(args.config) > 1:
        raise ConfigError("give at most one config file", key="--config")
    text = Path(args.config[0]).read_text(encoding="utf-8") if args.config else ""
    config = parse_config(text)
    entries = [*args.set, *(f"{key}={value}" for key in FLAG_KEYS.values()
                            for value in vars(args)[key] or ())]
    if args.trials:
        experiment = parse_entries((None, entry) for entry in entries).get(
            "experiment", config["experiment"])
        if experiment not in ROW_KEYS:
            raise ConfigError(f"the {experiment} experiment takes no trial count", key="--trials")
        entries += [f"{key}={trials}" for trials in args.trials for key in ROW_KEYS[experiment]]
    return config.with_updates(parse_entries((None, entry) for entry in entries))


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
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        output = run(config)
    except Exception as exc:  # noqa: BLE001 - surface anything as a runtime failure
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    for path in output.result_files:
        print(path)
    print(output.manifest_file)
    return 0


if __name__ == "__main__":
    sys.exit(main())
