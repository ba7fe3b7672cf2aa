#!/usr/bin/env python3
"""Check that this checkout writes the same outputs as another source tree.

Usage: python3 scripts/compare_outputs.py PARENT_SRC

Runs every invocation of the benchmark's workloads (``perfbench/workloads.py``)
at seed 1, in CSV and in JSON, as the benchmark passes it, and each
``configs/*.cfg`` file through ``--config`` at seed 1, in CSV, and each
stochastic experiment at a small size in each of the probe kernel's corners
(``CORNERS``) at seed 1, in CSV, and histogram, survival and Rabi runs of
several blocks of rows (``POOL_RUNS``) at seed 1, in CSV, at one and at two
workers, so that the row experiments' pool path is compared. These pooled runs
are the only ones that pass a worker count. Each run is made once
with this checkout's ``src/`` and once with ``PARENT_SRC`` (the ``src/``
directory of the tree to compare against). Every
result table must match byte for byte; the manifests must match once
``wall_time_s`` and the ``output.path`` config entry are left out, as those
name the run rather than its results. Prints each table that differs, and each
manifest entry that differs by its dotted path with the parent's value and
this checkout's (``artifact.version: '0.4.0' -> '0.5.0'``), and exits 1 if
any differs, 0 otherwise.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 1

# settings that take the probe kernel off the reference operating point: n_d other
# than 2, the fixed window, no background (the adaptive stop then ends at the
# window) and no depumping (tau is infinite)
CORNERS = {
    "nd=1": ["readout.nd=1"],
    "nd=5": ["readout.nd=5"],
    "fixed nd=4": ["readout.mode=fixed", "readout.nd=4"],
    "no background": ["probe.background_mean=0"],
    "fixed no background": ["readout.mode=fixed", "probe.background_mean=0"],
    "no depump": ["readout.depump_hazard=0"],
    "fixed no depump": ["readout.mode=fixed", "readout.depump_hazard=0"],
}
# small sizes for the corner runs of each stochastic experiment
CORNER_SIZES = {
    "histogram": ["--trials", "5000"],
    "survival": ["--trials", "100", "--set", "survival.cycles=50"],
    "rabi": ["--trials", "300"],
}

# rows of more than one block (experiments.BLOCK = 4,096), so that a pool of two starts and
# each pooled block is copied into its rows: survival and Rabi take one block and five rows
# of a few cycles (Rabi: 20 points, which sample the default drive below its Nyquist limit),
# and each histogram state three blocks (2 x 4,096 + 17 trials), so that one worker's
# contiguous run holds two of them
POOL_RUNS = {
    "histogram": ["--set", "histogram.trials_f1=8209", "--set", "histogram.trials_f2=8209"],
    "survival": ["--set", "survival.atoms=4101", "--set", "survival.cycles=5"],
    "rabi": ["--set", "rabi.atoms=4101", "--set", "rabi.points=20"],
}


def _workloads():
    """perfbench's workloads module, imported without writing bytecode beside it."""
    sys.dont_write_bytecode = True
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses look the module up by name
    spec.loader.exec_module(module)
    return module.workloads()


def _runs() -> list[tuple[str, list[str]]]:
    """(label, CLI arguments) of each run, writing the stem ``out`` in its working directory:
    each distinct workload invocation in both formats, each config file, each experiment in
    each kernel corner, then the pooled row runs, serial and in a pool of two."""
    found = []
    for workload in _workloads().values():
        for inv in workload.invocations:
            for fmt in ("csv", "json"):
                run = (f"{inv.experiment} {dict(inv.sizes)} {fmt}",
                       replace(inv, fmt=fmt).argv(SEED, Path("out")))
                if run not in found:
                    found.append(run)
    common = ["--seed", str(SEED), "--format", "csv", "--out", "out"]
    for config in sorted((ROOT / "configs").glob("*.cfg")):
        found.append((f"{config.name} csv", ["--config", str(config), *common]))
    for experiment, sizes in CORNER_SIZES.items():
        for corner, settings in CORNERS.items():
            argv = ["--experiment", experiment, *sizes, *common]
            argv += [arg for setting in settings for arg in ("--set", setting)]
            found.append((f"{experiment} {corner} csv", argv))
    for experiment, sizes in POOL_RUNS.items():
        for workers in (1, 2):
            argv = ["--experiment", experiment, *sizes, *common, "--workers", str(workers)]
            found.append((f"{experiment} {' '.join(sizes[1::2])} csv workers={workers}", argv))
    return found


def _run(src: Path, argv: list[str], cwd: Path) -> str | None:
    """Run the CLI from ``src``; None on success, else the exit code and last stderr line."""
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run(
        [sys.executable, "-m", "atomreadout", *argv],
        cwd=cwd, env=env, capture_output=True, text=True,
    )
    if result.returncode == 0:
        return None
    tail = result.stderr.strip().splitlines()[-1:]
    return f"exit code {result.returncode} {' '.join(tail)}".strip()


# manifest entries that name the run rather than its results
RUN_ENTRIES = {"wall_time_s", "config.output.path"}


def _entries(value: object, path: str = "") -> dict[str, object]:
    """Each leaf of a JSON value by its dotted path; a list or an empty object is one leaf."""
    if not isinstance(value, dict) or not value:
        return {path: value}
    found = {}
    for key, item in value.items():
        found |= _entries(item, f"{path}.{key}" if path else key)
    return found


def _manifest_differences(ours: Path, theirs: Path) -> list[str]:
    """The dotted paths of the entries that differ between two manifests, with both values."""
    sides = [_entries(json.loads(p.read_text())) for p in (theirs, ours)]
    differ = []
    for path in sorted((sides[0].keys() | sides[1].keys()) - RUN_ENTRIES):
        shown = [repr(side[path]) if path in side else "(absent)" for side in sides]
        if shown[0] != shown[1]:
            differ.append(f"{path}: {shown[0]} -> {shown[1]}")
    return differ


def _differences(ours: Path, theirs: Path) -> list[str]:
    """What differs between two output directories: each table that differs or exists in one
    only, and each differing manifest entry."""
    names = sorted({p.name for p in ours.iterdir()} | {p.name for p in theirs.iterdir()})
    differ = []
    for name in names:
        a, b = ours / name, theirs / name
        if not (a.is_file() and b.is_file()):
            differ.append(f"{name} written by one side only")
        elif name.endswith("_manifest.json"):
            differ += [f"{name} {entry}" for entry in _manifest_differences(a, b)]
        elif a.read_bytes() != b.read_bytes():
            differ.append(f"{name} differs")
    return differ


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1 or args[0].startswith("-"):
        print(__doc__, file=sys.stderr)
        return 2
    sides = {"this": ROOT / "src", "parent": Path(args[0]).resolve()}
    if not (sides["parent"] / "atomreadout" / "cli.py").is_file():
        print(f"no atomreadout package under {sides['parent']}", file=sys.stderr)
        return 2
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for n, (label, argv) in enumerate(_runs()):
            dirs, errors = {}, []
            for side, src in sides.items():
                dirs[side] = Path(tmp) / f"{side}{n}"
                dirs[side].mkdir()
                error = _run(src, argv, dirs[side])
                if error:
                    errors.append(f"{side} failed: {error}")
            errors += _differences(dirs["this"], dirs["parent"])
            for error in errors or ["identical"]:
                print(f"{label}: {error}")
            failed |= bool(errors)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
