#!/usr/bin/env python3
"""Check that this checkout writes the same outputs as another source tree.

Usage: python3 scripts/compare_outputs.py PARENT_SRC

Runs every invocation of the benchmark's workloads (``perfbench/workloads.py``)
at seed 1, in CSV and in JSON, at one and at two workers, and each
``configs/*.cfg`` file through ``--config`` at seed 1, in CSV, at one worker,
and each stochastic experiment at a small size in each of the probe kernel's
corners (``CORNERS``) at seed 1, in CSV, at one worker. Each run is made once
with this checkout's ``src/`` and once with ``PARENT_SRC`` (the ``src/``
directory of the tree to compare against). Every
result table must match byte for byte; the manifests must match once
``wall_time_s`` and the ``output.path`` config entry are left out, as those
name the run rather than its results. Prints each file that differs and exits
1 if any does, 0 otherwise.
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
    each distinct workload invocation in both formats at one and two workers, each
    config file, then each experiment in each kernel corner."""
    found = []
    for workload in _workloads().values():
        for inv in workload.invocations:
            for fmt in ("csv", "json"):
                for workers in (1, 2):
                    label = f"{inv.experiment} {dict(inv.sizes)} {fmt} workers={workers}"
                    run = (label, replace(inv, fmt=fmt, workers=workers).argv(SEED, Path("out")))
                    if run not in found:
                        found.append(run)
    for config in sorted((ROOT / "configs").glob("*.cfg")):
        argv = ["--config", str(config), "--seed", str(SEED), "--format", "csv",
                "--workers", "1", "--out", "out"]
        found.append((f"{config.name} csv workers=1", argv))
    for experiment, sizes in CORNER_SIZES.items():
        for corner, settings in CORNERS.items():
            argv = ["--experiment", experiment, *sizes, "--seed", str(SEED), "--format", "csv",
                    "--workers", "1", "--out", "out"]
            argv += [arg for setting in settings for arg in ("--set", setting)]
            found.append((f"{experiment} {corner} csv workers=1", argv))
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


def _manifest(path: Path) -> dict:
    manifest = json.loads(path.read_text())
    manifest.pop("wall_time_s", None)
    manifest.get("config", {}).pop("output.path", None)
    return manifest


def _differences(ours: Path, theirs: Path) -> list[str]:
    """Names of the files that differ between two output directories, or exist in one only."""
    names = sorted({p.name for p in ours.iterdir()} | {p.name for p in theirs.iterdir()})
    differ = []
    for name in names:
        a, b = ours / name, theirs / name
        if not (a.is_file() and b.is_file()):
            differ.append(f"{name} (written by one side only)")
        elif name.endswith("_manifest.json"):
            if _manifest(a) != _manifest(b):
                differ.append(name)
        elif a.read_bytes() != b.read_bytes():
            differ.append(name)
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
            errors += [f"{name} differs" for name in _differences(dirs["this"], dirs["parent"])]
            for error in errors or ["identical"]:
                print(f"{label}: {error}")
            failed |= bool(errors)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
