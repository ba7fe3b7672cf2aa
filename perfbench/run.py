#!/usr/bin/env python3
"""Benchmark of the atomreadout CLI, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload histogram-100x --seed 1 --seconds 15 --trace 0
    python3 perfbench/selftest.py          # a quick check of the benchmark itself

Every workload, end to end and then layer by layer:

    for w in paper-suite histogram-100x rabi-10x-w2; do for t in 0 1; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 15 --trace $t
    done; done

Each workload (see workloads.py and BENCHMARK.json) is a fixed list of CLI
invocations. The CLI runs as a black box, one process at a time, from ``src/``
of the checkout; it receives only the generated flags and ``--seed``.

``--trace 0`` repeats the workload until the repeats add up to ``--seconds``,
and at least twice, and reports the end-to-end metrics: medians over the repeats, and
the median set-up time over at least nine process starts. Set-up probes (start
a CLI process, build its config, exit) run before the first repeats, so that
they sample the same stretch of time as the repeats do.

``--trace 1`` runs the workload once with the outer spans only (the baseline),
once with every span at one worker, and the workload's pooled experiment once
more at two workers. The outer spans are a few per invocation, so the baseline
stands for the untraced run, and ``trace.overhead_s`` is the wall time of the
fully traced pass minus that of the baseline: one sample each, so the host's
drift in speed can exceed it. The import metrics come from separate set-up
probes under ``-X importtime`` (``import.total_s`` from the baseline), so that
flag costs the traced passes nothing.

Every invocation's outputs are checked (exit code, parsable tables, row
counts, histogram totals, finite summaries, converged fits). Earlier lines of
standard output give each metric with its unit and sample count, the run
context and the Monte Carlo against analytic z-scores, none of them gated. The
last line is one JSON object with the keys correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import itertools
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import tomllib
from dataclasses import dataclass, field
from pathlib import Path

from tracing import EXPERIMENTS, Trace, layer_metrics
from workloads import Invocation, OutputError, Workload, check_outputs, workloads

HERE = Path(__file__).resolve().parent
LAUNCH = HERE / "launch.py"
RUN_LIMIT_S = 170.0        # every process is stopped by then, so a run ends within 180 s
MIN_PASSES = 2
MIN_SETUP_SAMPLES = 9


class BenchError(Exception):
    """The benchmark cannot run here (for example, no source tree)."""


def monotonic() -> float:
    """CLOCK_MONOTONIC, which the launched processes read too."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Outcome:
    """One CLI process: what it cost and whether its outputs passed the checks."""

    wall_s: float
    cpu_s: float
    ok: bool
    problem: str = ""
    rss_mb: float = 0.0
    setup_s: float | None = None
    import_s: float | None = None
    cycles: int = 0
    diagnostics: dict[str, float] = field(default_factory=dict)
    trace: Trace | None = None
    importtime: dict[str, float] = field(default_factory=dict)


def _importtime(stderr: str) -> dict[str, float]:
    """Seconds to import numpy and scipy, from ``-X importtime`` output.

    A package's time is the cumulative time of its imports that no numpy or
    scipy import encloses, so it includes what the package pulls in
    (scipy.special brings numpy.f2py) and nothing is counted twice.
    """
    totals = {"numpy": 0.0, "scipy": 0.0}
    entries = []
    for line in stderr.splitlines():
        parts = line.removeprefix("import time:").split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
            name = parts[2].rstrip()
            depth = len(name) - len(name.lstrip())
            entries.append((depth, name.strip().split(".", 1)[0], int(parts[1]) * 1e-6))
    # the output lists children before parents; reversed, parents come first
    stack: list[tuple[int, str]] = []
    for depth, package, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        if package in totals and not any(p in totals for _, p in stack):
            totals[package] += cumulative
        stack.append((depth, package))
    return totals


class Bench:
    """Launches CLI processes one at a time inside a work directory of the checkout."""

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed
        self.work = root / ".bench_work" / f"run-{os.getpid()}"
        self.deadline = monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass

    def invoke(self, inv: Invocation, mode: str, importtime: bool = False) -> Outcome:
        """Run one invocation through the launcher and check what it wrote."""
        self.attempted += 1
        out = self.work / f"op{self.attempted}"
        out.mkdir(parents=True)
        stamp = out / "stamp.json"
        stem = out / inv.experiment
        flags = ["-X", "importtime"] if importtime else []
        command = [sys.executable, *flags, str(LAUNCH), str(stamp), mode, str(self.attempted),
                   "--", *inv.argv(self.seed, stem)]
        with open(out / "stdout", "wb") as so, open(out / "stderr", "wb") as se:
            started = monotonic()
            proc = subprocess.Popen(command, cwd=self.root, env=self.env, stdout=so, stderr=se,
                                    start_new_session=True)
            watchdog = threading.Timer(max(1.0, self.deadline - started), _kill_group, (proc.pid,))
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                _kill_group(proc.pid)
                os.wait4(proc.pid, 0)
                raise
            finally:
                watchdog.cancel()
            wall = monotonic() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        outcome = Outcome(wall, usage.ru_utime + usage.ru_stime, ok=False)
        try:
            outcome.ok = self._check(inv, mode, proc.returncode, out, stem, started, outcome)
            if importtime:
                outcome.importtime = _importtime((out / "stderr").read_text(errors="replace"))
        except OutputError as exc:
            outcome.problem = str(exc)
        if not outcome.ok:
            self.failed += 1
            self.problems.append(f"{inv.experiment} ({mode}, workers {inv.workers}): "
                                 f"{outcome.problem}")
        shutil.rmtree(out, ignore_errors=True)
        return outcome

    def _check(self, inv, mode, code, out, stem, started, outcome) -> bool:
        if code != 0:
            tail = (out / "stderr").read_text(errors="replace").strip().splitlines()[-1:]
            raise OutputError(f"exit code {code} {' '.join(tail)}".strip())
        try:
            stamp = json.loads((out / "stamp.json").read_text())
            outcome.setup_s = stamp["setup_done"] - started
            outcome.import_s = stamp["import_s"]
            outcome.rss_mb = stamp["peak_rss_kb"] / 1024.0
        except (OSError, ValueError, KeyError) as exc:
            raise OutputError(f"no set-up stamp: {exc}") from exc
        if mode in ("outer", "full"):
            outcome.trace = Trace.load(out / "stamp.spans")
        if mode != "setup":
            checked = check_outputs(inv, stem)
            outcome.cycles, outcome.diagnostics = checked.cycles, checked.diagnostics
        return True


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

Metrics = dict[str, tuple[float, int]]   # name -> (value, sample count)


def _median(values: list[float]) -> tuple[float, int]:
    return (statistics.median(values), len(values)) if values else (math.nan, 0)


def timed_run(
    bench: Bench, workload: Workload, seconds: float
) -> tuple[Metrics, list[Outcome]]:
    # untimed warm-up: compiles the bytecode and fills the page cache, which a
    # user's second run finds done
    bench.invoke(workload.invocations[0], "setup")
    # set-up probes before each of the first MIN_PASSES passes, enough that
    # they and the passes' own starts reach MIN_SETUP_SAMPLES; the probes do
    # not count toward the measured seconds
    invocations = workload.invocations
    shortfall = MIN_SETUP_SAMPLES - MIN_PASSES * len(invocations)
    probes_per_pass = max(0, math.ceil(shortfall / MIN_PASSES))
    probe_cycle = itertools.cycle(invocations)
    probes: list[Outcome] = []
    passes: list[list[Outcome]] = []
    measured = 0.0
    while len(passes) < MIN_PASSES or measured < seconds:
        if len(passes) < MIN_PASSES:
            probes += [bench.invoke(next(probe_cycle), "setup") for _ in range(probes_per_pass)]
        passes.append([bench.invoke(inv, "none") for inv in invocations])
        measured += sum(o.wall_s for o in passes[-1])
    runs = [o for p in passes for o in p]
    setups = [o.setup_s for o in runs + probes if o.setup_s is not None]

    walls = [sum(o.wall_s for o in p) for p in passes]
    rates = [
        sum(o.cycles for o in p) / (wall - sum(o.setup_s or 0.0 for o in p))
        for p, wall in zip(passes, walls)
    ]
    metrics = {
        "wall_s": _median(walls),
        "setup_s": _median(setups),
        "cycles_per_s": _median(rates),
        "cpu_s": _median([sum(o.cpu_s for o in p) for p in passes]),
        "peak_rss_mb": (max(o.rss_mb for o in runs), len(runs)),
    }
    return metrics, passes[0]


def traced_run(bench: Bench, workload: Workload) -> tuple[Metrics, list[Outcome]]:
    bench.invoke(workload.invocations[0], "setup")   # warm-up, as in timed_run
    serial = [inv.with_workers(1) for inv in workload.invocations]
    imports = [bench.invoke(inv, "setup", importtime=True) for inv in serial]
    base = [bench.invoke(inv, "outer") for inv in serial]
    full = [bench.invoke(inv, "full") for inv in serial]
    pooled = bench.invoke(workload.invocations[workload.pool_probe].with_workers(2), "outer")

    metrics = layer_metrics([o.trace for o in full if o.trace is not None])
    metrics["import.total_s"] = _median([o.import_s for o in base if o.import_s is not None])
    for package in ("numpy", "scipy"):
        metrics[f"import.{package}_s"] = _median(
            [o.importtime[package] for o in imports if o.importtime])
    one = base[workload.pool_probe].trace
    two = pooled.trace
    serial_s = one.total(EXPERIMENTS) if one else 0.0
    pooled_s = two.total(EXPERIMENTS) if two else 0.0
    metrics["pool.tasks"] = (two.counters.get("pool.tasks", 0) if two else 0, 1)
    metrics["pool.efficiency"] = (serial_s / (2.0 * pooled_s) if pooled_s > 0 else 0.0, 1)
    metrics["trace.overhead_s"] = (
        sum(o.wall_s for o in full) - sum(o.wall_s for o in base), len(full))
    return metrics, full


# ---------------------------------------------------------------------------
# context, reporting, entry point
# ---------------------------------------------------------------------------


def _git_revision(root: Path) -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _version(package: str) -> str:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return "not installed"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_context(root: Path, seed: int) -> dict:
    """Where and what was measured; recorded beside the metrics, never gated."""
    src_lines = sum(len(p.read_text().splitlines()) for p in (root / "src").rglob("*.py"))
    project = tomllib.loads((root / "pyproject.toml").read_text()).get("project", {})
    return {
        "git_revision": _git_revision(root),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "seed": seed,
        "src_lines": src_lines,
        "runtime_dependencies": len(project.get("dependencies", [])),
    }


def measure(root: Path, workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns metrics, counts, context and diagnostics."""
    bench = Bench(root, seed)
    try:
        if trace:
            metrics, sample = traced_run(bench, workload)
        else:
            metrics, sample = timed_run(bench, workload, seconds)
    finally:
        bench.close()
    diagnostics = {}
    for inv, outcome in zip(workload.invocations, sample):
        for key, value in outcome.diagnostics.items():
            diagnostics[f"{inv.experiment}.{key}"] = value
    return {
        "metrics": metrics,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "problems": bench.problems,
        "context": run_context(root, seed),
        "diagnostics": diagnostics,
        "table_cycles": sum(o.cycles for o in sample),
        "traces": [o.trace for o in sample if o.trace is not None],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    root = Path.cwd()
    try:
        if not (root / "src" / "atomreadout" / "cli.py").is_file():
            raise BenchError(f"no atomreadout source under {root / 'src'}")
        spec = json.loads((root / "BENCHMARK.json").read_text())
        available = workloads()
        if args.workload not in available:
            raise BenchError(f"unknown workload {args.workload!r}; known: {sorted(available)}")
    except (BenchError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    # stop the running CLI process group on termination, as on any other exit
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    seed = args.seed % 2**64
    result = measure(root, available[args.workload], seed, args.seconds, bool(args.trace))
    try:
        report(args.workload, result, units)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0


def report(workload: str, result: dict, units: dict[str, str]) -> None:
    """Print the run; the last line is the JSON result."""
    metrics = result["metrics"]
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    print(f"workload {workload}  seed {result['context']['seed']}")
    print("context " + json.dumps(result["context"], sort_keys=True))
    print("diagnostics (not gated) " + json.dumps(result["diagnostics"], sort_keys=True))
    for problem in result["problems"]:
        print(f"FAILED {problem}")
    for name, unit in units.items():
        value, n = metrics[name]
        print(f"  {name:<22} {value:>16.6g} {unit:<6} n={n}")
    values = {name: metrics[name][0] for name in units}
    finite = all(math.isfinite(v) for v in values.values())
    print(json.dumps({
        "correct": result["failed"] == 0 and finite,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": values[name] if math.isfinite(values[name]) else 0.0, "unit": unit}
            for name, unit in units.items()
        },
    }))


if __name__ == "__main__":
    sys.exit(main())
