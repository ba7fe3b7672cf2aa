"""Spans around calls into atomreadout's modules, and the per-layer metrics from them.

A ``Recorder`` lives in the traced CLI process. It wraps module-level names,
keeps every span in memory (name, start, end, parent; the run id is the
invocation) and writes them once, when the CLI returns. ``layer_metrics`` reads
those files back in the benchmark process.
"""

from __future__ import annotations

import json
import statistics
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

# span names, grouped by the layer they belong to
CONFIG = "cli.load_config"
RUN = "runner.run"
WRITE = "runner._write_table"
EXPERIMENTS = ("runner.experiment_histogram", "runner.experiment_survival",
               "runner.experiment_rabi")
SEED = "experiments.derive_substream"
CYCLE_BRIGHT = "experiments.run_detection_cycle.bright"
CYCLE_DARK = "experiments.run_detection_cycle.dark"
PREPARE = ("experiments.prepare_state", "experiments.reprepare")
PULSE = "experiments.microwave_pulse"
TRAP = ("experiments.apply_heating", "experiments.cool", "experiments.check_loss")
FIT = ("experiments.fit_damped_sinusoid", "experiments.fit_exponential")
SUMMARY = ("experiments.build_histogram", "experiments.binomial_interval")


class Recorder:
    """In-memory spans of one process. Not thread-safe; the traced CLI runs serially."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, int] = {}
        self._stack = [-1]

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name: str, fn, after=None):
        """``fn`` recorded as a span ``name``; ``after(result, args)`` sees each return."""
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        name_of, parent, start, end, stack = (
            self.name_of, self.parent, self.start, self.end, self._stack)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()
            if after is not None:
                after(result, args)
            return result

        return traced

    def dump(self, path: Path, run_id: int) -> None:
        meta = {"run_id": run_id, "names": self.names, "counters": self.counters,
                "spans": len(self.start)}
        with open(path, "wb") as fh:
            fh.write(json.dumps(meta).encode() + b"\n")
            for column in (self.name_of, self.parent, self.start, self.end):
                column.tofile(fh)


@dataclass
class Trace:
    """The spans of one traced invocation."""

    run_id: int
    names: list[str]
    counters: dict[str, int]
    name_of: array
    parent: array
    start: array
    end: array

    @classmethod
    def load(cls, path: Path) -> "Trace":
        with open(path, "rb") as fh:
            meta = json.loads(fh.readline())
            columns = []
            for code in ("i", "i", "d", "d"):
                column = array(code)
                column.fromfile(fh, meta["spans"])
                columns.append(column)
        return cls(meta["run_id"], meta["names"], meta["counters"], *columns)

    def durations_and_self(self) -> tuple[list[float], list[float]]:
        """Each span's duration, and its self time: duration minus its children's."""
        durations = [e - s for s, e in zip(self.start, self.end)]
        children = [0.0] * len(durations)
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                children[parent] += durations[index]
        return durations, [d - c for d, c in zip(durations, children)]

    def total(self, names) -> float:
        """Summed duration of the spans with one of ``names``."""
        ids = {i for i, n in enumerate(self.names) if n in names}
        return sum(e - s for k, s, e in zip(self.name_of, self.start, self.end) if k in ids)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in [0, 1]."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(traces: list[Trace]) -> dict[str, tuple[float, int]]:
    """Per-layer metrics of one traced pass, summed over its invocations.

    Each value comes with its sample count: the spans (or invocations) behind it.
    """
    calls: dict[str, int] = {}
    totals: dict[str, float] = {}
    selfs: dict[str, float] = {}
    samples: dict[str, list[float]] = {SEED: [], CYCLE_BRIGHT: [], CYCLE_DARK: []}
    counters: dict[str, int] = {}
    nested_prepare = [0, 0.0]
    for trace in traces:
        durations, self_times = trace.durations_and_self()
        names = [trace.names[k] for k in trace.name_of]
        for index, name in enumerate(names):
            calls[name] = calls.get(name, 0) + 1
            totals[name] = totals.get(name, 0.0) + durations[index]
            selfs[name] = selfs.get(name, 0.0) + self_times[index]
            if name in samples:
                samples[name].append(durations[index])
            parent = trace.parent[index]
            if name in PREPARE and parent >= 0 and names[parent] in PREPARE:
                # reprepare calls prepare_state; count the outer call only
                nested_prepare[0] += 1
                nested_prepare[1] += durations[index]
        for key, value in trace.counters.items():
            counters[key] = counters.get(key, 0) + value

    def n(*names: str) -> int:
        return sum(calls.get(name, 0) for name in names)

    def t(*names: str) -> tuple[float, int]:
        return sum(totals.get(name, 0.0) for name in names), n(*names)

    def us(name: str, q: float) -> tuple[float, int]:
        values = samples[name]
        return (percentile(values, q) * 1e6 if values else 0.0), len(values)

    cycles = n(CYCLE_BRIGHT, CYCLE_DARK)
    prepares = n(*PREPARE) - nested_prepare[0]
    return {
        "config.build_s": (statistics.median(trace.total({CONFIG}) for trace in traces),
                           len(traces)),
        "seeding.calls": (n(SEED), n(SEED)),
        "seeding.per_cycle": (n(SEED) / cycles if cycles else 0.0, cycles),
        "seeding.us_p50": us(SEED, 0.50),
        "seeding.us_p99": us(SEED, 0.99),
        "seeding.total_s": t(SEED),
        "cycle.calls": (cycles, cycles),
        "cycle.bright.us_p50": us(CYCLE_BRIGHT, 0.50),
        "cycle.bright.us_p99": us(CYCLE_BRIGHT, 0.99),
        "cycle.dark.us_p50": us(CYCLE_DARK, 0.50),
        "cycle.dark.us_p99": us(CYCLE_DARK, 0.99),
        "cycle.self_s": (selfs.get(CYCLE_BRIGHT, 0.0) + selfs.get(CYCLE_DARK, 0.0), cycles),
        "cycle.depumped": (counters.get("cycle.depumped", 0), cycles),
        "cycle.lost": (counters.get("cycle.lost", 0), cycles),
        "cycle.scatters": (counters.get("cycle.scatters", 0), cycles),
        "prepare.calls": (prepares, prepares),
        "prepare.total_s": (t(*PREPARE)[0] - nested_prepare[1], prepares),
        "pulse.total_s": t(PULSE),
        "experiment.self_s": (sum(selfs.get(name, 0.0) for name in EXPERIMENTS),
                              n(*EXPERIMENTS)),
        "trap.calls": (n(*TRAP), n(*TRAP)),
        "trap.total_s": t(*TRAP),
        "fit.total_s": t(*FIT),
        "fit.iterations": (counters.get("fit.iterations", 0), n(*FIT)),
        "summary.total_s": t(*SUMMARY),
        "runner.self_s": (t(RUN)[0] - t(*EXPERIMENTS)[0], n(RUN)),
        "write.bytes": (counters.get("write.bytes", 0), n(WRITE)),
        "write.rows": (counters.get("write.rows", 0), n(WRITE)),
    }


def self_time_violations(trace: Trace) -> list[str]:
    """Spans whose self time is negative or longer than the span itself."""
    slack = 1e-9   # rounding of the float subtraction
    durations, self_times = trace.durations_and_self()
    return [
        f"{trace.names[trace.name_of[i]]}#{i}: self {s:.3g} s of span {d:.3g} s"
        for i, (d, s) in enumerate(zip(durations, self_times))
        if s < -slack or s > d + slack
    ]
