#!/usr/bin/env python3
"""Quick check of the benchmark itself, at tiny workload sizes.

Run from the repository root:  python3 perfbench/selftest.py

It asserts that
- every workload, traced and untraced, prints every metric BENCHMARK.json
  names, each with its unit, in a result line of the agreed shape, with no
  failed operation; one workload, untraced, also with a second seed, which
  must give the same metric set;
- a deliberately broken invocation, and a deliberately broken output file,
  count as failed;
- every span's self time is non-negative and no longer than the span;
- the cycles counted from the result tables equal the traced cycle calls.
Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import run
from tracing import self_time_violations
from workloads import Invocation, OutputError, check_outputs, workloads

ROOT = Path(__file__).resolve().parent.parent


def _result_line(workload: str, result: dict, units: dict[str, str]) -> dict:
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        run.report(workload, result, units)
    return json.loads(printed.getvalue().splitlines()[-1])


def check_workloads(spec: dict, errors: list[str]) -> None:
    declared = {w["name"]: w["why"] for w in spec["workloads"]}
    defined = {w.name: w.why for w in workloads().values()}
    if declared != defined:
        errors.append(f"BENCHMARK.json workloads {declared} differ from {defined}")
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        units = {m["name"]: m["unit"] for m in spec[kind]}
        for number, workload in enumerate(workloads(tiny=True).values()):
            names_seen = []
            for seed in (1, 2) if number == 0 and not trace else (1,):
                label = f"{workload.name} seed {seed} trace {int(trace)}"
                result = run.measure(ROOT, workload, seed, 0.0, trace)
                line = _result_line(workload.name, result, units)
                if set(line) != {"correct", "attempted", "failed", "metrics"}:
                    errors.append(f"{label}: result keys {sorted(line)}")
                    continue
                if not line["correct"] or line["failed"] or line["attempted"] < 1:
                    errors.append(f"{label}: {line['attempted']} attempted, {line['failed']} "
                                  f"failed: {result['problems']}")
                for name, unit in units.items():
                    got = line["metrics"].get(name)
                    if got is None or got.get("unit") != unit:
                        errors.append(f"{label}: {name} missing or not in {unit}: {got}")
                    elif not isinstance(got["value"], (int, float)) \
                            or not math.isfinite(got["value"]):
                        errors.append(f"{label}: {name} = {got['value']!r}")
                names_seen.append(sorted(line["metrics"]))
                for trace_of_run in result["traces"]:
                    errors.extend(f"{label}: {v}" for v in self_time_violations(trace_of_run))
                if trace and not result["traces"]:
                    errors.append(f"{label}: no spans recorded")
                if trace and result["table_cycles"] != line["metrics"]["cycle.calls"]["value"]:
                    errors.append(f"{label}: {result['table_cycles']} cycles in the tables, "
                                  f"{line['metrics']['cycle.calls']['value']} traced")
            if names_seen[0] != names_seen[-1]:
                errors.append(f"{workload.name}: metric set changes with the seed")


def check_failures_count(errors: list[str]) -> None:
    bench = run.Bench(ROOT, seed=1)
    try:
        # the CLI rejects a zero trial count with exit code 2
        broken = Invocation("histogram", (("histogram.trials_f1", 0), ("histogram.trials_f2", 5)))
        outcome = bench.invoke(broken, "none")
        if outcome.ok or (bench.attempted, bench.failed) != (1, 1):
            errors.append(f"broken invocation not counted as failed: {outcome}")
    finally:
        bench.close()

    scratch = ROOT / ".bench_work" / "selftest"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        # the CLI output is fine except for one row that lacks a field
        (scratch / "budget_manifest.json").write_text('{"summary": {}}')
        (scratch / "budget.csv").write_text(
            "quantity,value,note\nanalytic_f1_error,0.1,x\nanalytic_f2_error,0.2\n")
        check_outputs(Invocation("budget"), scratch / "budget")
        errors.append("a malformed table passed the output checks")
    except OutputError:
        pass
    finally:
        for path in scratch.iterdir():
            path.unlink()
        scratch.rmdir()
        with contextlib.suppress(OSError):
            scratch.parent.rmdir()


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors: list[str] = []
    check_failures_count(errors)
    check_workloads(spec, errors)
    for error in errors[:20]:
        print(f"FAIL {error}")
    if len(errors) > 20:
        print(f"... and {len(errors) - 20} more")
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
