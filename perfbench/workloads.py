"""Workloads of the atomreadout benchmark, and the checks on the CLI's outputs.

A workload is a fixed list of CLI invocations. Every size is passed as an
explicit flag, so a later change to the built-in defaults does not change the
work a workload does. The benchmark's seed is the only input that varies.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path


@dataclass(frozen=True)
class Invocation:
    """One CLI run: an experiment, its sizes, output format and worker count."""

    experiment: str
    sizes: tuple[tuple[str, int], ...] = ()
    fmt: str = "csv"
    workers: int = 1

    def size(self, key: str) -> int:
        return dict(self.sizes)[key]

    def argv(self, seed: int, out: Path) -> list[str]:
        args = [
            "--experiment", self.experiment,
            "--seed", str(seed),
            "--workers", str(self.workers),
            "--format", self.fmt,
            "--out", str(out),
        ]
        for key, value in self.sizes:
            args += ["--set", f"{key}={value}"]
        return args

    def with_workers(self, workers: int) -> "Invocation":
        return replace(self, workers=workers)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    invocations: tuple[Invocation, ...]
    pool_probe: int   # index of the invocation re-run at two workers for pool.efficiency


def _histogram(f1: int, f2: int, workers: int = 1) -> Invocation:
    return Invocation(
        "histogram", (("histogram.trials_f1", f1), ("histogram.trials_f2", f2)), "csv", workers
    )


def _survival(atoms: int, cycles: int) -> Invocation:
    return Invocation("survival", (("survival.atoms", atoms), ("survival.cycles", cycles)))


def _rabi(atoms: int, points: int, fmt: str = "csv", workers: int = 1) -> Invocation:
    return Invocation("rabi", (("rabi.atoms", atoms), ("rabi.points", points)), fmt, workers)


def workloads(tiny: bool = False) -> dict[str, Workload]:
    """The benchmark's workloads; ``tiny`` shrinks every size for the self-test."""
    if tiny:
        suite = (Invocation("budget"), _histogram(150, 150), _survival(40, 40), _rabi(60, 50))
        hist100 = _histogram(400, 500)
        rabi10 = _rabi(80, 50, "json", 2)
    else:
        # paper-2010 sizes: 1684/2127 histogram trials, 102 atoms x 100 cycles,
        # 312 atoms x 50 Rabi points
        suite = (
            Invocation("budget"), _histogram(1684, 2127), _survival(102, 100), _rabi(312, 50)
        )
        hist100 = _histogram(168400, 212700)
        rabi10 = _rabi(3120, 50, "json", 2)
    found = (
        Workload(
            "paper-suite",
            "the four experiments at paper size as README users run them; "
            "import and set-up dominate",
            suite,
            pool_probe=3,
        ),
        Workload(
            "histogram-100x",
            "381k independent bright and dark cycles plus a large CSV; "
            "seeding and the cycle kernel dominate",
            (hist100,),
            pool_probe=0,
        ),
        Workload(
            "rabi-10x-w2",
            "dark-heavy sequential rows through a two-worker pool and a large JSON write",
            (rabi10,),
            pool_probe=0,
        ),
    )
    return {w.name: w for w in found}


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


class OutputError(Exception):
    """An output that breaks one of the benchmark's correctness rules."""


@dataclass
class Checked:
    cycles: int                  # detection cycles simulated, counted from the tables
    diagnostics: dict[str, float]


def _reject_constant(name: str) -> float:
    raise OutputError(f"non-standard JSON constant {name}")


def _read_table(path: Path, fmt: str) -> list[dict]:
    """Rows of a result table as dicts; raises OutputError when it does not parse."""
    try:
        text = path.read_text()
    except OSError as exc:
        raise OutputError(f"missing table {path.name}: {exc}") from exc
    if fmt == "json":
        try:
            rows = json.loads(text, parse_constant=_reject_constant)
        except ValueError as exc:
            raise OutputError(f"{path.name} is not JSON: {exc}") from exc
        if not isinstance(rows, list) or not all(isinstance(r, dict) for r in rows):
            raise OutputError(f"{path.name} is not a list of records")
        return rows
    lines = list(csv.reader(text.splitlines()))
    if not lines:
        raise OutputError(f"{path.name} is empty")
    header, body = lines[0], lines[1:]
    for number, row in enumerate(body, start=2):
        if len(row) != len(header):
            raise OutputError(f"{path.name} line {number} has {len(row)} fields")
    return [dict(zip(header, row)) for row in body]


def _value(raw: object) -> float | bool:
    if isinstance(raw, bool):
        return raw
    if raw in ("true", "false"):
        return raw == "true"
    try:
        value = float(raw)
    except (TypeError, ValueError) as exc:
        raise OutputError(f"summary value {raw!r} is not a number") from exc
    if not math.isfinite(value):
        raise OutputError(f"summary value {raw!r} is not finite")
    return value


def _summary(rows: list[dict]) -> dict[str, float | bool]:
    return {str(r["quantity"]): _value(r["value"]) for r in rows}


def _expect(label: str, got: float, want: float) -> None:
    if got != want:
        raise OutputError(f"{label}: {got} != {want}")


def _z(rate: float, reference: float, n: float) -> float:
    """Standard score of an observed rate against a reference probability."""
    if n <= 0 or not 0.0 < reference < 1.0:
        return math.nan
    return (rate - reference) / math.sqrt(reference * (1.0 - reference) / n)


def check_outputs(inv: Invocation, stem: Path) -> Checked:
    """Parse every file one invocation wrote and apply the workload's checks."""
    ext = "." + inv.fmt

    def table(suffix: str) -> list[dict]:
        return _read_table(stem.with_name(stem.name + suffix + ext), inv.fmt)

    manifest = _read_manifest(stem.with_name(stem.name + "_manifest.json"))
    if inv.experiment == "budget":
        budget = _summary(table(""))
        for key in ("analytic_f1_error", "analytic_f2_error"):
            if key not in budget:
                raise OutputError(f"budget lacks {key}")
        return Checked(0, {})
    summary = _summary(table("_summary"))
    if summary != {k: _value(v) for k, v in manifest["summary"].items()}:
        raise OutputError("summary table and manifest summary differ")
    if inv.experiment == "histogram":
        return _check_histogram(inv, table, summary)
    if inv.experiment == "survival":
        return _check_survival(inv, table, summary)
    return _check_rabi(inv, table, summary)


def _read_manifest(path: Path) -> dict:
    try:
        manifest = json.loads(path.read_text(), parse_constant=_reject_constant)
    except (OSError, ValueError) as exc:
        raise OutputError(f"bad manifest {path.name}: {exc}") from exc
    if not isinstance(manifest, dict) or not isinstance(manifest.get("summary"), dict):
        raise OutputError(f"manifest {path.name} has no summary")
    return manifest


def _check_histogram(inv: Invocation, table, summary: dict) -> Checked:
    trials = {"F1": inv.size("histogram.trials_f1"), "F2": inv.size("histogram.trials_f2")}
    records = table("")
    _expect("histogram records", len(records), sum(trials.values()))
    frequencies = {"F1": 0, "F2": 0}
    for row in table("_histogram"):
        frequencies[row["prepared_state"]] += int(row["frequency"])
    _expect("histogram frequencies", frequencies, trials)
    diagnostics = {}
    for tag in ("f1", "f2"):
        n = trials[tag.upper()]
        _expect(f"{tag}_trials", summary[f"{tag}_trials"], n)
        rate, reference = summary[f"{tag}_error_rate"], summary[f"analytic_{tag}_error"]
        diagnostics[f"{tag}_error_rate"] = rate
        diagnostics[f"analytic_{tag}_error"] = reference
        diagnostics[f"{tag}_error_wilson_low"] = summary[f"{tag}_error_wilson_low"]
        diagnostics[f"{tag}_error_wilson_high"] = summary[f"{tag}_error_wilson_high"]
        diagnostics[f"{tag}_error_z"] = _z(rate, reference, n)
    return Checked(len(records), diagnostics)


def _check_survival(inv: Invocation, table, summary: dict) -> Checked:
    atoms, cycles = inv.size("survival.atoms"), inv.size("survival.cycles")
    records = table("")
    _expect("survival records", len(records), atoms * cycles)
    _expect("survival curve points", len(table("_curve")), cycles + 1)
    _expect("survival atoms", summary["atoms"], atoms)
    if summary.get("fit_converged") is False:
        raise OutputError("lifetime fit did not converge")
    # a row is simulated up to and including the cycle that lost the atom
    simulated: dict[str, int] = {}
    done: set[str] = set()
    for row in records:
        atom = row["atom"]
        if atom in done:
            continue
        simulated[atom] = simulated.get(atom, 0) + 1
        if row["cell"] == "lost":
            done.add(atom)
    return Checked(sum(simulated.values()), {})


def _check_rabi(inv: Invocation, table, summary: dict) -> Checked:
    atoms, points = inv.size("rabi.atoms"), inv.size("rabi.points")
    records = table("")
    curve = table("_curve")
    _expect("rabi curve points", len(curve), points)
    _expect("rabi measured outcomes", sum(int(r["n_measured"]) for r in curve), len(records))
    _expect("rabi atoms", summary["atoms"], atoms)
    _expect("rabi points", summary["points"], points)
    if summary["fit_converged"] is not True:
        raise OutputError("Rabi fit did not converge")
    per_atom: dict[object, int] = {}
    for row in records:
        per_atom[row["atom"]] = per_atom.get(row["atom"], 0) + 1
    if len(per_atom) > atoms or any(n > points for n in per_atom.values()):
        raise OutputError("rabi records name more atoms or points than requested")
    # an atom whose row ends early was lost in one further, unrecorded cycle
    complete = sum(1 for n in per_atom.values() if n == points)
    rate, reference = summary["zero_point_fraction"], summary["analytic_f1_floor"]
    diagnostics = {
        "zero_point_fraction": rate,
        "analytic_f1_floor": reference,
        "zero_point_z": _z(rate, reference, summary["zero_point_n"]),
    }
    return Checked(len(records) + atoms - complete, diagnostics)
