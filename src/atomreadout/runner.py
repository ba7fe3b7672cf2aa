"""Experiment orchestration: run a config, write its result tables and a manifest.

The histogram, survival and Rabi builders unpack the config into one
experiment call, which returns the tables and summary to write; the budget
builder computes its closed-form rows here.

Result and summary files are byte-identical for identical (config, seed),
independent of worker count, for a fixed numpy version; the manifest
additionally records wall time, the number of processes that ran and the
environment (Python and numpy versions, CPU count), and is therefore the one
output not covered by the byte-identity contract.

Tables are held as columns up to the write, a label column as ``Coded``
integer codes into its few labels; the experiments fill them in place. The
writer sends the rows through one byte matrix of at most ``WRITE_BYTES``
(sized by measurement, see the constant), so each chunk of rows is one
``write`` with no Python call per row, and a write holds a few chunks, not a
copy of the table; a table's rows per chunk follow from its row width. A row
is its cells' UTF-8 text, each NUL-padded to its column's width, between
constant separators (``,`` and ``\\n`` for CSV; the sorted
``{"key": `` pieces for JSON). Integers are written by digit arithmetic, in
32 bits when they have at most 9 digits. Every other column is coded (a bool
array as two codes, any other array by its distinct values, a list by row),
and its labels are formatted once per table and gathered by code. One
boolean compaction drops the padding, so a cell's text may not itself
contain NUL.
"""

from __future__ import annotations

import json
import math
import os
import platform
import time
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path
from typing import BinaryIO, Callable

import numpy as np

from .config import ROW_KEYS, RunConfig
from .experiments import (
    GENERATOR_NAME,
    Coded,
    Column,
    Table,
    _from_rows,
    experiment_histogram,
    experiment_rabi,
    experiment_survival,
    workers_used,
)
from .physics import (
    analytic_f1_error,
    analytic_f2_error,
    depump_hazard_per_scatter,
    depump_suppression,
    heating_for_scatters,
    heating_per_scatter,
    implied_effective_detuning,
    misdetection_probability,
    required_mean_photons,
    scatters_for_detected,
)

ARTIFACT_NAME = "atomreadout"
ARTIFACT_VERSION = "0.10.0"

# bytes of padded rows formatted at a time; a chunk's NUL mask and compacted copy double it.
# On a 2-core Xeon (numpy 2.4.6), fresh CLI runs at 128 KiB faulted least and peaked within
# 0.1 MB of the lowest RSS (1 MiB: 3 MB more); 64 KiB took 20-30% more writer time on the
# histogram-100x and Rabi JSON records.
WRITE_BYTES = 1 << 17


@dataclass(frozen=True)
class RunOutput:
    result_files: tuple[str, ...]
    manifest_file: str
    summary: dict


def _format_cell(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _json_safe(value: object) -> object:
    """Replace non-finite floats with None, so the output is strict JSON."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def _json_cell(value: object) -> str:
    if isinstance(value, float):  # json.dumps writes a finite float as its repr
        return repr(value) if math.isfinite(value) else "null"  # strict JSON has no nan
    return json.dumps(value)


def _text(cells: list[str]) -> np.ndarray:
    """The cells' UTF-8 text as a fixed-width bytes array, NUL-padded on the right."""
    encoded = [cell.encode() for cell in cells]
    if any(b"\0" in cell for cell in encoded):
        raise ValueError("a table cell contains NUL, which the table writer cannot keep")
    return np.array(encoded, dtype=bytes)


def _fill_digits(out: np.ndarray, column: np.ndarray, places: int, signed: bool) -> None:
    """Write an integer column's decimal text into ``out``, a (rows, signed + places) byte matrix.

    The digits are right-aligned behind the sign byte, and leading zeros are NUL.
    """
    unsigned = np.uint32 if places <= 9 else np.uint64  # 9 digits always fit in 32 bits
    magnitude = column.astype(unsigned)
    if signed:
        negative = column < 0
        magnitude = np.where(negative, ~magnitude + unsigned(1), magnitude)  # |x|, int64 min too
        out[:, 0] = np.where(negative, ord("-"), 0)
    ten = unsigned(10)
    units = signed + places - 1
    for place in range(units, signed - 1, -1):
        quotient = magnitude // ten
        digit = (magnitude - quotient * ten).astype(np.uint8) + np.uint8(ord("0"))
        if place < units:  # a leading zero is padding; the units digit always shows
            digit *= magnitude > 0
        out[:, place] = digit
        magnitude = quotient


def _coded(column: Column) -> np.ndarray | Coded:
    """An integer array as it is, and any other column as codes into its distinct cells."""
    if isinstance(column, Coded):
        return column
    if not isinstance(column, np.ndarray):  # a small table's list: a label per row
        return Coded(np.arange(len(column)), tuple(column))
    if column.dtype.kind in "iu":
        return column
    if column.dtype == bool:
        return Coded(column.view(np.int8), (False, True))
    # floats by their bits, so that -0.0 and 0.0 stay two values
    key = column.view(f"u{column.itemsize}") if column.dtype.kind == "f" else column
    _, first, codes = np.unique(key, return_index=True, return_inverse=True)
    return Coded(codes, tuple(column[first].tolist()))


def _cells(column: Column, cell) -> tuple[int, Callable[[np.ndarray, slice], None]]:
    """A column's cell width in bytes, and a function that writes its ``rows`` into a matrix.

    The matrix is (rows, width) bytes. Integers are written by digit
    arithmetic, and any other column gathers its labels' text, which ``cell``
    formats once per table.
    """
    column = _coded(column)
    if isinstance(column, Coded):
        text = _text([cell(v) for v in column.labels])
        labels = text.view(f"V{text.itemsize}")  # each label's text as one item

        def fill(out: np.ndarray, rows: slice) -> None:
            out.view(labels.dtype)[:, 0] = np.take(labels, column.codes[rows])

        return text.itemsize, fill
    low, high = (int(column.min()), int(column.max())) if column.size else (0, 0)
    places, signed = len(str(max(high, -low))), low < 0  # of the largest magnitude
    return signed + places, lambda out, rows: _fill_digits(out, column[rows], places, signed)


def _write_whole(path: Path, write: Callable[[BinaryIO], object]) -> None:
    """Let ``write`` fill ``path`` whole or not at all.

    The bytes go to a temporary sibling, which replaces ``path`` once it is
    complete. On any error the sibling is removed and ``path`` keeps what it held.
    """
    partial = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with partial.open("wb") as out:
            write(out)
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def _write_table(path: Path, table: Table, fmt: str) -> None:
    """Write a table to ``path`` whole or not at all."""
    _write_whole(path, lambda out: _write_rows(out, table, fmt))


def _write_rows(out: BinaryIO, table: Table, fmt: str) -> None:
    """Write a table as CSV, or as a compact JSON list of objects with sorted keys.

    The rows are written in chunks through one byte matrix of at most
    ``WRITE_BYTES`` (and at least one row): each row the columns' cells
    between constant separators, NUL padding dropped, one ``write`` a chunk.
    """
    header, columns = table
    n_rows = len(columns[0]) if columns else 0
    if fmt == "csv":
        head, tail, skip, cell = ",".join(header) + "\n", "", 0, _format_cell
        order = range(len(header))
        seps = ["", *[","] * (len(header) - 1), "\n"]
    else:  # every row starts ", {", less the first row's ", "
        head, tail, skip, cell = "[", "]\n", 2, _json_cell
        order = sorted(range(len(header)), key=header.__getitem__)
        keys = [json.dumps(header[i]) + ": " for i in order]
        seps = [(", " if j else ", {") + key for j, key in enumerate(keys)] + ["}"]
    seps = [np.frombuffer(sep.encode(), np.uint8) for sep in seps]
    cells = [_cells(columns[i], cell) for i in order]
    sizes = [seps[0].size]
    for (width, _), sep in zip(cells, seps[1:]):
        sizes += [width, sep.size]
    edges = [0, *accumulate(sizes)]  # a row: separator, column, separator, ..., separator
    step = max(1, WRITE_BYTES // edges[-1])  # rows per chunk
    matrix = np.empty((min(step, n_rows), edges[-1]), np.uint8)
    for sep, start in zip(seps, edges[::2]):
        matrix[:, start:start + sep.size] = sep  # broadcast down the rows, once per table
    out.write(head.encode())
    for lo in range(0, n_rows, step):
        rows = slice(lo, min(lo + step, n_rows))
        chunk = matrix[:rows.stop - lo]
        for (_, fill), start, stop in zip(cells, edges[1::2], edges[2::2]):
            fill(chunk[:, start:stop], rows)
        chunk = chunk.ravel()
        out.write(chunk[chunk != 0][0 if lo else skip:])
    out.write(tail.encode())


def _build_budget(config: RunConfig) -> tuple[dict[str, Table], dict]:
    cfg = config.cycle_config()
    species = cfg.species
    hazard = cfg.depump_hazard
    branching = config["readout.branching_to_f1"]
    gamma = species.linewidth_gamma
    eta = cfg.net_efficiency

    rows: list[tuple] = [
        ("mean_detected_for_1pct_error", required_mean_photons(0.01),
         "mean counts where the zero-count probability falls below 1e-2"),
        ("mean_detected_for_0p1pct_error", required_mean_photons(0.001),
         "mean counts where the zero-count probability falls below 1e-3"),
        ("misdetection_at_mean_5", misdetection_probability(5.0), "P(0 counts | mean 5)"),
        ("misdetection_at_mean_7", misdetection_probability(7.0), "P(0 counts | mean 7)"),
        ("depump_suppression_on_resonance", depump_suppression(0.0, species),
         "resonant vs off-resonant excitation ratio at zero detuning"),
        ("depump_suppression_at_one_linewidth", depump_suppression(gamma, species),
         "same ratio detuned by one linewidth"),
        ("depump_suppression_at_two_linewidths", depump_suppression(2.0 * gamma, species),
         "same ratio detuned by two linewidths"),
        ("depump_hazard_on_resonance",
         depump_hazard_per_scatter(depump_suppression(0.0, species), branching),
         "per-scatter dark-state probability at zero detuning"),
        ("configured_depump_hazard", hazard, "per-scatter dark-state probability in use"),
        ("scatters_for_mean_5", scatters_for_detected(5.0, eta),
         "scattering events behind 5 detected counts"),
        ("heating_per_scatter_K", heating_per_scatter(species), "two recoil temperatures"),
        ("heating_for_250_scatters_K", heating_for_scatters(250, species),
         "readout heating budget for 250 scatters"),
        ("scatters_to_fill_trap_depth",
         math.ceil(cfg.depth / heating_per_scatter(species)),
         "scatters that would heat a cold atom to the trap depth"),
        ("analytic_f1_error", analytic_f1_error(cfg.n_d, cfg.background_mean),
         "background tail at the stop threshold"),
        ("analytic_f2_error", analytic_f2_error(eta, hazard, cfg.n_d),
         "race-model bright-state error"),
    ]
    try:
        detuning = implied_effective_detuning(hazard, branching, species)
    except ValueError:  # no hazard, no branching, or a hazard below the resonant floor
        rows.append(("implied_detuning_degenerate", True,
                     "no detuning reproduces the configured hazard"))
    else:
        rows += [
            ("implied_effective_detuning_Hz", detuning,
             "detuning whose suppression reproduces the configured hazard"),
            ("depump_suppression_at_implied_detuning", branching / hazard,
             "suppression at that detuning: branching over hazard"),
        ]
    header = ("quantity", "value", "note")
    summary = {name: value for name, value, _ in rows}
    return {"": _from_rows(header, rows)}, summary


def _build_histogram(config: RunConfig) -> tuple[dict[str, Table], dict]:
    return experiment_histogram(
        config["histogram.trials_f1"],
        config["histogram.trials_f2"],
        config.cycle_config(),
        config["seed"],
        workers=config["workers"],
    )


def _build_survival(config: RunConfig) -> tuple[dict[str, Table], dict]:
    return experiment_survival(
        config["survival.atoms"],
        config["survival.cycles"],
        config.cycle_config(),
        config["seed"],
        workers=config["workers"],
    )


def _build_rabi(config: RunConfig) -> tuple[dict[str, Table], dict]:
    return experiment_rabi(
        config["rabi.atoms"],
        config.rabi_config(),
        config.cycle_config(),
        config["seed"],
        workers=config["workers"],
    )


_BUILDERS = {
    "budget": _build_budget,
    "histogram": _build_histogram,
    "survival": _build_survival,
    "rabi": _build_rabi,
}


def run(config: RunConfig) -> RunOutput:
    """Execute the configured experiment and write its result files."""
    start = time.perf_counter()
    experiment, fmt = config["experiment"], config["output.format"]
    tables, summary = _BUILDERS[experiment](config)

    stem = Path(config["output.path"] or f"results/{experiment}")
    stem.parent.mkdir(parents=True, exist_ok=True)
    ext = ".csv" if fmt == "csv" else ".json"
    written = []
    for suffix, table in tables.items():
        path = stem.with_name(stem.name + suffix + ext)
        _write_table(path, table, fmt)
        written.append(str(path))

    manifest = {
        "artifact": {"name": ARTIFACT_NAME, "version": ARTIFACT_VERSION},
        "experiment": experiment,
        "master_seed": config["seed"],
        "generator": GENERATOR_NAME,
        "config": {k: config.values[k] for k in sorted(config.values)},
        # the processes that ran the rows: the request capped at the CPU count and the blocks
        "workers_used": workers_used(
            config["workers"],
            max((config[key] for key in ROW_KEYS.get(experiment, ())), default=0),
        ),
        "result_files": [Path(p).name for p in written],
        # numpy does not freeze Generator's algorithms across releases, so the tables
        # are byte-identical per (config, seed) for a fixed numpy version
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
        },
        "summary": summary,
        "wall_time_s": time.perf_counter() - start,
    }
    manifest_path = stem.with_name(stem.name + "_manifest.json")
    text = json.dumps(_json_safe(manifest), sort_keys=True, indent=2, allow_nan=False) + "\n"
    _write_whole(manifest_path, lambda out: out.write(text.encode()))
    return RunOutput(tuple(written), str(manifest_path), summary)
