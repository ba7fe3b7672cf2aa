"""Experiment orchestration: run a config, write its result tables and a manifest.

One dispatch unpacks the config into the configured experiment's call, which
returns the tables and summary to write.

Result and summary files are byte-identical for identical (config, seed),
independent of worker count, for a fixed numpy version; the manifest
additionally records wall time, the number of processes that ran and the
environment (Python and numpy versions, CPU count), and is therefore the one
output not covered by the byte-identity contract.

Tables are held as columns up to the write, a label column as ``Coded``
integer codes into its few labels and an index column as ``Runs``, the run
lengths it follows from; the experiments fill them in place. The writer sends
the rows through one byte matrix of at most ``WRITE_BYTES`` (sized by
measurement, see the constant), so each chunk of rows is one ``write`` with no
Python call per row, and a write holds a few chunks, not a copy of the table;
a table's rows per chunk follow from its row width, and a ``Runs`` column
derives a chunk's values from the runs the chunk overlaps. A row is its
cells' UTF-8 text, each NUL-padded to its column's width, between constant
separators (``,`` and ``\\n`` for CSV; the sorted ``{"key": `` pieces for
JSON). Integers are written by digit arithmetic, in 32 bits when they have at
most 9 digits. Every other column is coded (a bool array as two codes, a list
by row; a float or text array must come ``Coded``), and its labels are
formatted once per table and gathered by code. One boolean compaction drops
the padding, so a cell's text may not itself contain NUL, and CSV cells are
not quoted, so theirs may not contain ``,``, ``\\r`` or ``\\n``.
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
    Runs,
    Table,
    experiment_budget,
    experiment_histogram,
    experiment_rabi,
    experiment_survival,
    workers_used,
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
    """A CSV cell's text."""
    if isinstance(value, bool):
        text = "true" if value else "false"
    else:
        text = repr(value) if isinstance(value, float) else str(value)
    if any(sep in text for sep in ",\r\n"):
        raise ValueError(f"the CSV cell {text!r} holds a separator the table writer cannot quote")
    return text


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


def _coded(column: Column) -> np.ndarray | Runs | Coded:
    """An integer column as it is, and a bool array or a list as codes into its labels."""
    if isinstance(column, (Coded, Runs)):
        return column
    if not isinstance(column, np.ndarray):  # a small table's list: a label per row
        return Coded(np.arange(len(column)), tuple(column))
    if column.dtype.kind in "iu":
        return column
    if column.dtype == bool:
        return Coded(column.view(np.int8), (False, True))
    raise TypeError(f"a float or text column must be Coded, not a {column.dtype} array")


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


def _experiment(config: RunConfig) -> tuple[dict[str, Table], dict]:
    """The configured experiment's tables and summary."""
    experiment, cfg = config["experiment"], config.cycle_config()
    if experiment == "budget":
        return experiment_budget(cfg, config["readout.branching_to_f1"])
    seed, workers = config["seed"], config["workers"]
    if experiment == "histogram":
        return experiment_histogram(config["histogram.trials_f1"], config["histogram.trials_f2"],
                                    cfg, seed, workers=workers)
    if experiment == "survival":
        return experiment_survival(config["survival.atoms"], config["survival.cycles"], cfg,
                                   seed, workers=workers)
    return experiment_rabi(config["rabi.atoms"], config.rabi_config(), cfg, seed,
                           workers=workers)


def run(config: RunConfig) -> RunOutput:
    """Execute the configured experiment and write its result files."""
    start = time.perf_counter()
    experiment, fmt = config["experiment"], config["output.format"]
    tables, summary = _experiment(config)

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
    text = json.dumps(manifest, sort_keys=True, indent=2, allow_nan=False) + "\n"
    _write_whole(manifest_path, lambda out: out.write(text.encode()))
    return RunOutput(tuple(written), str(manifest_path), summary)
