"""Experiment orchestration: run a config, write its result tables and a manifest.

The histogram, survival and Rabi builders unpack the config into one
experiment call, which returns the tables and summary to write; the budget
builder computes its closed-form rows here.

Result and summary files are byte-identical for identical (config, seed),
independent of worker count; the manifest additionally records wall time and
the number of processes that ran, and is therefore the one output not covered by
the byte-identity contract.

Tables are held as columns up to the write, which turns each chunk of
``WRITE_CHUNK`` rows into one byte matrix and one ``write``, with no Python
call per row. Each column becomes a (rows, width) matrix of its cells' UTF-8
text, NUL-padded on the right: integers by digit arithmetic, bools by a
two-entry lookup, and any other array by formatting each distinct value once
and gathering. The columns sit between constant separator columns (``,`` and
``\\n`` for CSV; the sorted ``{"key": `` pieces for JSON), and one boolean
compaction drops the padding, so a cell's text may not itself contain NUL.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path

import numpy as np

from .config import ROW_KEYS, RunConfig
from .experiments import (
    Column,
    Table,
    _from_rows,
    experiment_histogram,
    experiment_rabi,
    experiment_survival,
    workers_used,
)
from .physics import (
    depump_hazard_per_scatter,
    depump_suppression,
    heating_for_scatters,
    heating_per_scatter,
    misdetection_probability,
    required_mean_photons,
    scatters_for_detected,
)
from .readout import analytic_f1_error, analytic_f2_error, implied_effective_detuning
from .seeding import GENERATOR_NAME

ARTIFACT_NAME = "atomreadout"
ARTIFACT_VERSION = "0.2.0"

WRITE_CHUNK = 1024   # table rows formatted and written at a time


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


def _dump_json(payload: object, indent: int | None) -> str:
    # indent=None keeps json.dumps on its C encoder, which large tables need
    try:
        text = json.dumps(payload, sort_keys=True, indent=indent, allow_nan=False)
    except ValueError:  # a non-finite float; the rare case pays for the rewrite
        text = json.dumps(_json_safe(payload), sort_keys=True, indent=indent, allow_nan=False)
    return text + "\n"


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


def _digit_bytes(column: np.ndarray) -> np.ndarray:
    """An integer column as a (rows, width) byte matrix of its decimal text, NUL-padded."""
    negative = column < 0
    magnitude = column.astype(np.uint64)
    magnitude = np.where(negative, ~magnitude + np.uint64(1), magnitude)  # |x|, int64 min too
    width = len(str(magnitude.max()))
    digits = np.empty((width + 1, len(column)), np.uint8)  # one row per place, sign first
    digits[0] = np.where(negative, ord("-"), 0)
    ten = np.uint64(10)
    for place in range(width, 0, -1):
        quotient = magnitude // ten
        digits[place] = magnitude - quotient * ten + ord("0")
        if place < width:  # a leading zero is padding; the units digit always shows
            digits[place] *= magnitude > 0
        magnitude = quotient
    return digits.T


def _cell_bytes(column: Column, cell) -> np.ndarray:
    """A column chunk as a (rows, width) byte matrix of its cells' text, NUL-padded.

    Integers and bools are formatted by array arithmetic; any other array has
    each distinct value formatted once by ``cell``, and a list every cell.
    """
    if not isinstance(column, np.ndarray):
        text = _text([cell(v) for v in column])
    elif column.dtype == bool:
        text = np.where(column, b"true", b"false")
    elif column.dtype.kind in "iu":
        return _digit_bytes(column)
    else:  # floats by their bits, so that -0.0 and 0.0 stay two values
        key = column.view(f"u{column.itemsize}") if column.dtype.kind == "f" else column
        _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
        text = _text([cell(v) for v in column[first].tolist()])[inverse]
    return text.view(np.uint8).reshape(len(text), text.itemsize)


def _write_table(path: Path, table: Table, fmt: str) -> None:
    """Write a table as CSV, or as a compact JSON list of objects with sorted keys.

    Each ``WRITE_CHUNK`` rows become one byte matrix: the columns' cell bytes
    between constant separator columns, NUL padding dropped, written at once.
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
    with path.open("wb") as out:
        out.write(head.encode())
        for lo in range(0, n_rows, WRITE_CHUNK):
            rows = min(WRITE_CHUNK, n_rows - lo)
            parts = [seps[0]]
            for i, sep in zip(order, seps[1:]):
                parts += [_cell_bytes(columns[i][lo:lo + rows], cell), sep]
            edges = [0, *accumulate(part.shape[-1] for part in parts)]
            chunk = np.empty((rows, edges[-1]), np.uint8)
            for part, start, stop in zip(parts, edges, edges[1:]):
                chunk[:, start:stop] = part  # a separator broadcasts down the rows
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
        loss_f1=config["loss.f1_per_cycle"],
        loss_f2=config["loss.f2_per_cycle"],
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
    start = time.time()
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
        "summary": summary,
        "wall_time_s": time.time() - start,
    }
    manifest_path = stem.with_name(stem.name + "_manifest.json")
    manifest_path.write_text(_dump_json(manifest, 2))
    return RunOutput(tuple(written), str(manifest_path), summary)
