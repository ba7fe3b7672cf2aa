"""The Monte Carlo model: detection cycles and the four headline experiments.

One cycle is prepare -> probe -> classify -> heat -> loss check -> cool, and
it steps a whole block of atoms at once, held in arrays (``Atoms``). The probe
draws its detections exactly, by a time change. A bright atom falls dark at
its depumping time tau, the first event of the depumping stream (rate
``scatter_rate * (1-eta) * q``); a dark atom is dark from time 0. Detections
arrive at rate lam_s + lam_b before tau (signal ``scatter_rate * eta`` plus
background) and at lam_b after it, so their cumulative intensity is
Lambda(t) = (lam_s + lam_b) t before tau and lam_s tau + lam_b t after it.
The first n_d arrivals are cumulated Exp(1) gaps mapped through the inverse
of Lambda; an arrival before tau is signal with probability
lam_s / (lam_s + lam_b). The adaptive stop ends the probe at the n_d-th
arrival; the fixed window adds the Poisson count of the rest of the window,
so both policies share the first n_d arrivals and call an atom the same way
from the same draws. Event times are continuous and no detector dead time is
modelled. Silent scatters are Poisson over the bright time the probe saw, and
a depump is one more scatter. A Poisson draw with mean zero or a binomial
draw with count zero takes nothing from the stream, so the probe draws only
the nonzero entries. The tests check this law against an event-by-event
oracle.

Heating is deterministic mean-energy accounting, two recoil temperatures per
scatter. Loss is a hard threshold on the accumulated energy against the trap
depth, plus an independent per-cycle background Bernoulli that stands in for
collisions and every other non-thermal loss.

Every experiment runs the same row driver. A row is one atom stepped through
its cycles until they run out or the atom is lost, and a histogram trial is a
row of one cycle. Rows run in fixed blocks of ``BLOCK`` atoms. A block of
``n`` rows steps its cycles in chunks of ``max(1, BLOCK // n)`` cycles when
cooling resets the energy, and of one cycle otherwise; a chunk runs its
rows x cycles atoms through one pass of the kernel. Each chunk draws from its
own substream of the master seed (``GENERATOR_NAME``): path
``(experiment, state, block)`` for histogram trials and
``(experiment, block, c0)`` for survival and Rabi rows, where ``c0`` is the
chunk's first cycle. Each block is one call of the row driver, in this
process or in a pool's worker, so any execution order gives identical
results.

Each experiment allocates its row driver's output columns once, and the
driver copies each block's arrays into their rows as the block arrives
(``_map_rows``): no block parts are joined and no column is copied per state.
The experiment builds its result tables from those columns and returns
``(tables, summary)``: the tables keyed by file-name suffix (``""`` for the
records), each a header and one column per name (a label column as ``Coded``
integer codes into its labels), and the summary dict, which is also the last
table, ``_summary``. The runner writes them as they are.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from itertools import repeat
from typing import Sequence

import numpy as np

from .fitting import binomial_interval, build_histogram, fit_damped_sinusoid, fit_exponential
from .physics import (
    F1,
    F2,
    SpeciesConstants,
    analytic_f1_error,
    analytic_f2_error,
    heating_per_scatter,
)

BLOCK = 4096   # atoms per substream; fixed, so that no result depends on the worker count

GENERATOR_NAME = (
    "numpy.random.PCG64 seeded via SeedSequence(master_seed, spawn_key=path), "
    f"one path per block of {BLOCK} rows and chunk of its cycles"
)

EXP_HISTOGRAM = 1
EXP_SURVIVAL = 2
EXP_RABI = 3
_STATE_CODE = {F1: 0, F2: 1}

CELL_F2 = "F2-detected"
CELL_F1 = "F1-detected"
CELL_LOST = "lost"
CELLS = (CELL_LOST, CELL_F1, CELL_F2)   # the labels of cell codes 0, 1 and 2


def derive_substream(master_seed: int, indices: Sequence[int]) -> np.random.Generator:
    """Independent generator for one (seed, index-path) pair."""
    if master_seed < 0 or master_seed >= 2**64:
        raise ValueError("master_seed must be an unsigned 64-bit integer")
    seq = np.random.SeedSequence(
        entropy=int(master_seed), spawn_key=tuple(int(i) for i in indices)
    )
    return np.random.Generator(np.random.PCG64(seq))


@dataclass
class Atoms:
    """A block of simulated atoms, one array entry per atom.

    ``bright`` marks the atoms in F=2. ``in_mf0`` marks the clock sublevel
    mF=0 of an F=1 atom, the one Zeeman sublevel anything reads (the microwave
    drive); no other sublevel is tracked. ``energy`` is the motional energy in
    kelvin and ``present`` is False once the atom is lost. The functions that
    step atoms (the microwave pulse, heating, the loss check, cooling) update
    these arrays in place.
    """

    bright: np.ndarray
    in_mf0: np.ndarray
    energy: np.ndarray
    present: np.ndarray

    def __len__(self) -> int:
        return self.energy.size


@dataclass(frozen=True)
class ReadoutOutcome:
    """Probe results for a block of atoms, one array entry per atom."""

    called_bright: np.ndarray     # classified F2
    detected_counts: np.ndarray
    elapsed: np.ndarray           # probe-on time, s
    scatters: np.ndarray          # scattering events while bright, the depumping one included
    depumped: np.ndarray          # fell dark during the probe


@dataclass(frozen=True)
class CycleConfig:
    """Everything one detection cycle needs: one field per config key, and the species."""

    species: SpeciesConstants
    scatter_rate: float      # 1/s, bright-atom scattering rate before collection losses
    background_mean: float   # mean stray-light plus dark counts over one full window
    adaptive: bool           # stop at the n_d-th count; otherwise probe the whole window
    n_d: int                 # counts that call the atom bright
    window: float            # s, probe window (the adaptive stop's time limit)
    net_efficiency: float    # collection times detector quantum efficiency
    depump_hazard: float     # per-scatter probability of falling dark
    depth: float             # K, trap depth
    baseline_energy: float   # K, motional energy right after cooling
    background_loss: float   # non-heating loss probability per cycle
    cooling_reset: bool      # cooling restores the baseline energy

    def __post_init__(self) -> None:
        for ok, message in (
            (self.scatter_rate > 0, "scatter_rate must be positive"),
            (self.background_mean >= 0, "background_mean must be nonnegative"),
            (self.n_d >= 1, "n_d must be at least 1"),
            (self.window > 0, "window must be positive"),
            (0.0 < self.net_efficiency <= 1.0, "net_efficiency must lie in (0, 1]"),
            (0.0 <= self.depump_hazard < 1.0, "depump_hazard must lie in [0, 1)"),
            (self.baseline_energy >= 0, "baseline_energy must be nonnegative"),
            (self.depth > self.baseline_energy, "trap depth must exceed the baseline energy"),
            (0.0 <= self.background_loss < 1.0, "background_loss must lie in [0, 1)"),
        ):
            if not ok:
                raise ValueError(message)


def prepare_state(target: str, energy: np.ndarray, rng: np.random.Generator) -> Atoms:
    """Present atoms at motional ``energy``, freshly pumped into ``target`` (F1 or F2).

    Only an F1 atom's Zeeman sublevel is drawn (uniform over mF = -1, 0, 1),
    and only whether it is mF=0 is kept.
    """
    n = energy.size
    bright = target == F2
    in_mf0 = np.zeros(n, dtype=bool) if bright else rng.integers(-1, 2, size=n) == 0
    return Atoms(np.full(n, bright), in_mf0, energy, np.ones(n, dtype=bool))


def reprepare(atoms: Atoms, target: str, rng: np.random.Generator) -> Atoms:
    """Re-pump present atoms; their motional energy is kept."""
    return prepare_state(target, atoms.energy, rng)


def _nonzero_draws(draw, param: np.ndarray, *args) -> np.ndarray:
    """``draw(param, *args)`` for the entries with ``param > 0``, and 0 for the rest.

    ``draw`` is a Generator's ``poisson`` (param: the means) or ``binomial``
    (param: the counts). Neither draws from the stream for a zero mean or
    count, so this realises the same samples, and leaves the stream in the
    same state, as drawing every entry.
    """
    out = np.zeros(param.shape, dtype=np.int64)
    drawn = param > 0
    out[drawn] = draw(param[drawn], *args)
    return out


def _simulate_probe(
    bright: np.ndarray, cfg: CycleConfig, rng: np.random.Generator
) -> ReadoutOutcome:
    """Probe a block of prepared atoms; ``bright`` marks the atoms in F2."""
    window = cfg.window
    rate = cfg.scatter_rate
    eta = cfg.net_efficiency
    hazard = cfg.depump_hazard
    lam_s = rate * eta
    lam_b = cfg.background_mean / window
    n = bright.size

    tau = np.zeros(n)  # depumping time; a dark atom is dark from the start
    depump_rate = rate * (1.0 - eta) * hazard
    if depump_rate > 0.0:
        tau[bright] = rng.exponential(1.0 / depump_rate, np.count_nonzero(bright))
    else:
        tau[bright] = np.inf
    span = np.minimum(tau, window)
    at_tau = (lam_s + lam_b) * span            # Lambda(min(tau, W))
    at_end = at_tau + lam_b * (window - span)  # Lambda(W)

    # Lambda at each atom's first n_d detections, summed in cumsum's order but a column
    # at a time: several times cheaper than cumsum and count_nonzero over the matrix
    last = np.zeros(n)
    counts = np.zeros(n, dtype=np.int64)
    before_tau = np.zeros(n, dtype=np.int64)
    for gap in rng.exponential(size=(n, cfg.n_d)).T:
        last += gap
        counts += last <= at_end
        before_tau += last < at_tau
    called = last <= at_end
    if cfg.adaptive:
        after_tau = span + (last - at_tau) / lam_b if lam_b > 0.0 else span
        stop = np.where(last < at_tau, last / (lam_s + lam_b), after_tau)
        elapsed = np.where(called, stop, window)
    else:
        # the arrivals after the n_d-th, split at tau
        extra_bright = _nonzero_draws(
            rng.poisson, np.where(called, np.maximum(at_tau - last, 0.0), 0.0))
        extra_dark = _nonzero_draws(
            rng.poisson, np.where(called, at_end - np.maximum(at_tau, last), 0.0))
        counts += extra_bright + extra_dark
        before_tau += extra_bright
        elapsed = np.full(n, window)

    depumped = bright & (tau <= elapsed)
    silent_rate = rate * (1.0 - eta) * (1.0 - hazard)
    scatters = (
        _nonzero_draws(rng.binomial, before_tau, lam_s / (lam_s + lam_b))
        + _nonzero_draws(rng.poisson, silent_rate * np.minimum(elapsed, tau))
        + depumped
    )
    return ReadoutOutcome(called, counts, elapsed, scatters, depumped)


def apply_heating(atoms: Atoms, scatters: np.ndarray, energy_per_scatter: float) -> None:
    """Add ``energy_per_scatter`` (K) for each of each atom's ``scatters`` scattering events."""
    atoms.energy += scatters * energy_per_scatter


def check_loss(
    atoms: Atoms, depth: float, background_loss: float, rng: np.random.Generator
) -> None:
    """Mark atoms absent whose energy reaches ``depth``, or on a background-loss draw."""
    lost = atoms.energy >= depth
    if background_loss > 0.0:
        lost |= rng.random(len(atoms)) < background_loss
    atoms.present &= ~lost


def cool(atoms: Atoms, reset: bool, baseline_energy: float) -> None:
    """Cooling pulse: restores ``baseline_energy`` when ``reset`` is set.

    Lost atoms are cooled too; no later step reads them.
    """
    if reset:
        atoms.energy.fill(baseline_energy)


def _cycle(atoms: Atoms, cfg: CycleConfig, rng: np.random.Generator) -> ReadoutOutcome:
    """Probe, classify, heat, loss-check and cool a block of prepared atoms in place.

    The loss check sees the heat of this probe before cooling removes it, so a
    hot enough probe ejects the atom.
    """
    outcome = _simulate_probe(atoms.bright, cfg, rng)
    atoms.bright &= ~outcome.depumped
    apply_heating(atoms, outcome.scatters, heating_per_scatter(cfg.species))
    check_loss(atoms, cfg.depth, cfg.background_loss, rng)
    cool(atoms, cfg.cooling_reset, cfg.baseline_energy)
    return outcome


def run_detection_cycle(
    state: str, cfg: CycleConfig, rng: np.random.Generator
) -> tuple[Atoms, ReadoutOutcome]:
    """One cycle of a single atom prepared in ``state`` at the baseline energy.

    The block kernel's cycle on a batch of one; returns the atom after the
    cycle and its probe outcome.
    """
    atoms = prepare_state(state, np.full(1, cfg.baseline_energy), rng)
    return atoms, _cycle(atoms, cfg, rng)


def _run_block(
    block: int,
    n_rows: int,
    master_seed: int,
    key: tuple[int, ...],
    cfg: CycleConfig,
    state: str,
    n_cycles: int | None,
    transfer: np.ndarray | None,
) -> tuple[np.ndarray, ...]:
    """Step the atoms of one block of rows through ``n_cycles`` cycles each.

    Each row is one atom that starts at the baseline energy. Before each
    cycle it is re-prepared in ``state`` and, when ``transfer`` is given,
    driven by a microwave pulse that excites it with that cycle's probability
    ``transfer[cycle]``. A row ends when its cycles run out or its atom is
    lost. ``key`` is the experiment's prefix of the substream paths in the
    module docstring. With ``n_cycles=None`` each row is a single-shot trial,
    and this returns each trial's detected counts, bright call and loss.
    Otherwise it returns (rows, cycles) arrays of the bright calls and of
    whether the atom is present after the cycle; the cycles after an atom's
    loss read (False, False).

    With cooling reset every cycle starts at the baseline energy, so a row's
    cycles depend on each other only through presence. The cycles then run
    in chunks of ``BLOCK // n`` for ``n`` rows: one pass of the kernel steps
    the chunk's rows x cycles atoms, flattened row by row, and each row is
    masked after its first lost cycle. Without the reset a chunk is one cycle.
    """
    n = min(n_rows - block * BLOCK, BLOCK)
    energy = np.full(n, cfg.baseline_energy)
    if n_cycles is None:
        rng = derive_substream(master_seed, (*key, block))
        atoms = prepare_state(state, energy, rng)
        outcome = _cycle(atoms, cfg, rng)
        return outcome.detected_counts, outcome.called_bright, ~atoms.present
    step = max(1, BLOCK // n) if cfg.cooling_reset else 1
    called = np.zeros((n, n_cycles), dtype=bool)
    present = np.zeros((n, n_cycles), dtype=bool)
    rows = np.arange(n)
    for c0 in range(0, n_cycles, step):
        k = min(step, n_cycles - c0)
        rng = derive_substream(master_seed, (*key, block, c0))
        atoms = prepare_state(state, np.repeat(energy, k), rng)
        if transfer is not None:
            microwave_pulse(atoms, np.tile(transfer[c0:c0 + k], rows.size), rng)
        outcome = _cycle(atoms, cfg, rng)
        # mask each row after its first lost cycle
        alive = np.logical_and.accumulate(atoms.present.reshape(-1, k), axis=1)
        chunk_called = outcome.called_bright.reshape(-1, k)
        chunk_called[:, 1:] &= alive[:, :-1]   # the atom was present when the cycle began
        called[rows, c0:c0 + k] = chunk_called
        present[rows, c0:c0 + k] = alive
        kept = alive[:, -1]   # a lost atom ends its row
        rows, energy = rows[kept], atoms.energy[k - 1::k][kept]
        if not rows.size:
            break
    return called, present


def workers_used(requested: int, n_rows: int) -> int:
    """Processes that run ``n_rows`` rows for ``requested`` workers.

    The request is capped at the CPU count and at one process per block of
    rows; at 1 the rows run in this process and no pool starts.
    """
    return max(1, min(requested, os.cpu_count() or 1, math.ceil(n_rows / BLOCK)))


def __getattr__(name: str):
    """``ProcessPoolExecutor``, imported on first use, so a run that starts no pool skips it."""
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor

    globals()[name] = ProcessPoolExecutor
    return ProcessPoolExecutor


def _map_rows(out: tuple[np.ndarray, ...], workers: int, *args) -> None:
    """Fill the columns ``out``, one per array ``_run_block`` returns, block by block.

    The blocks run in this process, or, when ``workers_used`` allows more than
    one worker, are mapped over a pool in one contiguous run of blocks per
    worker; the rows do not depend on it. Each block's arrays are copied into
    their rows as they arrive, and then dropped.
    """
    n_rows = len(out[0])
    blocks = range(math.ceil(n_rows / BLOCK))
    workers = workers_used(workers, n_rows)
    tasks = (blocks, *map(repeat, (n_rows, *args)))
    if workers == 1:
        return _fill(out, map(_run_block, *tasks))
    executor = sys.modules[__name__].ProcessPoolExecutor  # or a stand-in set on the module
    with executor(max_workers=workers) as pool:  # one contiguous run of blocks per worker
        _fill(out, pool.map(_run_block, *tasks, chunksize=math.ceil(len(blocks) / workers)))


def _fill(out: tuple[np.ndarray, ...], parts) -> None:
    """Copy each block's arrays from ``parts`` into its rows of ``out``."""
    for start, part in zip(range(0, len(out[0]), BLOCK), parts):
        for column, values in zip(out, part):
            column[start:start + BLOCK] = values


def _index_dtype(n_rows: int) -> type:
    """int32 for a table's index columns if its ``n_rows`` fit, as it holds them to the write."""
    return np.int32 if n_rows < 2**31 else np.int64


# ---------------------------------------------------------------------------
# result tables: every experiment returns (tables, summary) as they are written
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Coded:
    """A label column held as integer codes into its few labels: cell i is ``labels[codes[i]]``."""

    codes: np.ndarray
    labels: tuple

    def __post_init__(self) -> None:
        # a bool array would index as a mask, not gather
        if not isinstance(self.codes, np.ndarray) or self.codes.dtype.kind not in "iu":
            raise TypeError("codes must be an integer array")
        if self.codes.size and not 0 <= self.codes.min() <= self.codes.max() < len(self.labels):
            raise ValueError("codes must index the labels")

    def __len__(self) -> int:
        return len(self.codes)


Column = np.ndarray | list | Coded
Table = tuple[tuple[str, ...], tuple[Column, ...]]   # header, one column per name


def _from_rows(header: tuple[str, ...], rows: list[tuple]) -> Table:
    """A small table given row by row."""
    return header, tuple(map(list, zip(*rows)))


def _with_summary(tables: dict[str, Table], summary: dict) -> tuple[dict[str, Table], dict]:
    """``tables`` with the summary as its last table, ``_summary``, and the summary."""
    tables["_summary"] = _from_rows(("quantity", "value"), list(summary.items()))
    return tables, summary


# ---------------------------------------------------------------------------
# histogram experiment: independent single cycles, one fresh atom per trial
# ---------------------------------------------------------------------------


def experiment_histogram(
    trials_f1: int,
    trials_f2: int,
    cfg: CycleConfig,
    master_seed: int,
    workers: int = 1,
) -> tuple[dict[str, Table], dict]:
    """Per-trial records, count histograms and error/loss rates for both prepared states.

    Tables: the records (one row per trial, F1 trials first), the count
    histograms ``_histogram`` and ``_summary``.
    """
    if trials_f1 <= 0 or trials_f2 <= 0:
        raise ValueError("trial counts must be positive")
    n_rows = trials_f1 + trials_f2
    # one set of record columns, F1 trials first, each state's rows filled in place;
    # a probe's count is small, so int32 holds it to the write (_fill casts each block)
    columns = tuple(np.empty(n_rows, dtype) for dtype in (np.int32, bool, bool))
    hist_rows = []
    summary: dict[str, object] = {}
    for state, trials, start in ((F1, trials_f1, 0), (F2, trials_f2, trials_f1)):
        counts, called, lost = rows = tuple(column[start:start + trials] for column in columns)
        key = (EXP_HISTOGRAM, _STATE_CODE[state])
        _map_rows(rows, workers, master_seed, key, cfg, state, None, None)
        hist_rows += [(state, n, freq) for n, freq in enumerate(build_histogram(counts).tolist())]
        errors = int(np.count_nonzero(called != (state == F2)))
        losses = int(np.count_nonzero(lost))
        low, high = binomial_interval(errors, trials)
        tag = state.lower()
        summary |= {
            f"{tag}_trials": trials,
            f"{tag}_errors": errors,
            f"{tag}_error_rate": errors / trials,
            f"{tag}_error_wilson_low": low,
            f"{tag}_error_wilson_high": high,
            f"{tag}_accuracy": 1.0 - errors / trials,
            f"{tag}_losses": losses,
            f"{tag}_loss_rate": losses / trials,
        }
    summary["analytic_f1_error"] = analytic_f1_error(cfg.n_d, cfg.background_mean)
    summary["analytic_f2_error"] = analytic_f2_error(cfg.net_efficiency, cfg.depump_hazard, cfg.n_d)
    counts, called, lost = columns
    trial = np.arange(n_rows, dtype=_index_dtype(n_rows))
    trial[trials_f1:] -= trials_f1   # each state counts its trials from 0
    records = (
        ("trial", "prepared_state", "counts", "classified", "lost"),
        (
            trial,
            Coded(np.repeat(np.arange(2, dtype=np.int8), [trials_f1, trials_f2]), (F1, F2)),
            counts,
            Coded(called.view(np.int8), (F1, F2)),
            lost,
        ),
    )
    histogram = _from_rows(("prepared_state", "counts", "frequency"), hist_rows)
    return _with_summary({"": records, "_histogram": histogram}, summary)


# ---------------------------------------------------------------------------
# survival experiment: repeated prepare-F2/detect cycles until the atom is lost
# ---------------------------------------------------------------------------


def experiment_survival(
    n_atoms: int,
    n_cycles: int,
    cfg: CycleConfig,
    master_seed: int,
    workers: int = 1,
) -> tuple[dict[str, Table], dict]:
    """Repeated-measurement survival run, one atom per row.

    Tables: the (atom, cycle, cell) records of the cell matrix, its rows
    sorted longest-lived first and its cells labelled from ``CELLS``; the
    survival curve ``_curve`` (index k: the fraction that survived k full
    cycles); and ``_summary``. The summary carries the censored
    maximum-likelihood lifetime (``fit_exponential``) of the atoms lost within
    the run over their cycles at risk, or ``lifetime_fit_degenerate`` when
    nothing decayed or every atom was lost in its first cycle, and the fraction
    of the cells not lost that were called F2.
    """
    if n_atoms <= 0 or n_cycles <= 0:
        raise ValueError("n_atoms and n_cycles must be positive")
    called, present = (np.empty((n_atoms, n_cycles), bool) for _ in range(2))
    _map_rows((called, present), workers, master_seed, (EXP_SURVIVAL,), cfg, F2, n_cycles, None)
    lengths = np.count_nonzero(present, axis=1)  # completed cycles: loss is absorbing
    called &= present
    f2_detected = int(np.count_nonzero(called))
    cells = called.view(np.int8)
    cells += present   # CELLS codes, in place: 0 lost, 1 F1-detected, 2 F2-detected
    del called, present   # so that only the cells are held beside their sorted copy
    cells = cells[np.argsort(-lengths, kind="stable")]
    # rows that completed at least k cycles, for k = 0..n_cycles
    alive = np.cumsum(np.bincount(lengths, minlength=n_cycles + 1)[::-1])[::-1]
    fraction = (alive / n_atoms).tolist()
    completed = int(lengths.sum())
    lost = n_atoms - int(alive[-1])
    try:
        fit = fit_exponential(lost, completed + lost)
    except ValueError:
        fit = None
    index = _index_dtype(n_atoms * n_cycles)
    records = (
        ("atom", "cycle", "cell"),
        (
            np.repeat(np.arange(n_atoms, dtype=index), n_cycles),
            np.tile(np.arange(n_cycles, dtype=index), n_atoms),
            Coded(cells.ravel(), CELLS),
        ),
    )
    curve = (("cycle", "fraction_alive"), (list(range(n_cycles + 1)), fraction))
    summary: dict[str, object] = {
        "atoms": n_atoms,
        "cycles": n_cycles,
        "survivor_fraction_final": fraction[-1],
        "full_length_rows": int(alive[-1]),
    }
    if completed:   # no cell was measured when every atom was lost in its first cycle
        summary["f2_detected_fraction"] = f2_detected / completed
    if fit is None:
        summary["lifetime_fit_degenerate"] = True
    else:
        summary |= {
            "lifetime_cycles": fit.parameters["lifetime"],
            "loss_per_cycle_fit": fit.parameters["loss_per_cycle"],
            "lifetime_variance": fit.covariance_diag["lifetime"],
        }
    return _with_summary({"": records, "_curve": curve}, summary)


# ---------------------------------------------------------------------------
# microwave Rabi experiment on the clock transition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RabiConfig:
    """Microwave drive on the mF=0 -> mF=0 transition (other sublevels are inert), scanned
    over ``points`` pulse lengths evenly spaced from 0 to ``span``. The drive must stay
    below the scan's Nyquist limit, at or above which the samples cannot tell it from its alias.
    """

    rabi_frequency: float
    decoherence_time: float
    points: int
    span: float

    def __post_init__(self) -> None:
        if self.rabi_frequency <= 0:
            raise ValueError("rabi_frequency must be positive")
        if self.decoherence_time <= 0:
            raise ValueError("decoherence_time must be positive")
        if self.points < 2 or self.span <= 0:
            raise ValueError("need at least 2 points and a positive span")
        nyquist = (self.points - 1) / (2.0 * self.span)
        if self.rabi_frequency >= nyquist:
            raise ValueError(f"rabi_frequency must be below the scan's Nyquist limit "
                             f"(points - 1) / (2 span) = {nyquist:g} Hz")

    @property
    def pulse_lengths(self) -> tuple[float, ...]:
        """The scan's pulse lengths, as Python floats."""
        return tuple(np.linspace(0.0, self.span, self.points).tolist())


def transfer_probability(duration: float, rabi: RabiConfig) -> float:
    """Clock-transition excitation probability after a pulse of the given length."""
    if duration < 0:
        raise ValueError("duration must be nonnegative")
    osc = math.cos(2.0 * math.pi * rabi.rabi_frequency * duration)
    return 0.5 * (1.0 - osc * math.exp(-duration / rabi.decoherence_time))


def microwave_pulse(atoms: Atoms, transfer: np.ndarray, rng: np.random.Generator) -> None:
    """Drive F1 atoms with one microwave pulse each; only the atoms in mF=0 respond.

    ``transfer`` holds each atom's excitation probability, the
    ``transfer_probability`` of its pulse length.
    """
    in_mf0 = atoms.in_mf0
    atoms.bright[in_mf0] = rng.random(np.count_nonzero(in_mf0)) < transfer[in_mf0]


def experiment_rabi(
    n_atoms: int,
    rabi: RabiConfig,
    cfg: CycleConfig,
    master_seed: int,
    workers: int = 1,
) -> tuple[dict[str, Table], dict]:
    """Ensemble Rabi scan: each atom attempts every pulse length once, in order.

    An atom lost partway leaves the rest of its row unmeasured and the next
    row starts with a fresh atom. The ensemble curve averages whatever rows
    reached each point, and is fitted with the damped-sinusoid model. Tables:
    the (atom, point) records of the measured cycles, the curve ``_curve`` and
    ``_summary``, which carries the fit, only ``fit_converged: False`` when
    the fit did not converge, or ``curve_fit_degenerate`` when too few points
    were measured to fit (heavy loss). A converged fit also writes each
    parameter's variance.
    """
    if n_atoms <= 0:
        raise ValueError("n_atoms must be positive")
    lengths = rabi.pulse_lengths
    transfer = np.array([transfer_probability(t, rabi) for t in lengths])
    called, present = (np.empty((n_atoms, transfer.size), bool) for _ in range(2))
    _map_rows((called, present), workers, master_seed, (EXP_RABI,), cfg, F1, transfer.size,
              transfer)
    called &= present   # a cycle whose presence check fails keeps no point
    measured = np.count_nonzero(present, axis=0)
    bright = np.count_nonzero(called, axis=0)
    mask = measured > 0
    fraction = np.divide(bright, measured, out=np.full(measured.size, np.nan), where=mask)
    try:
        fit = fit_damped_sinusoid(np.asarray(lengths)[mask], fraction[mask])
    except ValueError:
        fit = None
    # the measured cycles' records, in the index dtype; the (rows, points) matrices go
    # before the last column is built, so that they do not add to the records' peak
    index = _index_dtype(present.size)
    outcome = called[present].view(np.int8)
    point = np.broadcast_to(np.arange(transfer.size, dtype=index), present.shape)[present]
    per_atom = np.count_nonzero(present, axis=1)
    del called, present
    atom = np.repeat(np.arange(n_atoms, dtype=index), per_atom)
    records = (
        ("atom", "point", "pulse_length", "outcome"),
        (atom, point, Coded(point, lengths), Coded(outcome, (F1, F2))),
    )
    curve = (
        ("point", "pulse_length", "n_measured", "f2_fraction"),
        (list(range(transfer.size)), list(lengths), measured.tolist(), fraction.tolist()),
    )
    summary: dict[str, object] = {"atoms": n_atoms, "points": transfer.size}
    if fit is None:
        summary["curve_fit_degenerate"] = True
    elif not fit.converged:
        summary["fit_converged"] = False   # its parameters are not a fit
    else:
        summary |= {
            "fit_frequency_hz": fit.parameters["frequency"],
            "fit_decoherence_time_s": fit.parameters["decoherence_time"],
            "fit_amplitude": fit.parameters["amplitude"],
            "fit_offset": fit.parameters["offset"],
            "fit_converged": fit.converged,
            "fit_residual_norm": fit.residual_norm,
        }
        summary |= {f"fit_{name}_variance": fit.covariance_diag[name] for name in
                    ("frequency", "decoherence_time", "amplitude", "offset")}
    summary |= {
        "zero_point_fraction": float(fraction[0]),
        "zero_point_n": int(measured[0]),
        "analytic_f1_floor": analytic_f1_error(cfg.n_d, cfg.background_mean),
    }
    return _with_summary({"": records, "_curve": curve}, summary)
