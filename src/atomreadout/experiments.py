"""Detection cycles and the four headline experiments.

One cycle is prepare -> probe -> classify -> heat -> loss check -> cool, and it
steps a whole block of atoms at once. The probe draws its detections exactly,
by a time change. A bright atom falls dark at its depumping time tau, the
first event of the depumping stream (rate ``scatter_rate * (1-eta) * q``); a
dark atom is dark from time 0. Detections arrive at rate lam_s + lam_b before
tau (signal ``scatter_rate * eta`` plus background) and at lam_b after it, so
their cumulative intensity is Lambda(t) = (lam_s + lam_b) t before tau and
lam_s tau + lam_b t after it. The first n_d arrivals are cumulated Exp(1) gaps
mapped through the inverse of Lambda; an arrival before tau is signal with
probability lam_s / (lam_s + lam_b). The adaptive stop ends the probe at the
n_d-th arrival; the fixed window adds the Poisson count of the rest of the
window, so both policies share the first n_d arrivals and call an atom the
same way from the same draws. Silent scatters are Poisson over the bright time the probe saw, and a
depump is one more scatter. The tests check this law against an
event-by-event oracle.

Every experiment runs the same row driver. A row is one atom stepped through
its cycles until they run out or the atom is lost, and a histogram trial is a
row of one cycle. Rows run in fixed blocks of ``BLOCK`` atoms, and each block
draws from its own substream of the master seed: path
``(experiment, state, block)`` for histogram trials and
``(experiment, block, cycle)`` for survival and Rabi rows. A process pool
splits the rows only at block boundaries, so any execution order gives
identical results.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from .fitting import (
    FitResult,
    Histogram,
    binomial_interval,
    build_histogram,
    fit_damped_sinusoid,
    fit_exponential,
)
from .physics import F1, F2, Atoms, ProbeConfig, SpeciesConstants
from .readout import ADAPTIVE_STOP, ReadoutOutcome, ReadoutPolicy
from .seeding import BLOCK, derive_substream
from .trap import TrapConfig, apply_heating, check_loss, cool

EXP_HISTOGRAM = 1
EXP_SURVIVAL = 2
EXP_RABI = 3
_STATE_CODE = {F1: 0, F2: 1}

CELL_F2 = "F2-detected"
CELL_F1 = "F1-detected"
CELL_LOST = "lost"
CELLS = (CELL_LOST, CELL_F1, CELL_F2)   # the labels of cell codes 0, 1 and 2


@dataclass(frozen=True)
class CycleConfig:
    """Everything one detection cycle needs."""

    species: SpeciesConstants
    probe: ProbeConfig
    policy: ReadoutPolicy
    trap: TrapConfig
    net_efficiency: float    # collection times detector quantum efficiency
    depump_hazard: float     # per-scatter probability of falling dark
    background_loss: float   # non-heating loss probability per cycle
    cooling_reset: bool      # cooling restores the trap's baseline energy

    def __post_init__(self) -> None:
        if not 0.0 < self.net_efficiency <= 1.0:
            raise ValueError("net_efficiency must lie in (0, 1]")
        if not 0.0 <= self.depump_hazard < 1.0:
            raise ValueError("depump_hazard must lie in [0, 1)")
        if not 0.0 <= self.background_loss < 1.0:
            raise ValueError("background_loss must lie in [0, 1)")


def prepare_state(target: str, energy: np.ndarray, rng: np.random.Generator) -> Atoms:
    """Present atoms at motional ``energy``, freshly pumped into ``target``.

    Only an F1 atom's Zeeman sublevel is drawn (uniform over mF = -1, 0, 1),
    and only whether it is mF=0 is kept.
    """
    n = energy.size
    if target == F1:
        in_mf0 = rng.integers(-1, 2, size=n) == 0
    elif target == F2:
        in_mf0 = np.zeros(n, dtype=bool)
    else:
        raise ValueError(f"unknown hyperfine target {target!r}")
    return Atoms(np.full(n, target == F2), in_mf0, energy, np.ones(n, dtype=bool))


def reprepare(atoms: Atoms, target: str, rng: np.random.Generator) -> Atoms:
    """Re-pump atoms that are all present; their motional energy is kept."""
    atoms.require_present("prepare")
    return prepare_state(target, atoms.energy, rng)


def _simulate_probe(
    bright: np.ndarray, cfg: CycleConfig, rng: np.random.Generator
) -> ReadoutOutcome:
    """Probe a block of prepared atoms; ``bright`` marks the atoms in F2."""
    policy = cfg.policy
    window = policy.max_duration
    rate = cfg.probe.scatter_rate
    eta = cfg.net_efficiency
    hazard = cfg.depump_hazard
    lam_s = rate * eta
    lam_b = cfg.probe.background_mean_per_window / window
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

    # Lambda at each atom's first n_d detections
    arrivals = rng.exponential(size=(n, policy.threshold_counts)).cumsum(axis=1)
    last = arrivals[:, -1]
    called = last <= at_end
    counts = np.count_nonzero(arrivals <= at_end[:, None], axis=1)
    before_tau = np.count_nonzero(arrivals < at_tau[:, None], axis=1)
    if policy.kind == ADAPTIVE_STOP:
        after_tau = span + (last - at_tau) / lam_b if lam_b > 0.0 else window
        stop = np.where(last < at_tau, last / (lam_s + lam_b), after_tau)
        elapsed = np.where(called, stop, window)
    else:
        # the arrivals after the n_d-th, split at tau
        extra_bright = rng.poisson(np.where(called, np.maximum(at_tau - last, 0.0), 0.0))
        extra_dark = rng.poisson(np.where(called, at_end - np.maximum(at_tau, last), 0.0))
        counts += extra_bright + extra_dark
        before_tau += extra_bright
        elapsed = np.full(n, window)

    depumped = bright & (tau <= elapsed)
    silent_rate = rate * (1.0 - eta) * (1.0 - hazard)
    scatters = (
        rng.binomial(before_tau, lam_s / (lam_s + lam_b))
        + rng.poisson(silent_rate * np.minimum(elapsed, tau))
        + depumped
    )
    return ReadoutOutcome(called, counts, elapsed, scatters, depumped)


def _cycle(atoms: Atoms, cfg: CycleConfig, rng: np.random.Generator) -> ReadoutOutcome:
    """Probe, classify, heat, loss-check and cool a block of prepared atoms in place.

    The loss check sees the heat of this probe before cooling removes it, so a
    hot enough probe ejects the atom.
    """
    outcome = _simulate_probe(atoms.bright, cfg, rng)
    atoms.bright &= ~outcome.depumped
    apply_heating(atoms, outcome.scatters, cfg.species)
    check_loss(atoms, cfg.trap, cfg.background_loss, rng)
    cool(atoms, cfg.cooling_reset, cfg.trap)
    return outcome


def run_detection_cycle(
    state: str, cfg: CycleConfig, rng: np.random.Generator
) -> tuple[Atoms, ReadoutOutcome]:
    """One cycle of a single atom prepared in ``state`` at the trap's baseline energy.

    The block kernel's cycle on a batch of one; returns the atom after the
    cycle and its probe outcome.
    """
    atoms = prepare_state(state, np.full(1, cfg.trap.baseline_energy), rng)
    return atoms, _cycle(atoms, cfg, rng)


def _run_block(
    block: int,
    n_rows: int,
    master_seed: int,
    key: tuple[int, ...],
    cfg: CycleConfig,
    state: str,
    pulse_lengths: tuple[float, ...] | None,
    rabi: RabiConfig | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Step the atoms of one block of rows through one cycle per pulse length.

    Each row is one atom that starts at the trap's baseline energy. Before each
    cycle it is re-prepared in ``state`` and, when ``rabi`` is given, driven
    for that cycle's pulse length. A row ends when its cycles run out or its
    atom is lost. With ``pulse_lengths=None`` each row is a single-shot trial
    and the block draws from substream ``(*key, block)``; otherwise cycle
    ``c`` draws from ``(*key, block, c)``. Returns (rows, cycles) arrays of
    the detected counts, the bright calls and whether the atom is present
    after the cycle; the cycles after an atom's loss read (0, False, False).
    """
    lo = block * BLOCK
    n = min(n_rows - lo, BLOCK)
    lengths = (0.0,) if pulse_lengths is None else pulse_lengths
    counts = np.zeros((n, len(lengths)), dtype=np.int64)
    called = np.zeros((n, len(lengths)), dtype=bool)
    present = np.zeros((n, len(lengths)), dtype=bool)
    rows = np.arange(n)
    atoms = Atoms(
        np.zeros(n, dtype=bool),
        np.zeros(n, dtype=bool),
        np.full(n, cfg.trap.baseline_energy),
        np.ones(n, dtype=bool),
    )
    for cycle, duration in enumerate(lengths):
        path = (*key, block) if pulse_lengths is None else (*key, block, cycle)
        rng = derive_substream(master_seed, path)
        atoms = reprepare(atoms, state, rng)
        if rabi is not None:
            microwave_pulse(atoms, duration, rabi, rng)
        outcome = _cycle(atoms, cfg, rng)
        counts[rows, cycle] = outcome.detected_counts
        called[rows, cycle] = outcome.called_bright
        present[rows, cycle] = atoms.present
        if not atoms.present.all():
            rows = rows[atoms.present]
            atoms = atoms.take(atoms.present)
            if not rows.size:
                break
    return counts, called, present


def _concat(parts: list[tuple[np.ndarray, ...]]) -> tuple[np.ndarray, ...]:
    return tuple(np.concatenate(columns) for columns in zip(*parts))


def _run_rows(first: int, stop: int, n_rows: int, *args) -> tuple[np.ndarray, ...]:
    """``_run_block`` over blocks ``first..stop-1``, their rows joined in order."""
    return _concat([_run_block(block, n_rows, *args) for block in range(first, stop)])


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


def _map_rows(n_rows: int, workers: int, *args) -> tuple[np.ndarray, ...]:
    """``_run_rows`` over rows ``0..n_rows-1``, in-process or over 4 x workers ranges of blocks.

    ``workers`` is capped by ``workers_used``; the rows do not depend on it.
    """
    workers = workers_used(workers, n_rows)
    n_blocks = math.ceil(n_rows / BLOCK)
    if workers == 1:
        return _run_rows(0, n_blocks, n_rows, *args)
    size = math.ceil(n_blocks / (4 * workers))
    executor = sys.modules[__name__].ProcessPoolExecutor  # the module's, or a stand-in set on it
    with executor(max_workers=workers) as pool:
        futures = [
            pool.submit(_run_rows, lo, min(lo + size, n_blocks), n_rows, *args)
            for lo in range(0, n_blocks, size)
        ]
        return _concat([future.result() for future in futures])


# ---------------------------------------------------------------------------
# histogram experiment: independent single cycles, one fresh atom per trial
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class StateSummary:
    """Error and loss summary of one prepared state, with its per-trial columns."""

    prepared: str
    trials: int
    errors: int
    error_rate: float
    error_interval: tuple[float, float]
    losses: int
    loss_rate: float
    histogram: Histogram
    counts: np.ndarray          # detected counts per trial
    called_bright: np.ndarray   # classified F2, per trial
    lost: np.ndarray            # lost during its cycle, per trial


@dataclass(frozen=True, eq=False)
class HistogramResult:
    f1: StateSummary
    f2: StateSummary


def _summarize_state(
    state: str, counts: np.ndarray, called_bright: np.ndarray, lost: np.ndarray
) -> StateSummary:
    errors = int(np.count_nonzero(called_bright != (state == F2)))
    losses = int(np.count_nonzero(lost))
    n = counts.size
    return StateSummary(
        prepared=state,
        trials=n,
        errors=errors,
        error_rate=errors / n,
        error_interval=binomial_interval(errors, n, 0.95),
        losses=losses,
        loss_rate=losses / n,
        histogram=build_histogram(counts),
        counts=counts,
        called_bright=called_bright,
        lost=lost,
    )


def experiment_histogram(
    trials_f1: int,
    trials_f2: int,
    cfg: CycleConfig,
    master_seed: int,
    loss_f1: float | None = None,
    loss_f2: float | None = None,
    workers: int = 1,
) -> HistogramResult:
    """Count histograms and error/loss rates for both prepared states.

    ``loss_f1`` and ``loss_f2``, when given, replace ``cfg.background_loss`` for that state.
    """
    if trials_f1 <= 0 or trials_f2 <= 0:
        raise ValueError("trial counts must be positive")
    sides = []
    for state, trials, loss_override in (
        (F1, trials_f1, loss_f1),
        (F2, trials_f2, loss_f2),
    ):
        state_cfg = cfg if loss_override is None else replace(cfg, background_loss=loss_override)
        key = (EXP_HISTOGRAM, _STATE_CODE[state])
        counts, called, present = _map_rows(
            trials, workers, master_seed, key, state_cfg, state, None, None
        )
        sides.append(_summarize_state(state, counts[:, 0], called[:, 0], ~present[:, 0]))
    return HistogramResult(*sides)


# ---------------------------------------------------------------------------
# survival experiment: repeated prepare-F2/detect cycles until the atom is lost
# ---------------------------------------------------------------------------


def _cell_codes(called: np.ndarray, present: np.ndarray) -> np.ndarray:
    """Per-cycle codes into ``CELLS``: lost (or not measured), F1- or F2-detected."""
    return np.where(present, 1 + called, 0).astype(np.int8)


@dataclass(frozen=True, eq=False)
class SurvivalMatrix:
    """One row per atom, one cell per cycle, as codes into ``CELLS``; ``lost`` is absorbing."""

    cells: np.ndarray

    def __post_init__(self) -> None:
        cells = self.cells
        if cells.ndim != 2:
            raise ValueError("cells must form a (rows, cycles) matrix")
        if cells.size and (cells.min() < 0 or cells.max() >= len(CELLS)):
            raise ValueError("unknown cell code")
        lost = cells == 0
        if np.any(lost[:, :-1] & ~lost[:, 1:]):
            raise ValueError("a lost atom cannot reappear later in its row")

    @property
    def rows(self) -> tuple[tuple[str, ...], ...]:
        """The cells as labels, row by row."""
        return tuple(tuple(CELLS[c] for c in row) for row in self.cells.tolist())

    def survival_lengths(self) -> np.ndarray:
        """Completed cycles per row (the column index of the first lost cell)."""
        lost = self.cells == 0
        return np.where(lost.any(axis=1), lost.argmax(axis=1), self.cells.shape[1])


@dataclass(frozen=True, eq=False)
class SurvivalResult:
    matrix: SurvivalMatrix
    fraction_alive: tuple[float, ...]   # index k = fraction surviving k full cycles
    lifetime_fit: FitResult | None      # None when nothing decayed (no loss to fit)


def experiment_survival(
    n_atoms: int,
    n_cycles: int,
    cfg: CycleConfig,
    master_seed: int,
    workers: int = 1,
) -> SurvivalResult:
    """Repeated-measurement survival run; rows sorted longest-lived first."""
    if n_atoms <= 0 or n_cycles <= 0:
        raise ValueError("n_atoms and n_cycles must be positive")
    _, called, present = _map_rows(
        n_atoms, workers, master_seed, (EXP_SURVIVAL,), cfg, F2, (0.0,) * n_cycles, None
    )
    cells = _cell_codes(called, present)
    order = np.argsort(-SurvivalMatrix(cells).survival_lengths(), kind="stable")
    matrix = SurvivalMatrix(cells[order])
    lengths = matrix.survival_lengths()
    fraction = tuple(float(np.mean(lengths >= k)) for k in range(n_cycles + 1))
    ks = np.arange(n_cycles + 1, dtype=float)
    ys = np.asarray(fraction)
    keep = ys > 0.0
    try:
        fit = fit_exponential(ks[keep], ys[keep])
    except ValueError:
        fit = None
    return SurvivalResult(matrix, fraction, fit)


# ---------------------------------------------------------------------------
# microwave Rabi experiment on the clock transition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RabiConfig:
    """Microwave drive on the mF=0 -> mF=0 transition; other sublevels are inert."""

    rabi_frequency: float
    decoherence_time: float
    pulse_lengths: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.rabi_frequency <= 0:
            raise ValueError("rabi_frequency must be positive")
        if self.decoherence_time <= 0:
            raise ValueError("decoherence_time must be positive")
        if any(t < 0 for t in self.pulse_lengths):
            raise ValueError("pulse lengths must be nonnegative")


def uniform_pulse_grid(points: int, span: float) -> tuple[float, ...]:
    """Evenly spaced pulse lengths from zero to ``span`` inclusive."""
    if points < 2 or span <= 0:
        raise ValueError("need at least 2 points and a positive span")
    return tuple(float(t) for t in np.linspace(0.0, span, points))


def transfer_probability(duration: float, rabi: RabiConfig) -> float:
    """Clock-transition excitation probability after a pulse of the given length."""
    if duration < 0:
        raise ValueError("duration must be nonnegative")
    osc = math.cos(2.0 * math.pi * rabi.rabi_frequency * duration)
    return 0.5 * (1.0 - osc * math.exp(-duration / rabi.decoherence_time))


def microwave_pulse(
    atoms: Atoms, duration: float, rabi: RabiConfig, rng: np.random.Generator
) -> None:
    """Drive F1 atoms with one microwave pulse; only the atoms in mF=0 respond."""
    atoms.require_present("drive")
    if atoms.bright.any():
        raise ValueError("the drive starts from F1")
    flips = rng.random(np.count_nonzero(atoms.in_mf0)) < transfer_probability(duration, rabi)
    atoms.bright[atoms.in_mf0] = flips


@dataclass(frozen=True, eq=False)
class RabiResult:
    pulse_lengths: tuple[float, ...]
    outcomes: np.ndarray          # (atoms, points) codes into CELLS; lost = not measured
    n_measured: tuple[int, ...]
    f2_fraction: tuple[float, ...]
    curve_fit: FitResult | None   # None when too few points were measured to fit


def experiment_rabi(
    n_atoms: int,
    rabi: RabiConfig,
    cfg: CycleConfig,
    master_seed: int,
    workers: int = 1,
) -> RabiResult:
    """Ensemble Rabi scan: each atom attempts every pulse length once, in order.

    An atom lost partway leaves the rest of its row unmeasured and the next
    row starts with a fresh atom. The ensemble curve averages whatever rows
    reached each point, and is fitted with the damped-sinusoid model; with
    too few measured points (heavy loss) ``curve_fit`` is None.
    """
    if n_atoms <= 0:
        raise ValueError("n_atoms must be positive")
    if len(rabi.pulse_lengths) < 2:
        raise ValueError("need at least 2 pulse lengths")
    _, called, present = _map_rows(
        n_atoms, workers, master_seed, (EXP_RABI,), cfg, F1, rabi.pulse_lengths, rabi
    )
    # a cycle whose presence check fails keeps no point
    outcomes = _cell_codes(called, present)
    measured = np.count_nonzero(outcomes, axis=0)
    bright = np.count_nonzero(outcomes == 2, axis=0)
    fraction = np.divide(bright, measured, out=np.full(measured.size, np.nan), where=measured > 0)
    times = np.asarray(rabi.pulse_lengths)
    mask = measured > 0
    try:
        fit = fit_damped_sinusoid(times[mask], fraction[mask])
    except ValueError:
        fit = None
    return RabiResult(
        tuple(rabi.pulse_lengths),
        outcomes,
        tuple(measured.tolist()),
        tuple(fraction.tolist()),
        fit,
    )
