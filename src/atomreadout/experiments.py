"""Detection cycles and the four headline experiments.

One cycle is prepare -> probe -> classify -> heat -> loss check -> cool. The probe
Monte Carlo uses the Poisson marking decomposition of the scattering stream:
while the atom is bright, detected signal photons arrive at rate
``scatter_rate * eta``, the first depumping event at rate
``scatter_rate * (1-eta) * q`` (detection preempts the depump within a single
event), and silent scatters fill in the rest. Background counts run at their
own rate for the whole probe-on window. This is law-equivalent to drawing
every scattering event and marking it, at a fraction of the cost; the tests
check it against such an event-by-event oracle.

Every experiment runs the same row loop: a row is one atom stepped through its
cycles until they run out or the atom is lost, and a histogram trial is a row
of one cycle. Rows draw from per-(experiment, row, cycle) substreams of the
master seed, so any execution order (including process pools) gives identical
results.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
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
from .physics import F1, F2, AtomState, ProbeConfig, SpeciesConstants
from .readout import ADAPTIVE_STOP, ReadoutOutcome, ReadoutPolicy
from .seeding import derive_substream
from .trap import TrapConfig, apply_heating, check_loss, cool

EXP_HISTOGRAM = 1
EXP_SURVIVAL = 2
EXP_RABI = 3
_STATE_CODE = {F1: 0, F2: 1}

CELL_F2 = "F2-detected"
CELL_F1 = "F1-detected"
CELL_LOST = "lost"


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


@dataclass(frozen=True)
class CycleRecord:
    trial_index: int
    true_state_at_probe: str
    detected_counts: int
    classified: str
    probe_elapsed: float
    scatters: int
    atom_present_after: bool
    depumped_during_probe: bool


def prepare_state(target: str, rng: np.random.Generator) -> AtomState:
    """Fresh atom pumped into ``target``, Zeeman sublevel drawn uniformly."""
    if target == F1:
        mf = int(rng.integers(-1, 2))
    elif target == F2:
        mf = int(rng.integers(-2, 3))
    else:
        raise ValueError(f"unknown hyperfine target {target!r}")
    return AtomState(hyperfine=target, zeeman_mF=mf, motional_energy=0.0, present=True)


def reprepare(atom: AtomState, target: str, rng: np.random.Generator) -> AtomState:
    """Re-pump an existing atom; motional energy and presence are untouched."""
    if not atom.present:
        raise ValueError("cannot prepare an absent atom")
    fresh = prepare_state(target, rng)
    return replace(atom, hyperfine=fresh.hyperfine, zeeman_mF=fresh.zeeman_mF)


def _resolve_stop(
    detection_times: np.ndarray, policy: ReadoutPolicy
) -> tuple[str, int, float]:
    threshold = policy.threshold_counts
    if policy.kind == ADAPTIVE_STOP:
        if detection_times.size >= threshold:
            return F2, threshold, float(detection_times[threshold - 1])
        return F1, int(detection_times.size), policy.max_duration
    counts = int(detection_times.size)
    return (F2 if counts >= threshold else F1), counts, policy.max_duration


def _simulate_probe(in_f2: bool, cfg: CycleConfig, rng: np.random.Generator) -> ReadoutOutcome:
    policy = cfg.policy
    window = policy.max_duration
    bg_rate = cfg.probe.background_mean_per_window / window
    eta = cfg.net_efficiency
    hazard = cfg.depump_hazard
    rate = cfg.probe.scatter_rate

    depump_time = math.inf
    sig_times = np.empty(0)
    if in_f2:
        depump_event_rate = rate * (1.0 - eta) * hazard
        if depump_event_rate > 0.0:
            depump_time = float(rng.exponential(1.0 / depump_event_rate))
        bright = min(depump_time, window)
        n_sig = int(rng.poisson(rate * eta * bright))
        sig_times = np.sort(rng.random(n_sig) * bright)

    n_bg = int(rng.poisson(bg_rate * window))
    bg_times = np.sort(rng.random(n_bg) * window)
    detections = np.sort(np.concatenate((sig_times, bg_times))) if in_f2 else bg_times

    classified, counts, elapsed = _resolve_stop(detections, policy)

    scatters = 0
    depumped = False
    if in_f2:
        bright_seen = min(elapsed, depump_time)
        scatters = int(np.searchsorted(sig_times, bright_seen, side="right"))
        silent_rate = rate * (1.0 - eta) * (1.0 - hazard)
        scatters += int(rng.poisson(silent_rate * bright_seen))
        depumped = depump_time <= elapsed
        if depumped:
            scatters += 1  # the depumping decay is itself a scattering event
    return ReadoutOutcome(classified, counts, elapsed, scatters, depumped)


def run_detection_cycle(
    atom: AtomState, cfg: CycleConfig, rng: np.random.Generator, trial_index: int = 0
) -> tuple[AtomState, CycleRecord]:
    """Probe, classify, heat, loss-check and cool one already-prepared atom.

    The loss check sees the heat of this probe before cooling removes it, so a
    hot enough probe ejects the atom; only an atom still present is cooled.
    """
    if not atom.present:
        record = CycleRecord(trial_index, atom.hyperfine, 0, F1, 0.0, 0, False, False)
        return atom, record

    outcome = _simulate_probe(atom.hyperfine == F2, cfg, rng)
    after = atom
    if outcome.depumped_during_probe:
        # mF after a depump is not tracked; it is resampled at the next preparation
        after = replace(after, hyperfine=F1, zeeman_mF=0)
    after = apply_heating(after, outcome.scatters, cfg.species)
    after = check_loss(after, cfg.trap, cfg.background_loss, rng)
    if after.present:
        after = cool(after, cfg.cooling_reset, cfg.trap)
    record = CycleRecord(
        trial_index,
        atom.hyperfine,
        outcome.detected_counts,
        outcome.classified,
        outcome.elapsed,
        outcome.scatters,
        after.present,
        outcome.depumped_during_probe,
    )
    return after, record


def _run_rows(
    lo: int,
    hi: int,
    master_seed: int,
    key: tuple[int, ...],
    cfg: CycleConfig,
    state: str,
    pulse_lengths: tuple[float, ...],
    rabi: RabiConfig | None,
    cells: tuple | None,
) -> list:
    """Step the atoms of rows ``lo..hi-1`` through one cycle per pulse length.

    Each row is one atom that starts at the trap's baseline energy. Before each
    cycle it is re-prepared in ``state`` and, when ``rabi`` is given, driven
    for that cycle's pulse length. A row ends when its cycles run out or its
    atom is lost. ``cells`` gives the (lost, F1-detected, F2-detected) values
    written per cycle, and a lost atom's value fills the rest of its row; cycle
    ``c`` of row ``r`` draws from substream ``(*key, r, c)``. With
    ``cells=None`` each row is a single-shot trial that draws from
    ``(*key, r)`` and yields its ``CycleRecord``. All rows go into one flat list.
    """
    baseline = AtomState(hyperfine=state, zeeman_mF=0, motional_energy=cfg.trap.baseline_energy)
    out: list = []
    for row in range(lo, hi):
        atom = baseline
        for cycle, duration in enumerate(pulse_lengths):
            path = (*key, row) if cells is None else (*key, row, cycle)
            rng = derive_substream(master_seed, path)
            atom = reprepare(atom, state, rng)
            if rabi is not None:
                atom = microwave_pulse(atom, duration, rabi, rng)
            atom, record = run_detection_cycle(atom, cfg, rng, row)
            if cells is None:
                out.append(record)
            elif not record.atom_present_after:
                out.extend([cells[0]] * (len(pulse_lengths) - cycle))
                break
            else:
                out.append(cells[2] if record.classified == F2 else cells[1])
    return out


def workers_used(requested: int) -> int:
    """Processes a pool of ``requested`` workers runs: the request capped at the CPU count."""
    return min(requested, os.cpu_count() or 1)


def _map_rows(n_rows: int, workers: int, *args) -> list:
    """``_run_rows`` over rows ``0..n_rows-1``, in-process or over 4 x workers row ranges.

    ``workers`` is capped by ``workers_used``; the rows do not depend on it.
    """
    workers = workers_used(workers)
    if workers <= 1:
        return _run_rows(0, n_rows, *args)
    size = math.ceil(n_rows / (4 * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(_run_rows, lo, min(lo + size, n_rows), *args)
            for lo in range(0, n_rows, size)
        ]
        return [cell for future in futures for cell in future.result()]


# ---------------------------------------------------------------------------
# histogram experiment: independent single cycles, one fresh atom per trial
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StateSummary:
    prepared: str
    trials: int
    errors: int
    error_rate: float
    error_interval: tuple[float, float]
    losses: int
    loss_rate: float
    histogram: Histogram


@dataclass(frozen=True)
class HistogramResult:
    f1: StateSummary
    f2: StateSummary
    records: tuple[CycleRecord, ...]


def _summarize_state(state: str, records: list[CycleRecord]) -> StateSummary:
    wrong = F2 if state == F1 else F1
    errors = sum(1 for r in records if r.classified == wrong)
    losses = sum(1 for r in records if not r.atom_present_after)
    n = len(records)
    return StateSummary(
        prepared=state,
        trials=n,
        errors=errors,
        error_rate=errors / n,
        error_interval=binomial_interval(errors, n, 0.95),
        losses=losses,
        loss_rate=losses / n,
        histogram=build_histogram([r.detected_counts for r in records]),
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
    results: dict[str, list[CycleRecord]] = {}
    for state, trials, loss_override in (
        (F1, trials_f1, loss_f1),
        (F2, trials_f2, loss_f2),
    ):
        state_cfg = cfg if loss_override is None else replace(cfg, background_loss=loss_override)
        key = (EXP_HISTOGRAM, _STATE_CODE[state])
        results[state] = _map_rows(
            trials, workers, master_seed, key, state_cfg, state, (0.0,), None, None
        )
    return HistogramResult(
        f1=_summarize_state(F1, results[F1]),
        f2=_summarize_state(F2, results[F2]),
        records=tuple(results[F1] + results[F2]),
    )


# ---------------------------------------------------------------------------
# survival experiment: repeated prepare-F2/detect cycles until the atom is lost
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SurvivalMatrix:
    """One row per atom, one cell per cycle; ``lost`` is absorbing."""

    rows: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        for row in self.rows:
            seen_lost = False
            for cell in row:
                if cell not in (CELL_F1, CELL_F2, CELL_LOST):
                    raise ValueError(f"unknown cell label {cell!r}")
                if seen_lost and cell != CELL_LOST:
                    raise ValueError("a lost atom cannot reappear later in its row")
                seen_lost = seen_lost or cell == CELL_LOST
            if len(row) != len(self.rows[0]):
                raise ValueError("all rows must have the same number of cycles")

    def survival_lengths(self) -> tuple[int, ...]:
        """Completed cycles per row (the column index of the first lost cell)."""
        out = []
        for row in self.rows:
            out.append(row.index(CELL_LOST) if CELL_LOST in row else len(row))
        return tuple(out)


@dataclass(frozen=True)
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
    labels = (CELL_LOST, CELL_F1, CELL_F2)
    cells = _map_rows(
        n_atoms, workers, master_seed, (EXP_SURVIVAL,), cfg, F2, (0.0,) * n_cycles, None, labels
    )
    rows = [tuple(cells[a * n_cycles:(a + 1) * n_cycles]) for a in range(n_atoms)]
    order = sorted(
        range(n_atoms),
        key=lambda a: (-(rows[a].index(CELL_LOST) if CELL_LOST in rows[a] else n_cycles), a),
    )
    matrix = SurvivalMatrix(tuple(rows[a] for a in order))
    lengths = np.asarray(matrix.survival_lengths())
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
    atom: AtomState, duration: float, rabi: RabiConfig, rng: np.random.Generator
) -> AtomState:
    """Apply one microwave pulse; only an atom in mF=0 responds."""
    if not atom.present:
        raise ValueError("cannot drive an absent atom")
    if atom.hyperfine != F1:
        raise ValueError("the drive starts from F1")
    if atom.zeeman_mF != 0:
        return atom
    if rng.random() < transfer_probability(duration, rabi):
        return replace(atom, hyperfine=F2)
    return atom


@dataclass(frozen=True)
class RabiResult:
    pulse_lengths: tuple[float, ...]
    outcomes: tuple[tuple[int | None, ...], ...]   # 1 = classified F2; None = not measured
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
    n_points = len(rabi.pulse_lengths)
    # a cycle whose presence check fails keeps no point
    cells = _map_rows(
        n_atoms, workers, master_seed, (EXP_RABI,), cfg, F1, rabi.pulse_lengths, rabi, (None, 0, 1)
    )
    rows = [tuple(cells[a * n_points:(a + 1) * n_points]) for a in range(n_atoms)]
    n_measured = []
    fraction = []
    for i in range(n_points):
        vals = [row[i] for row in rows if row[i] is not None]
        n_measured.append(len(vals))
        fraction.append(sum(vals) / len(vals) if vals else float("nan"))
    times = np.asarray(rabi.pulse_lengths)
    fracs = np.asarray(fraction)
    mask = np.asarray(n_measured) > 0
    try:
        fit = fit_damped_sinusoid(times[mask], fracs[mask])
    except ValueError:
        fit = None
    return RabiResult(
        tuple(rabi.pulse_lengths),
        tuple(rows),
        tuple(n_measured),
        tuple(fraction),
        fit,
    )
