"""Shared oracles for the test suite, independent of the code paths they check."""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
from scipy import stats

from atomreadout.experiments import Coded, CycleConfig, ReadoutOutcome


def poisson_chisquare_pvalue(counts, mean: float, min_expected: float = 5.0) -> float:
    """Goodness-of-fit p-value of integer samples against a known Poisson mean."""
    counts = np.asarray(counts, dtype=int)
    n = counts.size
    kmax = int(counts.max())
    ks = np.arange(kmax + 1)
    probs = np.append(stats.poisson.pmf(ks, mean), stats.poisson.sf(kmax, mean))
    observed = np.append(np.bincount(counts, minlength=kmax + 1).astype(float), 0.0)
    expected = probs * n

    obs_pooled: list[float] = []
    exp_pooled: list[float] = []
    acc_o = acc_e = 0.0
    for o, e in zip(observed, expected):
        acc_o += o
        acc_e += e
        if acc_e >= min_expected:
            obs_pooled.append(acc_o)
            exp_pooled.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0.0 and obs_pooled:
        obs_pooled[-1] += acc_o
        exp_pooled[-1] += acc_e
    exp_arr = np.asarray(exp_pooled)
    exp_arr = exp_arr * (np.sum(obs_pooled) / np.sum(exp_arr))
    _, pvalue = stats.chisquare(obs_pooled, exp_arr)
    return float(pvalue)


def markov_f2_error(efficiency: float, hazard: float, n_d: int, tol: float = 1e-14) -> float:
    """Brute-force bright-state error: absorbing chain over scattering-event sequences.

    State is the number of detections so far for a still-bright atom. Per
    event: detection with probability eta (the photon preempts any depump),
    otherwise depumping with probability hazard, otherwise nothing. Iterated
    until the surviving bright mass is negligible.
    """
    bright = np.zeros(n_d)
    bright[0] = 1.0
    failed = 0.0
    for _ in range(5_000_000):
        detect = bright * efficiency
        dark = bright * (1.0 - efficiency) * hazard
        stay = bright * (1.0 - efficiency) * (1.0 - hazard)
        failed += dark.sum()
        nxt = stay.copy()
        nxt[1:] += detect[:-1]
        bright = nxt
        if bright.sum() < tol:
            break
    return float(failed + bright.sum())


def two_sample_chisquare_pvalue(a, b, min_pooled: int = 10) -> float:
    """Homogeneity p-value of two equal-size samples of hashable, sortable cells.

    Cells are taken in sorted order and neighbours are pooled until the two
    samples together hold ``min_pooled`` draws, so every expected count is at
    least 5; a short remainder joins the last pooled cell.
    """
    if len(a) != len(b):
        raise ValueError("samples must have the same size")
    count_a, count_b = Counter(a), Counter(b)
    pooled: list[list[int]] = []
    acc = [0, 0]
    for cell in sorted(count_a.keys() | count_b.keys()):
        acc[0] += count_a[cell]
        acc[1] += count_b[cell]
        if sum(acc) >= min_pooled:
            pooled.append(acc)
            acc = [0, 0]
    if sum(acc):
        pooled[-1][0] += acc[0]
        pooled[-1][1] += acc[1]
    _, pvalue, _, _ = stats.chi2_contingency(np.asarray(pooled).T, correction=False)
    return float(pvalue)


# ---------------------------------------------------------------------------
# event-level probe oracle
#
# The production kernel (experiments._simulate_probe) samples a block of probes
# through the time change of the detection process. This oracle instead draws
# every scattering event of one probe, marks each one detected, depumped or
# silent, merges in the background counts, and applies the stop rule to the
# merged stream. Its ReadoutOutcome holds scalars, one probe's values.
# ---------------------------------------------------------------------------


def poisson_times(rate: float, window: float, rng: np.random.Generator) -> np.ndarray:
    """Sorted arrival times of a homogeneous Poisson process over [0, window]."""
    n = int(rng.poisson(rate * window))
    return np.sort(rng.random(n) * window)


def thin(
    times: np.ndarray, keep: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Split events into those kept independently with probability ``keep`` and the rest."""
    kept = rng.random(times.size) < keep
    return times[kept], times[~kept]


def merge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Time-ordered union of two event-time arrays."""
    return np.sort(np.concatenate((a, b)))


def stop_rule(
    scatter_times: np.ndarray,
    detection_times: np.ndarray,
    depump_time: float,
    cfg: CycleConfig,
) -> ReadoutOutcome:
    """Classify a probe from its bright-phase scatters and all its detections.

    ``scatter_times`` holds every scattering event while the atom was bright,
    the depumping event included; ``depump_time`` is inf for an atom that
    stayed bright. The adaptive rule stops at the ``n_d``-th detection; the
    fixed window always runs to the end of ``window``.
    """
    threshold = cfg.n_d
    counts = int(detection_times.size)
    elapsed = cfg.window
    if cfg.adaptive and counts >= threshold:
        counts = threshold
        elapsed = float(detection_times[threshold - 1])
    scatters = int(np.count_nonzero(scatter_times <= elapsed))
    return ReadoutOutcome(counts >= threshold, counts, elapsed, scatters, depump_time <= elapsed)


def event_probe(in_f2: bool, cfg: CycleConfig, rng: np.random.Generator) -> ReadoutOutcome:
    """One probe of a prepared atom, drawn event by event (an oracle for the kernel)."""
    window = cfg.window
    background = poisson_times(cfg.background_mean / window, window, rng)
    scatters = np.empty(0)
    signal = np.empty(0)
    depump_time = math.inf
    if in_f2:
        scatters = poisson_times(cfg.scatter_rate, window, rng)
        signal, undetected = thin(scatters, cfg.net_efficiency, rng)
        depumps, _ = thin(undetected, cfg.depump_hazard, rng)
        if depumps.size:
            depump_time = float(depumps[0])
            scatters = scatters[scatters <= depump_time]
            signal = signal[signal < depump_time]
    return stop_rule(scatters, merge(signal, background), depump_time, cfg)


def binomial_3se(p: float, n: int) -> float:
    """Three binomial standard errors of a proportion estimate."""
    return 3.0 * np.sqrt(p * (1.0 - p) / n)


def _same_cells(a, b) -> bool:
    """Equal table columns or summary values: same types, and a nan equals a nan."""
    if isinstance(a, Coded):
        return (
            isinstance(b, Coded)
            and _same_cells(a.codes, b.codes)
            and _same_cells(list(a.labels), list(b.labels))
        )
    if isinstance(a, np.ndarray):
        return (
            isinstance(b, np.ndarray)
            and a.dtype == b.dtype
            and np.array_equal(a, b, equal_nan=a.dtype.kind == "f")
        )
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(map(_same_cells, a, b))
    if isinstance(a, float) and math.isnan(a):
        return isinstance(b, float) and math.isnan(b)
    return type(a) is type(b) and a == b


def same_result(a, b) -> bool:
    """Equality of two experiment results ``(tables, summary)``, column by column."""
    (tables_a, summary_a), (tables_b, summary_b) = a, b
    return (
        list(tables_a) == list(tables_b)
        and all(
            tables_a[k][0] == tables_b[k][0]
            and len(tables_a[k][1]) == len(tables_b[k][1])
            and all(map(_same_cells, tables_a[k][1], tables_b[k][1]))
            for k in tables_a
        )
        and list(summary_a) == list(summary_b)
        and all(_same_cells(summary_a[k], summary_b[k]) for k in summary_a)
    )


def table_column(tables, suffix: str, name: str) -> np.ndarray:
    """One named column of an experiment's table, as an array; a coded column as its labels."""
    header, columns = tables[suffix]
    column = columns[header.index(name)]
    if isinstance(column, Coded):
        return np.asarray(column.labels)[column.codes]
    return np.asarray(column)


def survival_cells(tables) -> np.ndarray:
    """The survival records table as its (atoms, cycles) matrix of cell labels."""
    atoms = table_column(tables, "", "atom")
    cycles = table_column(tables, "", "cycle")
    shape = (atoms.max() + 1, cycles.max() + 1)
    assert np.array_equal(atoms, np.repeat(np.arange(shape[0]), shape[1]))
    assert np.array_equal(cycles, np.tile(np.arange(shape[1]), shape[0]))
    return table_column(tables, "", "cell").reshape(shape)
