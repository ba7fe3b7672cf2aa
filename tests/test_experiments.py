import math
import os
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from atomreadout import experiments
from atomreadout.config import default_config
from atomreadout.experiments import (
    CELL_F2,
    CELL_LOST,
    Atoms,
    RabiConfig,
    _cycle,
    _nonzero_draws,
    _simulate_probe,
    apply_heating,
    check_loss,
    cool,
    derive_substream,
    experiment_histogram,
    experiment_rabi,
    experiment_survival,
    microwave_pulse,
    prepare_state,
    reprepare,
    run_detection_cycle,
    transfer_probability,
)
from atomreadout.fitting import fit_damped_sinusoid
from atomreadout.physics import F1, F2, analytic_f2_error, heating_per_scatter
from helpers import (
    binomial_3se,
    event_probe,
    per_cycle_block,
    same_result,
    survival_cells,
    table_bytes,
    table_column,
    traced_peak,
    two_sample_chisquare_pvalue,
)

ANALYTIC_F1_ERROR = 3.693631311376678e-2
KICK = heating_per_scatter()   # K per scattering event
REF_RABI = default_config().rabi_config()


def rabi_scan(points, span):
    """The reference drive over a different pulse grid."""
    return replace(REF_RABI, points=points, span=span)


@pytest.fixture
def inline_pool(monkeypatch):
    """The pool sizes and chunk sizes asked for, and the first two arguments of each call
    mapped over the pool.

    The stand-in pool runs each call here, so no process starts.
    """
    sizes, chunks, calls = [], [], []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            chunks.append(chunksize)
            for args in zip(*iterables):
                calls.append(args[:2])
                yield fn(*args)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", InlinePool)
    return sizes, chunks, calls


def row_drivers(experiment, cycles):
    """Survival or Rabi rows of ``cycles`` cycles: their substream key and state, the
    kernel's ``(n_cycles, transfer)`` and the oracle's ``(pulse_lengths, rabi)``. Rabi rows
    drive the reference frequency over ``cycles`` lengths evenly spaced to 3 ms: a short
    row's Nyquist limit is below the drive, which ``RabiConfig`` rejects and the kernel runs."""
    if experiment == "rabi":
        lengths = tuple(np.linspace(0.0, 3.0e-3, cycles).tolist())
        transfer = np.array([transfer_probability(t, REF_RABI) for t in lengths])
        return (experiments.EXP_RABI,), F1, (cycles, transfer), (lengths, REF_RABI)
    return (experiments.EXP_SURVIVAL,), F2, (cycles, None), ((0.0,) * cycles, None)


def atoms_in(bright, energy=0.0, in_mf0=False, n=1):
    """A block of ``n`` identical present atoms."""
    return Atoms(np.full(n, bright), np.full(n, in_mf0), np.full(n, energy), np.ones(n, bool))


def cycle_block(state, trials, cfg, rng):
    """One cycle of ``trials`` fresh atoms prepared in ``state``: the block kernel's step."""
    atoms = prepare_state(state, np.full(trials, cfg.baseline_energy), rng)
    return atoms, _cycle(atoms, cfg, rng)


class TestCycleConfig:
    @pytest.mark.parametrize("changes,message", [
        pytest.param({"scatter_rate": 0.0}, "scatter_rate", id="scatter-rate-0"),
        pytest.param({"background_mean": -0.1}, "background_mean", id="negative-background"),
        pytest.param({"n_d": 0}, "n_d", id="threshold-0"),
        pytest.param({"window": 0.0}, "window", id="window-0"),
        pytest.param({"baseline_energy": -1e-6}, "baseline_energy", id="negative-baseline"),
        pytest.param({"depth": 1e-6, "baseline_energy": 1e-6}, "depth", id="depth-at-baseline"),
        pytest.param({"net_efficiency": 0.0}, "net_efficiency", id="efficiency-0"),
        pytest.param({"net_efficiency": 1.5}, "net_efficiency", id="efficiency-above-1"),
        pytest.param({"depump_hazard": 1.0}, "depump_hazard", id="hazard-1"),
        pytest.param({"background_loss": 1.0}, "background_loss", id="loss-1"),
        pytest.param({"background_loss": -0.01}, "background_loss", id="negative-loss"),
    ])
    def test_rejects_out_of_range(self, ref_cfg, changes, message):
        with pytest.raises(ValueError, match=message):
            replace(ref_cfg, **changes)


class TestDeriveSubstream:
    def test_same_path_reproduces_stream(self):
        a = derive_substream(12345, (1, 2, 3)).random(100)
        b = derive_substream(12345, (1, 2, 3)).random(100)
        assert np.array_equal(a, b)

    def test_sibling_paths_differ(self):
        a = derive_substream(12345, (0,)).random(8)
        b = derive_substream(12345, (1,)).random(8)
        assert not np.array_equal(a, b)

    def test_path_depth_matters(self):
        a = derive_substream(7, (1,)).random(8)
        b = derive_substream(7, (1, 0)).random(8)
        assert not np.array_equal(a, b)

    def test_seed_matters(self):
        a = derive_substream(1, (5,)).random(8)
        b = derive_substream(2, (5,)).random(8)
        assert not np.array_equal(a, b)

    def test_stream_independence_smoke(self):
        # adjacent-path streams show no correlation beyond 3 sigma on 1e5 pairs
        n = 100_000
        x = derive_substream(99, (0,)).standard_normal(n)
        y = derive_substream(99, (1,)).standard_normal(n)
        corr = float(np.corrcoef(x, y)[0, 1])
        assert abs(corr) < 3.0 / np.sqrt(n)

    def test_out_of_range_seed_rejected(self):
        with pytest.raises(ValueError):
            derive_substream(-1, (0,))
        with pytest.raises(ValueError):
            derive_substream(2**64, (0,))


class TestPrepareState:
    def test_f2_always_f2(self):
        atoms = prepare_state(F2, np.zeros(100), np.random.default_rng(0))
        assert atoms.bright.all()

    def test_fresh_atom_is_cold_and_present(self):
        atoms = prepare_state(F1, np.zeros(1), np.random.default_rng(0))
        assert atoms.present.all() and atoms.energy[0] == 0.0

    def test_zeeman_sublevels_uniform(self):
        # only mF=0 is kept; it is one of three equally likely F1 sublevels
        draws = 300_000
        atoms = prepare_state(F1, np.zeros(draws), np.random.default_rng(2))
        tol = 3.0 * math.sqrt((1 / 3) * (2 / 3) / draws)
        assert abs(atoms.in_mf0.mean() - 1 / 3) < tol
        assert not prepare_state(F2, np.zeros(100), np.random.default_rng(2)).in_mf0.any()

    def test_reprepare_keeps_energy(self):
        again = reprepare(atoms_in(True, energy=5e-5), F1, np.random.default_rng(0))
        assert not again.bright[0]
        assert again.energy[0] == 5e-5


class TestHeating:
    def test_250_scatter_budget(self):
        atom = atoms_in(True)
        apply_heating(atom, np.array([250]), KICK)
        assert atom.energy[0] == pytest.approx(1.8098e-4, rel=1e-12)

    def test_zero_scatters_unchanged(self):
        atom = atoms_in(True, energy=1e-5)
        apply_heating(atom, np.array([0]), KICK)
        assert atom.energy[0] == 1e-5

    def test_accumulates(self):
        atom = atoms_in(True)
        apply_heating(atom, np.array([100]), KICK)
        apply_heating(atom, np.array([50]), KICK)
        assert atom.energy[0] == pytest.approx(150 * KICK, rel=1e-12)


class TestLossCheck:
    def test_cold_atom_survives(self, ref_cfg):
        atom = atoms_in(True, energy=181e-6)
        check_loss(atom, ref_cfg.depth, 0.0, np.random.default_rng(0))
        assert atom.present[0]

    def test_threshold_crossing_lost(self):
        atom = atoms_in(True, energy=2.1e-3)
        check_loss(atom, 2e-3, 0.0, np.random.default_rng(0))
        assert not atom.present[0]

    def test_background_bernoulli_rate(self, ref_cfg):
        trials = 100_000
        atoms = atoms_in(True, n=trials)
        check_loss(atoms, ref_cfg.depth, 0.012, np.random.default_rng(41))
        expected = 0.988
        se = math.sqrt(expected * (1 - expected) / trials)
        assert abs(atoms.present.mean() - expected) < 3 * se


class TestCooling:
    def test_reset_restores_baseline(self):
        atom = atoms_in(True, energy=181e-6)
        cool(atom, True, 5e-5)
        assert atom.energy[0] == 5e-5

    def test_no_reset_keeps_energy(self, ref_cfg):
        atom = atoms_in(True, energy=181e-6)
        cool(atom, False, ref_cfg.baseline_energy)
        assert atom.energy[0] == pytest.approx(181e-6)

    def test_heat_cool_cycle_never_accumulates(self, ref_cfg):
        atom = atoms_in(True)
        for _ in range(100):
            assert atom.energy[0] == ref_cfg.baseline_energy
            apply_heating(atom, np.array([100]), KICK)
            cool(atom, True, ref_cfg.baseline_energy)
        assert atom.energy[0] == ref_cfg.baseline_energy

    def test_without_cooling_loss_cycle_is_deterministic(self, ref_cfg):
        # 100 scatters/cycle against a 2 mK threshold: lost on cycle ceil(2763/100) = 28
        scatters_per_cycle = np.array([100])
        predicted = math.ceil(
            math.ceil(2e-3 / KICK) / scatters_per_cycle[0]
        )
        atom = atoms_in(True)
        rng = np.random.default_rng(0)
        lost_at = None
        for cycle in range(1, 60):
            apply_heating(atom, scatters_per_cycle, KICK)
            check_loss(atom, ref_cfg.depth, 0.0, rng)
            if not atom.present[0]:
                lost_at = cycle
                break
        assert lost_at == predicted == 28


class TestDetectionCycle:
    def test_dark_atom_zero_background(self, ref_cfg):
        cfg = replace(ref_cfg, background_mean=0.0, background_loss=0.0)
        _, outcome = run_detection_cycle(F1, cfg, np.random.default_rng(1))
        assert not outcome.called_bright[0]
        assert outcome.detected_counts[0] == 0
        assert outcome.elapsed[0] == cfg.window
        assert outcome.scatters[0] == 0

    def test_prepared_dark_atom_false_positive_rate(self, ref_cfg):
        # background 0.3 drives the measured dark-state error to the Poisson tail
        cfg = replace(ref_cfg, background_loss=0.0)
        trials = 10_000
        _, outcome = cycle_block(F1, trials, cfg, derive_substream(77, (0,)))
        errors = np.count_nonzero(outcome.called_bright)
        assert abs(errors / trials - ANALYTIC_F1_ERROR) < binomial_3se(
            ANALYTIC_F1_ERROR, trials
        )

    def test_bright_error_matches_race_formula_without_background(self, ref_cfg):
        # isolates the depump race; background rescues are checked separately
        cfg = replace(ref_cfg, background_mean=0.0, background_loss=0.0)
        trials = 100_000
        _, outcome = cycle_block(F2, trials, cfg, derive_substream(78, (1,)))
        errors = np.count_nonzero(~outcome.called_bright)
        assert abs(errors / trials - 0.055) < binomial_3se(0.055, trials)

    @pytest.mark.parametrize("eta,hazard,nd", [(0.01, 1e-4, 1), (0.02, 6e-4, 2), (0.05, 2e-3, 3)])
    def test_bright_error_grid_against_analytic(self, ref_cfg, eta, hazard, nd):
        cfg = replace(
            ref_cfg, depump_hazard=hazard, background_mean=0.0, background_loss=0.0,
            net_efficiency=eta, n_d=nd,
        )
        expected = analytic_f2_error(eta, hazard, nd)
        trials = 20_000
        rng = derive_substream(79, (eta.__hash__() & 0xFFFF, nd))
        _, outcome = cycle_block(F2, trials, cfg, rng)
        errors = np.count_nonzero(~outcome.called_bright)
        assert abs(errors / trials - expected) < binomial_3se(expected, trials)

    def test_fixed_window_signal_mean(self, ref_cfg):
        # signal channel alone delivers the calibrated 21 counts per full window
        cfg = replace(
            ref_cfg, depump_hazard=0.0, background_mean=0.0, background_loss=0.0, adaptive=False
        )
        trials = 100_000
        _, outcome = cycle_block(F2, trials, cfg, derive_substream(80, (2,)))
        counts = outcome.detected_counts
        assert abs(counts.mean() - 21.0) < 3.0 * math.sqrt(21.0 / trials)

    def test_mean_scatters_per_bright_cycle(self, ref_cfg):
        # adaptive stop at 2 counts costs about nd/eta = 100 scattering events
        cfg = replace(ref_cfg, background_mean=0.0, background_loss=0.0)
        trials = 20_000
        _, outcome = cycle_block(F2, trials, cfg, derive_substream(81, (3,)))
        assert abs(outcome.scatters.mean() - 100.0) / 100.0 < 0.05

    def test_heating_and_cooling_bookkeeping(self, ref_cfg):
        cfg = replace(ref_cfg, background_loss=0.0, baseline_energy=1e-4)
        after, outcome = run_detection_cycle(F2, cfg, derive_substream(82, (0,)))
        # cooling reset leaves the atom at the (nonzero) baseline regardless of scatters
        assert outcome.scatters[0] > 0
        assert after.energy[0] == cfg.baseline_energy

    def test_hot_probe_loses_the_atom(self, ref_cfg):
        # a full 300 us bright window scatters ~1,050 photons (~760 uK) in a
        # 50 uK trap; the loss check sees that heat before cooling resets it
        cfg = replace(
            ref_cfg, depump_hazard=0.0, background_loss=0.0, adaptive=False, n_d=2, window=300e-6,
            depth=50e-6, baseline_energy=0.0, cooling_reset=True,
        )
        after, outcome = run_detection_cycle(F2, cfg, derive_substream(83, (0,)))
        assert outcome.scatters[0] > 1000
        assert not after.present[0]


    def test_no_background_arrival_at_depump_time_stops_there(self, ref_cfg):
        # with no background the count rate falls to zero at tau, so an n_d-th
        # arrival exactly at Lambda(tau) stops the probe at tau, not at the window's end
        class FixedStream:
            """Depump time ``tau``, arrival gaps ``gap`` and no extra counts."""

            def __init__(self, tau, gap):
                self.tau, self.gap = tau, gap

            def exponential(self, scale=1.0, size=None):
                return np.full(size, self.gap if isinstance(size, tuple) else self.tau)

            def poisson(self, lam):
                return np.zeros(np.shape(lam), dtype=np.int64)

            def binomial(self, n, p):
                return np.zeros(np.shape(n), dtype=np.int64)

        cfg = replace(ref_cfg, background_mean=0.0, n_d=1, window=300e-6, adaptive=True)
        tau = 75e-6
        gap = cfg.scatter_rate * cfg.net_efficiency * tau
        outcome = _simulate_probe(np.ones(1, dtype=bool), cfg, FixedStream(tau, gap))
        assert outcome.called_bright[0]
        assert outcome.depumped[0]
        assert outcome.elapsed[0] == tau

class TestNonzeroDraws:
    """numpy's Generator draws nothing from the stream for a zero Poisson mean or binomial
    count; the probe relies on it to draw only the nonzero entries."""

    # zeros between means below 10 (the multiplication sampler) and of 10 or more (PTRS),
    # and between counts on the inversion (n p <= 30) and BTPE (n p > 30) samplers
    @pytest.mark.parametrize(
        "draw, param, args",
        [
            ("poisson", [0.0, 3.2, 0.0, 0.0, 25.0, 9.99, 0.0, 10.0, 0.5, 140.0], ()),
            ("binomial", [0, 2, 0, 5, 0, 0, 200, 1, 0, 3], (0.3,)),
            ("binomial", [0, 2, 0, 5, 0, 0, 200, 1, 0, 3], (0.98,)),
        ],
        ids=["poisson", "binomial-low-p", "binomial-high-p"],
    )
    def test_same_samples_and_stream_state(self, draw, param, args):
        param = np.tile(np.asarray(param), 50)
        masked, plain = derive_substream(1, (0,)), derive_substream(1, (0,))
        got = _nonzero_draws(getattr(masked, draw), param, *args)
        np.testing.assert_array_equal(got, getattr(plain, draw)(param, *args))
        assert masked.bit_generator.state == plain.bit_generator.state


class TestKernelAgainstEventOracle:
    """The block probe kernel against the event-by-event oracle in tests/helpers.py.

    The kernel draws each atom's depump time, its first n_d detections through
    the time change of the detection process, and its silent scatters; the
    oracle draws every scattering event and marks it. Both must give the same
    law of (classification, counts) and the same mean scatters and elapsed time.
    """

    @pytest.mark.parametrize("adaptive", [True, False], ids=["adaptive-stop", "fixed-window"])
    @pytest.mark.parametrize("state", [F1, F2])
    def test_matches_event_oracle(self, ref_cfg, adaptive, state):
        cfg = replace(ref_cfg, adaptive=adaptive)
        trials = 20_000
        kernel = _simulate_probe(np.full(trials, state == F2), cfg, np.random.default_rng(91))
        oracle_rng = np.random.default_rng(92)
        oracle = [event_probe(state == F2, cfg, oracle_rng) for _ in range(trials)]

        pvalue = two_sample_chisquare_pvalue(
            list(zip(kernel.called_bright.tolist(), kernel.detected_counts.tolist())),
            [(o.called_bright, o.detected_counts) for o in oracle],
        )
        assert pvalue > 0.001
        for field in ("scatters", "elapsed"):
            a = getattr(kernel, field).astype(float)
            b = np.array([getattr(o, field) for o in oracle], dtype=float)
            se = math.sqrt(a.var(ddof=1) / trials + b.var(ddof=1) / trials)
            assert abs(a.mean() - b.mean()) <= 3.0 * se, field

    @pytest.mark.parametrize("adaptive", [True, False], ids=["adaptive-stop", "fixed-window"])
    def test_scatters_match_rate_times_elapsed(self, ref_cfg, adaptive):
        # optional stopping: E[scatters] = R * E[min(elapsed, tau)], and tau is
        # infinite at hazard 0, so each atom's scatters minus R * elapsed has mean 0
        cfg = replace(ref_cfg, depump_hazard=0.0, adaptive=adaptive)
        trials = 100_000
        outcome = _simulate_probe(np.ones(trials, dtype=bool), cfg, np.random.default_rng(93))
        excess = outcome.scatters - cfg.scatter_rate * outcome.elapsed
        assert abs(excess.mean()) <= 3.0 * excess.std(ddof=1) / math.sqrt(trials)


class TestRowDriverAgainstPerCycleOracle:
    """The chunked row driver against the per-cycle one in tests/helpers.py.

    A block of more than BLOCK // 2 rows, or one without cooling reset, steps
    one cycle per chunk and must draw exactly what the oracle draws; a small
    block steps many cycles per kernel pass and must agree with it in law.
    """

    @pytest.mark.parametrize("block,n_rows,experiment,cycles,changes", [
        pytest.param(1, experiments.BLOCK + 2049, "survival", 5, {"background_loss": 0.05},
                     id="2049-rows"),
        pytest.param(0, experiments.BLOCK, "rabi", 8, {"background_loss": 0.05},
                     id="4096-rows-rabi"),
        pytest.param(0, 100, "survival", 60, {"cooling_reset": False, "background_loss": 0.0},
                     id="no-cooling-reset"),
        pytest.param(0, 312, "rabi", 20, {"cooling_reset": False}, id="no-cooling-reset-rabi"),
    ])
    def test_one_cycle_chunks_draw_what_the_oracle_draws(
        self, ref_cfg, block, n_rows, experiment, cycles, changes
    ):
        cfg = replace(ref_cfg, **changes)
        key, state, drive, oracle_drive = row_drivers(experiment, cycles)
        kernel = experiments._run_block(block, n_rows, 21, key, cfg, state, *drive)
        oracle = per_cycle_block(block, n_rows, 21, key, cfg, state, *oracle_drive)
        assert len(kernel) == len(oracle)
        for a, b in zip(kernel, oracle):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        _, present = kernel
        assert not present[:, -1].all()   # rows were dropped partway

    @pytest.mark.parametrize("experiment,n_rows,cycles,seeds", [
        pytest.param("survival", 100, 100, range(1, 41), id="survival-100x100"),
        pytest.param("rabi", 312, 50, range(1, 21), id="rabi-312x50"),
    ])
    def test_chunked_blocks_agree_with_the_oracle_in_law(
        self, ref_cfg, experiment, n_rows, cycles, seeds
    ):
        # the lost-cycle histogram of the rows, and the bright and dark calls at each
        # cycle; the cycles after a row's lost one read (False, False)
        key, state, drive, oracle_drive = row_drivers(experiment, cycles)
        assert experiments.BLOCK // n_rows > 1
        lengths, calls = [], []
        for driver, tail in ((experiments._run_block, drive), (per_cycle_block, oracle_drive)):
            sides = [driver(0, n_rows, seed, key, ref_cfg, state, *tail) for seed in seeds]
            called, present = (np.concatenate(parts) for parts in zip(*sides))
            done = np.count_nonzero(present, axis=1)
            unmeasured = np.arange(cycles) > done[:, None]
            assert not called[unmeasured].any()
            assert not present[unmeasured].any()
            lengths.append(done.tolist())
            calls.append(np.concatenate([
                np.count_nonzero(called & present, axis=0),
                np.count_nonzero(~called & present, axis=0),
            ]))
        assert two_sample_chisquare_pvalue(*lengths) > 0.001
        _, pvalue, _, _ = stats.chi2_contingency(np.asarray(calls), correction=False)
        assert pvalue > 0.001

    def test_paper_size_runs_take_a_few_kernel_calls_of_at_most_a_block(
        self, ref_cfg, monkeypatch
    ):
        sizes = []
        probe = experiments._simulate_probe

        def counted(bright, cfg, rng):
            sizes.append(bright.size)
            return probe(bright, cfg, rng)

        monkeypatch.setattr(experiments, "_simulate_probe", counted)
        experiment_survival(102, 100, ref_cfg, master_seed=1)
        assert len(sizes) == 3   # chunks of 40 cycles, in place of 100 calls
        assert max(sizes) <= experiments.BLOCK
        sizes.clear()
        experiment_rabi(312, REF_RABI, ref_cfg, master_seed=1)
        assert len(sizes) == 4   # chunks of 13 points, in place of 50 calls
        assert max(sizes) <= experiments.BLOCK


class TestRowMemory:
    """Each experiment fills its record columns in place, block by block, so besides the
    tables it returns it holds about one block's kernel pass, whatever its row count.

    The traced peak less the returned tables' bytes must stay under one bound at both
    sizes. The bound follows from the kernel: a pass over a block keeps about sixteen
    8-byte arrays of its atoms alive, and 192 B an atom of a block covers them, the
    block's returned arrays and the 8-byte per-row counts that survival and Rabi keep.
    Joining block parts, or the two histogram states, exceeds it by megabytes at the
    large sizes.
    """

    BOUND = 192 * experiments.BLOCK

    @pytest.mark.parametrize("experiment,run", [
        pytest.param("histogram", lambda n, cfg: experiment_histogram(n, n, cfg, master_seed=3),
                     id="histogram"),
        pytest.param("survival", lambda n, cfg: experiment_survival(n, 10, cfg, master_seed=3),
                     id="survival"),
        pytest.param("rabi",
                     lambda n, cfg: experiment_rabi(n, rabi_scan(10, 1.0e-3), cfg, master_seed=3),
                     id="rabi"),
    ])
    def test_transient_memory_does_not_grow_with_the_rows(self, ref_cfg, experiment, run):
        # histogram sizes are trials per state; survival and Rabi rows run 10 cycles each
        sizes = (4, 16) if experiment == "histogram" else (2, 8)
        rows = [blocks * experiments.BLOCK + 17 for blocks in sizes]
        run(rows[0], ref_cfg)   # the first run allocates what stays cached
        for n in rows:
            (tables, _), peak = traced_peak(lambda: run(n, ref_cfg))
            assert peak - table_bytes(tables) <= self.BOUND, n


class TestHistogramExperiment:
    def test_reference_run(self, ref_cfg):
        _, summary = experiment_histogram(1684, 2127, ref_cfg, master_seed=1)
        assert abs(summary["f1_error_rate"] - ANALYTIC_F1_ERROR) < binomial_3se(
            ANALYTIC_F1_ERROR, 1684
        )
        assert abs(summary["f2_error_rate"] - 0.055) < binomial_3se(0.055, 2127)
        assert summary["f1_error_wilson_low"] <= 0.04 <= summary["f1_error_wilson_high"]

    def test_tables_agree_with_summary(self, ref_cfg):
        tables, summary = experiment_histogram(300, 400, ref_cfg, master_seed=4)
        assert list(tables) == ["", "_histogram", "_summary"]
        prepared = table_column(tables, "", "prepared_state")
        classified = table_column(tables, "", "classified")
        lost = table_column(tables, "", "lost")
        assert table_column(tables, "", "trial").tolist() == [*range(300), *range(400)]
        hist_state = table_column(tables, "_histogram", "prepared_state")
        frequency = table_column(tables, "_histogram", "frequency")
        for state, trials in ((F1, 300), (F2, 400)):
            tag = state.lower()
            mine = prepared == state
            assert summary[f"{tag}_trials"] == np.count_nonzero(mine) == trials
            assert summary[f"{tag}_errors"] == np.count_nonzero(mine & (classified != state))
            assert summary[f"{tag}_losses"] == np.count_nonzero(mine & lost)
            assert frequency[hist_state == state].sum() == trials
        header, (quantities, values) = tables["_summary"]
        assert header == ("quantity", "value")
        assert dict(zip(quantities, values)) == summary

    def test_adaptive_stop_truncates_bright_histogram(self, ref_cfg):
        tables, _ = experiment_histogram(200, 400, ref_cfg, master_seed=5)
        bright = table_column(tables, "_histogram", "prepared_state") == F2
        # counts can only reach nd
        assert table_column(tables, "_histogram", "counts")[bright].tolist() == [0, 1, 2]

    def test_dark_histogram_matches_background_pmf(self, ref_cfg):
        cfg = replace(ref_cfg, background_loss=0.0)
        trials = 30_000
        tables, _ = experiment_histogram(trials, 10, cfg, master_seed=6)
        dark = table_column(tables, "_histogram", "prepared_state") == F1
        fraction = table_column(tables, "_histogram", "frequency")[dark] / trials
        assert table_column(tables, "_histogram", "counts")[dark][:2].tolist() == [0, 1]
        expectations = {0: 0.7408182206817179, 1: 0.22224546620451535}
        for count, expected in expectations.items():
            assert abs(fraction[count] - expected) < binomial_3se(expected, trials)
        tail = 1.0 - fraction[0] - fraction[1]
        assert abs(tail - ANALYTIC_F1_ERROR) < binomial_3se(ANALYTIC_F1_ERROR, trials)

    def test_background_loss_reaches_both_states(self, ref_cfg):
        cfg = replace(ref_cfg, background_loss=0.0105)
        _, summary = experiment_histogram(4000, 4000, cfg, master_seed=7)
        assert abs(summary["f1_loss_rate"] - 0.0105) < binomial_3se(0.0105, 4000)
        assert abs(summary["f2_loss_rate"] - 0.0105) < binomial_3se(0.0105, 4000)

    def test_determinism(self, ref_cfg):
        a = experiment_histogram(300, 300, ref_cfg, master_seed=9)
        b = experiment_histogram(300, 300, ref_cfg, master_seed=9)
        assert same_result(a, b)

    def test_worker_count_does_not_change_results(self, ref_cfg):
        serial = experiment_histogram(400, 400, ref_cfg, master_seed=10, workers=1)
        parallel = experiment_histogram(400, 400, ref_cfg, master_seed=10, workers=2)
        assert same_result(serial, parallel)


class TestSurvivalExperiment:
    def test_zero_loss_keeps_every_atom(self, ref_cfg):
        cfg = replace(ref_cfg, background_loss=0.0)
        tables, summary = experiment_survival(20, 30, cfg, master_seed=11)
        assert CELL_LOST not in survival_cells(tables)
        assert summary["survivor_fraction_final"] == 1.0
        assert summary["lifetime_fit_degenerate"] is True

    def test_lost_is_absorbing_and_rows_sorted(self, ref_cfg):
        tables, summary = experiment_survival(60, 60, ref_cfg, master_seed=12)
        lost = survival_cells(tables) == CELL_LOST
        assert lost.any() and not lost.all()
        assert not np.any(lost[:, :-1] & ~lost[:, 1:])  # no cell after a lost one is measured
        lengths = np.where(lost.any(axis=1), lost.argmax(axis=1), lost.shape[1])
        assert list(lengths) == sorted(lengths, reverse=True)
        fraction = table_column(tables, "_curve", "fraction_alive")
        assert fraction.tolist() == [np.mean(lengths >= k) for k in range(61)]
        assert summary["full_length_rows"] == np.count_nonzero(~lost[:, -1])

    def test_survival_curve_matches_geometric_decay(self, ref_cfg):
        _, summary = experiment_survival(102, 100, ref_cfg, master_seed=1)
        expected = 0.988**100
        assert abs(summary["survivor_fraction_final"] - expected) < binomial_3se(expected, 102)

    def test_lifetime_standard_error_is_calibrated(self, ref_cfg):
        # no heating loss at the reference point: the loss per cycle is the background's
        # 1.2%, and z of the estimated lifetime is near standard normal over seeds, whose
        # mean over 50 seeds has sd 1/sqrt(50) and whose sd has sd about 0.10
        truth = -1.0 / math.log1p(-ref_cfg.background_loss)
        assert ref_cfg.background_loss == 0.012
        z = []
        for seed in range(1, 51):
            _, summary = experiment_survival(1020, 100, ref_cfg, master_seed=seed)
            z.append((summary["lifetime_cycles"] - truth) / math.sqrt(summary["lifetime_variance"]))
        assert abs(np.mean(z)) <= 3.0 / math.sqrt(50)
        assert 0.7 <= np.std(z, ddof=1) <= 1.3

    def test_parallel_equals_serial(self, ref_cfg):
        serial = experiment_survival(24, 40, ref_cfg, master_seed=13, workers=1)
        parallel = experiment_survival(24, 40, ref_cfg, master_seed=13, workers=2)
        assert same_result(serial, parallel)

    def test_workers_capped_at_cpu_count(self, ref_cfg, inline_pool, monkeypatch):
        sizes, _, calls = inline_pool
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        monkeypatch.setattr(experiments, "BLOCK", 2)  # 12 blocks of rows
        capped = experiment_survival(24, 40, ref_cfg, master_seed=13, workers=10**6)
        assert sizes == [3]
        assert len(calls) == 12  # one call per block
        serial = experiment_survival(24, 40, ref_cfg, master_seed=13, workers=1)
        assert same_result(capped, serial)

    def test_pool_maps_one_call_per_block(self, ref_cfg, inline_pool, monkeypatch):
        # two workers on twelve blocks: each block is its own call, in block order, and
        # each worker takes one contiguous run of six blocks
        sizes, chunks, calls = inline_pool
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(experiments, "BLOCK", 2)
        pooled = experiment_survival(24, 40, ref_cfg, master_seed=13, workers=2)
        assert sizes == [2]
        assert calls == [(block, 24) for block in range(12)]
        assert chunks == [6]
        serial = experiment_survival(24, 40, ref_cfg, master_seed=13, workers=1)
        assert same_result(pooled, serial)

    def test_cells_label_classification(self, ref_cfg):
        cfg = replace(ref_cfg, depump_hazard=0.0, background_mean=0.0, background_loss=0.0)
        tables, _ = experiment_survival(10, 20, cfg, master_seed=14)
        # noiseless bright cycles always classify bright
        assert (survival_cells(tables) == CELL_F2).all()


class TestMicrowavePulse:
    def test_zero_duration_is_identity(self):
        atoms = atoms_in(False, in_mf0=True, n=100)
        transfer = np.full(100, transfer_probability(0.0, REF_RABI))
        microwave_pulse(atoms, transfer, np.random.default_rng(0))
        assert not atoms.bright.any()

    def test_spectator_sublevels_inert(self):
        rng = np.random.default_rng(0)
        atoms = atoms_in(False, in_mf0=False, n=50)
        transfer = np.full(50, transfer_probability(1.7e-4, REF_RABI))
        for _ in range(50):
            microwave_pulse(atoms, transfer, rng)
            assert not atoms.bright.any()

    def test_pi_pulse_transfer_probability(self):
        rabi = REF_RABI
        t_pi = 1.0 / (2.0 * rabi.rabi_frequency)
        expected = 0.5 * (1.0 + math.exp(-t_pi / rabi.decoherence_time))
        assert transfer_probability(t_pi, rabi) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.962926, abs=1e-6)
        trials = 20_000
        atoms = atoms_in(False, in_mf0=True, n=trials)
        transfer = np.full(trials, transfer_probability(t_pi, rabi))
        microwave_pulse(atoms, transfer, np.random.default_rng(4))
        assert abs(atoms.bright.mean() - expected) < binomial_3se(expected, trials)

    def test_long_pulse_dephases_to_half(self):
        rabi = REF_RABI
        assert transfer_probability(1.0, rabi) == pytest.approx(0.5, abs=1e-6)


class TestRabiExperiment:
    def test_zero_duration_point_is_false_positive_floor(self, ref_cfg):
        # no background loss, so that every row reaches point 0
        cfg = replace(ref_cfg, background_loss=0.0)
        tables, summary = experiment_rabi(150, REF_RABI, cfg, master_seed=15)
        n0 = summary["zero_point_n"]
        assert n0 == table_column(tables, "_curve", "n_measured")[0] == 150
        assert abs(summary["zero_point_fraction"] - ANALYTIC_F1_ERROR) < binomial_3se(
            ANALYTIC_F1_ERROR, n0
        )

    def test_lost_atoms_leave_rows_unmeasured(self, ref_cfg):
        cfg = replace(ref_cfg, background_loss=0.2)
        tables, _ = experiment_rabi(40, rabi_scan(20, 3.0e-3), cfg, master_seed=16)
        unmeasured = np.ones((40, 20), dtype=bool)
        unmeasured[table_column(tables, "", "atom"), table_column(tables, "", "point")] = False
        assert not np.any(unmeasured[:, :-1] & ~unmeasured[:, 1:])
        n_measured = table_column(tables, "_curve", "n_measured")
        assert n_measured.tolist() == np.count_nonzero(~unmeasured, axis=0).tolist()
        assert n_measured[-1] < n_measured[0]

    def test_pulse_lengths_reach_the_tables_as_python_floats(self, ref_cfg):
        # numpy scalars would be written as "np.float64(...)"
        rabi = rabi_scan(8, 1e-3)
        numpy_rabi = rabi_scan(np.int64(8), np.float64(1e-3))
        a = experiment_rabi(5, rabi, ref_cfg, master_seed=18)
        b = experiment_rabi(5, numpy_rabi, ref_cfg, master_seed=18)
        assert same_result(a, b)

    @pytest.mark.parametrize("seed", range(1, 11))
    def test_twenty_point_scan_fits_the_drive_not_its_alias(self, ref_cfg, seed):
        # 20 points over 3 ms resolve up to 3,167 Hz; they sample the 2,950 Hz
        # drive exactly as they sample its alias at 1/dt - 2,950 = 3,383 Hz, where
        # a frequency search that runs past the Nyquist limit can settle
        tables, summary = experiment_rabi(3000, rabi_scan(20, 3.0e-3), ref_cfg, master_seed=seed)
        times = table_column(tables, "_curve", "pulse_length")
        fit = fit_damped_sinusoid(times, table_column(tables, "_curve", "f2_fraction"))
        assert fit.parameters["frequency"] == summary["fit_frequency_hz"]
        assert summary["fit_converged"]
        sigma = math.sqrt(fit.covariance_diag["frequency"])
        assert abs(summary["fit_frequency_hz"] - REF_RABI.rabi_frequency) <= 3.0 * sigma

    @pytest.mark.parametrize("points, span, frequency", [
        # 50 points over 3 ms resolve up to 8,167 Hz; 9,000 Hz would be fitted as its alias
        pytest.param(50, 3e-3, 9000.0, id="9000-hz"),
        # 12 points over 3 ms resolve up to 1,833 Hz, below the reference drive
        pytest.param(12, 3e-3, REF_RABI.rabi_frequency, id="twelve-points"),
    ])
    def test_drive_at_or_above_the_nyquist_limit_is_rejected(self, points, span, frequency):
        # the scan the fit could not tell from its alias cannot be built, so no run simulates it
        with pytest.raises(ValueError, match="Nyquist"):
            RabiConfig(frequency, REF_RABI.decoherence_time, points, span)

    def test_nyquist_limit_is_exclusive(self):
        limit = 19 / (2 * 3e-3)   # 20 points over 3 ms
        with pytest.raises(ValueError, match="Nyquist"):
            RabiConfig(limit, REF_RABI.decoherence_time, 20, 3e-3)
        RabiConfig(limit * (1 - 1e-12), REF_RABI.decoherence_time, 20, 3e-3)

    def test_converged_fit_writes_its_variances(self, ref_cfg):
        tables, summary = experiment_rabi(312, REF_RABI, ref_cfg, master_seed=1)
        fit = fit_damped_sinusoid(table_column(tables, "_curve", "pulse_length"),
                                  table_column(tables, "_curve", "f2_fraction"))
        assert summary["fit_converged"]
        for name, variance in fit.covariance_diag.items():
            assert summary[f"fit_{name}_variance"] == variance > 0

    def test_fit_standard_errors_are_calibrated(self, ref_cfg):
        # z of the fitted frequency and decoherence time against the drive is near
        # standard normal over seeds: its mean over 50 seeds has sd 1/sqrt(50), and its sd
        # has sd about 0.10. The amplitude and offset are left out: their true values
        # rest on the exact bright-state error, which the race formula only approximates.
        truths = {"frequency": ("fit_frequency_hz", REF_RABI.rabi_frequency),
                  "decoherence_time": ("fit_decoherence_time_s", REF_RABI.decoherence_time)}
        z = {name: [] for name in truths}
        for seed in range(1, 51):
            _, summary = experiment_rabi(312, REF_RABI, ref_cfg, master_seed=seed)
            assert summary["fit_converged"]
            for name, (key, truth) in truths.items():
                z[name].append((summary[key] - truth) / math.sqrt(summary[f"fit_{name}_variance"]))
        for values in z.values():
            assert abs(np.mean(values)) <= 3.0 / math.sqrt(50)
            assert 0.7 <= np.std(values, ddof=1) <= 1.3

    def test_pulse_lengths_are_the_even_grid(self):
        # Python floats whatever types the points and span came as
        for points, span in ((8, 1e-3), (np.int64(50), np.float64(3e-3))):
            lengths = rabi_scan(points, span).pulse_lengths
            assert lengths == tuple(np.linspace(0.0, span, points).tolist())
            assert all(type(t) is float for t in lengths)
            assert lengths[0] == 0.0 and lengths[-1] == span

    def test_determinism_and_worker_independence(self, ref_cfg):
        rabi = rabi_scan(15, 1e-3)
        a = experiment_rabi(30, rabi, ref_cfg, master_seed=17, workers=1)
        b = experiment_rabi(30, rabi, ref_cfg, master_seed=17, workers=2)
        assert same_result(a, b)
