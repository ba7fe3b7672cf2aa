import math
import os
from concurrent.futures import Future
from dataclasses import replace

import numpy as np
import pytest

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
    uniform_pulse_grid,
)
from atomreadout.fitting import fit_damped_sinusoid
from atomreadout.physics import F1, F2, analytic_f2_error, heating_per_scatter
from helpers import (
    binomial_3se,
    event_probe,
    same_result,
    survival_cells,
    table_column,
    two_sample_chisquare_pvalue,
)

ANALYTIC_F1_ERROR = 3.693631311376678e-2
KICK = heating_per_scatter()   # K per scattering event
REF_RABI = default_config().rabi_config()


def rabi_scan(points, span):
    """The reference drive over a different pulse grid."""
    return replace(REF_RABI, pulse_lengths=uniform_pulse_grid(points, span))


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

    def test_parallel_equals_serial(self, ref_cfg):
        serial = experiment_survival(24, 40, ref_cfg, master_seed=13, workers=1)
        parallel = experiment_survival(24, 40, ref_cfg, master_seed=13, workers=2)
        assert same_result(serial, parallel)

    def test_workers_capped_at_cpu_count(self, ref_cfg, monkeypatch):
        # an inline pool records its size and runs each task here: no process starts
        sizes, tasks = [], []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                tasks.append(args[:2])
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        monkeypatch.setattr(experiments, "BLOCK", 2)  # 12 blocks of rows
        capped = experiment_survival(24, 40, ref_cfg, master_seed=13, workers=10**6)
        assert sizes == [3]
        assert len(tasks) == 12  # 4 ranges of blocks per worker
        serial = experiment_survival(24, 40, ref_cfg, master_seed=13, workers=1)
        assert same_result(capped, serial)

    def test_cells_label_classification(self, ref_cfg):
        cfg = replace(ref_cfg, depump_hazard=0.0, background_mean=0.0, background_loss=0.0)
        tables, _ = experiment_survival(10, 20, cfg, master_seed=14)
        # noiseless bright cycles always classify bright
        assert (survival_cells(tables) == CELL_F2).all()


class TestMicrowavePulse:
    def test_zero_duration_is_identity(self):
        atoms = atoms_in(False, in_mf0=True, n=100)
        microwave_pulse(atoms, 0.0, REF_RABI, np.random.default_rng(0))
        assert not atoms.bright.any()

    def test_spectator_sublevels_inert(self):
        rng = np.random.default_rng(0)
        atoms = atoms_in(False, in_mf0=False, n=50)
        for _ in range(50):
            microwave_pulse(atoms, 1.7e-4, REF_RABI, rng)
            assert not atoms.bright.any()

    def test_pi_pulse_transfer_probability(self):
        rabi = REF_RABI
        t_pi = 1.0 / (2.0 * rabi.rabi_frequency)
        expected = 0.5 * (1.0 + math.exp(-t_pi / rabi.decoherence_time))
        assert transfer_probability(t_pi, rabi) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.962926, abs=1e-6)
        trials = 20_000
        atoms = atoms_in(False, in_mf0=True, n=trials)
        microwave_pulse(atoms, t_pi, rabi, np.random.default_rng(4))
        assert abs(atoms.bright.mean() - expected) < binomial_3se(expected, trials)

    def test_long_pulse_dephases_to_half(self):
        rabi = REF_RABI
        assert transfer_probability(1.0, rabi) == pytest.approx(0.5, abs=1e-6)


class TestRabiExperiment:
    def test_zero_duration_point_is_false_positive_floor(self, ref_cfg):
        tables, summary = experiment_rabi(150, REF_RABI, ref_cfg, master_seed=15)
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
        numpy_rabi = replace(rabi, pulse_lengths=tuple(np.asarray(rabi.pulse_lengths)))
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

    def test_grid_helpers(self):
        grid = uniform_pulse_grid(5, 1e-3)
        assert grid[0] == 0.0 and grid[-1] == pytest.approx(1e-3)
        with pytest.raises(ValueError):
            uniform_pulse_grid(1, 1e-3)
        with pytest.raises(ValueError):
            RabiConfig(rabi_frequency=-1.0, decoherence_time=2.2e-3, pulse_lengths=())

    def test_determinism_and_worker_independence(self, ref_cfg):
        rabi = rabi_scan(15, 1e-3)
        a = experiment_rabi(30, rabi, ref_cfg, master_seed=17, workers=1)
        b = experiment_rabi(30, rabi, ref_cfg, master_seed=17, workers=2)
        assert same_result(a, b)
