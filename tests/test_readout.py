import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from atomreadout.experiments import _simulate_probe
from atomreadout.physics import depump_hazard_per_scatter, depump_suppression
from atomreadout.readout import (
    ADAPTIVE_STOP,
    FIXED_WINDOW,
    ReadoutPolicy,
    analytic_f1_error,
    analytic_f2_error,
    calibrate_depump,
    implied_effective_detuning,
)
from helpers import markov_f2_error, stop_rule

ADAPTIVE = ReadoutPolicy(ADAPTIVE_STOP, 2, 300e-6)
FIXED = ReadoutPolicy(FIXED_WINDOW, 2, 300e-6)

HAZARD_GRID = [
    (eta, q, nd)
    for eta in (0.01, 0.02, 0.05)
    for q in (1e-4, 6e-4, 2e-3)
    for nd in (1, 2, 3)
]


class TestPolicy:
    def test_threshold_at_least_one(self):
        with pytest.raises(ValueError):
            ReadoutPolicy(ADAPTIVE_STOP, 0, 1e-3)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ReadoutPolicy("mystery", 2, 1e-3)


def counts_at(*times):
    return np.asarray(times, dtype=float)


def resolve(detections, policy):
    """The oracle's stop rule on given detection times of an atom that never depumps."""
    outcome = stop_rule(counts_at(), detections, math.inf, policy)
    return outcome.called_bright, outcome.detected_counts, outcome.elapsed


class TestClassifyFixed:
    def test_zero_counts_is_dark(self):
        assert resolve(counts_at(), FIXED) == (False, 0, FIXED.max_duration)

    def test_boundary_inclusive(self):
        assert resolve(counts_at(10e-6, 250e-6), FIXED)[0]

    def test_typical_bright_signal(self):
        called, counts, elapsed = resolve(np.linspace(1e-6, 290e-6, 21), FIXED)
        assert (called, counts, elapsed) == (True, 21, FIXED.max_duration)


class TestRunAdaptive:
    def test_empty_source(self):
        called, counts, elapsed = resolve(counts_at(), ADAPTIVE)
        assert not called
        assert counts == 0
        assert elapsed == ADAPTIVE.max_duration

    def test_stops_at_second_count(self):
        called, counts, elapsed = resolve(counts_at(10e-6, 40e-6, 200e-6), ADAPTIVE)
        assert called
        assert counts == 2
        assert elapsed == pytest.approx(40e-6)

    def test_scatter_and_depump_tally(self):
        # event oracle: a silent scatter, the depumping scatter, then a background count
        outcome = stop_rule(
            counts_at(5e-6, 8e-6), counts_at(20e-6), 8e-6, ReadoutPolicy(ADAPTIVE_STOP, 1, 300e-6)
        )
        assert outcome.scatters == 2
        assert outcome.depumped
        assert outcome.called_bright
        assert outcome.elapsed == 20e-6

    def test_mean_stop_time_is_second_arrival(self, ref_cfg):
        # signal mean 21 per 300 us -> detection rate 70 kHz, Erlang-2 mean 28.6 us
        cfg = replace(
            ref_cfg, depump_hazard=0.0, probe=replace(ref_cfg.probe, background_mean_per_window=0.0)
        )
        assert cfg.probe.scatter_rate * cfg.net_efficiency == pytest.approx(70_000.0)
        trials = 100_000
        rng = np.random.default_rng(7)
        elapsed = _simulate_probe(np.ones(trials, dtype=bool), cfg, rng).elapsed
        assert abs(elapsed.mean() - 2.0 / 70_000.0) / (2.0 / 70_000.0) < 0.05

    def test_agrees_with_fixed_window_when_threshold_reached(self, ref_cfg):
        # the adaptive rule can stop early but never change the decision: both
        # policies see the same seeded draws, so the same first detections
        rng = np.random.default_rng(13)
        eta = ref_cfg.net_efficiency
        bright = np.ones(50, dtype=bool)
        for _ in range(200):
            probe = replace(ref_cfg.probe, scatter_rate=rng.uniform(1e3, 3e4) / eta)
            seed = int(rng.integers(2**63))
            adaptive = _simulate_probe(
                bright, replace(ref_cfg, probe=probe, policy=ADAPTIVE), np.random.default_rng(seed)
            )
            fixed = _simulate_probe(
                bright, replace(ref_cfg, probe=probe, policy=FIXED), np.random.default_rng(seed)
            )
            reached = fixed.detected_counts >= FIXED.threshold_counts
            assert np.array_equal(adaptive.called_bright, fixed.called_bright)
            assert np.array_equal(adaptive.called_bright, reached)
            assert np.all(adaptive.detected_counts[reached] == ADAPTIVE.threshold_counts)
            assert np.all(adaptive.elapsed[reached] <= fixed.elapsed[reached])
            missed = ~reached
            assert np.array_equal(adaptive.detected_counts[missed], fixed.detected_counts[missed])
            assert np.array_equal(adaptive.elapsed[missed], fixed.elapsed[missed])


class TestAnalyticF1Error:
    def test_reference_background(self):
        assert analytic_f1_error(ADAPTIVE, 0.3) == pytest.approx(
            3.693631311376678e-2, rel=1e-12
        )

    def test_zero_background(self):
        assert analytic_f1_error(ADAPTIVE, 0.0) == 0.0

    def test_single_count_threshold(self):
        policy = ReadoutPolicy(ADAPTIVE_STOP, 1, 300e-6)
        assert analytic_f1_error(policy, 0.3) == pytest.approx(0.2591817793182821, rel=1e-12)


class TestAnalyticF2Error:
    def test_zero_hazard(self):
        assert analytic_f2_error(0.02, 0.0, 2) == 0.0

    def test_calibrated_operating_point(self):
        q = calibrate_depump(0.055, 0.02, 2)
        assert analytic_f2_error(0.02, q, 2) == pytest.approx(0.055, rel=1e-12)

    def test_unshifted_resonance_operating_point(self):
        q = depump_hazard_per_scatter(depump_suppression(0.0), 0.5)
        assert analytic_f2_error(0.02, q, 2) == pytest.approx(6.203672779227e-3, rel=1e-9)

    @pytest.mark.parametrize("eta,q,nd", HAZARD_GRID)
    def test_matches_markov_chain_oracle(self, eta, q, nd):
        assert analytic_f2_error(eta, q, nd) == pytest.approx(
            markov_f2_error(eta, q, nd), abs=1e-9
        )

    def test_strictly_increasing_in_hazard(self):
        errs = [analytic_f2_error(0.02, q, 2) for q in (1e-5, 1e-4, 1e-3, 1e-2)]
        assert all(a < b for a, b in zip(errs, errs[1:]))

    def test_strictly_increasing_in_threshold(self):
        errs = [analytic_f2_error(0.02, 6e-4, nd) for nd in (1, 2, 3, 5)]
        assert all(a < b for a, b in zip(errs, errs[1:]))

    def test_strictly_decreasing_in_efficiency(self):
        errs = [analytic_f2_error(eta, 6e-4, 2) for eta in (0.01, 0.02, 0.05, 0.2)]
        assert all(a > b for a, b in zip(errs, errs[1:]))


class TestCalibrateDepump:
    def test_reference_calibration(self):
        assert calibrate_depump(0.055, 0.02, 2) == pytest.approx(5.854897907608052e-4, rel=1e-12)

    def test_zero_target(self):
        assert calibrate_depump(0.0, 0.02, 2) == 0.0

    def test_matches_bisection_oracle(self):
        target, eta, nd = 0.055, 0.02, 2
        lo, hi = 0.0, 0.5
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if analytic_f2_error(eta, mid, nd) < target:
                lo = mid
            else:
                hi = mid
        assert calibrate_depump(target, eta, nd) == pytest.approx(0.5 * (lo + hi), rel=1e-10)

    @given(st.floats(min_value=1e-8, max_value=0.1))
    @settings(max_examples=200)
    def test_round_trip_identity_on_hazards(self, hazard):
        error = analytic_f2_error(0.02, hazard, 2)
        assert calibrate_depump(error, 0.02, 2) == pytest.approx(hazard, rel=1e-10)

    def test_unreachable_target_rejected(self):
        with pytest.raises(ValueError):
            calibrate_depump(1.0 - 1e-12, 0.02, 2)

    def test_perfect_detector_rejected(self):
        with pytest.raises(ValueError):
            calibrate_depump(0.05, 1.0, 2)


class TestImpliedDetuning:
    def test_calibrated_hazard_implies_lightshifted_detuning(self):
        q = calibrate_depump(0.055, 0.02, 2)
        detuning = implied_effective_detuning(q, 0.5)
        assert detuning == pytest.approx(8.5938e6, rel=1e-3)
        # implied suppression sits near 854
        assert 0.5 / q == pytest.approx(853.99, rel=1e-3)

    def test_round_trips_through_suppression(self):
        q = 2.3e-4
        detuning = implied_effective_detuning(q, 0.5)
        assert depump_hazard_per_scatter(depump_suppression(detuning), 0.5) == pytest.approx(
            q, rel=1e-12
        )

    def test_hazard_below_resonant_floor_rejected(self):
        with pytest.raises(ValueError):
            implied_effective_detuning(1e-9, 0.5)
