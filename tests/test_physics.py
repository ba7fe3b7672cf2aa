import math
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st
from scipy import stats

from atomreadout.physics import (
    RB87_D2,
    SpeciesConstants,
    analytic_f1_error,
    depump_hazard_per_scatter,
    depump_suppression,
    heating_for_scatters,
    heating_per_scatter,
    misdetection_probability,
    poisson_tail_at_least,
    required_mean_photons,
    scatters_for_detected,
)


class TestMisdetection:
    def test_zero_mean_is_certain_miss(self):
        assert misdetection_probability(0.0) == 1.0

    def test_mean_5_beats_one_percent(self):
        p = misdetection_probability(5.0)
        assert p == pytest.approx(6.737946999085467e-3, rel=1e-12)
        assert p < 0.01

    def test_mean_7_beats_tenth_percent(self):
        p = misdetection_probability(7.0)
        assert p == pytest.approx(9.118819655545162e-4, rel=1e-12)
        assert p < 0.001

    def test_negative_mean_rejected(self):
        with pytest.raises(ValueError):
            misdetection_probability(-0.1)


class TestPoissonTailAtLargeMeans:
    """Past a mean of about 745, exp(-mean) underflows to 0; the tail must not follow it."""

    @pytest.mark.parametrize("mean", [700.0, 740.0, 800.0, 1000.0])
    def test_against_scipy_survival(self, mean):
        for k in range(1, int(1.2 * mean) + 1):
            reference = float(stats.poisson.sf(k - 1, mean))
            assert poisson_tail_at_least(k, mean) == pytest.approx(reference, rel=1e-10), k

    @pytest.mark.parametrize("mean", [math.nan, math.inf])
    def test_non_finite_mean_rejected(self, mean):
        with pytest.raises(ValueError, match="finite"):
            poisson_tail_at_least(2, mean)
        with pytest.raises(ValueError, match="finite"):
            analytic_f1_error(2, mean)


class TestRequiredMeanPhotons:
    def test_one_percent_target(self):
        assert required_mean_photons(0.01) == pytest.approx(4.605170185988091, rel=1e-12)

    def test_tenth_percent_target(self):
        assert required_mean_photons(0.001) == pytest.approx(6.907755278982137, rel=1e-12)

    def test_log_inverse(self):
        assert required_mean_photons(math.exp(-1.0)) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 1.5])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError):
            required_mean_photons(bad)

    @given(st.floats(min_value=1e-9, max_value=1.0 - 1e-9))
    def test_round_trip_identity(self, target):
        back = misdetection_probability(required_mean_photons(target))
        assert back == pytest.approx(target, rel=1e-12)


class TestDepumpSuppression:
    def test_on_resonance(self):
        assert depump_suppression(0.0) == pytest.approx(7861.777777777778, rel=1e-12)

    def test_one_linewidth(self):
        assert depump_suppression(6.0e6) == pytest.approx(1572.3555555555556, rel=1e-12)

    def test_two_linewidths(self):
        assert depump_suppression(12.0e6) == pytest.approx(462.4575163398693, rel=1e-12)

    @pytest.mark.parametrize(
        "detuning,quoted", [(0.0, 8000.0), (6.0e6, 1600.0), (12.0e6, 450.0)]
    )
    def test_matches_quoted_round_numbers_within_15_percent(self, detuning, quoted):
        assert abs(depump_suppression(detuning) / quoted - 1.0) < 0.15

    @given(st.floats(min_value=-5e7, max_value=5e7))
    def test_even_in_detuning(self, detuning):
        assert depump_suppression(detuning) == depump_suppression(-detuning)

    def test_resonance_is_global_maximum(self):
        peak = depump_suppression(0.0)
        for detuning in (1e3, 1e5, 1e6, 3e6, 2e7):
            assert depump_suppression(detuning) < peak

    @given(st.floats(min_value=0.0, max_value=4e7), st.floats(min_value=1e3, max_value=1e7))
    def test_monotone_decreasing_in_magnitude(self, detuning, step):
        assert depump_suppression(detuning + step) < depump_suppression(detuning)


class TestDepumpHazard:
    def test_direct_quotient(self):
        assert depump_hazard_per_scatter(7861.8, 0.5) == pytest.approx(6.35987e-5, rel=1e-4)

    def test_closed_transition(self):
        assert depump_hazard_per_scatter(1234.0, 0.0) == 0.0

    def test_calibrated_suppression_point(self):
        # the implied suppression of the calibrated hazard, q = branching/S
        assert depump_hazard_per_scatter(854.0, 0.5) == pytest.approx(5.854801e-4, rel=1e-4)

    def test_suppression_below_one_rejected(self):
        with pytest.raises(ValueError):
            depump_hazard_per_scatter(0.5, 0.5)

    def test_bad_branching_rejected(self):
        with pytest.raises(ValueError):
            depump_hazard_per_scatter(100.0, 1.5)


class TestHeating:
    def test_single_scatter_is_two_recoils(self):
        assert heating_per_scatter() == pytest.approx(723.92e-9, rel=1e-12)

    def test_250_scatters_budget(self):
        # 181.0 uK for the full fixed-window photon budget
        assert heating_for_scatters(250) == pytest.approx(1.8098e-4, rel=1e-12)

    def test_zero_scatters(self):
        assert heating_for_scatters(0) == 0.0

    @given(st.integers(min_value=0, max_value=10**6))
    def test_linear_in_scatters(self, n):
        assert heating_for_scatters(n) == n * heating_per_scatter()

    def test_scatters_to_trap_depth(self):
        assert math.ceil(2e-3 / heating_per_scatter()) == 2763


class TestScattersForDetected:
    def test_reference_budget(self):
        assert scatters_for_detected(5.0, 0.02) == pytest.approx(250.0, rel=1e-12)

    def test_perfect_detector(self):
        assert scatters_for_detected(21.0, 1.0) == 21.0

    def test_reference_window_rate(self):
        scatters = scatters_for_detected(21.0, 0.02)
        assert scatters == pytest.approx(1050.0, rel=1e-12)
        assert scatters / 300e-6 == pytest.approx(3.5e6, rel=1e-12)

    def test_zero_efficiency_rejected(self):
        with pytest.raises(ValueError):
            scatters_for_detected(5.0, 0.0)


class TestDomainTypes:
    def test_default_species_is_valid(self):
        assert RB87_D2.linewidth_gamma == 6.0e6
        assert RB87_D2.excited_splitting_delta23 == 266.0e6

    def test_negative_linewidth_rejected(self):
        with pytest.raises(ValueError):
            replace(RB87_D2, linewidth_gamma=-1.0)

    def test_splitting_below_linewidth_rejected(self):
        with pytest.raises(ValueError):
            SpeciesConstants(linewidth_gamma=6e6, excited_splitting_delta23=5e6,
                             recoil_temperature=361.96e-9)
