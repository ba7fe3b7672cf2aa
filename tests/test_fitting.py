import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from atomreadout.fitting import (
    binomial_interval,
    build_histogram,
    fit_damped_sinusoid,
    fit_exponential,
)
from helpers import poisson_chisquare_pvalue


def sinusoid(t, offset, amplitude, frequency, tau):
    return offset + 0.5 * amplitude * (
        1.0 - np.cos(2.0 * np.pi * frequency * t) * np.exp(-t / tau)
    )


class TestBuildHistogram:
    def test_empty(self):
        assert build_histogram([]).tolist() == []

    def test_small_example(self):
        assert build_histogram([0, 0, 1, 2]).tolist() == [2, 1, 1]

    def test_unit_bins_from_zero(self):
        # a count that never occurs keeps its bin, at frequency 0
        assert build_histogram(np.array([3, 1])).tolist() == [0, 1, 0, 1]

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            build_histogram([-1])

    def test_poisson_samples_match_pmf(self):
        rng = np.random.default_rng(3)
        n = 100_000
        samples = rng.poisson(0.3, size=n)
        frequencies = build_histogram(samples)
        assert frequencies.sum() == n
        for count, expected in ((0, 0.7408182206817179), (1, 0.22224546620451535)):
            se = math.sqrt(expected * (1 - expected) / n)
            assert abs(frequencies[count] / n - expected) < 3 * se
        assert poisson_chisquare_pvalue(samples, 0.3) > 0.001


class TestBinomialInterval:
    def test_zero_successes_low_edge(self):
        low, high = binomial_interval(0, 500)
        assert low == 0.0
        assert high > 0.0

    def test_all_successes_high_edge(self):
        low, high = binomial_interval(500, 500)
        assert high == 1.0
        assert low < 1.0

    def test_reference_bright_error_interval(self):
        low, high = binomial_interval(117, 2127)
        assert low == pytest.approx(0.04609563707454016, rel=1e-9)
        assert high == pytest.approx(0.06552292461438368, rel=1e-9)
        assert low < 0.055 < high

    @given(st.integers(min_value=0, max_value=200), st.integers(min_value=1, max_value=200))
    def test_contains_point_estimate(self, successes, trials):
        successes = min(successes, trials)
        low, high = binomial_interval(successes, trials)
        assert low <= successes / trials <= high

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            binomial_interval(5, 0)
        with pytest.raises(ValueError):
            binomial_interval(5, 4)


class TestFitExponential:
    def test_noiseless_round_trip(self):
        x = np.arange(0, 101, dtype=float)
        fit = fit_exponential(x, np.exp(-x / 86.0))
        assert fit.converged
        assert fit.parameters["lifetime"] == pytest.approx(86.0, rel=1e-6)

    def test_loss_per_cycle_report(self):
        x = np.arange(0, 101, dtype=float)
        fit = fit_exponential(x, np.exp(-x / 86.0))
        assert fit.parameters["loss_per_cycle"] == pytest.approx(
            1.0 - math.exp(-1.0 / 86.0), rel=1e-9
        )
        assert fit.parameters["loss_per_cycle"] == pytest.approx(0.0115606, rel=1e-4)

    def test_constant_data_rejected(self):
        with pytest.raises(ValueError):
            fit_exponential([0.0, 1.0, 2.0], [1.0, 1.0, 1.0])

    def test_out_of_range_y_rejected(self):
        with pytest.raises(ValueError):
            fit_exponential([0.0, 1.0, 2.0], [1.0, 0.5, 0.0])

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            fit_exponential([0.0, 1.0], [1.0, 0.5])

    def test_noisy_lifetime_recovery(self):
        rng = np.random.default_rng(8)
        x = np.arange(0, 101, dtype=float)
        y = np.clip(np.exp(-x / 86.0) + rng.normal(0, 0.02, x.size), 1e-6, 1.0)
        fit = fit_exponential(x, y)
        assert fit.parameters["lifetime"] == pytest.approx(86.0, rel=0.10)
        assert fit.covariance_diag["lifetime"] > 0.0


class TestFitDampedSinusoid:
    def test_noiseless_round_trip(self):
        t = np.linspace(0.0, 3e-3, 50)
        fit = fit_damped_sinusoid(t, sinusoid(t, 0.0, 1.0 / 3.0, 2950.0, 2.2e-3))
        assert fit.converged
        assert fit.parameters["amplitude"] == pytest.approx(1.0 / 3.0, rel=1e-6)
        assert fit.parameters["frequency"] == pytest.approx(2950.0, rel=1e-6)
        assert fit.parameters["decoherence_time"] == pytest.approx(2.2e-3, rel=1e-6)
        assert abs(fit.parameters["offset"]) < 1e-9

    def test_noiseless_with_offset(self):
        t = np.linspace(0.0, 3e-3, 50)
        fit = fit_damped_sinusoid(t, sinusoid(t, 0.037, 0.3027, 2950.0, 2.2e-3))
        assert fit.parameters["offset"] == pytest.approx(0.037, rel=1e-6)
        assert fit.parameters["amplitude"] == pytest.approx(0.3027, rel=1e-6)

    def test_two_period_short_span(self):
        t = np.linspace(0.0, 6.8e-4, 50)
        fit = fit_damped_sinusoid(t, sinusoid(t, 0.0, 1.0 / 3.0, 2950.0, 2.2e-3))
        assert fit.parameters["frequency"] == pytest.approx(2950.0, rel=1e-6)

    def test_noisy_frequency_within_two_percent(self):
        # noise scale of a 312-atom binomial ensemble
        rng = np.random.default_rng(5)
        t = np.linspace(0.0, 3e-3, 50)
        y = sinusoid(t, 0.037, 0.3027, 2950.0, 2.2e-3) + rng.normal(0, 0.02, t.size)
        fit = fit_damped_sinusoid(t, y)
        assert fit.parameters["frequency"] == pytest.approx(2950.0, rel=0.02)

    def test_constant_data_degenerates_gracefully(self):
        t = np.linspace(0.0, 3e-3, 50)
        fit = fit_damped_sinusoid(t, np.full(t.size, 0.25))
        amp = fit.parameters["amplitude"]
        var = fit.covariance_diag["amplitude"]
        assert (not fit.converged) or abs(amp) <= max(3.0 * math.sqrt(var), 1e-9)

    def test_residual_history_monotone(self):
        rng = np.random.default_rng(9)
        t = np.linspace(0.0, 3e-3, 50)
        y = sinusoid(t, 0.03, 0.3, 2950.0, 2.2e-3) + rng.normal(0, 0.03, t.size)
        fit = fit_damped_sinusoid(t, y)
        history = fit.residual_history
        assert all(b <= a for a, b in zip(history, history[1:]))

    def test_time_shift_invariance(self):
        t = np.linspace(0.0, 3e-3, 50)
        y = sinusoid(t, 0.02, 0.31, 2950.0, 2.2e-3)
        base = fit_damped_sinusoid(t, y)
        shifted = fit_damped_sinusoid(t + 0.0137, y)
        for name, value in base.parameters.items():
            assert shifted.parameters[name] == pytest.approx(value, rel=1e-6, abs=1e-12)

    def test_converged_implies_stationary(self):
        t = np.linspace(0.0, 3e-3, 50)
        fit = fit_damped_sinusoid(t, sinusoid(t, 0.0, 0.33, 2950.0, 2.2e-3))
        assert fit.converged
        assert fit.gradient_norm <= 1e-6

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            fit_damped_sinusoid([0.0, 1.0, 2.0], [0.0, 0.5, 1.0])


@settings(max_examples=25, deadline=None)
@given(
    st.floats(min_value=20.0, max_value=500.0),
    st.floats(min_value=0.05, max_value=0.45),
)
def test_exponential_round_trip_property(lifetime, amplitude_unused):
    x = np.arange(0, 101, dtype=float)
    fit = fit_exponential(x, np.exp(-x / lifetime))
    assert fit.parameters["lifetime"] == pytest.approx(lifetime, rel=1e-5)
