"""Detector model, Poisson tails, and the event-level channel of the probe oracle.

``poisson_times``, ``thin`` and ``merge`` live in ``tests/helpers.py``: they are
the building blocks of the event-level oracle that the probe kernel is checked
against, so their statistics are checked here.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from atomreadout.physics import poisson_tail_at_least
from helpers import merge, poisson_chisquare_pvalue, poisson_times, thin


def sorted_times(times):
    return np.asarray(sorted(times), dtype=float)


times_strategy = st.builds(
    sorted_times,
    st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=20),
)


class TestDetectorConfig:
    """The detector's one input, the net efficiency, is a field of the cycle config."""

    def test_detector_config_validation(self, ref_cfg):
        for eta in (0.0, -0.02, 1.5):
            with pytest.raises(ValueError):
                replace(ref_cfg, net_efficiency=eta)
        assert replace(ref_cfg, net_efficiency=1.0).net_efficiency == 1.0


class TestThinning:
    @given(times_strategy)
    def test_efficiency_one_is_identity(self, times):
        kept, dropped = thin(times, 1.0, np.random.default_rng(0))
        assert np.array_equal(kept, times)
        assert dropped.size == 0

    @given(times_strategy)
    def test_efficiency_zero_empties(self, times):
        kept, dropped = thin(times, 0.0, np.random.default_rng(0))
        assert kept.size == 0
        assert np.array_equal(dropped, times)

    @given(times_strategy, st.floats(min_value=0.0, max_value=1.0))
    def test_subset_and_ordered(self, times, eff):
        kept, dropped = thin(times, eff, np.random.default_rng(3))
        assert set(kept.tolist()) <= set(times.tolist())
        assert list(kept) == sorted(kept)
        assert np.array_equal(merge(kept, dropped), times)

    def test_binomial_mean_and_variance(self):
        # 1050 events at 2% efficiency: mean 21 kept, variance 20.58
        rng = np.random.default_rng(11)
        base = poisson_times(3.5e6, 300e-6, np.random.default_rng(5))[:1050]
        assert base.size == 1050
        trials = 100_000
        kept = np.array([thin(base, 0.02, rng)[0].size for t in range(trials)])
        mean, var = 1050 * 0.02, 1050 * 0.02 * 0.98
        assert abs(kept.mean() - mean) < 3.0 * np.sqrt(var / trials)
        assert abs(kept.var() - var) < 0.35  # ~3 sd of the sample variance

    def test_thinned_poisson_is_poisson_chisquare(self):
        # criterion-level distributional check on >= 1e5 samples
        rng = np.random.default_rng(17)
        counts = [
            thin(poisson_times(8.0, 1.0, rng), 0.25, rng)[0].size for _ in range(100_000)
        ]
        assert poisson_chisquare_pvalue(counts, 2.0) > 0.001


class TestPoissonTrace:
    def test_zero_rate_is_empty(self):
        assert poisson_times(0.0, 1.0, np.random.default_rng(0)).size == 0

    def test_dark_rate_mean(self):
        rng = np.random.default_rng(23)
        trials = 100_000
        counts = np.array([poisson_times(100.0, 1e-3, rng).size for _ in range(trials)])
        assert abs(counts.mean() - 0.1) < 3.0 * np.sqrt(0.1 / trials)

    def test_dark_state_background_mean(self):
        # 1000/s over 300 us reproduces the 0.3-count dark-state background
        rng = np.random.default_rng(29)
        trials = 100_000
        counts = np.array([poisson_times(1000.0, 300e-6, rng).size for _ in range(trials)])
        assert abs(counts.mean() - 0.3) < 3.0 * np.sqrt(0.3 / trials)


class TestMerge:
    @given(times_strategy)
    def test_merge_with_empty(self, times):
        empty = np.empty(0)
        assert np.array_equal(merge(times, empty), times)
        assert merge(empty, empty).size == 0

    @given(times_strategy, times_strategy)
    def test_commutative(self, a, b):
        assert np.array_equal(merge(a, b), merge(b, a))

    @given(times_strategy, times_strategy, times_strategy)
    @settings(max_examples=50)
    def test_associative(self, a, b, c):
        assert np.array_equal(merge(merge(a, b), c), merge(a, merge(b, c)))

    def test_counts_add(self):
        merged = merge(np.array([0.1, 0.4]), np.array([0.2]))
        assert merged.tolist() == [0.1, 0.2, 0.4]

    def test_superposition_is_poisson_chisquare(self):
        rng = np.random.default_rng(31)
        counts = [
            merge(poisson_times(0.8, 1.0, rng), poisson_times(1.0, 1.0, rng)).size
            for _ in range(100_000)
        ]
        assert poisson_chisquare_pvalue(counts, 1.8) > 0.001


class TestPoissonTail:
    def test_zero_threshold(self):
        assert poisson_tail_at_least(0, 5.0) == 1.0
        assert poisson_tail_at_least(0, 0.0) == 1.0

    def test_zero_mean(self):
        assert poisson_tail_at_least(3, 0.0) == 0.0

    def test_dark_count_window(self):
        assert poisson_tail_at_least(2, 0.1) == pytest.approx(
            4.678840160444474e-3, rel=1e-12
        )

    def test_background_window(self):
        assert poisson_tail_at_least(2, 0.3) == pytest.approx(
            3.693631311376678e-2, rel=1e-12
        )

    def test_single_count_background(self):
        assert poisson_tail_at_least(1, 0.3) == pytest.approx(
            0.2591817793182821, rel=1e-12
        )

    @pytest.mark.parametrize("mean", [0.01, 0.1, 0.3, 1.0, 3.7, 21.0, 35.0])
    def test_against_scipy_survival(self, mean):
        for k in range(0, 41):
            reference = float(stats.poisson.sf(k - 1, mean))
            if reference < 1e-250:
                continue
            assert poisson_tail_at_least(k, mean) == pytest.approx(reference, rel=1e-10)

    def test_tail_plus_cdf_is_one(self):
        for mean in (0.05, 0.3, 2.0, 21.0):
            for k in range(0, 30):
                below = float(stats.poisson.cdf(k - 1, mean))
                assert poisson_tail_at_least(k, mean) + below == pytest.approx(
                    1.0, abs=1e-12
                )

    @given(st.integers(min_value=0, max_value=60), st.floats(min_value=0, max_value=50))
    def test_nonincreasing_in_k(self, k, mean):
        assert poisson_tail_at_least(k + 1, mean) <= poisson_tail_at_least(k, mean)

    @given(
        st.integers(min_value=0, max_value=60),
        st.floats(min_value=0, max_value=50),
        st.floats(min_value=1e-6, max_value=10),
    )
    def test_nondecreasing_in_mean(self, k, mean, bump):
        assert poisson_tail_at_least(k, mean + bump) >= poisson_tail_at_least(k, mean)

    def test_negative_arguments_rejected(self):
        with pytest.raises(ValueError):
            poisson_tail_at_least(-1, 1.0)
        with pytest.raises(ValueError):
            poisson_tail_at_least(1, -1.0)
