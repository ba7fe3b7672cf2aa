import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import least_squares

from atomreadout.config import DEFAULT_SEED, default_config
from atomreadout.experiments import experiment_rabi
from atomreadout.fitting import (
    BIN_SLICE,
    FitResult,
    binomial_interval,
    build_histogram,
    fit_damped_sinusoid,
    fit_exponential,
)
from helpers import poisson_chisquare_pvalue, table_column, traced_peak


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

    def test_non_integer_counts_rejected(self):
        # a cast would bin 1.7 as 1
        with pytest.raises(ValueError, match="integers"):
            build_histogram(np.array([1.7]))

    @pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int32, np.int64])
    def test_slices_bin_as_one_bincount(self, dtype):
        # longer than two slices, with the largest count only in the last one
        rng = np.random.default_rng(2)
        counts = rng.integers(0, 50, 2 * BIN_SLICE + 7).astype(dtype)
        counts[-1] = 120
        frequencies = build_histogram(counts)
        assert frequencies.dtype == np.intp
        assert frequencies.tolist() == np.bincount(counts.astype(np.int64)).tolist()

    def test_a_negative_count_past_the_first_slice_is_rejected(self):
        counts = np.zeros(BIN_SLICE + 3, np.int8)
        counts[-1] = -1
        with pytest.raises(ValueError, match="nonnegative"):
            build_histogram(counts)

    def test_binning_holds_no_wide_copy_of_its_input(self):
        # one int64 copy of a million counts would take 8 MB
        counts = np.random.default_rng(4).integers(0, 3, 1_000_000).astype(np.uint8)
        frequencies, peak = traced_peak(lambda: build_histogram(counts))
        assert frequencies.sum() == counts.size
        assert peak <= 16 * BIN_SLICE   # two slices' intp copies
        assert peak < 8_000_000 // 20

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


def expected_losses(lifetime, cycles=100, atoms=1000.0):
    """The expected (atoms lost, cycles at risk) of a geometric loss over ``cycles``."""
    p = 1.0 - math.exp(-1.0 / lifetime)
    lost = atoms * (1.0 - (1.0 - p) ** cycles)
    return lost, lost / p


class TestFitExponential:
    def test_noiseless_round_trip(self):
        fit = fit_exponential(*expected_losses(86.0))
        assert fit.converged and fit.iterations == 0
        assert fit.parameters["lifetime"] == pytest.approx(86.0, rel=1e-12)

    def test_loss_per_cycle_report(self):
        fit = fit_exponential(*expected_losses(86.0))
        assert fit.parameters["loss_per_cycle"] == pytest.approx(
            1.0 - math.exp(-1.0 / 86.0), rel=1e-12
        )
        assert fit.parameters["loss_per_cycle"] == pytest.approx(0.0115606, rel=1e-4)

    def test_constant_data_rejected(self):
        # a survival curve that stays at 1: no atom lost
        with pytest.raises(ValueError):
            fit_exponential(0, 400)

    def test_every_atom_lost_in_its_first_cycle_rejected(self):
        # no cycle completed: the loss per cycle is 1 and the lifetime 0
        with pytest.raises(ValueError):
            fit_exponential(40, 40)
        with pytest.raises(ValueError):
            fit_exponential(41, 40)

    def test_fisher_variance(self):
        lost, at_risk = 30, 2500
        fit = fit_exponential(lost, at_risk)
        p = lost / at_risk
        assert fit.parameters["loss_per_cycle"] == p
        assert fit.covariance_diag["loss_per_cycle"] == pytest.approx(p * (1 - p) / at_risk)
        # the delta method, with dL/dp by central difference
        h = 1e-7
        slope = (-1 / math.log(1 - p - h) + 1 / math.log(1 - p + h)) / (2 * h)
        assert fit.covariance_diag["lifetime"] == pytest.approx(
            slope**2 * p * (1 - p) / at_risk, rel=1e-6
        )

    def test_noisy_lifetime_recovery(self):
        # 1,000 atoms watched for 100 cycles: each is lost at a geometric cycle
        rng = np.random.default_rng(8)
        loss_cycle = rng.geometric(1.0 - math.exp(-1.0 / 86.0), size=1000)
        lost = int(np.count_nonzero(loss_cycle <= 100))
        at_risk = int(np.minimum(loss_cycle, 100).sum())
        fit = fit_exponential(lost, at_risk)
        sd = math.sqrt(fit.covariance_diag["lifetime"])
        assert abs(fit.parameters["lifetime"] - 86.0) <= 3.0 * sd
        assert sd == pytest.approx(86.0 / math.sqrt(lost), rel=0.1)   # L^2 sqrt(p / E)


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

    def test_unevenly_spaced_times_rejected(self):
        # the frequency seed is a spectrum, which needs a uniform grid
        t = np.linspace(0.0, 3e-3, 50)
        t[10] += 1e-6
        with pytest.raises(ValueError, match="evenly spaced"):
            fit_damped_sinusoid(t, sinusoid(t, 0.0, 1.0 / 3.0, 2950.0, 2.2e-3))

    @pytest.mark.parametrize("where, value", [("p", math.nan), ("t", math.inf)])
    def test_non_finite_input_rejected(self, where, value):
        # not left to LAPACK, which would print to stderr and fail to converge
        t = np.linspace(0.0, 3e-3, 50)
        data = {"t": t, "p": sinusoid(t, 0.0, 1.0 / 3.0, 2950.0, 2.2e-3)}
        data[where][20] = value
        with pytest.raises(ValueError, match="must be finite"):
            fit_damped_sinusoid(data["t"], data["p"])

    @pytest.mark.parametrize("t, p", [
        pytest.param(np.linspace(0.0, 1e-200, 50), np.sin(np.arange(50.0)), id="span-1e-200"),
        pytest.param(np.arange(50.0), 1e307 * np.sin(np.arange(50.0)), id="data-1e307"),
    ])
    def test_input_beyond_float64_scale_rejected(self, t, p, capfd):
        # tau**2 underflows to 0 in the tau column, and the spectrum overflows: a clear
        # error in place of floating-point warnings and LAPACK lines on stderr
        before = np.geterr()
        with pytest.raises(ValueError, match="scaled beyond what the fit can represent"):
            fit_damped_sinusoid(t, p)
        assert np.geterr() == before
        assert capfd.readouterr().err == ""


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=20.0, max_value=500.0))
def test_exponential_round_trip_property(lifetime):
    fit = fit_exponential(*expected_losses(lifetime))
    assert fit.parameters["lifetime"] == pytest.approx(lifetime, rel=1e-9)


def _pinned_fit_inputs():
    """The fits whose every ``FitResult`` field is pinned, as (fitter, x, y) by case."""
    t = np.linspace(0.0, 3e-3, 50)
    curve = sinusoid(t, 0.037, 0.3027, 2950.0, 2.2e-3)
    t8 = np.linspace(0.0, 3e-3, 8)
    noise8 = np.array([0.01, -0.02, 0.0, 0.015, -0.01, 0.02, -0.005, 0.0])
    return {
        "sinusoid-noise-free": (fit_damped_sinusoid, t, curve),
        "sinusoid-noisy": (
            fit_damped_sinusoid, t, curve + np.random.default_rng(5).normal(0, 0.02, t.size)
        ),
        "sinusoid-constant": (fit_damped_sinusoid, t, np.full(t.size, 0.25)),
        # 8 samples over 3 ms resolve up to 3.5 cycles per span (1,167 Hz): the fit finds
        # 392 Hz, not the 6,608 Hz alias (3/dt - 392 Hz) that leaves the same residual
        "sinusoid-8-points": (
            fit_damped_sinusoid, t8, sinusoid(t8, 0.03, 0.3, 400.0, 2.2e-3) + noise8
        ),
    }


# Every field of each fit, as the solver computes it on this platform's numpy. The
# table digests see only the parameters, ``converged`` and ``residual_norm``; a
# change that means to alter the solver's steps updates these.
PINNED_FITS = {
    "sinusoid-noise-free": FitResult(
        parameters={
            "offset": 0.03700000000000003, "amplitude": 0.30269999999999997,
            "frequency": 2950.0, "decoherence_time": 0.002200000000000002,
        },
        covariance_diag={
            "offset": 1.6028438992929015e-34, "amplitude": 6.091418395471634e-34,
            "frequency": 5.777227399642755e-29, "decoherence_time": 1.2399993773580523e-37,
        },
        residual_norm=1.6551843842577912e-16,
        converged=True,
        iterations=6,
        residual_history=(
            0.04622638655616031, 0.020392184665602813, 0.0018516606154163622,
            1.8442905181310143e-05, 1.8800547871871574e-09, 1.6551843842577912e-16,
        ),
        gradient_norm=0.0,
    ),
    "sinusoid-noisy": FitResult(
        parameters={
            "offset": 0.009799616914250173, "amplitude": 0.3446816003686911,
            "frequency": 2952.3780659787926, "decoherence_time": 0.0018979599942424894,
        },
        covariance_diag={
            "offset": 8.157352805187942e-05, "amplitude": 0.0003114131981668237,
            "frequency": 27.88124454223478, "decoherence_time": 3.148237425946945e-08,
        },
        residual_norm=0.11434582567534686,
        converged=True,
        iterations=11,
        residual_history=(
            0.14827483641358355, 0.1448703155145182, 0.11577344283663654,
            0.11434926932374755, 0.11434583497485963, 0.11434582570800611,
            0.1143458256754838, 0.11434582567534765, 0.11434582567534711,
            0.11434582567534692, 0.11434582567534686,
        ),
        gradient_norm=1.5787500697971448e-10,
    ),
    "sinusoid-constant": FitResult(
        parameters={
            "offset": 0.25000000000000006, "amplitude": -3.294347428325445e-17,
            "frequency": 5.104166666666667, "decoherence_time": 0.003,
        },
        covariance_diag={
            "offset": 3.3022823862492303e-34, "amplitude": 7.793604144818729e-33,
            "frequency": 7.708395029801707e-72, "decoherence_time": 3.739639203573766e-61,
        },
        residual_norm=3.925231146709438e-16,
        converged=True,
        iterations=1,
        residual_history=(
            3.925231146709438e-16,
        ),
        gradient_norm=0.0,
    ),
    "sinusoid-8-points": FitResult(
        parameters={
            "offset": 0.031769941084380984, "amplitude": 0.2995240138868752,
            "frequency": 392.2012362477001, "decoherence_time": 0.002291842626631219,
        },
        covariance_diag={
            "offset": 0.0002440238793334426, "amplitude": 0.0009980451150444973,
            "frequency": 168.57597652922786, "decoherence_time": 2.9320855896348984e-07,
        },
        residual_norm=0.03349431521783393,
        converged=True,
        iterations=9,
        residual_history=(
            0.038083633627221135, 0.034417363170653886, 0.03349545605760441,
            0.033494317825837255, 0.03349431522423673, 0.033494315217850436,
            0.03349431521783403, 0.03349431521783398, 0.03349431521783393,
        ),
        gradient_norm=1.8768837021847823e-09,
    ),
}



@pytest.mark.parametrize("case", sorted(PINNED_FITS))
def test_fit_result_is_pinned(case):
    fitter, x, y = _pinned_fit_inputs()[case]
    assert fitter(x, y) == PINNED_FITS[case]


def _simulated_curve(ref_cfg, atoms, rabi, seed):
    tables, _ = experiment_rabi(atoms, rabi, ref_cfg, seed)
    return (table_column(tables, "_curve", "pulse_length"),
            table_column(tables, "_curve", "f2_fraction"))


@pytest.mark.parametrize("case", [*sorted(PINNED_FITS), "criterion-5", "twenty-points"])
def test_sinusoid_fit_agrees_with_an_independent_optimiser(case, ref_cfg):
    # MINPACK's Levenberg-Marquardt over all four parameters, started from the fit's own
    # answer and run to its tolerance floor, finds nothing better
    rabi = default_config().rabi_config()
    if case == "criterion-5":
        t, y = _simulated_curve(ref_cfg, 3120, rabi, DEFAULT_SEED)
    elif case == "twenty-points":   # the alias fixture of test_experiments, at seed 1
        t, y = _simulated_curve(ref_cfg, 3000, replace(rabi, points=20, span=3e-3), 1)
    else:
        _, t, y = _pinned_fit_inputs()[case]
    fit = fit_damped_sinusoid(t, y)
    names = ("offset", "amplitude", "frequency", "decoherence_time")
    ours = np.array([fit.parameters[name] for name in names])
    ref = least_squares(lambda q: sinusoid(t - t[0], *q) - y, ours, method="lm",
                        xtol=1e-15, ftol=1e-15, gtol=1e-15)
    assert fit.converged
    # noise-free and constant data leave both residuals at the data's rounding floor
    floor = 1e-12 * np.linalg.norm(y)
    assert fit.residual_norm <= np.linalg.norm(ref.fun) * (1.0 + 1e-12) + floor
    # on constant data the amplitude is 0, so the frequency and decay are not identifiable
    checked = 2 if case == "sinusoid-constant" else 4
    assert ours[:checked] == pytest.approx(ref.x[:checked], rel=1e-6, abs=1e-12)
