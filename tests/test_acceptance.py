"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all).
All stochastic criteria run at the calibrated reference operating point and
the default master seed, so the whole suite is deterministic.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from atomreadout.config import DEFAULT_SEED, default_config
from atomreadout.experiments import (
    CELL_LOST,
    _simulate_probe,
    experiment_histogram,
    experiment_rabi,
    experiment_survival,
)
from atomreadout.fitting import fit_damped_sinusoid, fit_exponential
from atomreadout.physics import (
    analytic_f2_error,
    depump_suppression,
    heating_for_scatters,
    misdetection_probability,
    poisson_tail_at_least,
)
from atomreadout.runner import run
from helpers import binomial_3se, markov_f2_error, poisson_chisquare_pvalue, survival_cells

ANALYTIC_F1_ERROR = 3.693631311376678e-2
HAZARD_GRID = [
    (eta, q, nd)
    for eta in (0.01, 0.02, 0.05)
    for q in (1e-4, 6e-4, 2e-3)
    for nd in (1, 2, 3)
]


def report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {number} ({name}): {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def histogram_result(ref_cfg):
    return experiment_histogram(1684, 2127, ref_cfg, DEFAULT_SEED)


@pytest.fixture(scope="module")
def survival_result(ref_cfg):
    # ten times the paper's 102 atoms: there the fitted lifetime spreads about
    # +-11 cycles against the [76, 96] gate, so the criterion passed about three
    # seeds in five whether or not the model was right; here it spreads about +-3
    return experiment_survival(1020, 100, ref_cfg, DEFAULT_SEED)


@pytest.fixture(scope="module")
def rabi_result(ref_cfg):
    # ten times the paper's 312 atoms: there the fitted tau spreads about
    # +-18% against the +-15% gate, so the criterion passed about half of all
    # seeds whether or not the model was right; here it spreads about +-5%
    return experiment_rabi(3120, default_config().rabi_config(), ref_cfg, DEFAULT_SEED)


def test_criterion_1_feasibility_formulas():
    checks = []
    checks.append(misdetection_probability(5.0) < 0.01)
    checks.append(misdetection_probability(7.0) < 0.001)
    for detuning, quoted in ((0.0, 8000.0), (6e6, 1600.0), (12e6, 450.0)):
        checks.append(abs(depump_suppression(detuning) / quoted - 1.0) < 0.15)
    suppression = (
        depump_suppression(0.0),
        depump_suppression(6e6),
        depump_suppression(12e6),
    )
    checks.append(suppression[0] == pytest.approx(7861.8, abs=0.1))
    checks.append(suppression[1] == pytest.approx(1572.4, abs=0.1))
    checks.append(suppression[2] == pytest.approx(462.5, abs=0.1))
    heating = heating_for_scatters(250)
    checks.append(abs(heating / 180e-6 - 1.0) < 0.01)
    report(
        1,
        "feasibility formulas",
        all(checks),
        f"P0(5)={misdetection_probability(5.0):.4g}, P0(7)={misdetection_probability(7.0):.4g}, "
        f"suppression={tuple(round(s, 1) for s in suppression)}, heating(250)={heating * 1e6:.1f} uK",
    )


def test_criterion_2_dark_state_error(histogram_result):
    _, summary = histogram_result
    rate = summary["f1_error_rate"]
    tol = binomial_3se(ANALYTIC_F1_ERROR, summary["f1_trials"])
    low, high = summary["f1_error_wilson_low"], summary["f1_error_wilson_high"]
    ok = abs(rate - ANALYTIC_F1_ERROR) <= tol and low <= 0.04 <= high
    report(
        2,
        "dark-state error",
        ok,
        f"measured {rate:.4f} vs analytic {ANALYTIC_F1_ERROR:.4f} (tol {tol:.4f}); "
        f"Wilson [{low:.4f}, {high:.4f}] contains 0.04",
    )


def test_criterion_3_bright_state_error(histogram_result):
    _, summary = histogram_result
    rate = summary["f2_error_rate"]
    tol = binomial_3se(0.055, summary["f2_trials"])
    mc_ok = abs(rate - 0.055) <= tol
    worst = max(
        abs(analytic_f2_error(eta, q, nd) - markov_f2_error(eta, q, nd))
        for eta, q, nd in HAZARD_GRID
    )
    oracle_ok = worst <= 1e-6
    report(
        3,
        "bright-state error",
        mc_ok and oracle_ok,
        f"measured {rate:.4f} vs calibrated 0.0550 (tol {tol:.4f}); "
        f"race formula vs absorbing-chain oracle max diff {worst:.2e}",
    )


def test_criterion_4_survival(survival_result):
    tables, summary = survival_result
    lifetime = summary["lifetime_cycles"]
    survivors = summary["survivor_fraction_final"]
    lost = survival_cells(tables) == CELL_LOST
    monotone = not np.any(lost[:, :-1] & ~lost[:, 1:])
    ok = 76.0 <= lifetime <= 96.0 and 0.21 <= survivors <= 0.39 and monotone
    report(
        4,
        "survival",
        ok,
        f"lifetime {lifetime:.1f} cycles in [76, 96]; survivor fraction {survivors:.3f} "
        f"in [0.21, 0.39]; loss absorbing in all rows: {monotone}",
    )


def test_criterion_5_rabi(rabi_result):
    _, summary = rabi_result
    freq, tau = summary["fit_frequency_hz"], summary["fit_decoherence_time_s"]
    amplitude = summary["fit_amplitude"]
    freq_ok = abs(freq - 2950.0) / 2950.0 <= 0.02
    tau_ok = abs(tau - 2.2e-3) / 2.2e-3 <= 0.15
    amp_ok = abs(amplitude - 1.0 / 3.0) <= 0.04
    n0 = summary["zero_point_n"]
    zero = summary["zero_point_fraction"]
    zero_ok = abs(zero - ANALYTIC_F1_ERROR) <= binomial_3se(ANALYTIC_F1_ERROR, n0)
    ok = freq_ok and tau_ok and amp_ok and zero_ok
    report(
        5,
        "rabi ensemble",
        ok,
        f"f={freq:.1f} Hz (target 2950 +-2%), "
        f"tau={tau * 1e3:.2f} ms (target 2.2 +-15%), "
        f"A={amplitude:.3f} (target 1/3 +-0.04), "
        f"zero-point {zero:.4f} vs floor {ANALYTIC_F1_ERROR:.4f}",
    )


def test_criterion_6_fit_round_trips():
    # the expected losses and cycles at risk of atoms with an 86-cycle lifetime over 100
    # cycles, from which the censored maximum-likelihood lifetime is exactly 86
    keep = math.exp(-1.0 / 86.0)
    lost = 1000.0 * (1.0 - keep**100)
    exp_fit = fit_exponential(lost, lost / (1.0 - keep))
    exp_ok = abs(exp_fit.parameters["lifetime"] - 86.0) / 86.0 <= 1e-4
    loss = exp_fit.parameters["loss_per_cycle"]
    loss_ok = loss == pytest.approx(1.0 - math.exp(-1.0 / 86.0), rel=1e-9)

    t = np.linspace(0.0, 3e-3, 50)
    truth = dict(offset=0.0, amplitude=1.0 / 3.0, frequency=2950.0, decoherence_time=2.2e-3)
    model = truth["offset"] + 0.5 * truth["amplitude"] * (
        1.0 - np.cos(2.0 * np.pi * truth["frequency"] * t) * np.exp(-t / truth["decoherence_time"])
    )
    sin_fit = fit_damped_sinusoid(t, model)
    sin_ok = all(
        abs(sin_fit.parameters[k] - v) <= 1e-4 * max(abs(v), 1.0)
        for k, v in truth.items()
    )
    ok = exp_ok and loss_ok and sin_ok
    report(
        6,
        "fit round trips",
        ok,
        f"lifetime 86 -> {exp_fit.parameters['lifetime']:.6f}, loss/cycle {loss:.6f} "
        f"(1.156%); sinusoid recovered {sin_fit.parameters}",
    )


def test_criterion_7_determinism(tmp_path):
    identical = True
    details = []
    base = {
        "experiment": "survival",
        "survival.atoms": 102,
        "survival.cycles": 100,
    }
    for name in ("a", "b"):
        run(default_config().with_updates({**base, "output.path": str(tmp_path / name / "run")}))
    for suffix in ("run.csv", "run_curve.csv", "run_summary.csv"):
        a = (tmp_path / "a" / suffix).read_bytes()
        b = (tmp_path / "b" / suffix).read_bytes()
        identical &= a == b
        details.append(f"{suffix}: rerun={a == b}")
    report(7, "byte determinism", identical, "; ".join(details))


def test_criterion_8_distributional_oracles(ref_cfg):
    # the production probe kernel, fixed window, no depumping: a dark atom counts
    # background only, a bright atom counts 21 signal plus 0.3 background
    cfg = replace(ref_cfg, depump_hazard=0.0, adaptive=False)
    background = cfg.background_mean
    signal = cfg.scatter_rate * cfg.net_efficiency * cfg.window
    rng = np.random.default_rng(2024)
    samples = 100_000

    dark = _simulate_probe(np.zeros(samples, dtype=bool), cfg, rng).detected_counts
    p_dark = poisson_chisquare_pvalue(dark, background)

    bright = _simulate_probe(np.ones(samples, dtype=bool), cfg, rng).detected_counts
    p_bright = poisson_chisquare_pvalue(bright, signal + background)

    from scipy import stats

    tail_ok = True
    for mean in (0.1, 0.3, 2.0, 21.0):
        for k in range(0, 30):
            reference = float(stats.poisson.sf(k - 1, mean))
            if reference > 1e-250 and not math.isclose(
                poisson_tail_at_least(k, mean), reference, rel_tol=1e-10
            ):
                tail_ok = False

    ok = p_dark > 0.001 and p_bright > 0.001 and tail_ok
    report(
        8,
        "distributional oracles",
        ok,
        f"kernel dark counts vs Poisson({background:g}) chi-square p={p_dark:.3f}, "
        f"bright counts vs Poisson({signal + background:g}) p={p_bright:.3f}, "
        f"tail matches reference: {tail_ok} (n={samples} each)",
    )
