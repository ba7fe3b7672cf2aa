"""The analytic model: species constants and the closed forms of the error budget.

The detection scheme drives the quasi-cycling F=2 -> F'=3 optical transition and
counts collected photons; an atom left in F=1 stays dark. Scattered photons
become detector counts by Bernoulli thinning at the net collection+quantum
efficiency, and the background (stray light and detector dark counts together)
is one homogeneous Poisson process. This module holds the species constants
and the closed forms that set the operating point: how many detected photons
a given error target needs, how strongly the off-resonant F'=2 channel (the
"depump" route into F=1) is suppressed, how much recoil heating a readout
costs, and the dark- and bright-state errors of calling an atom bright at its
n_d-th count, with the inversion that calibrates the depump hazard.

Conventions: frequencies in Hz, times in seconds, motional energies in
temperature units (kelvin).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

F1 = "F1"
F2 = "F2"


@dataclass(frozen=True)
class SpeciesConstants:
    """Transition constants of the probed species; ``RB87_D2`` holds the Rb-87 values."""

    linewidth_gamma: float              # Hz, excited-state natural linewidth
    excited_splitting_delta23: float    # Hz, F'=2 to F'=3 interval
    recoil_temperature: float           # K, single-photon recoil scale

    def __post_init__(self) -> None:
        positive = (
            self.linewidth_gamma,
            self.excited_splitting_delta23,
            self.recoil_temperature,
        )
        if any(v <= 0 for v in positive):
            raise ValueError("species constants must be strictly positive")
        if self.excited_splitting_delta23 <= self.linewidth_gamma:
            raise ValueError("excited-state splitting must exceed the linewidth")


RB87_D2 = SpeciesConstants(6.0e6, 266.0e6, 361.96e-9)


def misdetection_probability(mean_detected: float) -> float:
    """P(zero detected photons) for a bright atom with the given mean, exp(-mean)."""
    if mean_detected < 0:
        raise ValueError("mean_detected must be nonnegative")
    return math.exp(-mean_detected)


def required_mean_photons(target_error: float) -> float:
    """Mean detected-photon number needed so the zero-count probability hits the target."""
    if not 0.0 < target_error < 1.0:
        raise ValueError("target_error must lie strictly between 0 and 1")
    return -math.log(target_error)


def depump_suppression(detuning: float, constants: SpeciesConstants = RB87_D2) -> float:
    """Ratio of resonant F'=3 excitation to off-resonant F'=2 excitation.

    On resonance this is (2*Delta/gamma)^2; detuning the probe by ``detuning``
    reduces the main line by the usual Lorentzian factor while leaving the far
    off-resonant channel essentially unchanged, so the suppression falls as
    1 / (1 + (2*detuning/gamma)^2).
    """
    g = constants.linewidth_gamma
    on_resonance = (2.0 * constants.excited_splitting_delta23 / g) ** 2
    return on_resonance / (1.0 + (2.0 * detuning / g) ** 2)


def depump_hazard_per_scatter(suppression: float, branching_to_F1: float) -> float:
    """Probability that one scattering event leaves the atom in F=1."""
    if suppression < 1.0:
        raise ValueError("suppression must be at least 1")
    if not 0.0 <= branching_to_F1 <= 1.0:
        raise ValueError("branching_to_F1 must be a probability")
    return branching_to_F1 / suppression


def heating_per_scatter(constants: SpeciesConstants = RB87_D2) -> float:
    """Energy kick of one absorption-emission cycle, in kelvin (two recoils)."""
    return 2.0 * constants.recoil_temperature


def heating_for_scatters(scatters: float, constants: SpeciesConstants = RB87_D2) -> float:
    """Total heating of ``scatters`` scattering events, in kelvin."""
    if scatters < 0:
        raise ValueError("scatters must be nonnegative")
    return scatters * heating_per_scatter(constants)


def scatters_for_detected(mean_detected: float, efficiency: float) -> float:
    """Scattering events needed for a target mean detected count at a given efficiency."""
    if not 0.0 < efficiency <= 1.0:
        raise ValueError("efficiency must lie in (0, 1]")
    if mean_detected < 0:
        raise ValueError("mean_detected must be nonnegative")
    return mean_detected / efficiency


def poisson_tail_at_least(k: int, mean: float) -> float:
    """P(X >= k) for X ~ Poisson(mean), by direct partial summation.

    For k > mean the tail is summed upward from k (terms only decrease, no
    cancellation); otherwise the complement P(X < k) is small enough to
    subtract safely, and is summed downward from its largest term, k - 1.
    Each sum starts at a term taken in log space, so neither underflows at
    large means where exp(-mean) does. Accurate to ~1e-15 relative at small
    means, and to ~1e-12 at a mean of 1,000, as the log's rounding grows.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if not 0.0 <= mean < math.inf:
        raise ValueError("mean must be finite and nonnegative")
    if k == 0:
        return 1.0
    if mean == 0.0:
        return 0.0
    if k > mean:
        term = math.exp(k * math.log(mean) - mean - math.lgamma(k + 1))
        total = term
        i = k
        while term > total * 1e-18:
            i += 1
            term *= mean / i
            total += term
        return min(total, 1.0)
    # k <= mean: tail is order unity, 1 - CDF(k-1) loses nothing
    i = k - 1
    term = math.exp(i * math.log(mean) - mean - math.lgamma(k))
    below = term
    while i > 0 and term > below * 1e-18:
        term *= i / mean
        i -= 1
        below += term
    return 1.0 - below


def analytic_f1_error(n_d: int, background_mean: float) -> float:
    """P(a dark atom is called bright): P(at least n_d background counts in the window)."""
    return poisson_tail_at_least(n_d, background_mean)


def _p_detect_first(efficiency: float, hazard: float) -> float:
    return efficiency / (efficiency + hazard - efficiency * hazard)


def analytic_f2_error(efficiency: float, hazard: float, n_d: int) -> float:
    """P(a bright atom fails to reach n_d counts) under the per-event race model.

    Each scattering event races detection (probability ``efficiency``, eta)
    against depumping into the dark F=1 state (probability ``hazard``, q).
    Within one event the emitted photon is credited before the depump can
    act: a detected photon's event cannot also dump the atom. So the chance
    that one more count arrives while the atom is still bright is
    p1 = eta / (eta + q - eta*q), and n_d counts arrive with probability
    p1**n_d exactly.

    This is the limit of no background counts and an unbounded window. The
    Monte Carlo has both: background counts help a bright atom that depumps
    early reach n_d, so at the reference point it gives about 4.7%, not 5.5%.
    The 5.5% is the race value as the background goes to 0.
    """
    if not 0.0 < efficiency <= 1.0:
        raise ValueError("efficiency must lie in (0, 1]")
    if not 0.0 <= hazard < 1.0:
        raise ValueError("hazard must lie in [0, 1)")
    if n_d < 1:
        raise ValueError("n_d must be at least 1")
    if hazard == 0.0:
        return 0.0
    return 1.0 - _p_detect_first(efficiency, hazard) ** n_d


def calibrate_depump(target_f2_error: float, efficiency: float, n_d: int) -> float:
    """Invert the race formula: the per-scatter hazard that yields a target error."""
    if not 0.0 <= target_f2_error < 1.0:
        raise ValueError("target_f2_error must lie in [0, 1)")
    if not 0.0 < efficiency <= 1.0:
        raise ValueError("efficiency must lie in (0, 1]")
    if n_d < 1:
        raise ValueError("n_d must be at least 1")
    if target_f2_error == 0.0:
        return 0.0
    if efficiency == 1.0:
        raise ValueError("a perfect detector never misses: only target 0 is reachable")
    p1 = (1.0 - target_f2_error) ** (1.0 / n_d)
    hazard = efficiency * (1.0 / p1 - 1.0) / (1.0 - efficiency)
    if hazard >= 1.0:
        raise ValueError("target error is not reachable by any hazard below 1")
    return hazard


def implied_effective_detuning(
    hazard: float,
    branching_to_F1: float,
    constants: SpeciesConstants = RB87_D2,
) -> float:
    """Probe detuning whose depump suppression would produce the given hazard.

    The detuning includes the trap's differential light shift. It exists only
    when the hazard and branching are positive and branching/hazard does not
    exceed the on-resonance suppression; otherwise this raises ValueError.
    """
    if hazard <= 0 or branching_to_F1 <= 0:
        raise ValueError("hazard and branching must be positive")
    implied_suppression = branching_to_F1 / hazard
    on_resonance = depump_suppression(0.0, constants)
    if implied_suppression > on_resonance:
        raise ValueError("hazard is below the on-resonance floor for this branching")
    g = constants.linewidth_gamma
    return 0.5 * g * math.sqrt(on_resonance / implied_suppression - 1.0)
