"""Classification policies and their analytic error rates.

Two rules are supported, chosen by ``experiments.CycleConfig.adaptive``: a
fixed window with a count threshold, and the adaptive rule that extinguishes
the probe as soon as ``n_d`` detections have arrived. The adaptive rule is the
interesting one: a bright atom is identified after a couple of counts instead
of a full window, cutting scattering (and heating) by an order of magnitude.

The F=2 failure channel is a race, per scattering event, between detection
(probability eta) and depumping into the dark F=1 state (probability q).
Within one event the emitted photon is credited before the depump can act:
if the photon is detected, the event cannot also dump the atom. Under that
convention the chance that one more count arrives while the atom is still
bright is p1 = eta / (eta + q - eta*q), and n_d required counts succeed with
probability p1**n_d exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detection import poisson_tail_at_least
from .physics import RB87_D2, SpeciesConstants, depump_suppression


@dataclass(frozen=True)
class ReadoutOutcome:
    """Probe results for a block of atoms, one array entry per atom."""

    called_bright: np.ndarray     # classified F2
    detected_counts: np.ndarray
    elapsed: np.ndarray           # probe-on time, s
    scatters: np.ndarray          # scattering events while bright, the depumping one included
    depumped: np.ndarray          # fell dark during the probe


def analytic_f1_error(n_d: int, background_mean: float) -> float:
    """P(a dark atom is called bright): P(at least n_d background counts in the window)."""
    return poisson_tail_at_least(n_d, background_mean)


def _p_detect_first(efficiency: float, hazard: float) -> float:
    return efficiency / (efficiency + hazard - efficiency * hazard)


def analytic_f2_error(efficiency: float, hazard: float, n_d: int) -> float:
    """P(a bright atom fails to reach n_d counts) under the per-event race model.

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
