"""Atomic constants and closed-form feasibility estimates for fluorescence readout.

The detection scheme drives the quasi-cycling F=2 -> F'=3 optical transition and
counts collected photons; an atom left in F=1 stays dark. This module holds the
species constants and the back-of-the-envelope formulas that set the operating
point: how many detected photons a given error target needs, how strongly the
off-resonant F'=2 channel (the "depump" route into F=1) is suppressed, and how
much recoil heating a readout costs.

Conventions: frequencies in Hz, times in seconds, motional energies in
temperature units (kelvin).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


@dataclass(frozen=True)
class ProbeConfig:
    """Probe-beam operating point while the readout light is on.

    ``scatter_rate`` is the photon scattering rate of a bright (F=2) atom,
    before any collection or detector losses. ``background_mean_per_window``
    is the mean number of spurious detector counts accumulated over one full
    probe window (stray light plus dark counts); the window length is the
    readout policy's ``max_duration``, and the probe kernel divides by it to
    get the background rate.
    """

    scatter_rate: float
    background_mean_per_window: float

    def __post_init__(self) -> None:
        if self.scatter_rate <= 0:
            raise ValueError("scatter_rate must be positive")
        if self.background_mean_per_window < 0:
            raise ValueError("background_mean_per_window must be nonnegative")


@dataclass
class Atoms:
    """A block of simulated atoms, one array entry per atom.

    ``bright`` marks the atoms in F=2. ``in_mf0`` marks the clock sublevel
    mF=0 of an F=1 atom, the one Zeeman sublevel anything reads (the microwave
    drive); no other sublevel is tracked. ``energy`` is the motional energy in
    kelvin and ``present`` is False once the atom is lost. The functions that
    step atoms (the microwave pulse, heating, the loss check, cooling) update
    these arrays in place.
    """

    bright: np.ndarray
    in_mf0: np.ndarray
    energy: np.ndarray
    present: np.ndarray

    def __post_init__(self) -> None:
        if np.any(self.energy < 0):
            raise ValueError("motional energy must be nonnegative")

    def __len__(self) -> int:
        return self.energy.size

    def take(self, keep: np.ndarray) -> "Atoms":
        """The atoms selected by the boolean mask ``keep``, as a new block."""
        return Atoms(self.bright[keep], self.in_mf0[keep], self.energy[keep], self.present[keep])

    def require_present(self, action: str) -> None:
        if not self.present.all():
            raise ValueError(f"cannot {action} an absent atom")


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
