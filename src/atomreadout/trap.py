"""Trap dynamics: recoil-heating bookkeeping, loss decision, cooling pulses.

Heating is deterministic mean-energy accounting (two recoil temperatures per
scattering event); loss is a hard threshold on accumulated energy versus trap
depth plus an independent per-cycle background Bernoulli that stands in for
collisions and everything else non-thermal. All energies in kelvin.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .physics import AtomState, RB87_D2, SpeciesConstants, heating_for_scatters


@dataclass(frozen=True)
class TrapConfig:
    depth: float              # K
    baseline_energy: float    # K, motional energy right after cooling

    def __post_init__(self) -> None:
        if self.baseline_energy < 0:
            raise ValueError("baseline_energy must be nonnegative")
        if self.depth <= self.baseline_energy:
            raise ValueError("trap depth must exceed the cooled baseline energy")


@dataclass(frozen=True)
class LossModel:
    background_loss_per_cycle: float
    heating_threshold_fraction: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.background_loss_per_cycle < 1.0:
            raise ValueError("background_loss_per_cycle must lie in [0, 1)")
        if not 0.0 < self.heating_threshold_fraction <= 1.0:
            raise ValueError("heating_threshold_fraction must lie in (0, 1]")


@dataclass(frozen=True)
class CoolingConfig:
    reset: bool   # cooling restores the baseline energy


def apply_heating(
    atom: AtomState, scatters: int, constants: SpeciesConstants = RB87_D2
) -> AtomState:
    """Add the deterministic recoil energy of ``scatters`` scattering events."""
    if not atom.present:
        raise ValueError("cannot heat an absent atom")
    if scatters < 0:
        raise ValueError("scatters must be nonnegative")
    if scatters == 0:
        return atom
    return replace(
        atom, motional_energy=atom.motional_energy + heating_for_scatters(scatters, constants)
    )


def check_loss(
    atom: AtomState, trap: TrapConfig, loss: LossModel, rng: np.random.Generator
) -> AtomState:
    """Mark the atom absent on threshold crossing or a background-loss draw."""
    if not atom.present:
        raise ValueError("cannot re-check a lost atom")
    if atom.motional_energy >= loss.heating_threshold_fraction * trap.depth:
        return replace(atom, present=False)
    if loss.background_loss_per_cycle > 0.0:
        if rng.random() < loss.background_loss_per_cycle:
            return replace(atom, present=False)
    return atom


def cool(atom: AtomState, cooling: CoolingConfig, trap: TrapConfig) -> AtomState:
    """Cooling pulse: restores the baseline motional energy when ``reset`` is set."""
    if not atom.present:
        raise ValueError("cannot cool an absent atom")
    if not cooling.reset:
        return atom
    return replace(atom, motional_energy=trap.baseline_energy)

