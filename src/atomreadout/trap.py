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
    atom: AtomState, trap: TrapConfig, background_loss: float, rng: np.random.Generator
) -> AtomState:
    """Mark the atom absent when its energy reaches the depth, or on a background-loss draw."""
    if not atom.present:
        raise ValueError("cannot re-check a lost atom")
    if atom.motional_energy >= trap.depth:
        return replace(atom, present=False)
    if background_loss > 0.0:
        if rng.random() < background_loss:
            return replace(atom, present=False)
    return atom


def cool(atom: AtomState, reset: bool, trap: TrapConfig) -> AtomState:
    """Cooling pulse: restores the baseline motional energy when ``reset`` is set."""
    if not atom.present:
        raise ValueError("cannot cool an absent atom")
    if not reset:
        return atom
    return replace(atom, motional_energy=trap.baseline_energy)

