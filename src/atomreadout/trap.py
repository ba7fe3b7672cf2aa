"""Trap dynamics: recoil-heating bookkeeping, loss decision, cooling pulses.

Heating is deterministic mean-energy accounting (two recoil temperatures per
scattering event); loss is a hard threshold on accumulated energy versus trap
depth plus an independent per-cycle background Bernoulli that stands in for
collisions and everything else non-thermal. Each step acts on a block of atoms
in place. All energies in kelvin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .physics import RB87_D2, Atoms, SpeciesConstants, heating_per_scatter


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
    atoms: Atoms, scatters: np.ndarray, constants: SpeciesConstants = RB87_D2
) -> None:
    """Add the deterministic recoil energy of each atom's ``scatters`` scattering events."""
    atoms.require_present("heat")
    atoms.energy += scatters * heating_per_scatter(constants)


def check_loss(
    atoms: Atoms, trap: TrapConfig, background_loss: float, rng: np.random.Generator
) -> None:
    """Mark atoms absent whose energy reaches the depth, or on a background-loss draw."""
    atoms.require_present("re-check")
    lost = atoms.energy >= trap.depth
    if background_loss > 0.0:
        lost |= rng.random(len(atoms)) < background_loss
    atoms.present &= ~lost


def cool(atoms: Atoms, reset: bool, trap: TrapConfig) -> None:
    """Cooling pulse: restores the baseline motional energy when ``reset`` is set.

    Lost atoms are cooled too; no later step reads them.
    """
    if reset:
        atoms.energy.fill(trap.baseline_energy)
