"""Trap dynamics: recoil-heating bookkeeping, loss decision, cooling pulses.

Heating is deterministic mean-energy accounting (two recoil temperatures per
scattering event); loss is a hard threshold on accumulated energy versus trap
depth plus an independent per-cycle background Bernoulli that stands in for
collisions and everything else non-thermal. Each step acts on a block of atoms
in place and takes the numbers it reads as plain arguments; the depth and the
baseline energy are fields of ``experiments.CycleConfig``. All energies in
kelvin.
"""

from __future__ import annotations

import numpy as np

from .physics import Atoms


def apply_heating(atoms: Atoms, scatters: np.ndarray, energy_per_scatter: float) -> None:
    """Add ``energy_per_scatter`` (K) for each of each atom's ``scatters`` scattering events."""
    atoms.require_present("heat")
    atoms.energy += scatters * energy_per_scatter


def check_loss(
    atoms: Atoms, depth: float, background_loss: float, rng: np.random.Generator
) -> None:
    """Mark atoms absent whose energy reaches ``depth``, or on a background-loss draw."""
    atoms.require_present("re-check")
    lost = atoms.energy >= depth
    if background_loss > 0.0:
        lost |= rng.random(len(atoms)) < background_loss
    atoms.present &= ~lost


def cool(atoms: Atoms, reset: bool, baseline_energy: float) -> None:
    """Cooling pulse: restores ``baseline_energy`` when ``reset`` is set.

    Lost atoms are cooled too; no later step reads them.
    """
    if reset:
        atoms.energy.fill(baseline_energy)
