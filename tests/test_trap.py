import math
from dataclasses import replace

import numpy as np
import pytest

from atomreadout import reference_cycle_config
from atomreadout.physics import Atoms, heating_per_scatter
from atomreadout.trap import apply_heating, check_loss, cool

REF = reference_cycle_config()
TRAP = REF.trap
NO_LOSS = 0.0


def hot_atom(energy, n=1, present=True):
    """``n`` bright atoms at motional ``energy``."""
    return Atoms(np.ones(n, bool), np.zeros(n, bool), np.full(n, energy), np.full(n, present))


class TestConfigs:
    def test_depth_must_exceed_baseline(self):
        with pytest.raises(ValueError):
            replace(TRAP, depth=1e-6, baseline_energy=1e-6)

    def test_loss_probability_range(self):
        for loss in (1.0, -0.01):
            with pytest.raises(ValueError):
                replace(REF, background_loss=loss)


class TestHeating:
    def test_250_scatter_budget(self):
        atom = hot_atom(0.0)
        apply_heating(atom, np.array([250]))
        assert atom.energy[0] == pytest.approx(1.8098e-4, rel=1e-12)

    def test_zero_scatters_unchanged(self):
        atom = hot_atom(1e-5)
        apply_heating(atom, np.array([0]))
        assert atom.energy[0] == 1e-5

    def test_absent_atom_rejected(self):
        with pytest.raises(ValueError):
            apply_heating(hot_atom(0.0, present=False), np.array([10]))

    def test_accumulates(self):
        atom = hot_atom(0.0)
        apply_heating(atom, np.array([100]))
        apply_heating(atom, np.array([50]))
        assert atom.energy[0] == pytest.approx(150 * heating_per_scatter(), rel=1e-12)


class TestLossCheck:
    def test_cold_atom_survives(self):
        atom = hot_atom(181e-6)
        check_loss(atom, TRAP, NO_LOSS, np.random.default_rng(0))
        assert atom.present[0]

    def test_threshold_crossing_lost(self):
        atom = hot_atom(2.1e-3)
        check_loss(atom, replace(TRAP, depth=2e-3), NO_LOSS, np.random.default_rng(0))
        assert not atom.present[0]

    def test_background_bernoulli_rate(self):
        trials = 100_000
        atoms = hot_atom(0.0, n=trials)
        check_loss(atoms, TRAP, 0.012, np.random.default_rng(41))
        expected = 0.988
        se = math.sqrt(expected * (1 - expected) / trials)
        assert abs(atoms.present.mean() - expected) < 3 * se

    def test_lost_atom_rejected(self):
        with pytest.raises(ValueError):
            check_loss(hot_atom(0.0, present=False), TRAP, NO_LOSS, np.random.default_rng(0))


class TestCooling:
    def test_reset_restores_baseline(self):
        atom = hot_atom(181e-6)
        cool(atom, True, TRAP)
        assert atom.energy[0] == TRAP.baseline_energy

    def test_no_reset_keeps_energy(self):
        atom = hot_atom(181e-6)
        cool(atom, False, TRAP)
        assert atom.energy[0] == pytest.approx(181e-6)

    def test_heat_cool_cycle_never_accumulates(self):
        atom = hot_atom(0.0)
        for _ in range(100):
            assert atom.energy[0] == TRAP.baseline_energy
            apply_heating(atom, np.array([100]))
            cool(atom, True, TRAP)
        assert atom.energy[0] == TRAP.baseline_energy

    def test_without_cooling_loss_cycle_is_deterministic(self):
        # 100 scatters/cycle against a 2 mK threshold: lost on cycle ceil(2763/100) = 28
        scatters_per_cycle = np.array([100])
        predicted = math.ceil(
            math.ceil(2e-3 / heating_per_scatter()) / scatters_per_cycle[0]
        )
        atom = hot_atom(0.0)
        rng = np.random.default_rng(0)
        lost_at = None
        for cycle in range(1, 60):
            apply_heating(atom, scatters_per_cycle)
            check_loss(atom, TRAP, NO_LOSS, rng)
            if not atom.present[0]:
                lost_at = cycle
                break
        assert lost_at == predicted == 28
