import math
from dataclasses import replace

import numpy as np
import pytest

from atomreadout import reference_cycle_config
from atomreadout.physics import F2, AtomState, heating_per_scatter
from atomreadout.trap import apply_heating, check_loss, cool

REF = reference_cycle_config()
TRAP = REF.trap
NO_LOSS = 0.0


def hot_atom(energy):
    return AtomState(hyperfine=F2, zeeman_mF=0, motional_energy=energy, present=True)


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
        atom = apply_heating(hot_atom(0.0), 250)
        assert atom.motional_energy == pytest.approx(1.8098e-4, rel=1e-12)

    def test_zero_scatters_unchanged(self):
        atom = hot_atom(1e-5)
        assert apply_heating(atom, 0) is atom

    def test_absent_atom_rejected(self):
        absent = AtomState(hyperfine=F2, present=False)
        with pytest.raises(ValueError):
            apply_heating(absent, 10)

    def test_accumulates(self):
        atom = apply_heating(apply_heating(hot_atom(0.0), 100), 50)
        assert atom.motional_energy == pytest.approx(150 * heating_per_scatter(), rel=1e-12)


class TestLossCheck:
    def test_cold_atom_survives(self):
        rng = np.random.default_rng(0)
        atom = check_loss(hot_atom(181e-6), TRAP, NO_LOSS, rng)
        assert atom.present

    def test_threshold_crossing_lost(self):
        rng = np.random.default_rng(0)
        atom = check_loss(hot_atom(2.1e-3), replace(TRAP, depth=2e-3), NO_LOSS, rng)
        assert not atom.present

    def test_background_bernoulli_rate(self):
        rng = np.random.default_rng(41)
        trials = 100_000
        survived = sum(
            check_loss(hot_atom(0.0), TRAP, 0.012, rng).present for _ in range(trials)
        )
        expected = 0.988
        se = math.sqrt(expected * (1 - expected) / trials)
        assert abs(survived / trials - expected) < 3 * se

    def test_lost_atom_rejected(self):
        with pytest.raises(ValueError):
            check_loss(AtomState(present=False), TRAP, NO_LOSS, np.random.default_rng(0))


class TestCooling:
    def test_reset_restores_baseline(self):
        atom = cool(hot_atom(181e-6), True, TRAP)
        assert atom.motional_energy == TRAP.baseline_energy

    def test_no_reset_keeps_energy(self):
        atom = cool(hot_atom(181e-6), False, TRAP)
        assert atom.motional_energy == pytest.approx(181e-6)

    def test_heat_cool_cycle_never_accumulates(self):
        atom = hot_atom(0.0)
        for _ in range(100):
            assert atom.motional_energy == TRAP.baseline_energy
            atom = apply_heating(atom, 100)
            atom = cool(atom, True, TRAP)
        assert atom.motional_energy == TRAP.baseline_energy

    def test_without_cooling_loss_cycle_is_deterministic(self):
        # 100 scatters/cycle against a 2 mK threshold: lost on cycle ceil(2763/100) = 28
        scatters_per_cycle = 100
        predicted = math.ceil(
            math.ceil(2e-3 / heating_per_scatter()) / scatters_per_cycle
        )
        atom = hot_atom(0.0)
        rng = np.random.default_rng(0)
        lost_at = None
        for cycle in range(1, 60):
            atom = apply_heating(atom, scatters_per_cycle)
            atom = check_loss(atom, TRAP, NO_LOSS, rng)
            if not atom.present:
                lost_at = cycle
                break
        assert lost_at == predicted == 28

