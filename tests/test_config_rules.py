"""Every configuration the key table accepts builds its domain objects.

``SpeciesConstants``, ``CycleConfig`` and ``RabiConfig`` each check their own
fields and the rules between them; ``RunConfig`` builds all three and reports
a failed build as a ``ConfigError``. ``SCHEMA`` must reject first whatever a
single-field check rejects, so that a build fails only on a rule between keys,
and the key it names is that rule's.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from atomreadout.config import ConfigError, default_config, validate_value

DEFAULTS = default_config()
OBJECTS = {
    "species": DEFAULTS.species(),
    "cycle": DEFAULTS.cycle_config(),
    "rabi": DEFAULTS.rabi_config(),
}

# (object, field, the key that feeds it, a value its single-field check rejects)
SINGLE_FIELD_CHECKS = [
    ("species", "linewidth_gamma", "species.linewidth", 0.0),
    ("species", "excited_splitting_delta23", "species.excited_splitting", 0.0),
    ("species", "recoil_temperature", "species.recoil_temperature", 0.0),
    ("cycle", "scatter_rate", "probe.scatter_rate", 0.0),
    ("cycle", "background_mean", "probe.background_mean", -0.1),
    ("cycle", "n_d", "readout.nd", 0),
    ("cycle", "window", "probe.max_duration", 0.0),
    ("cycle", "net_efficiency", "detector.efficiency", 0.0),
    ("cycle", "net_efficiency", "detector.efficiency", 1.5),
    ("cycle", "depump_hazard", "readout.depump_hazard", -0.1),
    ("cycle", "depump_hazard", "readout.depump_hazard", 1.0),
    ("cycle", "baseline_energy", "trap.baseline_energy", -1e-6),
    ("cycle", "background_loss", "loss.background_per_cycle", -0.01),
    ("cycle", "background_loss", "loss.background_per_cycle", 1.0),
    ("rabi", "rabi_frequency", "rabi.frequency", 0.0),
    ("rabi", "decoherence_time", "rabi.decoherence_time", 0.0),
    ("rabi", "points", "rabi.points", 1),
    ("rabi", "span", "rabi.span", 0.0),
]


@pytest.mark.parametrize(
    "obj, field, key, value", SINGLE_FIELD_CHECKS,
    ids=[f"{field}={value}" for _, field, _, value in SINGLE_FIELD_CHECKS],
)
def test_schema_rejects_a_single_field_check_first(obj, field, key, value):
    with pytest.raises(ValueError):
        replace(OBJECTS[obj], **{field: value})
    with pytest.raises(ConfigError) as err:
        validate_value(key, value)
    assert err.value.key == key
    with pytest.raises(ConfigError) as err:
        DEFAULTS.with_updates({key: value})
    assert err.value.key == key


positive = st.floats(min_value=0.0, exclude_min=True, allow_nan=False, allow_infinity=False)
nonnegative = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(linewidth=positive, splitting=positive, depth=positive, baseline=nonnegative,
       points=st.integers(min_value=8, max_value=10**6), span=positive, frequency=positive)
def test_in_range_values_build_or_name_the_broken_rule(
    linewidth, splitting, depth, baseline, points, span, frequency
):
    # the rules between keys, in the order RunConfig builds the objects that hold them
    broken = [key for key, rule_broken in (
        ("species.excited_splitting", splitting <= linewidth),
        ("trap.baseline_energy", baseline >= depth),
        ("rabi.frequency", frequency >= (points - 1) / (2.0 * span)),
    ) if rule_broken]
    updates = {"species.linewidth": linewidth, "species.excited_splitting": splitting,
               "trap.depth": depth, "trap.baseline_energy": baseline,
               "rabi.points": points, "rabi.span": span, "rabi.frequency": frequency}
    if broken:
        with pytest.raises(ConfigError) as err:
            DEFAULTS.with_updates(updates)
        assert err.value.key == broken[0]
    else:
        config = DEFAULTS.with_updates(updates)
        assert config.rabi_config().points == points
