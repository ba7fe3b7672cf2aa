"""Run configuration: the key table, strict line-oriented parsing, domain builders.

Config files are ``section.key = value`` lines with ``#`` comments; the command
line's ``--set`` items and flags are entries of the same form, parsed by the same
``parse_entries``. Parsing is strict for both: unknown keys, a key set twice
within one source, malformed entries, and out-of-range values are errors that
name the offending key, and in a file its line. The defaults in ``SCHEMA``
are the calibrated reference operating point, written nowhere else; an empty
file yields it.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

from .experiments import CycleConfig, RabiConfig
from .physics import RB87_D2, SpeciesConstants, calibrate_depump

DEFAULT_SEED = 1

# Hazard calibrated so the analytic bright-state error is exactly 5.5% at the
# reference efficiency and stop threshold.
DEFAULT_DEPUMP_HAZARD = calibrate_depump(0.055, 0.02, 2)


class ConfigError(ValueError):
    """Invalid configuration input; carries the offending line and key when known."""

    def __init__(self, message: str, line: int | None = None, key: str | None = None):
        self.line = line
        self.key = key
        where = []
        if line is not None:
            where.append(f"line {line}")
        if key is not None:
            where.append(f"key {key!r}")
        prefix = f"config error ({', '.join(where)}): " if where else "config error: "
        super().__init__(prefix + message)


@dataclass(frozen=True)
class _Key:
    kind: str                      # float | int | bool | choice | str
    default: object
    help: str
    lo: float | None = None
    hi: float | None = None
    lo_open: bool = False
    hi_open: bool = False
    choices: tuple[str, ...] = ()


SCHEMA: dict[str, _Key] = {
    "experiment": _Key("choice", "histogram", "which experiment to run",
                       choices=("histogram", "survival", "rabi", "budget")),
    "seed": _Key("int", DEFAULT_SEED, "master seed, unsigned 64-bit", lo=0, hi=2**64, hi_open=True),
    "workers": _Key("int", 1, "process-pool workers (1 = serial)", lo=1),
    "output.path": _Key("str", "", "output file stem (default results/<experiment>)"),
    "output.format": _Key("choice", "csv", "result table format", choices=("csv", "json")),
    "species.linewidth": _Key("float", RB87_D2.linewidth_gamma, "excited-state linewidth, Hz",
                              lo=0, lo_open=True),
    "species.excited_splitting": _Key("float", RB87_D2.excited_splitting_delta23,
                                      "F'=2 to F'=3 interval, Hz", lo=0, lo_open=True),
    "species.recoil_temperature": _Key("float", RB87_D2.recoil_temperature,
                                       "recoil temperature, K", lo=0, lo_open=True),
    "detector.efficiency": _Key("float", 0.02, "net collection+quantum efficiency",
                                lo=0, hi=1, lo_open=True),
    "probe.scatter_rate": _Key("float", 3.5e6, "bright-atom scattering rate, 1/s",
                               lo=0, lo_open=True),
    "probe.max_duration": _Key("float", 300e-6, "maximum probe window, s", lo=0, lo_open=True),
    "probe.background_mean": _Key("float", 0.3, "mean stray-light + dark counts per full window",
                                  lo=0),
    "readout.mode": _Key("choice", "adaptive", "stop rule", choices=("adaptive", "fixed")),
    "readout.nd": _Key("int", 2, "counts required to call the atom bright", lo=1),
    "readout.depump_hazard": _Key("float", DEFAULT_DEPUMP_HAZARD,
                                  "per-scatter probability of falling dark",
                                  lo=0, hi=1, hi_open=True),
    "readout.branching_to_f1": _Key("float", 0.5, "decay branching from the off-resonant level",
                                    lo=0, hi=1),
    "trap.depth": _Key("float", 2e-3, "trap depth, K", lo=0, lo_open=True),
    "trap.baseline_energy": _Key("float", 0.0, "post-cooling motional energy, K", lo=0),
    "loss.background_per_cycle": _Key("float", 0.012,
                                      "non-heating loss probability per cycle, either state",
                                      lo=0, hi=1, hi_open=True),
    "cooling.reset": _Key("bool", True, "cooling restores the baseline energy"),
    "histogram.trials_f1": _Key("int", 1684, "F1-prepared trials", lo=1),
    "histogram.trials_f2": _Key("int", 2127, "F2-prepared trials", lo=1),
    "survival.atoms": _Key("int", 102, "atoms in the survival run", lo=1),
    "survival.cycles": _Key("int", 100, "cycles per atom", lo=1),
    "rabi.atoms": _Key("int", 312, "atoms in the ensemble", lo=1),
    "rabi.points": _Key("int", 50, "pulse lengths per atom", lo=8),
    "rabi.span": _Key("float", 3.0e-3, "longest pulse length, s", lo=0, lo_open=True),
    "rabi.frequency": _Key("float", 2950.0, "drive Rabi frequency, Hz", lo=0, lo_open=True),
    "rabi.decoherence_time": _Key("float", 2.2e-3, "oscillation damping time, s",
                                  lo=0, lo_open=True),
}

# the keys that count each experiment's rows (trials or atoms); the budget runs none
ROW_KEYS: dict[str, tuple[str, ...]] = {
    "histogram": ("histogram.trials_f1", "histogram.trials_f2"),
    "survival": ("survival.atoms",),
    "rabi": ("rabi.atoms",),
}


def _check_range(key: str, spec: _Key, value: float, line: int | None) -> None:
    if spec.lo is not None:
        if value < spec.lo or (spec.lo_open and value == spec.lo):
            bound = "(" if spec.lo_open else "["
            raise ConfigError(f"value {value!r} below allowed range {bound}{spec.lo}, ...",
                              line, key)
    if spec.hi is not None:
        if value > spec.hi or (spec.hi_open and value == spec.hi):
            bound = ")" if spec.hi_open else "]"
            raise ConfigError(f"value {value!r} above allowed range ..., {spec.hi}{bound}",
                              line, key)


def validate_value(key: str, value: object, line: int | None = None) -> object:
    """Type- and range-check one already-typed value against the schema."""
    spec = SCHEMA.get(key)
    if spec is None:
        raise ConfigError("unknown key", line, key)
    if spec.kind == "float":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"expected a number, got {value!r}", line, key)
        value = float(value)
        if not math.isfinite(value):
            raise ConfigError(f"expected a finite number, got {value!r}", line, key)
        _check_range(key, spec, value, line)
        return value
    if spec.kind == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"expected an integer, got {value!r}", line, key)
        _check_range(key, spec, value, line)
        return value
    if spec.kind == "bool":
        if not isinstance(value, bool):
            raise ConfigError(f"expected true or false, got {value!r}", line, key)
        return value
    if spec.kind == "choice":
        if value not in spec.choices:
            raise ConfigError(f"expected one of {spec.choices}, got {value!r}", line, key)
        return value
    if not isinstance(value, str):
        raise ConfigError(f"expected text, got {value!r}", line, key)
    return value


def parse_value(key: str, text: str, line: int | None = None) -> object:
    """Parse one value from its config-file text form."""
    spec = SCHEMA.get(key)
    if spec is None:
        raise ConfigError("unknown key", line, key)
    if spec.kind == "float":
        try:
            typed: object = float(text)
        except ValueError:
            raise ConfigError(f"cannot parse {text!r} as a number", line, key) from None
    elif spec.kind == "int":
        try:
            typed = int(text)
        except ValueError:
            raise ConfigError(f"cannot parse {text!r} as an integer", line, key) from None
    elif spec.kind == "bool":
        if text.lower() not in ("true", "false"):
            raise ConfigError(f"cannot parse {text!r} as true/false", line, key)
        typed = text.lower() == "true"
    else:
        typed = text
    return validate_value(key, typed, line)


@dataclass(frozen=True)
class RunConfig:
    """A fully populated, validated set of configuration values.

    Construction checks every value against ``SCHEMA``, then builds the domain objects,
    which hold the rules between keys: an unknown, missing or invalid key, or a broken
    rule, is a ``ConfigError`` naming the key.
    """

    values: dict[str, object]

    def __post_init__(self) -> None:
        unknown = sorted(self.values.keys() - SCHEMA.keys())
        if unknown:
            raise ConfigError("unknown key", key=unknown[0])
        missing = [key for key in SCHEMA if key not in self.values]
        if missing:
            raise ConfigError("missing key", key=missing[0])
        checked = {key: validate_value(key, self.values[key]) for key in SCHEMA}
        object.__setattr__(self, "values", checked)
        # SCHEMA holds each key's own range, so a build fails only on a rule between keys:
        # the key the rule bounds, and the keys that bound it
        for build, key, by in ((self.species, "species.excited_splitting", ("species.linewidth",)),
                               (self.cycle_config, "trap.baseline_energy", ("trap.depth",)),
                               (self.rabi_config, "rabi.frequency", ("rabi.points", "rabi.span"))):
            try:
                build()
            except ValueError as exc:
                given = ", ".join(f"{k} = {checked[k]!r}" for k in by)
                raise ConfigError(f"{exc} (given {given})", key=key) from None

    def __getitem__(self, key: str) -> object:
        return self.values[key]

    def with_updates(self, updates: dict[str, object]) -> "RunConfig":
        return RunConfig({**self.values, **updates})

    # -- domain object builders ------------------------------------------

    def species(self) -> SpeciesConstants:
        return SpeciesConstants(
            linewidth_gamma=self.values["species.linewidth"],
            excited_splitting_delta23=self.values["species.excited_splitting"],
            recoil_temperature=self.values["species.recoil_temperature"],
        )

    def cycle_config(self) -> CycleConfig:
        return CycleConfig(
            species=self.species(),
            scatter_rate=self.values["probe.scatter_rate"],
            background_mean=self.values["probe.background_mean"],
            adaptive=self.values["readout.mode"] == "adaptive",
            n_d=self.values["readout.nd"],
            window=self.values["probe.max_duration"],
            net_efficiency=self.values["detector.efficiency"],
            depump_hazard=self.values["readout.depump_hazard"],
            depth=self.values["trap.depth"],
            baseline_energy=self.values["trap.baseline_energy"],
            background_loss=self.values["loss.background_per_cycle"],
            cooling_reset=self.values["cooling.reset"],
        )

    def rabi_config(self) -> RabiConfig:
        return RabiConfig(
            rabi_frequency=self.values["rabi.frequency"],
            decoherence_time=self.values["rabi.decoherence_time"],
            points=self.values["rabi.points"],
            span=self.values["rabi.span"],
        )


def default_config() -> RunConfig:
    """Every key at its default: the calibrated reference operating point."""
    return RunConfig({key: spec.default for key, spec in SCHEMA.items()})


def reference_cycle_config() -> CycleConfig:
    """The detection cycle built from every ``SCHEMA`` default: the reference operating point."""
    return default_config().cycle_config()


def parse_entries(entries: Iterable[tuple[int | None, str]]) -> dict[str, object]:
    """Typed values from one source's ``key = value`` entries, each with its line
    number (None off a file). A key may be given once per source."""
    values: dict[str, object] = {}
    set_on: dict[str, int | None] = {}   # the line that set each key
    for lineno, entry in entries:
        key, sep, val = entry.partition("=")
        if not sep:
            raise ConfigError(f"expected 'key = value', got {entry.strip()!r}", lineno)
        key = key.strip()
        if key in set_on:
            twice = "given twice" if lineno is None else f"already set on line {set_on[key]}"
            raise ConfigError(twice, lineno, key)
        set_on[key] = lineno
        values[key] = parse_value(key, val.strip(), lineno)
    return values


def parse_config(text: str) -> RunConfig:
    """Parse file contents on top of the defaults; strict about everything."""
    lines = enumerate((raw.split("#", 1)[0] for raw in text.splitlines()), start=1)
    return default_config().with_updates(parse_entries((n, line) for n, line in lines
                                                       if line.strip()))


def config_reference() -> str:
    """Human-readable table of every key, its type, default, and meaning."""
    rows = [("key", "type", "default", "description")]
    for key, spec in SCHEMA.items():
        if isinstance(spec.default, bool):
            default = "true" if spec.default else "false"
        elif isinstance(spec.default, float):
            default = repr(spec.default)
        else:
            default = str(spec.default)
        rows.append((key, spec.kind, default, spec.help))
    widths = [max(len(r[i]) for r in rows) for i in range(3)]
    out = []
    for i, row in enumerate(rows):
        out.append("  ".join(cell.ljust(widths[j]) for j, cell in enumerate(row[:3])) + "  " + row[3])
        if i == 0:
            out.append("-" * (sum(widths) + 6 + len(row[3])))
    return "\n".join(out) + "\n"
