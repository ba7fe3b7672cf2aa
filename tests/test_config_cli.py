import dataclasses
import gc
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from atomreadout import experiments, runner
from atomreadout.cli import build_parser, load_config, main
from atomreadout.config import (
    ConfigError,
    DEFAULT_DEPUMP_HAZARD,
    SCHEMA,
    RunConfig,
    config_reference,
    default_config,
    parse_config,
    reference_cycle_config,
    validate_value,
)
from atomreadout.experiments import Coded
from atomreadout.physics import depump_suppression, heating_per_scatter
from atomreadout.runner import _write_rows, _write_table, run

# config updates -> SHA-256 of each result table, keyed by file suffix, taken under
# numpy 2.4.6 (another numpy release may realise other samples from the same seed)
PINNED_TABLES = {
    "histogram": (
        {"experiment": "histogram", "histogram.trials_f1": 1000, "histogram.trials_f2": 1000},
        {
            ".csv": "57dd0297ddb80621daffc4cefa33cdff49754615b6ea0f788cfffb5462be6cba",
            "_histogram.csv": "d9feb5f98b06203313a95e1efea5bbc2272ef6ff5900926cfc161abf6dffab5b",
            "_summary.csv": "96ef481fce2b1c7bdd0297b2174ad67cc1625b503b8d5a4da604c2ba7a72f38c",
        },
    ),
    "survival-one-cycle": (
        {"experiment": "survival", "survival.atoms": 200, "survival.cycles": 1},
        {
            ".csv": "c8ebb182d0f353b91df01f2696e66b53e434488074236bc71876fb6da432252d",
            "_curve.csv": "b3f3963872775e618da27f297689d2fe236ac7a7e14ec5ba7abdea8fccc11ecb",
            "_summary.csv": "7ee264798f5155340a1f14959cf774f4e214c0bd4a2eb767e331643634766449",
        },
    ),
    "survival-lossy": (
        {"experiment": "survival", "survival.atoms": 30, "survival.cycles": 60,
         "loss.background_per_cycle": 0.05},
        {
            ".csv": "d10a98c693492554c9d043d87d9b44431aa46f01f6eb18b5f81b82ba8dcab4f7",
            "_curve.csv": "5c7fb4eb361ef0558540c7951e686e28cc1e4eece3b75e644b98fd66ffbb190a",
            "_summary.csv": "a38aae9b596045e5671b1a1dfd4054d6564fe8fbbdc18b62eab4a4cfe77a82af",
        },
    ),
    "rabi-lossy": (
        {"experiment": "rabi", "rabi.atoms": 20, "loss.background_per_cycle": 0.05},
        {
            ".csv": "219166dec861950afb52e735a4c2399773bdca9430b7a6e9830f675301f71f3b",
            "_curve.csv": "2bbf369a5869f22fce38f9e8b44dd8172c474f655e17d4eaccc914fdd4ad0dde",
            "_summary.csv": "0bd1fbe9b4f889d2b15597a6c6f9e45a0cab2619dc84e03d1ffbd6a00aa27883",
        },
    ),
    # the fixed window, with the 1% loss of configs/histogram-1pct-loss.cfg
    "histogram-fixed-1pct-loss": (
        {"experiment": "histogram", "histogram.trials_f1": 1000, "histogram.trials_f2": 1000,
         "readout.mode": "fixed", "loss.background_per_cycle": 0.01},
        {
            ".csv": "ae185c4d584e89a332987bf412fe48384409ddb5dd8346504416bb12efab70d6",
            "_histogram.csv": "da1d02df95959ec8d05549fabd4f48f9606c7b24ce001b39371b3068d6c41e82",
            "_summary.csv": "478254c8aad923647c5dbfe9cb0a34b1284a827c8e113f5a600c6f2bd158495b",
        },
    ),
    # no cooling and no background loss: recoil heating ejects every atom
    # (survivor fraction 0.0, fitted lifetime 52.2 cycles)
    "survival-heating": (
        {"experiment": "survival", "survival.atoms": 30, "survival.cycles": 60,
         "cooling.reset": False, "loss.background_per_cycle": 0.0},
        {
            ".csv": "0857cc212ab302e5ba465eb7a7f4de25b2b92ea913d3b2d584ff9c4df753f90c",
            "_curve.csv": "5a9f8182f46196032c203a5d2b5154e2cc920345789b9903987c29e12d6e5f9e",
            "_summary.csv": "56001deefc5092dacfbca361513f687602407eaf8580bea8307370dd4f97f2e9",
        },
    ),
    "budget": (
        {"experiment": "budget"},
        {".csv": "a2642c938f847797a8504b3dbf3adc38ac69028587f683117a7d66d3b40d67ef"},
    ),
    # JSON, so the float pulse-length labels pass through the JSON cell format
    "rabi-lossy-json": (
        {"experiment": "rabi", "rabi.atoms": 20, "loss.background_per_cycle": 0.05,
         "output.format": "json"},
        {
            ".json": "b19808c4c4d2b06852d700ee8a0458513a85517290a811ef11388670b9219179",
            "_curve.json": "0b17bfe409140c09a317294fd51685365e233cb019d6153bdbbb3aaf9005b8c4",
            "_summary.json": "3ea6082ff298d00a0aba7d56dc29d6839fa9c4acb345974bc284667310c30229",
        },
    ),
    # the kernel's corners: one count calls bright, n_d = 4 in the fixed window, no
    # background (the adaptive stop then ends at the window) and no depumping (tau = inf);
    # digests taken before the probe kernel drew only its nonzero Poisson means and
    # binomial counts and cumulated its arrivals column by column
    "histogram-nd1": (
        {"experiment": "histogram", "histogram.trials_f1": 1000, "histogram.trials_f2": 1000,
         "readout.nd": 1},
        {
            ".csv": "d648dd9bfc0743a3a6bafbdb392bf578bf76e4e92cc02826773dcaf675ac6dbf",
            "_histogram.csv": "71af179ae46346fa46f133a28c271b80724f7414d5ef57e32b09e260cbc1214a",
            "_summary.csv": "a621453eb0f4c2a3eca0026797e15783d1a067a3f53c0ae28043bb60937e236a",
        },
    ),
    "histogram-fixed-nd4": (
        {"experiment": "histogram", "histogram.trials_f1": 1000, "histogram.trials_f2": 1000,
         "readout.mode": "fixed", "readout.nd": 4},
        {
            ".csv": "7bc5f746eb6ad0ca0e6f53d7cdcb07fc06e4cf74b90db2d88d9ffbf741efcb97",
            "_histogram.csv": "b38d41583988c7ec482e201a3d7f97b3a18e17e3c25498e5b5a30dbe9e706851",
            "_summary.csv": "c016025f7ca970cea51af1b20d0cc005113057311fdb4b4b2704ece82c973559",
        },
    ),
    "histogram-no-background": (
        {"experiment": "histogram", "histogram.trials_f1": 1000, "histogram.trials_f2": 1000,
         "probe.background_mean": 0.0},
        {
            ".csv": "8c4a215127a1f7ce5fef9d27d88b3e3ec02983c1c2f59ad247ba4e9c61ddcbf4",
            "_histogram.csv": "1bd8bb7a65b57b34399d85a1ec3ba42f36a1344d18a5e3565a424429c3848eac",
            "_summary.csv": "02a4e47327353a0e0df386e29e6217bf1bfe3b22d0b576f85a31695e88a7739b",
        },
    ),
    "histogram-fixed-no-background": (
        {"experiment": "histogram", "histogram.trials_f1": 1000, "histogram.trials_f2": 1000,
         "readout.mode": "fixed", "probe.background_mean": 0.0},
        {
            ".csv": "731ce44570abf82a68206c0993ca8f33b7373a37e25edb4bfe014b195ddd0485",
            "_histogram.csv": "3f2d6ca1de8a75ab72bb3e517bd23e38e7251f2e3b19cda046ba848d8f4bf749",
            "_summary.csv": "a6d281caa8199e1be53731d292716930ea0646c7e8f88149a1c8fc4c28f976b6",
        },
    ),
    "histogram-no-depump": (
        {"experiment": "histogram", "histogram.trials_f1": 1000, "histogram.trials_f2": 1000,
         "readout.depump_hazard": 0.0},
        {
            ".csv": "72771eecc5878a7b78e80147f0e685ebfeb62c5e64a2c589b2672ec0cc07c291",
            "_histogram.csv": "ee71b6cb480ca9aa1a0f0800b12eeffd1e2741cb366cfad8d6a5feec784dacfa",
            "_summary.csv": "507f52536f7b332320221b3e675570a7621147c78b2984d84311c607e88f125b",
        },
    ),
    # 80,000 record rows: more than one write chunk of the CSV
    "histogram-chunks": (
        {"experiment": "histogram", "histogram.trials_f1": 40000,
         "histogram.trials_f2": 40000},
        {
            ".csv": "f35cbf5ac731ca4a49ef635438657e4b1ba34eb8dd23dbb2745abe5484478a1b",
            "_histogram.csv": "94a663c4cac1eca87fa4c87c2e2994eb9809d8b90f617a46c57306f94fe0b4d6",
            "_summary.csv": "fbd07a4ee19af917003516a43e6a09a976314eec0c1c60d49fe05c64ff1ebb64",
        },
    ),
}


class TestParsing:
    def test_empty_file_gives_reference_profile(self):
        config = parse_config("")
        assert config["detector.efficiency"] == 0.02
        assert config["probe.scatter_rate"] == 3.5e6
        assert config["readout.depump_hazard"] == pytest.approx(
            DEFAULT_DEPUMP_HAZARD, rel=1e-15
        )
        assert config["readout.nd"] == 2
        assert config["probe.max_duration"] == 300e-6
        assert config["probe.background_mean"] == 0.3
        assert config["loss.background_per_cycle"] == 0.012
        assert config["rabi.frequency"] == 2950.0
        assert config["rabi.decoherence_time"] == 2.2e-3

    def test_comments_and_blank_lines_ignored(self):
        config = parse_config("# a comment\n\nreadout.nd = 3  # inline\n")
        assert config["readout.nd"] == 3

    def test_unknown_key_names_line_and_key(self):
        # the other keys were once accepted, and each changed no result table
        # or duplicated another input
        for key in (
            "bogus.key",
            "nd",
            "probe.nominal_detuning",
            "species.hyperfine_splitting",
            "prep.duration",
            "cooling.pulse_duration",
            "detector.dark_rate",
            "probe.effective_detuning",
            "loss.heating_threshold_fraction",
            "loss.f1_per_cycle",
            "loss.f2_per_cycle",
        ):
            with pytest.raises(ConfigError, match="unknown key") as err:
                parse_config(f"probe.scatter_rate = 1e6\n{key} = 1\n")
            assert err.value.line == 2
            assert err.value.key == key

    def test_range_error_names_key(self):
        # nan passes every comparison and inf every key without an upper bound
        for key, text in (
            ("detector.efficiency", "1.5"),
            ("detector.efficiency", "nan"),
            ("probe.scatter_rate", "inf"),
            ("probe.scatter_rate", "-inf"),
            ("trap.depth", "inf"),
            ("rabi.points", "5"),  # the damped-sinusoid fit needs 8
        ):
            with pytest.raises(ConfigError) as err:
                parse_config(f"{key} = {text}\n")
            assert err.value.key == key
            assert err.value.line == 1

    def test_key_set_twice_names_second_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config("readout.nd = 2\nprobe.scatter_rate = 1e6\nreadout.nd = 3\n")
        assert err.value.line == 3
        assert err.value.key == "readout.nd"
        assert "line 1" in str(err.value)

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config("just some words\n")
        assert err.value.line == 1

    def test_unparseable_number_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("detector.efficiency = fast\n")

    def test_bool_parsing(self):
        assert parse_config("cooling.reset = false\n")["cooling.reset"] is False
        with pytest.raises(ConfigError):
            parse_config("cooling.reset = maybe\n")

    def test_cross_field_validation(self):
        with pytest.raises(ConfigError):
            parse_config("trap.baseline_energy = 5e-3\n")  # above the 2 mK depth

    def test_rabi_frequency_must_be_below_the_scan_nyquist_limit(self):
        # 12 points over 3 ms resolve at most 1,833 Hz, below the 2,950 Hz drive
        with pytest.raises(ConfigError) as err:
            parse_config("rabi.points = 12\n")
        assert err.value.key == "rabi.frequency"
        assert "rabi.points" in str(err.value) and "rabi.span" in str(err.value)
        limit = 19 / (2 * 3e-3)  # 20 points over the default 3 ms span
        with pytest.raises(ConfigError):
            parse_config(f"rabi.points = 20\nrabi.frequency = {limit!r}\n")
        parse_config(f"rabi.points = 20\nrabi.frequency = {limit * (1 - 1e-12)!r}\n")

    def test_every_default_is_valid(self):
        for key, spec in SCHEMA.items():
            assert validate_value(key, spec.default) == spec.default, key

    def test_reference_lists_every_key(self):
        text = config_reference()
        for key in SCHEMA:
            assert key in text


class TestDomainBuilders:
    def test_cycle_config_matches_reference_profile(self):
        # every field of the reference cycle but the species, and the one key that feeds it
        feeds = {"scatter_rate": "probe.scatter_rate",
                 "background_mean": "probe.background_mean",
                 "adaptive": "readout.mode",
                 "n_d": "readout.nd",
                 "window": "probe.max_duration",
                 "net_efficiency": "detector.efficiency",
                 "depump_hazard": "readout.depump_hazard",
                 "depth": "trap.depth",
                 "baseline_energy": "trap.baseline_energy",
                 "background_loss": "loss.background_per_cycle",
                 "cooling_reset": "cooling.reset"}
        from atomreadout.physics import RB87_D2

        cfg = reference_cycle_config()
        assert [f.name for f in dataclasses.fields(cfg)] == ["species", *feeds]
        assert len(set(feeds.values())) == len(feeds)
        assert cfg.species == RB87_D2
        assert SCHEMA["readout.mode"].default == "adaptive" and cfg.adaptive is True
        for name, key in feeds.items():
            if name != "adaptive":
                assert getattr(cfg, name) == SCHEMA[key].default, key

    def test_fixed_mode_policy(self):
        config = parse_config("readout.mode = fixed\n")
        assert config.cycle_config().adaptive is False

    def test_rabi_grid_from_keys(self):
        config = parse_config("rabi.points = 8\nrabi.span = 1e-3\n")
        grid = config.rabi_config().pulse_lengths
        assert len(grid) == 8 and grid[-1] == pytest.approx(1e-3)

    def test_histogram_loss_models(self, tmp_path):
        # the one background-loss key sets the loss of both states' trials
        def summary(loss):
            config = parse_config(f"loss.background_per_cycle = {loss}\n").with_updates(
                {"histogram.trials_f1": 50, "histogram.trials_f2": 50,
                 "output.path": str(tmp_path / str(loss))}
            )
            return run(config).summary

        lossy, lossless = summary(0.9), summary(0.0)
        assert lossy["f1_loss_rate"] > 0.7 and lossy["f2_loss_rate"] > 0.7
        assert lossless["f1_losses"] == lossless["f2_losses"] == 0


# command lines that give one key twice, and the key each repeats
REPEATED_KEY_ARGV = [
    pytest.param(["--set", "readout.nd=2", "--set", "readout.nd=3"], "readout.nd", id="set-set"),
    pytest.param(["--seed", "3", "--set", "seed=4"], "seed", id="flag-set"),
    pytest.param(["--seed", "3", "--seed", "4"], "seed", id="flag-flag"),
    pytest.param(["--experiment", "rabi", "--set", "experiment=budget"], "experiment",
                 id="experiment-set"),
    pytest.param(["--trials", "5", "--set", "histogram.trials_f1=3"], "histogram.trials_f1",
                 id="trials-set"),
]


class TestCliOverrides:
    def parse_args(self, argv):
        return build_parser().parse_args(argv)

    def test_flag_overrides_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("readout.nd = 2\n")
        args = self.parse_args(["--config", str(path), "--set", "readout.nd=3"])
        assert load_config(args)["readout.nd"] == 3

    def test_set_overrides(self):
        args = self.parse_args(["--set", "probe.background_mean=0.4", "--seed", "9"])
        config = load_config(args)
        assert config["probe.background_mean"] == 0.4
        assert config["seed"] == 9

    def test_set_rejects_unknown_key(self):
        args = self.parse_args(["--set", "nope=1"])
        with pytest.raises(ConfigError):
            load_config(args)

    def test_trials_mapping_histogram(self):
        args = self.parse_args(["--experiment", "histogram", "--trials", "50"])
        config = load_config(args)
        assert config["histogram.trials_f1"] == 50
        assert config["histogram.trials_f2"] == 50

    @pytest.mark.parametrize("experiment", ["survival", "rabi"])
    def test_trials_mapping_atoms(self, experiment):
        args = self.parse_args(["--experiment", experiment, "--trials", "12"])
        assert load_config(args)[f"{experiment}.atoms"] == 12

    def test_trials_rejected_for_budget(self, tmp_path, capsys):
        args = self.parse_args(["--experiment", "budget", "--trials", "5"])
        with pytest.raises(ConfigError) as err:
            load_config(args)
        assert err.value.key == "--trials"
        code = main(["--experiment", "budget", "--trials", "5", "--out", str(tmp_path / "b")])
        assert code == 2
        assert "--trials" in capsys.readouterr().err
        assert not (tmp_path / "b.csv").exists()

    @pytest.mark.parametrize("argv, key", REPEATED_KEY_ARGV)
    def test_key_given_twice_on_the_command_line(self, argv, key):
        with pytest.raises(ConfigError) as err:
            load_config(self.parse_args(argv))
        assert err.value.key == key

    def test_trials_follow_the_file_experiment(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("experiment = survival\n")
        args = self.parse_args(["--config", str(path), "--trials", "7"])
        assert load_config(args)["survival.atoms"] == 7


def json_safe(value):
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: json_safe(v) for k, v in value.items()}
    if isinstance(value, list):
        return [json_safe(v) for v in value]
    return value


def row_writer(path, header, rows, fmt):
    """The row-by-row table writer that the column writer replaced, kept as its oracle."""

    def cell(value):
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, float):
            return repr(value)
        return str(value)

    if fmt == "csv":
        lines = [",".join(header)]
        lines.extend(",".join(cell(v) for v in row) for row in rows)
        path.write_text("\n".join(lines) + "\n")
        return
    payload = [dict(zip(header, row)) for row in rows]
    try:
        text = json.dumps(payload, sort_keys=True, allow_nan=False)
    except ValueError:
        text = json.dumps(json_safe(payload), sort_keys=True, allow_nan=False)
    path.write_text(text + "\n")


def writer_columns(n_rows):
    """Columns of every value kind the table writer treats apart, ``n_rows`` long."""
    big = np.iinfo(np.int64)
    patterns = (
        np.array([0, -7, big.min, big.max, 42, -1, 10, 100000]),
        np.array([2**64 - 1, 2**63, 0, 9], dtype=np.uint64),
        # either side of 9 digits, the most that the 32-bit digit loop formats
        np.array([999_999_999, 1_000_000_000, 2**32 - 1, 2**32, -999_999_999, -(2**32)]),
        np.array([999_999_999, -999_999_999, 0, 7], dtype=np.int32),
        np.array([-128, 127, 0, 2, -1], dtype=np.int8),
        np.array([True, False, False, True, False]),
        np.array(["F1", "", "\u00b5s", 'say "hi"', "lost", "\u65e5\u672c", "F2"]),
        np.array([1e-05, 0.1, math.nan, 0.1, math.inf, 0.0, -0.0, 3.0e-3, -math.inf, 1e-05]),
        np.array([0.5, 0.25], dtype=np.float32),
        [1, 0.1, True, "x", math.inf, -0.0, math.nan],
        ['say "hi"', "\u00b5s", "", "a b", "F1-detected"],
        Coded(np.array([2, 0, 1, 3, 0, 2], dtype=np.int8),
              ("", "\u00b5s\u65e5", 'say "hi"', "F2-detected")),
        Coded(np.array([0, 4, 1, 2, 3, 1, 5]), (math.nan, -0.0, 0.0, math.inf, -math.inf, 1e-05)),
    )
    header = ("trial", "u64", "wide", "narrow", "code", "lost", "label", "pulse", "f32",
              "value", "note", "cell", "length")
    columns = tuple(
        np.resize(p, n_rows) if isinstance(p, np.ndarray)
        else Coded(np.resize(p.codes, n_rows), p.labels) if isinstance(p, Coded)
        else (p * n_rows)[:n_rows]
        for p in patterns
    )
    rows = list(zip(*(
        c.tolist() if isinstance(c, np.ndarray)
        else [c.labels[k] for k in c.codes.tolist()] if isinstance(c, Coded)
        else c
        for c in columns
    )))
    return header, columns, rows


class RecordedFile:
    """Stands in for a table's open file, and keeps each write made to it."""

    def __init__(self):
        self.writes = []

    def write(self, data) -> None:
        self.writes.append(data)


class TestRunnerOutput:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("n_rows", [0, 5, 3073])
    # byte budgets below one row (a row per chunk) and of a few rows
    @pytest.mark.parametrize("budget", [2, 1024])
    def test_column_writer_matches_row_writer(self, fmt, n_rows, budget, tmp_path, monkeypatch):
        monkeypatch.setattr(runner, "WRITE_BYTES", budget)
        header, columns, rows = writer_columns(n_rows)
        _write_table(tmp_path / "columns", (header, columns), fmt)
        row_writer(tmp_path / "rows", header, rows, fmt)
        assert (tmp_path / "columns").read_bytes() == (tmp_path / "rows").read_bytes()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_writes_keep_to_the_byte_budget(self, fmt, tmp_path):
        header, columns, rows = writer_columns(20_000)
        out = RecordedFile()
        _write_rows(out, (header, columns), fmt)
        chunks = out.writes[1:-1]  # between the head and the tail
        assert len(chunks) >= 3
        assert max(len(chunk) for chunk in chunks) <= runner.WRITE_BYTES
        row_writer(tmp_path / "rows", header, rows, fmt)
        assert b"".join(map(bytes, out.writes)) == (tmp_path / "rows").read_bytes()

    def test_a_row_wider_than_the_budget_is_written_alone(self, monkeypatch):
        monkeypatch.setattr(runner, "WRITE_BYTES", 4)
        out = RecordedFile()
        _write_rows(out, (("label", "n"), (["a long label"] * 3, np.arange(3))), "csv")
        assert [bytes(chunk) for chunk in out.writes] == [
            b"label,n\n", b"a long label,0\n", b"a long label,1\n", b"a long label,2\n", b"",
        ]

    def test_a_failed_write_leaves_no_partial_file(self, tmp_path, monkeypatch):
        # chunks of a few rows, the second of which fails while it is filled
        monkeypatch.setattr(runner, "WRITE_BYTES", 64)
        fill = runner._fill_digits
        calls = []

        def failing_fill(*args):
            calls.append(args)
            if len(calls) == 2:
                raise RuntimeError("disk gone")
            fill(*args)

        monkeypatch.setattr(runner, "_fill_digits", failing_fill)
        table = (("n",), (np.arange(100),))
        fresh = tmp_path / "fresh"
        fresh.mkdir()
        with pytest.raises(RuntimeError, match="disk gone"):
            _write_table(fresh / "t.csv", table, "csv")
        assert list(fresh.iterdir()) == []
        # a file already at the path keeps its bytes
        old = tmp_path / "old"
        old.mkdir()
        (old / "t.csv").write_bytes(b"n\n7\n")
        calls.clear()
        with pytest.raises(RuntimeError, match="disk gone"):
            _write_table(old / "t.csv", table, "csv")
        assert list(old.iterdir()) == [old / "t.csv"]
        assert (old / "t.csv").read_bytes() == b"n\n7\n"

    def test_a_failed_manifest_replace_keeps_the_old_manifest(self, tmp_path, monkeypatch):
        stem = tmp_path / "b"
        config = default_config().with_updates({"experiment": "budget", "output.path": str(stem)})
        manifest = Path(run(config).manifest_file)
        before = manifest.read_bytes()
        replace = os.replace

        def failing_replace(src, dst):
            if Path(dst) == manifest:
                raise OSError("disk gone")
            replace(src, dst)

        monkeypatch.setattr(runner.os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk gone"):
            run(config.with_updates({"seed": 2}))
        assert manifest.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["b.csv", "b_manifest.json"]

    @pytest.mark.parametrize("codes", [np.array([True, False]), np.array([0.0, 1.0])])
    def test_coded_gathers_by_integer_codes_only(self, codes):
        # a bool array would select as a mask, and a float array cannot index
        with pytest.raises(TypeError, match="integer"):
            Coded(codes, ("a", "b"))

    @pytest.mark.parametrize("codes", [[-1, 0], [0, 2]])
    def test_coded_codes_index_the_labels(self, codes):
        with pytest.raises(ValueError, match="index the labels"):
            Coded(np.array(codes), ("a", "b"))

    @pytest.mark.parametrize(
        "column",
        [np.array(["a", "b\0c"]), ["a", "b\0c"], Coded(np.array([0, 1], np.int8), ("a", "b\0c"))],
    )
    def test_writer_refuses_a_nul_it_would_drop(self, column, tmp_path):
        # the writer drops NUL padding, so a CSV cell holding NUL would be cut short
        table = (("label",), (column,))
        with pytest.raises(ValueError, match="NUL"):
            _write_table(tmp_path / "t.csv", table, "csv")
        # JSON escapes it, so nothing is lost there
        _write_table(tmp_path / "t.json", table, "json")
        row_writer(tmp_path / "rows.json", ("label",), [("a",), ("b\0c",)], "json")
        assert (tmp_path / "t.json").read_bytes() == (tmp_path / "rows.json").read_bytes()

    def test_multi_block_tables_do_not_depend_on_workers(self, tmp_path, monkeypatch):
        # several blocks of rows per run, so that an error in splitting them
        # between pool workers shows in the tables
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        block = experiments.BLOCK
        cases = {
            "histogram": {"histogram.trials_f1": 2 * block + 17,
                          "histogram.trials_f2": 2 * block + 17},
            "survival": {"survival.atoms": block + 5, "survival.cycles": 3},
            "rabi": {"rabi.atoms": block + 5, "rabi.points": 20},
        }
        records = {"histogram": 4 * block + 34, "survival": 3 * (block + 5)}
        for experiment, sizes in cases.items():
            tables = []
            for workers in (1, 2):
                config = default_config().with_updates({
                    **sizes, "experiment": experiment, "workers": workers,
                    "output.path": str(tmp_path / f"{experiment}-{workers}" / "run"),
                })
                out = run(config)
                manifest = json.loads(Path(out.manifest_file).read_text())
                assert manifest["workers_used"] == workers
                tables.append({Path(p).name: Path(p).read_bytes() for p in out.result_files})
            assert tables[0] == tables[1], experiment
            if experiment in records:
                assert tables[0]["run.csv"].count(b"\n") == 1 + records[experiment]

    def test_one_block_of_rows_runs_in_process(self, tmp_path, monkeypatch):
        # rows that fill at most one block start no pool, whatever workers asks for
        class NoPool:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a pool started for one block of rows")

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        tables = []
        for workers in (1, 2):
            if workers == 2:
                monkeypatch.setattr(experiments, "ProcessPoolExecutor", NoPool)
            config = default_config().with_updates({
                "experiment": "rabi", "rabi.atoms": experiments.BLOCK, "rabi.points": 20,
                "workers": workers, "output.path": str(tmp_path / f"w{workers}" / "run"),
            })
            out = run(config)
            assert json.loads(Path(out.manifest_file).read_text())["workers_used"] == 1
            tables.append({Path(p).name: Path(p).read_bytes() for p in out.result_files})
        assert tables[0] == tables[1]

    def test_budget_fills_the_configured_trap_depth(self, tmp_path):
        # the row reads trap.depth, not the default depth it is pinned at
        rows = {}
        for depth in (2e-3, 1e-3):
            config = default_config().with_updates(
                {"experiment": "budget", "trap.depth": depth,
                 "output.path": str(tmp_path / str(depth))}
            )
            rows[depth] = run(config).summary["scatters_to_fill_trap_depth"]
        species = default_config().cycle_config().species
        assert rows[1e-3] == math.ceil(1e-3 / heating_per_scatter(species))
        assert rows[1e-3] != rows[2e-3]

    def test_budget_is_seed_independent(self, tmp_path):
        for seed, name in ((1, "a"), (999, "b")):
            config = default_config().with_updates(
                {"experiment": "budget", "seed": seed, "output.path": str(tmp_path / name)}
            )
            run(config)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    @pytest.mark.parametrize("key,value", [
        ("readout.depump_hazard", 0.0),
        ("readout.branching_to_f1", 0.0),
        ("readout.depump_hazard", 1e-9),  # below the on-resonance floor
    ])
    def test_budget_marks_missing_implied_detuning(self, key, value, tmp_path):
        implied = {"implied_effective_detuning_Hz", "depump_suppression_at_implied_detuning"}
        config = default_config().with_updates(
            {"experiment": "budget", "output.path": str(tmp_path / "a")}
        )
        reference = run(config).summary
        assert "implied_detuning_degenerate" not in reference
        assert depump_suppression(reference["implied_effective_detuning_Hz"]) == pytest.approx(
            reference["depump_suppression_at_implied_detuning"], rel=1e-12
        )
        config = config.with_updates({key: value, "output.path": str(tmp_path / "b")})
        summary = run(config).summary
        assert summary["implied_detuning_degenerate"] is True
        assert not implied & set(summary)
        assert "\nimplied_detuning_degenerate,true," in (tmp_path / "b.csv").read_text()

    def test_manifest_records_workers_used(self, tmp_path, monkeypatch):
        # one CPU caps the 64 requested workers at one, so no pool starts
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        config = default_config().with_updates(
            {"experiment": "survival", "survival.atoms": 3, "workers": 64,
             "output.path": str(tmp_path / "s")}
        )
        manifest = json.loads(Path(run(config).manifest_file).read_text())
        assert manifest["workers_used"] == 1
        assert manifest["config"]["workers"] == 64

    def test_manifest_records_the_environment(self, tmp_path):
        # the tables are byte-identical per (config, seed) only for a fixed numpy version
        config = default_config().with_updates(
            {"experiment": "budget", "output.path": str(tmp_path / "b")})
        manifest = json.loads(Path(run(config).manifest_file).read_text())
        assert manifest["environment"] == {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
        }

    def test_wall_time_survives_a_clock_step_back(self, tmp_path, monkeypatch):
        # the wall clock steps back an hour after its first reading
        clock, steps = runner.time.time, iter([0.0])
        monkeypatch.setattr(runner.time, "time", lambda: clock() - next(steps, 3600.0))
        config = default_config().with_updates(
            {"experiment": "budget", "output.path": str(tmp_path / "b")})
        manifest = json.loads(Path(run(config).manifest_file).read_text())
        assert manifest["wall_time_s"] >= 0

    def test_rerun_is_byte_identical(self, tmp_path):
        for name in ("x", "y"):
            config = default_config().with_updates(
                {
                    "experiment": "histogram",
                    "output.path": str(tmp_path / name),
                    "histogram.trials_f1": 150,
                    "histogram.trials_f2": 150,
                }
            )
            run(config)
        for suffix in (".csv", "_histogram.csv", "_summary.csv"):
            assert (tmp_path / f"x{suffix}").read_bytes() == (
                tmp_path / f"y{suffix}"
            ).read_bytes()

    def test_manifest_reproduces_run(self, tmp_path):
        from atomreadout.config import RunConfig

        config = default_config().with_updates(
            {
                "experiment": "survival",
                "output.path": str(tmp_path / "first"),
                "survival.atoms": 12,
                "survival.cycles": 20,
            }
        )
        out = run(config)
        manifest = json.loads((tmp_path / "first_manifest.json").read_text())
        rebuilt = RunConfig(manifest["config"]).with_updates(
            {"output.path": str(tmp_path / "second")}
        )
        run(rebuilt)
        assert (tmp_path / "first.csv").read_bytes() == (tmp_path / "second.csv").read_bytes()
        assert set(manifest["result_files"]) == {p.split("/")[-1] for p in out.result_files}

    def test_manifest_with_a_removed_key_is_rejected(self, tmp_path):
        config = default_config().with_updates(
            {"experiment": "budget", "output.path": str(tmp_path / "budget")}
        )
        values = json.loads(Path(run(config).manifest_file).read_text())["config"]
        with pytest.raises(ConfigError, match="detector.dark_rate"):
            RunConfig({**values, "detector.dark_rate": 5.0})
        with pytest.raises(ConfigError, match="detector.dark_rate"):
            RunConfig(values).with_updates({"detector.dark_rate": 5.0})
        with pytest.raises(ConfigError, match="trap.depth"):
            RunConfig({k: v for k, v in values.items() if k != "trap.depth"})
        with pytest.raises(ConfigError, match="detector.efficiency"):
            RunConfig({**values, "detector.efficiency": 2.0})

    def test_json_format(self, tmp_path):
        config = default_config().with_updates(
            {
                "experiment": "budget",
                "output.format": "json",
                "output.path": str(tmp_path / "budget"),
            }
        )
        run(config)
        rows = json.loads((tmp_path / "budget.json").read_text())
        names = {row["quantity"] for row in rows}
        assert "depump_suppression_on_resonance" in names

    def test_json_output_is_strict(self, tmp_path):
        # two atoms with 5% loss leave Rabi points unmeasured, with no fraction to report
        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        config = default_config().with_updates(
            {
                "experiment": "rabi",
                "rabi.atoms": 2,
                "loss.background_per_cycle": 0.05,
                "output.format": "json",
                "output.path": str(tmp_path / "rabi"),
            }
        )
        out = run(config)
        parsed = {
            path: json.loads(Path(path).read_text(), parse_constant=reject)
            for path in (*out.result_files, out.manifest_file)
        }
        curve = parsed[str(tmp_path / "rabi_curve.json")]
        assert any(row["f2_fraction"] is None for row in curve)
        assert all(row["n_measured"] > 0 for row in curve if row["f2_fraction"] is not None)

    def test_rabi_without_enough_points_degrades(self, tmp_path):
        # at 90% loss per cycle two atoms measure fewer than the 8 points a fit needs
        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        stem = tmp_path / "rabi"
        code = main(["--experiment", "rabi", "--trials", "2", "--format", "json",
                     "--set", "loss.background_per_cycle=0.9", "--out", str(stem)])
        assert code == 0
        parsed = {
            path.name: json.loads(path.read_text(), parse_constant=reject)
            for path in tmp_path.iterdir()
        }
        assert set(parsed) == {"rabi.json", "rabi_curve.json", "rabi_summary.json",
                               "rabi_manifest.json"}
        summary = {row["quantity"]: row["value"] for row in parsed["rabi_summary.json"]}
        assert summary["curve_fit_degenerate"] is True
        assert not any(name.startswith("fit_") for name in summary)
        assert parsed["rabi_manifest.json"]["summary"]["curve_fit_degenerate"] is True

    @pytest.mark.parametrize("case", sorted(PINNED_TABLES))
    def test_stream_layout_is_pinned(self, case, tmp_path):
        # Digests of the tables as the block kernel and its (1, state, block) /
        # (2, block, cycle) / (3, block, cycle) substream layout realise them. A
        # change that means to alter the realised samples updates these and says so.
        # A case writes CSV unless it sets output.format.
        updates, digests = PINNED_TABLES[case]
        config = default_config().with_updates(
            {"seed": 1, "workers": 1, "output.format": "csv", **updates,
             "output.path": str(tmp_path / "t")}
        )
        out = run(config)
        got = {
            Path(p).name[1:]: hashlib.sha256(Path(p).read_bytes()).hexdigest()
            for p in out.result_files
        }
        assert got == digests

    def test_csv_schema(self, tmp_path):
        config = default_config().with_updates(
            {
                "experiment": "histogram",
                "output.path": str(tmp_path / "h"),
                "histogram.trials_f1": 40,
                "histogram.trials_f2": 60,
            }
        )
        run(config)
        lines = (tmp_path / "h.csv").read_text().splitlines()
        assert lines[0] == "trial,prepared_state,counts,classified,lost"
        assert len(lines) == 1 + 40 + 60


# small runs of every experiment, and for each key that feeds the simulation or
# the budget (all but experiment, seed, workers and output.*) a perturbed value
LIVENESS_SIZES = {"histogram.trials_f1": 200, "histogram.trials_f2": 200,
                  "survival.atoms": 10, "survival.cycles": 40,
                  "rabi.atoms": 20, "rabi.points": 20}
PERTURBED = {
    "species.linewidth": 5.0e6,
    "species.excited_splitting": 200e6,
    "species.recoil_temperature": 2e-5,
    "detector.efficiency": 0.03,
    # far enough from the defaults to change calls that rest mostly on the scatter count
    "probe.scatter_rate": 5e5,
    "probe.max_duration": 50e-6,
    "probe.background_mean": 0.5,
    "readout.mode": "fixed",
    "readout.nd": 3,
    "readout.depump_hazard": 1e-3,
    "readout.branching_to_f1": 0.25,
    "trap.depth": 1e-4,
    "trap.baseline_energy": 1.99e-3,
    "loss.background_per_cycle": 0.5,
    "cooling.reset": False,
    **{key: size + 1 for key, size in LIVENESS_SIZES.items()},
    "rabi.span": 1e-3,
    "rabi.frequency": 2000.0,
    "rabi.decoherence_time": 1e-3,
}

MONTE_CARLO = ("histogram", "survival", "rabi")
# the experiments whose tables each perturbed key must change
READERS = {
    # the Monte Carlo takes the depump hazard as given, not from the line shape
    "species.linewidth": ("budget",),
    "species.excited_splitting": ("budget",),
    "species.recoil_temperature": ("budget", *MONTE_CARLO),
    "detector.efficiency": ("budget", *MONTE_CARLO),
    "probe.scatter_rate": MONTE_CARLO,
    "probe.max_duration": MONTE_CARLO,
    "probe.background_mean": ("budget", *MONTE_CARLO),
    "readout.mode": MONTE_CARLO,
    "readout.nd": ("budget", *MONTE_CARLO),
    "readout.depump_hazard": ("budget", *MONTE_CARLO),
    "readout.branching_to_f1": ("budget",),
    "trap.depth": ("budget", *MONTE_CARLO),
    "trap.baseline_energy": MONTE_CARLO,
    "loss.background_per_cycle": MONTE_CARLO,
    # not histogram: cooling follows the loss check, so it cannot change a one-cycle trial;
    # not rabi: 20 pulses of about 100 scatters heat an atom by at most about 1.4 mK on
    # average, below the 2 mK depth, so without cooling no Rabi atom is lost
    "cooling.reset": ("survival",),
    **{key: (key.split(".")[0],) for key in LIVENESS_SIZES},
    "rabi.span": ("rabi",),
    "rabi.frequency": ("rabi",),
    "rabi.decoherence_time": ("rabi",),
}


class TestKeyLiveness:
    """No config key that changes no output: each input must change a table of every
    experiment that reads it."""

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        """``tables(experiment, updates)``, and those tables at the defaults per experiment."""
        stem = tmp_path_factory.mktemp("liveness") / "t"

        def tables(experiment, updates):
            config = default_config().with_updates(
                {**LIVENESS_SIZES, **updates, "experiment": experiment, "output.path": str(stem)}
            )
            return [Path(p).read_bytes() for p in run(config).result_files]

        experiments = ("budget", "histogram", "survival", "rabi")
        return tables, {experiment: tables(experiment, {}) for experiment in experiments}

    def test_every_input_key_is_perturbed(self):
        inputs = {k for k in SCHEMA if k not in ("experiment", "seed", "workers")
                  and not k.startswith("output.")}
        assert set(PERTURBED) == set(READERS) == inputs

    @pytest.mark.parametrize("key", sorted(PERTURBED))
    def test_key_changes_a_result_table(self, key, runs):
        tables, reference = runs
        unchanged = [experiment for experiment in READERS[key]
                     if tables(experiment, {key: PERTURBED[key]}) == reference[experiment]]
        assert not unchanged, f"{key} changes no table of {unchanged}"


EXAMPLE_CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg"))


class TestCliProcess:
    def test_module_entry_point(self, tmp_path):
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "atomreadout",
                "--experiment",
                "budget",
                "--out",
                str(tmp_path / "b"),
            ],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert (tmp_path / "b.csv").exists()

    def test_runs_without_scipy(self, tmp_path):
        script = (
            "import sys\n"
            "import atomreadout\n"
            "from atomreadout.cli import main\n"
            f"out = {str(tmp_path / 'h')!r}\n"
            "assert main(['--experiment', 'histogram', '--trials', '20', '--out', out]) == 0\n"
            "assert 'scipy' not in sys.modules, 'scipy was imported'\n"
        )
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "h_summary.csv").exists()

    def test_heap_is_frozen_at_exit(self, tmp_path):
        # atexit runs its handlers last in, first out, so a handler registered
        # before the import sees the heap as the interpreter ends
        script = (
            "import atexit, gc\n"
            "atexit.register(lambda: print(gc.get_freeze_count()))\n"
            "from atomreadout.cli import main\n"
            f"out = {str(tmp_path / 'b')!r}\n"
            "assert main(['--experiment', 'budget', '--out', out]) == 0\n"
        )
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert int(result.stdout.splitlines()[-1]) > 0

    def test_main_leaves_the_heap_unfrozen(self, tmp_path):
        # a long-lived caller's objects stay collectable
        frozen = gc.get_freeze_count()
        assert main(["--experiment", "histogram", "--trials", "5", "--out", str(tmp_path / "h")]) == 0
        assert gc.get_freeze_count() == frozen

    @pytest.mark.parametrize("path", EXAMPLE_CONFIGS, ids=lambda path: path.name)
    def test_example_config_runs(self, path, tmp_path):
        assert main(["--config", str(path), "--trials", "20", "--out", str(tmp_path / "x")]) == 0

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("detector.efficiency = 1.5\n")
        code = main(["--config", str(bad), "--out", str(tmp_path / "x")])
        assert code == 2
        code = main(["--set", "detector.efficiency=nan", "--out", str(tmp_path / "y")])
        assert code == 2
        assert not (tmp_path / "y.csv").exists()

    def test_undersampled_rabi_scan_exit_code(self, tmp_path, capsys):
        argv = ["--experiment", "rabi", "--set", "rabi.points=12", "--out", str(tmp_path / "r")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "rabi.frequency" in err and "rabi.points" in err
        assert list(tmp_path.iterdir()) == []

    def test_key_set_twice_exit_code(self, tmp_path, capsys):
        twice = tmp_path / "twice.cfg"
        twice.write_text("readout.nd = 2\nreadout.nd = 3\n")
        out = str(tmp_path / "b")
        code = main(["--config", str(twice), "--experiment", "budget", "--out", out])
        assert code == 2
        assert "line 2" in capsys.readouterr().err
        assert not (tmp_path / "b.csv").exists()

    @pytest.mark.parametrize("argv, key", REPEATED_KEY_ARGV)
    def test_key_given_twice_exit_code(self, argv, key, tmp_path, capsys):
        assert main([*argv, "--out", str(tmp_path / "x")]) == 2
        assert repr(key) in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_config_given_twice_exit_code(self, tmp_path, capsys):
        # argparse would keep only the last file and silently drop the first
        first, second = tmp_path / "a.cfg", tmp_path / "b.cfg"
        first.write_text("readout.nd = 3\n")
        second.write_text("readout.nd = 4\n")
        out = tmp_path / "out"
        out.mkdir()
        argv = ["--experiment", "budget", "--config", str(first), "--config", str(second),
                "--out", str(out / "b")]
        assert main(argv) == 2
        assert "'--config'" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_config_not_utf8_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"experiment = budget\n\xff\n")
        assert main(["--config", str(bad), "--out", str(tmp_path / "b")]) == 2
        assert "cannot read config" in capsys.readouterr().err
        assert not (tmp_path / "b.csv").exists()

    def test_runtime_error_exit_code(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = main(["--experiment", "budget", "--out", str(blocker / "sub" / "x")])
        assert code == 3

    def test_list_keys(self, capsys):
        assert main(["--list-keys"]) == 0
        out = capsys.readouterr().out
        assert "detector.efficiency" in out
