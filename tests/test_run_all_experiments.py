"""``scripts/run_all_experiments.py`` reads the summaries by key; a renamed key breaks it."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_all_experiments.py"


def load_script():
    spec = importlib.util.spec_from_file_location("run_all_experiments", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_prints_every_headline_section(tmp_path, capsys):
    script = load_script()
    script.main(["--outdir", str(tmp_path)])
    out = capsys.readouterr().out
    for section in (
        "feasibility budget",
        "single-shot detection",
        "repeated measurements",
        "microwave rabi ensemble",
    ):
        assert f"\n{section}\n" in out
    assert "fitted lifetime" in out and "fitted frequency" in out
    for experiment in ("budget", "histogram", "survival", "rabi"):
        assert (tmp_path / f"{experiment}_manifest.json").is_file()


@pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--workers", "0")])
def test_bad_setting_exits_2_and_writes_nothing(tmp_path, capsys, flag, value):
    outdir = tmp_path / "results"
    with pytest.raises(SystemExit) as exit_info:
        load_script().main(["--outdir", str(outdir), flag, value])
    assert exit_info.value.code == 2
    assert "config error" in capsys.readouterr().err
    assert not outdir.exists()
