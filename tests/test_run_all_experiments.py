"""``scripts/run_all_experiments.py`` reads the summaries by key; a renamed key breaks it."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_all_experiments.py"


def test_prints_every_headline_section(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("run_all_experiments", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
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
