"""``scripts/run_all_experiments.py`` reads the summaries by key; a renamed key breaks it."""

import importlib.util
import re
from dataclasses import replace
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
    assert re.search(r"fitted lifetime   : \d+\.\d ± \d+\.\d cycles", out)
    assert re.search(r"fitted frequency  : \d+\.\d ± \d+\.\d Hz", out)
    assert re.search(r"decoherence time  : \d+\.\d\d ± \d+\.\d\d ms", out)
    assert re.search(r"F2-detected cells : \d+\.\d\d% of those not lost", out)
    for experiment in ("budget", "histogram", "survival", "rabi"):
        assert (tmp_path / f"{experiment}_manifest.json").is_file()


@pytest.mark.parametrize("flag, value", [("--seed", "-1")])
def test_bad_setting_exits_2_and_writes_nothing(tmp_path, capsys, flag, value):
    outdir = tmp_path / "results"
    with pytest.raises(SystemExit) as exit_info:
        load_script().main(["--outdir", str(outdir), flag, value])
    assert exit_info.value.code == 2
    assert "config error" in capsys.readouterr().err
    assert not outdir.exists()


@pytest.mark.parametrize("flag, reason, lines", [
    # the survival estimate is closed form, so only the Rabi fit can fail to converge
    pytest.param({"fit_converged": False}, "fit did not converge", 1, id="unconverged"),
    pytest.param({"lifetime_fit_degenerate": True, "curve_fit_degenerate": True},
                 "too little to fit", 2, id="degenerate"),
])
def test_prints_a_summary_without_a_fit(tmp_path, capsys, flag, reason, lines):
    # the survival and Rabi summaries with none of the fitted rows, as a run writes them
    # when a fit did not converge or had too little to fit
    script = load_script()
    real_run = script.run
    fitted = ("fit_", "lifetime_cycles", "lifetime_variance", "loss_per_cycle_fit")

    def run_without_fits(config):
        output = real_run(config)
        if config["experiment"] in ("survival", "rabi"):
            kept = {k: v for k, v in output.summary.items() if not k.startswith(fitted)}
            output = replace(output, summary=kept | flag)
        return output

    script.run = run_without_fits
    script.main(["--outdir", str(tmp_path)])
    assert capsys.readouterr().out.count(reason) == lines
