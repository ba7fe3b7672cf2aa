"""``scripts/compare_outputs.py`` names each manifest entry that differs, and nothing else."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_outputs.py"


def load_script():
    spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def write_outputs(directory, wall_time_s, edit=lambda manifest: None):
    directory.mkdir()
    (directory / "out.csv").write_text("trial,counts\n0,2\n")
    manifest = {
        "artifact": {"name": "atomreadout", "version": "0.5.0"},
        "config": {"output.path": str(directory / "out"), "seed": 1},
        "result_files": ["out.csv"],
        "summary": {"f1_error_rate": 0.0362, "f1_trials": 1684},
        "wall_time_s": wall_time_s,
    }
    edit(manifest)
    (directory / "out_manifest.json").write_text(json.dumps(manifest))


@pytest.mark.parametrize("edit, entry", [
    pytest.param(lambda m: m["summary"].update(f1_error_rate=0.0368),
                 "summary.f1_error_rate: 0.0362 -> 0.0368", id="changed"),
    pytest.param(lambda m: m.update(environment={"numpy": "2.4.6"}),
                 "environment.numpy: (absent) -> '2.4.6'", id="added"),
])
def test_differences_name_the_differing_manifest_entry(tmp_path, edit, entry):
    # the manifests also differ in wall time and output path, which name the run
    write_outputs(tmp_path / "ours", 0.5, edit)
    write_outputs(tmp_path / "theirs", 0.7)
    differences = load_script()._differences(tmp_path / "ours", tmp_path / "theirs")
    assert differences == [f"out_manifest.json {entry}"]
