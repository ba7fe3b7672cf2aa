"""``scripts/compare_outputs.py`` runs CLI arguments that parse, and names each manifest entry
that differs, and nothing else."""

import importlib.util
import json
from dataclasses import dataclass, replace
from pathlib import Path

import pytest

from atomreadout.cli import build_parser, load_config

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


@dataclass(frozen=True)
class Invocation:
    """A benchmark invocation that passes no worker count."""

    experiment: str
    sizes: tuple[tuple[str, int], ...] = ()
    fmt: str = "csv"

    def argv(self, seed, out):
        args = ["--experiment", self.experiment, "--seed", str(seed), "--format", self.fmt,
                "--out", str(out)]
        return args + [arg for key, value in self.sizes for arg in ("--set", f"{key}={value}")]


@dataclass(frozen=True)
class Workload:
    invocations: tuple[Invocation, ...]


def test_only_the_pooled_runs_pass_a_worker_count(monkeypatch):
    script = load_script()
    rabi = Invocation("rabi", (("rabi.atoms", 3120), ("rabi.points", 50)), "json")
    workloads = {
        "suite": Workload((Invocation("budget"), replace(rabi, sizes=rabi.sizes[:1]))),
        "rabi": Workload((rabi, rabi)),
    }
    monkeypatch.setattr(script, "_workloads", lambda: workloads)
    runs = script._runs()
    # three distinct invocations in two formats, the config files, the corners, the pooled runs
    configs = len(list((script.ROOT / "configs").glob("*.cfg")))
    corners = len(script.CORNERS) * len(script.CORNER_SIZES)
    pooled = 2 * len(script.POOL_RUNS)
    assert len(runs) == 3 * 2 + configs + corners + pooled
    workers = [load_config(build_parser().parse_args(argv))["workers"] for _, argv in runs]
    assert not any("--workers" in argv for _, argv in runs[:-pooled])
    assert workers == [1] * (len(runs) - pooled) + [1, 2] * len(script.POOL_RUNS)
