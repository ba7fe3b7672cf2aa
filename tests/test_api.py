"""The package's public names, CLI options and one-BLAS-thread import default,
and the README's library example run as written."""

import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import atomreadout
from atomreadout.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC_NAMES = {
    "ARTIFACT_VERSION", "ConfigError", "CycleConfig", "DEFAULT_DEPUMP_HAZARD", "DEFAULT_SEED",
    "F1", "F2", "FitResult", "RB87_D2", "RabiConfig", "RunConfig", "RunOutput",
    "SpeciesConstants", "analytic_f1_error", "analytic_f2_error", "binomial_interval",
    "build_histogram", "calibrate_depump", "default_config", "depump_hazard_per_scatter",
    "depump_suppression", "experiment_histogram", "experiment_rabi", "experiment_survival",
    "fit_damped_sinusoid", "heating_for_scatters", "heating_per_scatter",
    "implied_effective_detuning", "misdetection_probability", "parse_config",
    "poisson_tail_at_least", "reference_cycle_config", "required_mean_photons", "run",
    "scatters_for_detected", "transfer_probability",
}


def test_package_exports_the_public_names():
    exported = {
        name for name, value in vars(atomreadout).items()
        if not name.startswith("__") and not isinstance(value, types.ModuleType)
    }
    assert exported == PUBLIC_NAMES


CLI_OPTIONS = {
    "-h", "--help", "--config", "--experiment", "--seed", "--out", "--format", "--workers",
    "--trials", "--set", "--list-keys",
}


def test_cli_accepts_exactly_the_pinned_options():
    parser = build_parser()
    assert {option for action in parser._actions for option in action.option_strings} == CLI_OPTIONS


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})


def _import_in_child(script: str, blas_threads: str | None = None) -> str:
    """stdout of a fresh interpreter that imports atomreadout and runs ``script``.

    The child's OPENBLAS_NUM_THREADS is ``blas_threads``, or unset: this
    process's own import of the package may have set it here.
    """
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    result = subprocess.run([sys.executable, "-c", "import os, atomreadout\n" + script],
                            env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_import_starts_no_blas_threads():
    assert _import_in_child("print(len(os.listdir('/proc/self/task')))") == "1"


def test_import_keeps_the_callers_blas_threads():
    assert _import_in_child("print(os.environ['OPENBLAS_NUM_THREADS'])", "2") == "2"
