"""The names the benchmark's tracer wraps must exist on the modules it patches.

``perfbench/launch.py`` replaces these module attributes by name in its traced
passes; a source change that drops or renames one would break only those
passes, so the names are checked here without starting the benchmark.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks itself up there
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves():
    tracing = load_tracing()
    names = [
        tracing.CONFIG,
        tracing.RUN,
        "cli.run",  # launch.py patches the RUN span onto cli's imported name
        tracing.WRITE,
        *tracing.EXPERIMENTS,
        tracing.SEED,
        *tracing.PREPARE,
        tracing.PULSE,
        *tracing.TRAP,
        *tracing.FIT,
        *tracing.SUMMARY,
        tracing.CYCLE_BRIGHT.removesuffix(".bright"),
        tracing.CYCLE_DARK.removesuffix(".dark"),
        "experiments.ProcessPoolExecutor",
    ]
    missing = []
    for name in names:
        module_name, attr = name.split(".", 1)
        module = importlib.import_module(f"atomreadout.{module_name}")
        if not callable(getattr(module, attr, None)):
            missing.append(name)
    assert not missing, f"names the benchmark wraps are gone: {missing}"
