"""The names the benchmark's tracer wraps must exist on the modules it patches.

``perfbench/launch.py`` replaces these module attributes by name in its traced
passes; a source change that drops or renames one, or stops calling it through
the module attribute, would break only those passes. The names are checked
here without starting the benchmark, and a run through wrapped names must
record a span for each.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from atomreadout import runner
from atomreadout.config import default_config

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


def test_write_counter_unpacks_the_write_call(tmp_path, monkeypatch):
    # launch.py counts each table write by unpacking its arguments as
    # (path, (header, columns), fmt) and reading the written file's size
    tracing = load_tracing()
    recorder = tracing.Recorder()

    def count_write(_, args) -> None:
        path, (_header, columns), _fmt = args
        recorder.count("write.columns", len(columns))
        recorder.count("write.bytes", Path(path).stat().st_size)

    module_name, attr = tracing.WRITE.split(".", 1)
    assert module_name == "runner"
    monkeypatch.setattr(runner, attr, recorder.wrap(tracing.WRITE, getattr(runner, attr),
                                                    count_write))
    config = default_config().with_updates({
        "experiment": "histogram", "histogram.trials_f1": 20, "histogram.trials_f2": 20,
        "output.path": str(tmp_path / "h"),
    })
    out = runner.run(config)
    assert recorder.counters["write.bytes"] == sum(
        Path(path).stat().st_size for path in out.result_files
    )
    assert recorder.counters["write.columns"] == 5 + 3 + 2  # records, histogram, summary


def test_wrapped_names_are_called_through_their_modules(tmp_path, monkeypatch):
    # launch.py wraps these names in place; a caller that bound the function
    # object at import would skip the wrapper and leave its span empty
    tracing = load_tracing()
    recorder = tracing.Recorder()

    def patch(name: str, after=None) -> None:
        module_name, attr = name.split(".", 1)
        module = importlib.import_module(f"atomreadout.{module_name}")
        monkeypatch.setattr(module, attr, recorder.wrap(name, getattr(module, attr), after))

    for name in (*tracing.EXPERIMENTS, *tracing.SUMMARY, tracing.WRITE):
        patch(name)
    for name in tracing.FIT:
        patch(name, lambda fit, _: recorder.count("fit.iterations", fit.iterations))

    for experiment, sizes in (
        ("histogram", {"histogram.trials_f1": 20, "histogram.trials_f2": 20}),
        ("survival", {"survival.atoms": 20, "survival.cycles": 30}),
        ("rabi", {"rabi.atoms": 20, "rabi.points": 20}),
    ):
        runner.run(default_config().with_updates({
            "experiment": experiment, **sizes, "output.path": str(tmp_path / experiment),
        }))
    fired = {recorder.names[i] for i in recorder.name_of}
    assert set(recorder.names) - fired == set()
    assert recorder.counters["fit.iterations"] > 0
