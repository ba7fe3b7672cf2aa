"""Run the atomreadout CLI in this process, as its console script does.

Usage: python3 launch.py STAMP MODE RUN_ID -- CLI-ARGS...

MODE is one of
  none   no spans; only the moment the config is built is stamped
  setup  import and build the config, stamp, and exit without running
  outer  spans around the config build, run() and the experiment call
  full   spans around every wrapped name in atomreadout.experiments and
         atomreadout.runner

STAMP receives a JSON object with the import time, the set-up stamp (a
CLOCK_MONOTONIC reading, comparable with the parent's) and the peak resident
set. In the span modes the
spans go to STAMP with the suffix ``.spans`` (see tracing.Recorder.dump).
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def _instrument(recorder, full: bool) -> None:
    from atomreadout import cli, experiments, runner
    from atomreadout.physics import F2
    from tracing import (
        CONFIG, CYCLE_BRIGHT, CYCLE_DARK, EXPERIMENTS, FIT, PREPARE, PULSE, RUN, SEED, SUMMARY,
        TRAP, WRITE,
    )

    def patch(module, name: str, after=None) -> None:
        attr = name.split(".", 1)[1]
        setattr(module, attr, recorder.wrap(name, getattr(module, attr), after))

    patch(cli, CONFIG)
    patch(cli, RUN)
    for name in EXPERIMENTS:
        patch(runner, name)

    class CountingPool(experiments.ProcessPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            recorder.count("pool.tasks")
            return super().submit(fn, *args, **kwargs)

    experiments.ProcessPoolExecutor = CountingPool
    if not full:
        return

    for name in (SEED, *PREPARE, PULSE, *TRAP, *SUMMARY):
        patch(experiments, name)
    for name in FIT:
        patch(experiments, name, lambda fit, _: recorder.count("fit.iterations", fit.iterations))

    def count_record(result, _) -> None:
        _, record = result
        recorder.count("cycle.depumped", int(record.depumped_during_probe))
        recorder.count("cycle.lost", int(not record.atom_present_after))
        recorder.count("cycle.scatters", record.scatters)

    bright = recorder.wrap(CYCLE_BRIGHT, experiments.run_detection_cycle, count_record)
    dark = recorder.wrap(CYCLE_DARK, experiments.run_detection_cycle, count_record)

    def run_detection_cycle(atom, *args, **kwargs):
        return (bright if atom.hyperfine == F2 else dark)(atom, *args, **kwargs)

    experiments.run_detection_cycle = run_detection_cycle

    def count_write(_, args) -> None:
        path, (_header, rows), _fmt = args
        recorder.count("write.rows", len(rows))
        recorder.count("write.bytes", Path(path).stat().st_size)

    patch(runner, WRITE, count_write)


def _peak_rss_kb() -> int:
    """Largest resident set of this process and of the children it reaped, in KiB.

    This process's own ru_maxrss would also count the launching process's
    pages at exec, so its own high-water mark is read from /proc instead.
    """
    own = 0
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                own = int(line.split()[1])
    return max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def main() -> int:
    stamp_path, mode, run_id, separator, *argv = sys.argv[1:]
    if separator != "--" or mode not in ("none", "setup", "outer", "full"):
        raise SystemExit(__doc__)
    started = time.perf_counter()
    from atomreadout import cli
    stamp: dict[str, float] = {"import_s": time.perf_counter() - started}

    build = cli.load_config

    def stamped_load_config(args):
        config = build(args)
        stamp["setup_done"] = time.clock_gettime(time.CLOCK_MONOTONIC)
        return config

    cli.load_config = stamped_load_config
    recorder = None
    if mode in ("outer", "full"):
        # imported only here, so that untraced runs pay nothing for it
        from tracing import Recorder

        recorder = Recorder()
        _instrument(recorder, full=mode == "full")

    if mode == "setup":
        cli.load_config(cli.build_parser().parse_args(argv))
        code = 0
    else:
        code = cli.main(argv)
    stamp["peak_rss_kb"] = _peak_rss_kb()
    with open(stamp_path, "w") as fh:
        json.dump(stamp, fh)
    if recorder is not None:
        recorder.dump(Path(stamp_path).with_suffix(".spans"), int(run_id))
    return code


if __name__ == "__main__":
    sys.exit(main())
