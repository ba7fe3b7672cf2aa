#!/usr/bin/env python3
"""Run the four reference experiments and print their headline numbers.

Writes CSV tables plus manifests under --outdir (default ./results) at the
calibrated reference operating point, then summarizes: feasibility budget, dark/bright
misclassification rates, trap lifetime, and the fitted Rabi curve.
"""

import argparse
from pathlib import Path

from atomreadout.config import default_config
from atomreadout.runner import run


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="master seed override")
    parser.add_argument("--workers", type=int, default=1, help="process-pool workers")
    args = parser.parse_args(argv)

    outdir = Path(args.outdir)
    summaries = {}
    for experiment in ("budget", "histogram", "survival", "rabi"):
        overrides = {
            "experiment": experiment,
            "output.path": str(outdir / experiment),
            "workers": args.workers,
        }
        if args.seed is not None:
            overrides["seed"] = args.seed
        output = run(default_config().with_updates(overrides))
        summaries[experiment] = output.summary
        print(f"wrote {', '.join(output.result_files)}")

    budget = summaries["budget"]
    hist = summaries["histogram"]
    surv = summaries["survival"]
    rabi = summaries["rabi"]
    print()
    print("feasibility budget")
    print(f"  mean counts for <1% / <0.1% zero-count error : "
          f"{budget['mean_detected_for_1pct_error']:.2f} / {budget['mean_detected_for_0p1pct_error']:.2f}")
    print(f"  depump suppression at 0 / 1 / 2 linewidths   : "
          f"{budget['depump_suppression_on_resonance']:.0f} / "
          f"{budget['depump_suppression_at_one_linewidth']:.0f} / "
          f"{budget['depump_suppression_at_two_linewidths']:.0f}")
    print(f"  heating for 250 scatters                     : "
          f"{budget['heating_for_250_scatters_K'] * 1e6:.1f} uK")
    print("single-shot detection")
    print(f"  dark-state error  : {hist['f1_error_rate']:.3%} "
          f"(Wilson [{hist['f1_error_wilson_low']:.3%}, {hist['f1_error_wilson_high']:.3%}])")
    print(f"  bright-state error: {hist['f2_error_rate']:.3%}")
    print(f"  loss per cycle    : {hist['f1_loss_rate']:.2%} (dark) / {hist['f2_loss_rate']:.2%} (bright)")
    print("repeated measurements")
    print(f"  fitted lifetime   : {surv['lifetime_cycles']:.1f} cycles "
          f"({surv['loss_per_cycle_fit']:.2%} loss per cycle)")
    print(f"  full-length runs  : {surv['full_length_rows']} of {surv['atoms']}")
    print("microwave rabi ensemble")
    print(f"  fitted frequency  : {rabi['fit_frequency_hz']:.1f} Hz")
    print(f"  decoherence time  : {rabi['fit_decoherence_time_s'] * 1e3:.2f} ms")
    print(f"  amplitude / offset: {rabi['fit_amplitude']:.3f} / {rabi['fit_offset']:.4f}")


if __name__ == "__main__":
    main()
