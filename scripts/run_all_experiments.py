#!/usr/bin/env python3
"""Run the four reference experiments and print their headline numbers.

Writes CSV tables plus manifests under --outdir (default ./results) at the
calibrated reference operating point, then summarizes: feasibility budget, dark/bright
misclassification rates, trap lifetime, and the fitted Rabi curve.
"""

import argparse
from pathlib import Path

from atomreadout.config import ConfigError, default_config
from atomreadout.runner import run


def no_fit(summary: dict) -> str:
    """Why a Rabi summary holds no fitted values."""
    if summary.get("fit_converged") is False:
        return "fit did not converge"
    return "too little to fit (degenerate)"


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="master seed override")
    args = parser.parse_args(argv)

    outdir = Path(args.outdir)
    overrides = {} if args.seed is None else {"seed": args.seed}
    try:
        # every setting is checked before the first run writes anything
        configs = [
            default_config().with_updates(
                {**overrides, "experiment": experiment, "output.path": str(outdir / experiment)}
            )
            for experiment in ("budget", "histogram", "survival", "rabi")
        ]
    except ConfigError as exc:
        parser.error(str(exc))
    summaries = {}
    for config in configs:
        output = run(config)
        summaries[config["experiment"]] = output.summary
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
    if "lifetime_cycles" in surv:
        print(f"  fitted lifetime   : {surv['lifetime_cycles']:.1f} "
              f"± {surv['lifetime_variance'] ** 0.5:.1f} cycles "
              f"({surv['loss_per_cycle_fit']:.2%} loss per cycle)")
    else:
        print("  fitted lifetime   : too little to fit (degenerate)")
    print(f"  full-length runs  : {surv['full_length_rows']} of {surv['atoms']}")
    print(f"  F2-detected cells : {surv['f2_detected_fraction']:.2%} of those not lost")
    print("microwave rabi ensemble")
    if "fit_frequency_hz" in rabi:
        print(f"  fitted frequency  : {rabi['fit_frequency_hz']:.1f} "
              f"± {rabi['fit_frequency_variance'] ** 0.5:.1f} Hz")
        print(f"  decoherence time  : {rabi['fit_decoherence_time_s'] * 1e3:.2f} "
              f"± {rabi['fit_decoherence_time_variance'] ** 0.5 * 1e3:.2f} ms")
        print(f"  amplitude / offset: {rabi['fit_amplitude']:.3f} / {rabi['fit_offset']:.4f}")
    else:
        print(f"  fitted frequency  : {no_fit(rabi)}")


if __name__ == "__main__":
    main()
