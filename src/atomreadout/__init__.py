"""Stochastic simulator and analytic error budget for nondestructive
fluorescence readout of single trapped-atom qubits.

The public names are the runs (``run`` and the three ``experiment_*``
functions), their configs, the fits and histogram tools that build the
summaries, and the closed forms of ``physics``. The steps of the Monte Carlo
kernel (the atom block, state preparation, heating, the loss check, cooling,
the microwave pulse, the substream derivation) live in
``atomreadout.experiments`` with no compatibility promise.
"""

import os

# numpy's bundled OpenBLAS starts a worker thread per extra core as numpy loads,
# which spins for about 0.1 s of CPU and then sleeps; this package never gives
# it work, as its only BLAS calls are the fits' solves of 2-4 parameters.
# Set before numpy's first import (the next line); a value the caller set wins,
# and pool workers inherit it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .config import (
    ConfigError,
    DEFAULT_DEPUMP_HAZARD,
    DEFAULT_SEED,
    RunConfig,
    default_config,
    parse_config,
    reference_cycle_config,
)
from .experiments import (
    CycleConfig,
    RabiConfig,
    experiment_histogram,
    experiment_rabi,
    experiment_survival,
    transfer_probability,
)
from .fitting import (
    FitResult,
    binomial_interval,
    build_histogram,
    fit_damped_sinusoid,
)
from .physics import (
    F1,
    F2,
    RB87_D2,
    SpeciesConstants,
    analytic_f1_error,
    analytic_f2_error,
    calibrate_depump,
    depump_hazard_per_scatter,
    depump_suppression,
    heating_for_scatters,
    heating_per_scatter,
    implied_effective_detuning,
    misdetection_probability,
    poisson_tail_at_least,
    required_mean_photons,
    scatters_for_detected,
)
from .runner import ARTIFACT_VERSION, RunOutput, run

__version__ = ARTIFACT_VERSION
