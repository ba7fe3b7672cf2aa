"""Stochastic simulator and analytic error budget for nondestructive
fluorescence readout of single trapped-atom qubits."""

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
    Atoms,
    CycleConfig,
    RabiConfig,
    ReadoutOutcome,
    apply_heating,
    check_loss,
    cool,
    derive_substream,
    experiment_histogram,
    experiment_rabi,
    experiment_survival,
    microwave_pulse,
    prepare_state,
    run_detection_cycle,
    transfer_probability,
    uniform_pulse_grid,
)
from .fitting import (
    FitResult,
    binomial_interval,
    build_histogram,
    fit_damped_sinusoid,
    fit_exponential,
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
