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
from .detection import poisson_tail_at_least
from .experiments import (
    CycleConfig,
    RabiConfig,
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
    Atoms,
    ProbeConfig,
    RB87_D2,
    SpeciesConstants,
    depump_hazard_per_scatter,
    depump_suppression,
    heating_for_scatters,
    heating_per_scatter,
    misdetection_probability,
    required_mean_photons,
    scatters_for_detected,
)
from .readout import (
    ADAPTIVE_STOP,
    FIXED_WINDOW,
    ReadoutOutcome,
    ReadoutPolicy,
    analytic_f1_error,
    analytic_f2_error,
    calibrate_depump,
    implied_effective_detuning,
)
from .runner import ARTIFACT_VERSION, RunOutput, run
from .seeding import derive_substream
from .trap import TrapConfig, apply_heating, check_loss, cool

__version__ = ARTIFACT_VERSION
