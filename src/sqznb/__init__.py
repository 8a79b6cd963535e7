"""Squeezed-light noise budget toolkit.

Propagates squeezed-vacuum quadrature variances through optical loss and
phase jitter, models the quantum noise of Fabry-Perot Michelson
interferometers with squeezed input, composes strain noise budgets, and
solves the associated inverse and uncertainty problems.
"""

from .budget import (
    ASD_CSV_HEADER,
    AsdFileError,
    BandImprovement,
    NoiseBudget,
    NumericalRangeError,
    TabulatedASD,
    compose,
    equivalent_power_increase,
    improvement_db,
    ingest_asd,
    resample,
    write_asd_csv,
)
from .config import DEFAULT_BAND, LOW_BAND, GridSpec, RunConfig, load_run_config
from .estimate import (
    FitResult,
    InfeasibleTargetError,
    McUncertaintyResult,
    MeasurementWithUncertainty,
    NoFiniteOptimumError,
    OptimalInjection,
    fit_efficiency,
    mc_uncertainty,
    optimal_inject_db,
)
from .interferometer import (
    ANGLE_POLICIES,
    InterferometerConfig,
    QuantumNoiseCurve,
    SqueezerSetup,
    coupling_kappa,
    quantum_noise_asd,
    quantum_noise_curve,
    sql_asd,
)
from .states import (
    VACUUM,
    LossChain,
    PhaseNoise,
    PropagationResult,
    SqueezedState,
    apply_loss,
    apply_phase_noise,
    detected_db,
    propagate,
    state_from_db,
)

__version__ = "0.1.0"

__all__ = [
    "ANGLE_POLICIES",
    "ASD_CSV_HEADER",
    "AsdFileError",
    "BandImprovement",
    "DEFAULT_BAND",
    "FitResult",
    "GridSpec",
    "InfeasibleTargetError",
    "InterferometerConfig",
    "LOW_BAND",
    "LossChain",
    "McUncertaintyResult",
    "MeasurementWithUncertainty",
    "NoFiniteOptimumError",
    "NoiseBudget",
    "NumericalRangeError",
    "OptimalInjection",
    "PhaseNoise",
    "PropagationResult",
    "QuantumNoiseCurve",
    "RunConfig",
    "SqueezedState",
    "SqueezerSetup",
    "TabulatedASD",
    "VACUUM",
    "apply_loss",
    "apply_phase_noise",
    "compose",
    "coupling_kappa",
    "detected_db",
    "equivalent_power_increase",
    "fit_efficiency",
    "improvement_db",
    "ingest_asd",
    "load_run_config",
    "mc_uncertainty",
    "optimal_inject_db",
    "propagate",
    "quantum_noise_asd",
    "quantum_noise_curve",
    "resample",
    "sql_asd",
    "state_from_db",
    "write_asd_csv",
]
