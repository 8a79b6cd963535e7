"""Squeezed-light noise budget toolkit.

Propagates squeezed-vacuum quadrature variances through optical loss and
phase jitter, models the quantum noise of Fabry-Perot Michelson
interferometers with squeezed input, composes strain noise budgets, and
solves the associated inverse and uncertainty problems.

The public names load on first use (PEP 562), so ``import sqznb`` and the
scalar commands never import numpy; ``sqznb.X`` is the object that the
submodule defining ``X`` holds.
"""

import importlib

__version__ = "0.1.0"

#: Submodule -> the public names it provides; each submodule's ``__all__`` is read from here.
_PROVIDERS = {
    "budget": (
        "ASD_CSV_HEADER",
        "AsdFileError",
        "BandImprovement",
        "NoiseBudget",
        "TabulatedASD",
        "compose",
        "equivalent_power_increase",
        "improvement_db",
        "ingest_asd",
        "resample",
        "write_asd_csv",
    ),
    "config": ("DEFAULT_BAND", "LOW_BAND", "GridSpec", "RunConfig", "load_run_config"),
    "estimate": (
        "FitResult",
        "InfeasibleTargetError",
        "McUncertaintyResult",
        "MeasurementWithUncertainty",
        "NoFiniteOptimumError",
        "OptimalInjection",
        "fit_efficiency",
        "mc_uncertainty",
        "optimal_inject_db",
    ),
    "interferometer": (
        "InterferometerConfig",
        "QuantumNoiseCurve",
        "SqueezerSetup",
        "coupling_kappa",
        "quantum_noise_asd",
        "quantum_noise_curve",
        "sql_asd",
    ),
    "states": (
        "ANGLE_POLICIES",
        "NumericalRangeError",
        "VACUUM",
        "LossChain",
        "PhaseNoise",
        "PropagationResult",
        "SqueezedState",
        "apply_loss",
        "apply_phase_noise",
        "detected_db",
        "propagate",
        "state_from_db",
    ),
}

#: Public name -> the submodule that provides it.
_EXPORTS = {name: module for module, names in _PROVIDERS.items() for name in names}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name in _PROVIDERS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_PROVIDERS})
