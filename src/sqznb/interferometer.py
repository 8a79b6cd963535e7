"""Quantum strain noise of a Fabry-Perot Michelson with optional squeezed input.

Single-sided strain noise PSD for a tuned interferometer read out in the
phase quadrature:

    S_h(Omega) = h_sql(Omega)^2 / 2 * (1 + K^2) / K * V(theta_n)

where ``h_sql = sqrt(8 hbar / (M Omega^2 L^2))`` is the free-mass standard
quantum limit, K the optomechanical coupling strength

    K(Omega) = 16 P w0 g / (M L c Omega^2 (g^2 + Omega^2))

with P the circulating arm power, w0 the carrier angular frequency and g
the angular half-bandwidth of the arm cavities.  ``theta_n = atan2(1, -K)``
is the angle of the input-field quadrature combination that drives the
readout, and V(theta) is the variance of the injected field along that
angle.  Coherent vacuum input has V = 1 and recovers the familiar
shot/radiation-pressure budget ``(h_sql^2/2) (K + 1/K)``; squeezed input
replaces V with the loss- and jitter-degraded ellipse variance.

K falls monotonically with frequency: radiation pressure (K > 1) dominates
at low frequency, shot noise (K < 1) at high frequency, and the unsqueezed
noise touches the standard quantum limit where K = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .budget import NumericalRangeError, _freeze, _validated_curve
from .states import LossChain, PhaseNoise, SqueezedState, as_float, as_inject_db, mix, propagate

__all__ = [
    "ANGLE_POLICIES",
    "InterferometerConfig",
    "SqueezerSetup",
    "QuantumNoiseCurve",
    "NumericalRangeError",
    "sql_asd",
    "coupling_kappa",
    "quantum_noise_asd",
    "quantum_noise_curve",
]

ANGLE_POLICIES = ("none", "fixed", "fd-optimal")

#: Speed of light [m/s] and reduced Planck constant [J s], both exact in the 2019 SI.
c = 299792458.0
hbar = 6.62607015e-34 / (2 * math.pi)


@dataclass(frozen=True)
class InterferometerConfig:
    """Physical parameters of the quantum noise model.

    Attributes
    ----------
    arm_length : float
        Unperturbed arm cavity length, meters.
    mirror_mass : float
        Mass of each test-mass mirror, kilograms.
    arm_power : float
        Light power circulating in each arm cavity, watts.
    cavity_pole : float
        Half-bandwidth of the arm cavity response, hertz.
    wavelength : float
        Carrier wavelength, meters.
    """

    arm_length: float
    mirror_mass: float
    arm_power: float
    cavity_pole: float
    wavelength: float = 1.064e-6
    label: str = ""

    def __post_init__(self):
        for name in ("arm_length", "mirror_mass", "arm_power", "cavity_pole", "wavelength"):
            as_float(getattr(self, name), name, gt=0.0)

    @classmethod
    def from_finesse(
        cls,
        arm_length: float,
        mirror_mass: float,
        arm_power: float,
        finesse: float,
        wavelength: float = 1.064e-6,
        label: str = "",
    ) -> "InterferometerConfig":
        """Build a config with the cavity pole derived from the arm finesse.

        pole = c / (4 F L); equivalently the angular half-bandwidth is
        g = pi c / (2 F L).
        """
        length = as_float(arm_length, "arm_length", gt=0.0)
        pole = c / (4.0 * as_float(finesse, "finesse", gt=0.0) * length)
        return cls(arm_length, mirror_mass, arm_power, pole, wavelength, label)

    @property
    def carrier_omega(self) -> float:
        """Angular frequency of the carrier light, rad/s."""
        return 2.0 * math.pi * c / self.wavelength

    @property
    def pole_omega(self) -> float:
        """Angular half-bandwidth of the arm cavities, rad/s."""
        return 2.0 * math.pi * self.cavity_pole


@dataclass(frozen=True)
class SqueezerSetup:
    """Injected squeezing plus everything that degrades it on the way out.

    ``angle_policy`` selects what is injected into the dark port:

    - ``"none"``: coherent vacuum (no squeezer),
    - ``"fixed"``: squeezed vacuum with the minor axis at ``fixed_angle``,
    - ``"fd-optimal"``: squeezed vacuum whose minor axis tracks the readout
      noise quadrature at every frequency (idealized rotation).
    """

    inject_db: float = 0.0
    chain: LossChain = LossChain()
    phase_noise: PhaseNoise = PhaseNoise(0.0)
    angle_policy: str = "none"
    fixed_angle: float = math.pi / 2

    def __post_init__(self):
        as_inject_db(self.inject_db)
        if not isinstance(self.chain, LossChain):
            raise ValueError("chain must be a LossChain")
        if not isinstance(self.phase_noise, PhaseNoise):
            raise ValueError("phase_noise must be a PhaseNoise")
        policy = str(self.angle_policy).replace("_", "-")
        if policy not in ANGLE_POLICIES:
            raise ValueError(
                f"angle_policy must be one of {ANGLE_POLICIES}, got {self.angle_policy!r}"
            )
        object.__setattr__(self, "angle_policy", policy)
        as_float(self.fixed_angle, "fixed_angle", ge=0.0, lt=math.pi, unit=" rad")

    @property
    def efficiency(self) -> float:
        return self.chain.total

    def degraded_state(self) -> SqueezedState:
        """Squeezed state at the readout, after loss and phase jitter."""
        return propagate(self.inject_db, self.chain, self.phase_noise, angle=self.fixed_angle).state


def _angular(frequency) -> np.ndarray:
    f, _ = _validated_curve(np.atleast_1d(frequency))
    return 2.0 * np.pi * f


def _sql(config: InterferometerConfig, omega: np.ndarray) -> np.ndarray:
    return math.sqrt(8.0 * hbar / config.mirror_mass) / (config.arm_length * omega)


def _kappa(config: InterferometerConfig, omega: np.ndarray) -> np.ndarray:
    g = config.pole_omega
    numerator = 16.0 * config.arm_power * config.carrier_omega * g
    return numerator / (config.mirror_mass * config.arm_length * c * omega**2 * (g * g + omega**2))


def sql_asd(config: InterferometerConfig, frequency):
    """Free-mass standard-quantum-limit strain ASD, sqrt(8 hbar/(M Omega^2 L^2)).

    Scales as 1/f, 1/L and 1/sqrt(M).  Accepts a scalar or an array of
    frequencies in Hz.
    """
    out = _sql(config, _angular(frequency))
    return out.item() if np.ndim(frequency) == 0 else out


def coupling_kappa(config: InterferometerConfig, frequency):
    """Optomechanical coupling strength K at the given frequency.

    K = 16 P w0 g / (M L c Omega^2 (g^2 + Omega^2)); dimensionless, linear
    in the arm power and strictly decreasing in frequency.
    """
    out = _kappa(config, _angular(frequency))
    return out.item() if np.ndim(frequency) == 0 else out


def quantum_noise_asd(config: InterferometerConfig, setup: SqueezerSetup, frequency):
    """Strain-equivalent quantum noise ASD with the configured input field.

    With ``angle_policy == "none"`` this is the coherent-vacuum budget
    sqrt(h_sql^2/2 (K + 1/K)); squeezed policies scale the underlying PSD
    by the ellipse variance projected on the readout noise quadrature.
    """
    omega = _angular(frequency)
    kappa = _kappa(config, omega)
    h_sql = _sql(config, omega)
    vacuum_psd = 0.5 * h_sql**2 * (1.0 + kappa**2) / kappa

    if setup.angle_policy == "none":
        variance = 1.0
    else:
        state = setup.degraded_state()
        if setup.angle_policy == "fd-optimal":
            # minor axis tracks the noise quadrature: projection is v_minus
            variance = state.v_minus
        else:
            relative = np.arctan2(1.0, -kappa) - state.angle
            variance = mix(state.v_minus, state.v_plus, np.sin(relative) ** 2)

    out = np.sqrt(vacuum_psd * variance)
    return out.item() if np.ndim(frequency) == 0 else out


@dataclass(frozen=True, eq=False)
class QuantumNoiseCurve:
    """Quantum noise ASD sampled on a frequency grid, with its provenance."""

    frequencies: np.ndarray
    asd: np.ndarray
    config: InterferometerConfig
    setup: SqueezerSetup

    def __post_init__(self):
        f, (a,) = _validated_curve(self.frequencies, [("quantum noise ASD", self.asd)])
        object.__setattr__(self, "frequencies", _freeze(f))
        object.__setattr__(self, "asd", _freeze(a))

    def __len__(self):
        return self.frequencies.size


def quantum_noise_curve(
    config: InterferometerConfig, setup: SqueezerSetup, frequencies
) -> QuantumNoiseCurve:
    """Evaluate the quantum noise ASD over a grid of frequencies.

    The evaluation is point-wise and vectorized in one pass over the grid.
    """
    f = np.asarray(frequencies, dtype=float)
    return QuantumNoiseCurve(f, quantum_noise_asd(config, setup, f), config, setup)
