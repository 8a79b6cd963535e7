"""Quantum strain noise of a Fabry-Perot Michelson with optional squeezed input.

Single-sided strain noise PSD for a tuned interferometer read out in the
phase quadrature:

    S_h(Omega) = h_sql(Omega)^2 / 2 * (1 + K^2) / K * V(theta_n)

where ``h_sql = sqrt(8 hbar / (M Omega^2 L^2))`` is the free-mass standard
quantum limit, K the optomechanical coupling strength

    K(Omega) = 16 P w0 g / (M L c Omega^2 (g^2 + Omega^2))

with P the circulating arm power, w0 the carrier angular frequency and g the
angular half-bandwidth of the arm cavities.  ``theta_n = atan2(1, -K)`` is
the angle of the input-field quadrature combination that drives the readout,
and V(theta) is the variance of the injected field along that angle; with
the minor axis at a fixed angle phi it mixes v_minus and v_plus with weight
sin^2(theta_n - phi) = (cos phi + K sin phi)^2 / (1 + K^2), in that closed
form.  Coherent vacuum input has V = 1 and recovers the familiar
shot/radiation-pressure budget ``(h_sql^2/2) (K + 1/K)``; squeezed input
replaces V with the loss- and jitter-degraded ellipse variance.

K falls monotonically with frequency: radiation pressure (K > 1) dominates
at low frequency, shot noise (K < 1) at high frequency, and the unsqueezed
noise touches the standard quantum limit where K = 1.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import _PROVIDERS
from .budget import _freeze, _real_array, _validated_curve
from .states import ANGLE_POLICIES, MAX_INJECT_DB, VACUUM, LossChain, NumericalRangeError, PhaseNoise
from .states import SqueezedState, _quote, as_float, as_inject_db, mix, propagate

__all__ = list(_PROVIDERS["interferometer"])

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
            x = getattr(self, name)
            if not (type(x) is float and 0.0 < x < math.inf):  # NaN fails it
                object.__setattr__(self, name, as_float(x, name, gt=0.0))

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
        inject, angle = self.inject_db, self.fixed_angle
        if not (type(inject) is float and 0.0 <= inject <= MAX_INJECT_DB):  # NaN fails it
            object.__setattr__(self, "inject_db", as_inject_db(inject))
        if not isinstance(self.chain, LossChain):
            raise ValueError("chain must be a LossChain")
        if not isinstance(self.phase_noise, PhaseNoise):
            raise ValueError("phase_noise must be a PhaseNoise")
        if not isinstance(self.angle_policy, str) or self.angle_policy not in ANGLE_POLICIES:
            raise ValueError(
                f"angle_policy must be one of {ANGLE_POLICIES}, got {_quote(self.angle_policy)}"
            )
        if not (type(angle) is float and 0.0 <= angle < math.pi):
            angle = as_float(angle, "fixed_angle", ge=0.0, lt=math.pi, unit=" rad")
            object.__setattr__(self, "fixed_angle", angle)

    @property
    def efficiency(self) -> float:
        return self.chain.total

    def degraded_state(self) -> SqueezedState:
        """State at the readout: vacuum under ``"none"``, else squeezed, after loss and jitter."""
        if self.angle_policy == "none":
            return VACUUM
        return propagate(self.inject_db, self.chain, self.phase_noise).state


def _curve(name: str, frequency, rule, *args):
    """``rule(*args, 2 pi f)`` under the curve rule; a float for a scalar ``frequency``.

    numpy's warnings are off while ``rule`` runs: an overflow leaves an inf or
    a NaN, which the one _validated_curve call names, after any fault of the grid.
    """
    f = np.atleast_1d(_real_array(frequency, "frequencies"))
    with np.errstate(all="ignore"):
        values = rule(*args, 2.0 * np.pi * f)
    _, (out,) = _validated_curve(f, [(name, values)])
    return out.item() if np.ndim(frequency) == 0 else out


def _sql(config: InterferometerConfig, omega: np.ndarray) -> np.ndarray:
    ratio = 8.0 * hbar / config.mirror_mass
    if ratio < sys.float_info.min:  # a mirror past about 4e274 kg: take the roots apart
        return math.sqrt(8.0 * hbar) / math.sqrt(config.mirror_mass) / (config.arm_length * omega)
    return math.sqrt(ratio) / (config.arm_length * omega)


def _kappa(config: InterferometerConfig, omega: np.ndarray) -> np.ndarray:
    g = config.pole_omega
    numerator = 16.0 * config.arm_power * config.carrier_omega * g
    omega2 = omega**2
    denominator = config.mirror_mass * config.arm_length * c * omega2 * (g * g + omega2)
    kappa = numerator / denominator
    # the product overflows for a mirror past about 1e277 kg on a 4 km arm at 10 kHz,
    # though K is a normal float there: divide step by step where it does
    if not denominator.max(initial=0.0) < math.inf:
        apart = numerator / config.mirror_mass / (config.arm_length * c) / omega2 / (g * g + omega2)
        kappa = np.where(denominator < math.inf, kappa, apart)
    return kappa


def sql_asd(config: InterferometerConfig, frequency):
    """Free-mass standard-quantum-limit strain ASD, sqrt(8 hbar/(M Omega^2 L^2)).

    Scales as 1/f, 1/L and 1/sqrt(M).  Accepts a scalar or an array of
    frequencies in Hz.
    """
    return _curve("SQL ASD", frequency, _sql, config)


def coupling_kappa(config: InterferometerConfig, frequency):
    """Optomechanical coupling strength K at the given frequency.

    K = 16 P w0 g / (M L c Omega^2 (g^2 + Omega^2)); dimensionless, linear
    in the arm power and strictly decreasing in frequency.
    """
    return _curve("coupling K", frequency, _kappa, config)


def quantum_noise_asd(config: InterferometerConfig, setup: SqueezerSetup, frequency):
    """Strain-equivalent quantum noise ASD with the configured input field.

    With ``angle_policy == "none"`` this is the coherent-vacuum budget
    sqrt(h_sql^2/2 (K + 1/K)); squeezed policies scale the underlying PSD
    by the ellipse variance projected on the readout noise quadrature, with
    the minor axis at ``setup.fixed_angle`` under ``"fixed"``.
    """
    return _curve("quantum noise ASD", frequency, _quantum_asd, config, setup)


def _quantum_asd(config: InterferometerConfig, setup: SqueezerSetup, omega: np.ndarray) -> np.ndarray:
    kappa = _kappa(config, omega)
    h_sql = _sql(config, omega)
    sql_psd = h_sql**2
    coupling = 1.0 + kappa**2
    vacuum_psd = 0.5 * sql_psd * coupling / kappa

    state = setup.degraded_state()
    weight = 0.0  # vacuum, or a minor axis that tracks the noise quadrature: the projection is v_minus
    if setup.angle_policy == "fixed":
        b = math.cos(setup.fixed_angle) + kappa * math.sin(setup.fixed_angle)
        weight = b * b / coupling  # sin^2(theta_n - phi), in closed form
    variance = mix(state.v_minus, state.v_plus, weight)
    power = vacuum_psd * variance
    # h_sql**2 (a mirror past ~1e259 kg) or the power (past ~2600 dB) below the normal floats: roots apart
    tiny = sys.float_info.min
    if not (sql_psd.min(initial=math.inf) >= tiny and power.min(initial=math.inf) >= tiny):
        low = (sql_psd < tiny) | (power < tiny)
        return np.where(low, h_sql * np.sqrt(0.5 * coupling / kappa) * np.sqrt(variance), np.sqrt(power))
    return np.sqrt(power)


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

    def __reduce__(self):
        # copy and pickle drop numpy's read-only flag; the constructor checks and freezes again
        return QuantumNoiseCurve, (self.frequencies, self.asd, self.config, self.setup)

    def __len__(self):
        return self.frequencies.size


def quantum_noise_curve(
    config: InterferometerConfig, setup: SqueezerSetup, frequencies
) -> QuantumNoiseCurve:
    """Evaluate the quantum noise ASD over a grid of frequencies, in one vectorized pass."""
    f = _real_array(frequencies, "frequencies")
    with np.errstate(all="ignore"):  # the record's one check names an inf or a NaN
        return QuantumNoiseCurve(f, _quantum_asd(config, setup, 2.0 * np.pi * f), config, setup)
