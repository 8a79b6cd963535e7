"""Quadrature-variance algebra for squeezed vacuum states.

Variances are normalized so the vacuum state has unit variance in every
quadrature.  A squeezing level of ``s`` dB means the squeezed-quadrature
variance is ``10**(-s/10)``; power decibels are used throughout, never
amplitude decibels.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

__all__ = [
    "SqueezedState",
    "PhaseNoise",
    "LossChain",
    "PropagationResult",
    "state_from_db",
    "apply_loss",
    "apply_phase_noise",
    "detected_db",
    "propagate",
]

# Tolerance on the uncertainty product; pure states sit exactly on the bound
# and float rounding must not reject them.
HEISENBERG_RTOL = 1e-12

# Beyond pi/4 of RMS jitter the quadrature labels would effectively swap and
# the small-angle mixing model stops making sense.
MAX_PHASE_RMS = math.pi / 4

#: Largest accepted injection level in dB; 10**(s/10) overflows a float near 3082.5 dB.
MAX_INJECT_DB = 3000.0


def as_float(value, name: str, *, ge=None, gt=None, le=None, lt=None, unit: str = "") -> float:
    """``value`` as a finite float in an interval, else ValueError naming ``name``.

    ``ge``/``gt`` give a closed/open lower end and ``le``/``lt`` a closed/open
    upper end; an end left as None is unbounded.  A bool or a non-number is
    rejected.  ``unit`` follows the interval in the message.
    """
    if isinstance(value, float) or (isinstance(value, numbers.Real) and not isinstance(value, bool)):
        x = float(value)
        if (
            math.isfinite(x)
            and (ge is None or x >= ge)
            and (gt is None or x > gt)
            and (le is None or x <= le)
            and (lt is None or x < lt)
        ):
            return x
        raise ValueError(f"{name} must be {_interval(ge, gt, le, lt, unit)}, got {value!r}")
    raise ValueError(f"{name} must be a number, got {value!r}")


def _interval(ge, gt, le, lt, unit: str) -> str:
    """The interval of as_float in words: 'in [0, 1]', '>= 0 dB and finite', 'finite'."""
    low, high = (ge if gt is None else gt), (le if lt is None else lt)
    if low is not None and high is not None:
        left, right = ("[" if gt is None else "("), ("]" if lt is None else ")")
        return f"in {left}{low:.16g}, {high:.16g}{right}{unit}"
    if low is not None:
        return f"{'>=' if gt is None else '>'} {low:.16g}{unit} and finite"
    if high is not None:
        return f"{'<=' if lt is None else '<'} {high:.16g}{unit} and finite"
    return "finite"


def as_efficiency(value, name: str = "efficiency") -> float:
    """``value`` as a power efficiency: a finite number in [0, 1], else ValueError naming ``name``."""
    return as_float(value, name, ge=0.0, le=1.0)


def as_inject_db(value, name: str = "inject_db") -> float:
    """``value`` as an injection level in [0, MAX_INJECT_DB] dB, else ValueError naming ``name``."""
    return as_float(value, name, ge=0.0, le=MAX_INJECT_DB, unit=" dB")


def as_whole_number(value, name: str) -> int:
    """``value`` as a non-negative int; a bool, a fraction or a negative raises ValueError."""
    if isinstance(value, bool) or not (
        isinstance(value, numbers.Integral) or (isinstance(value, float) and value.is_integer())
    ):
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return int(value)


# The forward arithmetic, written once, on floats or numpy arrays and without
# validation.  Floats go through math and arrays through numpy, whose log10 and
# sin can differ from libm's in the last bit, so each keeps its own bits.


def _lib(x):
    if isinstance(x, (int, float)):
        return math
    import numpy  # loaded already by whoever made the array; states stays pure math

    return numpy


def variances_from_db(squeeze_db):
    """``(v_plus, v_minus)`` of a pure state squeezed by ``squeeze_db`` dB."""
    return 10.0 ** (squeeze_db / 10.0), 10.0 ** (-squeeze_db / 10.0)


def loss_map(v, eta):
    """Variance after mixing with vacuum at power transmission ``eta``."""
    return eta * v + (1.0 - eta)


def jitter_weight(theta_rms):
    """Share of the orthogonal quadrature that jitter mixes in; see apply_phase_noise."""
    return _lib(theta_rms).sin(theta_rms) ** 2


def mix(v, v_orth, s2):
    """Variance of a convex mix: ``v`` weighted ``1 - s2`` and ``v_orth`` weighted ``s2``."""
    return v * (1.0 - s2) + v_orth * s2


def readout_db(v):
    """Squeezing in dB below vacuum of a measured variance ``v``."""
    # "+ 0.0" folds the -0.0 produced by vacuum into a plain 0.0
    return -10.0 * _lib(v).log10(v) + 0.0


@dataclass(frozen=True)
class SqueezedState:
    """Gaussian state summarized by its two quadrature variances.

    Attributes
    ----------
    v_plus : float
        Variance of the elongated (antisqueezed) quadrature, vacuum = 1.
    v_minus : float
        Variance of the squeezed quadrature, vacuum = 1.
    angle : float
        Orientation of the minor (squeezed) axis relative to the measured
        in-phase quadrature, radians.  Carried along unchanged by loss and
        phase-jitter maps; consumed by the interferometer projection.
    """

    v_plus: float
    v_minus: float
    angle: float = 0.0

    def __post_init__(self):
        as_float(self.v_plus, "v_plus", gt=0.0)
        as_float(self.v_minus, "v_minus", gt=0.0)
        if self.v_plus < self.v_minus:
            raise ValueError(
                "variance labels are swapped: "
                f"v_plus={self.v_plus!r} < v_minus={self.v_minus!r}"
            )
        product = self.v_plus * self.v_minus
        if product < 1.0 - HEISENBERG_RTOL:
            raise ValueError(
                f"unphysical state: v_plus*v_minus = {product!r} is below the Heisenberg bound"
            )
        as_float(self.angle, "angle")

    @property
    def uncertainty_product(self) -> float:
        return self.v_plus * self.v_minus


#: Coherent vacuum: unit variance in every quadrature.
VACUUM = SqueezedState(1.0, 1.0)


@dataclass(frozen=True)
class PhaseNoise:
    """RMS of the phase between the squeezed field and the readout field.

    ``theta_rms`` is in radians and must stay in the small-angle regime
    (below pi/4); larger jitter is rejected rather than modeled wrongly.
    """

    theta_rms: float = 0.0

    def __post_init__(self):
        theta = as_float(self.theta_rms, "theta_rms", ge=0.0, lt=MAX_PHASE_RMS, unit=" rad")
        object.__setattr__(self, "theta_rms", theta)


@dataclass(frozen=True)
class LossChain:
    """Ordered, named power-transmission efficiencies from source to detector.

    Each element is a ``(label, efficiency)`` pair with efficiency in
    [0, 1]; the chain composes multiplicatively, and an element at 0 blocks
    the squeezed light entirely (the chain detects vacuum).
    """

    elements: tuple[tuple[str, float], ...] = ()

    def __post_init__(self):
        normalized = tuple(
            (str(label), as_efficiency(eff, f"efficiency for {label!r}"))
            for label, eff in self.elements
        )
        object.__setattr__(self, "elements", normalized)

    @classmethod
    def from_total(cls, efficiency: float, label: str = "total") -> "LossChain":
        return cls(((label, efficiency),))

    @property
    def total(self) -> float:
        """Product of the element efficiencies; 1.0 for an empty chain."""
        return math.prod(eff for _, eff in self.elements)

    def __iter__(self):
        return iter(self.elements)


def state_from_db(squeeze_db: float, angle: float = 0.0) -> SqueezedState:
    """Pure squeezed state with the given squeezing level in dB.

    ``v_minus = 10**(-squeeze_db/10)`` and ``v_plus = 1/v_minus``, so the
    uncertainty product is exactly 1 up to rounding; 0 dB gives vacuum.
    The level must lie in [0, MAX_INJECT_DB].
    """
    squeeze_db = as_inject_db(squeeze_db, "squeeze_db")
    return SqueezedState(*variances_from_db(squeeze_db), angle)


def apply_loss(state: SqueezedState, efficiency: float) -> SqueezedState:
    """Mix the state with vacuum: each variance maps to eta*v + (1 - eta).

    ``efficiency`` is the surviving power fraction in [0, 1]; 1 leaves the
    state unchanged and 0 replaces it with vacuum.  The squeeze angle is
    unaffected (loss is quadrature-symmetric).
    """
    eta = as_efficiency(efficiency)
    return SqueezedState(loss_map(state.v_plus, eta), loss_map(state.v_minus, eta), state.angle)


def apply_phase_noise(state: SqueezedState, noise: PhaseNoise | float) -> SqueezedState:
    """Average the variances over jitter of the measured quadrature angle.

    Each output variance is a convex mix of the two inputs,
    ``v_out = v * (1 - s2) + v_orth * s2``, with the RMS angle substituted
    directly, ``s2 = sin(theta_rms)**2``.  The mix preserves
    v_plus + v_minus.
    """
    if not isinstance(noise, PhaseNoise):
        noise = PhaseNoise(noise)
    s2 = jitter_weight(noise.theta_rms)
    return SqueezedState(
        mix(state.v_plus, state.v_minus, s2), mix(state.v_minus, state.v_plus, s2), state.angle
    )


def detected_db(state: SqueezedState) -> float:
    """Squeezing level of the measured quadrature in dB below vacuum.

    Positive means noise below vacuum; a state whose measured quadrature is
    noisier than vacuum comes out negative.
    """
    return readout_db(state.v_minus)


@dataclass(frozen=True)
class PropagationResult:
    """Forward degradation chain with its intermediate states."""

    injected: SqueezedState
    efficiency: float
    after_loss: SqueezedState
    state: SqueezedState
    detected_db: float


def propagate(
    inject_db: float,
    losses: LossChain | float,
    phase_noise: PhaseNoise | float | None = None,
    *,
    angle: float = 0.0,
) -> PropagationResult:
    """Run the full chain: construct from dB, attenuate, jitter, read out.

    Parameters
    ----------
    inject_db : float
        Squeezing level of the pure state entering the chain, in
        [0, MAX_INJECT_DB] dB.
    losses : LossChain or float
        Either a named loss chain or a bare total efficiency in [0, 1].
    phase_noise : PhaseNoise or float, optional
        RMS quadrature-angle jitter; None means no jitter.
    """
    injected = SqueezedState(*variances_from_db(as_inject_db(inject_db)), angle)
    eta = as_efficiency(losses.total if isinstance(losses, LossChain) else losses)
    after_loss = SqueezedState(
        loss_map(injected.v_plus, eta), loss_map(injected.v_minus, eta), angle
    )
    noise = PhaseNoise() if phase_noise is None else phase_noise
    final = apply_phase_noise(after_loss, noise)
    return PropagationResult(injected, eta, after_loss, final, detected_db(final))
