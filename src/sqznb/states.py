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

from . import _PROVIDERS

__all__ = list(_PROVIDERS["states"])

# Tolerance on the uncertainty product; pure states sit exactly on the bound
# and float rounding must not reject them.
HEISENBERG_RTOL = 1e-12

# Beyond pi/4 of RMS jitter the quadrature labels would effectively swap and
# the small-angle mixing model stops making sense.
MAX_PHASE_RMS = math.pi / 4

#: Largest accepted injection level in dB; 10**(s/10) overflows a float near 3082.5 dB.
MAX_INJECT_DB = 3000.0

#: How the squeeze angle is chosen: no squeezing, one fixed angle, or the
#: frequency-dependent optimum (see interferometer.SqueezerSetup).
ANGLE_POLICIES = ("none", "fixed", "fd-optimal")

#: Longest repr of an input that an error message quotes whole.
_QUOTE_LIMIT = 400


class NumericalRangeError(ValueError):
    """A spectral value left the positive finite range; carries its frequency."""

    def __init__(self, message: str, frequency: float | None = None):
        super().__init__(message)
        self.frequency = frequency


def _quote(value) -> str:
    """``repr(value)`` for an error message, cut after _QUOTE_LIMIT characters with a marker giving its length."""
    text = repr(value)
    if len(text) <= _QUOTE_LIMIT:
        return text
    return f"{text[:_QUOTE_LIMIT]}...[{len(text)} characters]"


def as_float(value, name: str, *, ge=None, gt=None, le=None, lt=None, unit: str = "") -> float:
    """``value`` as a finite float in an interval, else ValueError naming ``name``.

    ``ge``/``gt`` give a closed/open lower end and ``le``/``lt`` a closed/open
    upper end; an end left as None is unbounded.  A bool or a non-number is
    rejected.  ``unit`` follows the interval in the message.
    """
    if type(value) is float:  # already the float that float() would return
        x = value
    elif _is_number(value):
        try:
            x = float(value)
        except OverflowError:  # an int past the float range, such as a 400-digit JSON number
            x = math.inf
    else:
        raise ValueError(f"{name} must be a number, got {_quote(value)}")
    if (
        math.isfinite(x)
        and (ge is None or x >= ge)
        and (gt is None or x > gt)
        and (le is None or x <= le)
        and (lt is None or x < lt)
    ):
        return x
    raise ValueError(f"{name} must be {_interval(ge, gt, le, lt, unit)}, got {_quote(value)}")


def _is_number(value) -> bool:
    """as_float's rule for a number: a real that is not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _interval(ge, gt, le, lt, unit: str) -> str:
    """as_float's interval in words, 'in [0, 1]', '>= 0 dB and finite' or 'finite'; an upper end has a lower."""
    low, high = (ge if gt is None else gt), (le if lt is None else lt)
    if low is not None and high is not None:
        left, right = ("[" if gt is None else "("), ("]" if lt is None else ")")
        return f"in {left}{low:.16g}, {high:.16g}{right}{unit}"
    if low is not None:
        return f"{'>=' if gt is None else '>'} {low:.16g}{unit} and finite"
    return "finite"


def as_efficiency(value, name: str = "efficiency") -> float:
    """``value`` as a power efficiency: a finite number in [0, 1], else ValueError naming ``name``."""
    if type(value) is float and 0.0 <= value <= 1.0:  # as_float's answer in one comparison; NaN fails it
        return value
    return as_float(value, name, ge=0.0, le=1.0)


def as_inject_db(value, name: str = "inject_db") -> float:
    """``value`` as an injection level in [0, MAX_INJECT_DB] dB, else ValueError naming ``name``."""
    if type(value) is float and 0.0 <= value <= MAX_INJECT_DB:  # as in as_efficiency
        return value
    return as_float(value, name, ge=0.0, le=MAX_INJECT_DB, unit=" dB")


def as_whole_number(value, name: str, *, ge: int = 0) -> int:
    """``value`` as an int >= ``ge``; a bool, a fraction or a smaller value raises ValueError."""
    if isinstance(value, bool) or not (
        isinstance(value, numbers.Integral) or (isinstance(value, float) and value.is_integer())
    ):
        raise ValueError(f"{name} must be a whole number, got {_quote(value)}")
    if value < ge:
        raise ValueError(f"{name} must be >= {ge}, got {_quote(value)}")
    return int(value)


# The forward arithmetic, written once and without validation.  The helpers
# run on floats through math, so the scalar commands start without numpy; the
# ones made of operators alone also take arrays (interferometer mixes curves).
# _detected_db_into is the chain's one array form, run in place by the Monte
# Carlo; TestMcKernelAgainstHelperChain holds it bit for bit to the helpers
# spelt with numpy's sin and log10, which can differ from libm's in the last bit.


def variances_from_db(squeeze_db):
    """``(v_plus, v_minus)`` of a pure state squeezed by ``squeeze_db`` dB."""
    return 10.0 ** (squeeze_db / 10.0), 10.0 ** (-squeeze_db / 10.0)


def loss_map(v, eta):
    """Variance after mixing with vacuum at power transmission ``eta``."""
    return eta * v + (1.0 - eta)


def jitter_weight(theta_rms):
    """Share of the orthogonal quadrature that jitter mixes in; see apply_phase_noise."""
    return math.sin(theta_rms) ** 2


def mix(v, v_orth, s2):
    """Variance of a convex mix: ``v`` weighted ``1 - s2`` and ``v_orth`` weighted ``s2``."""
    return v * (1.0 - s2) + v_orth * s2


def readout_db(v):
    """Squeezing in dB below vacuum of a measured variance ``v``."""
    # "+ 0.0" folds the -0.0 produced by vacuum into a plain 0.0
    return -10.0 * math.log10(v) + 0.0


def _detected_db_into(inject, eta, theta, out):
    """``readout_db`` of the chain at each draw, written to ``out``; consumes the three draw rows.

    The array form of the helpers above, run by estimate.mc_uncertainty on
    each block of draws, with each operation and operand kept so each value
    has their bits under numpy's sin and log10: ``-s/10`` is ``-(s/10)``,
    ``x**2`` is ``np.square`` and a product's operands commute.  The draw
    rows and ``out`` hold every intermediate (``out`` the v_plus branch, the
    spent ``eta`` row ``1 - eta`` and then ``1 - s2``), so nothing is allocated.
    """
    import numpy as np  # only the Monte Carlo calls it; states stays pure math

    np.divide(inject, 10.0, out=inject)
    np.power(10.0, inject, out=out)  # v_plus
    np.negative(inject, out=inject)
    np.power(10.0, inject, out=inject)  # v_minus
    np.sin(theta, out=theta)
    np.square(theta, out=theta)  # s2
    np.multiply(eta, inject, out=inject)
    np.multiply(eta, out, out=out)
    np.subtract(1.0, eta, out=eta)
    np.add(inject, eta, out=inject)  # loss_map(v_minus, eta)
    np.add(out, eta, out=out)  # loss_map(v_plus, eta)
    np.subtract(1.0, theta, out=eta)
    np.multiply(inject, eta, out=inject)
    np.multiply(out, theta, out=out)
    np.add(inject, out, out=inject)  # mix
    np.log10(inject, out=out)
    np.multiply(out, -10.0, out=out)
    np.add(out, 0.0, out=out)


@dataclass(frozen=True)
class SqueezedState:
    """Gaussian state summarized by its two quadrature variances.

    Attributes
    ----------
    v_plus : float
        Variance of the elongated (antisqueezed) quadrature, vacuum = 1.
    v_minus : float
        Variance of the squeezed quadrature, vacuum = 1.

    Loss and jitter never rotate the ellipse, so its orientation is not part
    of the state; the projection reads ``SqueezerSetup.fixed_angle``.
    """

    v_plus: float
    v_minus: float

    def __post_init__(self):
        v_plus, v_minus = self.v_plus, self.v_minus
        # one comparison passes floats in order, positive and finite; the field rules pick any message
        if not (type(v_plus) is float and type(v_minus) is float and 0.0 < v_minus <= v_plus < math.inf):
            v_plus, v_minus = as_float(v_plus, "v_plus", gt=0.0), as_float(v_minus, "v_minus", gt=0.0)
            object.__setattr__(self, "v_plus", v_plus)
            object.__setattr__(self, "v_minus", v_minus)
            if v_plus < v_minus:
                raise ValueError(f"variance labels are swapped: v_plus={v_plus!r} < v_minus={v_minus!r}")
        product = v_plus * v_minus
        if product < 1.0 - HEISENBERG_RTOL:
            raise ValueError(
                f"unphysical state: v_plus*v_minus = {product!r} is below the Heisenberg bound"
            )

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
        theta = self.theta_rms
        if not (type(theta) is float and 0.0 <= theta < MAX_PHASE_RMS):  # NaN fails it
            theta = as_float(theta, "theta_rms", ge=0.0, lt=MAX_PHASE_RMS, unit=" rad")
            object.__setattr__(self, "theta_rms", theta)


def _phase_noise(value) -> PhaseNoise:
    """The jitter of every entry: a PhaseNoise, a number in rad, or None for no jitter."""
    return value if isinstance(value, PhaseNoise) else PhaseNoise(0.0 if value is None else value)


@dataclass(frozen=True)
class LossChain:
    """Ordered, named power-transmission efficiencies from source to detector.

    Each element is a ``(label, efficiency)`` pair with efficiency in
    [0, 1]; the chain composes multiplicatively, and an element at 0 blocks
    the squeezed light entirely (the chain detects vacuum).
    """

    elements: tuple[tuple[str, float], ...] = ()

    def __post_init__(self):
        try:
            elements = tuple(self.elements)
        except TypeError:
            raise ValueError(f"elements must be (label, efficiency) pairs, got {_quote(self.elements)}") from None
        object.__setattr__(self, "elements", tuple(map(_loss_element, elements)))

    @classmethod
    def from_total(cls, efficiency: float) -> "LossChain":
        """One-element chain labelled ``"total"``."""
        return cls((("total", efficiency),))

    @property
    def total(self) -> float:
        """Product of the element efficiencies; 1.0 for an empty chain."""
        return math.prod(eff for _, eff in self.elements)

    def __iter__(self):
        return iter(self.elements)


def _loss_element(element) -> tuple[str, float]:
    """A LossChain element as ``(str(label), efficiency)``, else ValueError naming it."""
    try:
        label, eff = element
    except (TypeError, ValueError):
        raise ValueError(f"a loss element must be a (label, efficiency) pair, got {_quote(element)}") from None
    return str(label), as_efficiency(eff, f"efficiency for {_quote(label)}")


def state_from_db(squeeze_db: float) -> SqueezedState:
    """Pure squeezed state with the given squeezing level in dB.

    ``v_plus = 10**(squeeze_db/10)`` and ``v_minus = 10**(-squeeze_db/10)``,
    each rounded on its own, so their product is 1 only up to rounding; 0 dB
    gives vacuum.
    The level must lie in [0, MAX_INJECT_DB].
    """
    squeeze_db = as_inject_db(squeeze_db, "squeeze_db")
    return SqueezedState(*variances_from_db(squeeze_db))


def apply_loss(state: SqueezedState, efficiency: float) -> SqueezedState:
    """Mix the state with vacuum: each variance maps to eta*v + (1 - eta).

    ``efficiency`` is the surviving power fraction in [0, 1]; 1 leaves the
    state unchanged and 0 replaces it with vacuum.  Loss is
    quadrature-symmetric, so it rotates nothing.
    """
    eta = as_efficiency(efficiency)
    return SqueezedState(loss_map(state.v_plus, eta), loss_map(state.v_minus, eta))


def apply_phase_noise(state: SqueezedState, noise: PhaseNoise | float | None) -> SqueezedState:
    """Average the variances over jitter of the measured quadrature angle.

    Each output variance is a convex mix of the two inputs,
    ``v_out = v * (1 - s2) + v_orth * s2``, with the RMS angle substituted
    directly, ``s2 = sin(theta_rms)**2``.  The mix preserves
    v_plus + v_minus.  ``noise`` of None means no jitter.
    """
    s2 = jitter_weight(_phase_noise(noise).theta_rms)
    return SqueezedState(mix(state.v_plus, state.v_minus, s2), mix(state.v_minus, state.v_plus, s2))


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

    The orientation of the ellipse plays no part; see SqueezedState.
    """
    injected = SqueezedState(*variances_from_db(as_inject_db(inject_db)))
    eta = as_efficiency(losses.total if isinstance(losses, LossChain) else losses)
    after_loss = SqueezedState(loss_map(injected.v_plus, eta), loss_map(injected.v_minus, eta))
    final = apply_phase_noise(after_loss, phase_noise)
    return PropagationResult(injected, eta, after_loss, final, detected_db(final))
