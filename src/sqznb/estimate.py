"""Inverse problems on the squeezing chain.

Fits the detection efficiency behind a measured squeezing level, propagates
measurement uncertainties to the detected level by Monte Carlo, and finds
the injection level that maximizes detected squeezing under phase jitter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .states import MAX_INJECT_DB, MAX_PHASE_RMS, PhaseNoise, as_efficiency, as_float, propagate
from .states import as_inject_db, as_whole_number, jitter_weight, loss_map, mix, readout_db
from .states import variances_from_db

__all__ = [
    "MeasurementWithUncertainty",
    "FitResult",
    "McUncertaintyResult",
    "OptimalInjection",
    "InfeasibleTargetError",
    "NoFiniteOptimumError",
    "fit_efficiency",
    "mc_uncertainty",
    "optimal_inject_db",
]

#: Monte Carlo draws happen in fixed blocks of this many samples, each block
#: from its own counter-based substream, so the draws depend only on
#: (samples, seed) and the working memory beyond the result is one block.
MC_BLOCK = 65536

_THETA_MAX = float(np.nextafter(MAX_PHASE_RMS, 0.0))

#: A fit target this close above the injected or attainable level is taken as
#: that level: levels computed by the forward chain carry its rounding.
_RANGE_SLACK_DB = 1e-10


class InfeasibleTargetError(ValueError):
    """The requested measurement cannot be produced by any efficiency."""


class NoFiniteOptimumError(ValueError):
    """The objective is monotone; no finite optimum exists."""


@dataclass(frozen=True)
class MeasurementWithUncertainty:
    """A value with a one-standard-deviation uncertainty in the same units."""

    value: float
    sigma: float = 0.0

    def __post_init__(self):
        as_float(self.value, "value")
        as_float(self.sigma, "sigma", ge=0.0)


@dataclass(frozen=True)
class FitResult:
    """Fitted efficiency, forward residual, and the efficiencies that fit.

    The fit is closed-form: ``iterations`` is 0 and ``bracket`` is
    ``(estimate, estimate)``, or ``(0, 1)`` when vacuum is injected.
    """

    estimate: float
    residual: float
    iterations: int
    bracket: tuple[float, float]


def fit_efficiency(
    inject_db: float,
    detected_db: float,
    phase_noise: PhaseNoise | float | None = None,
) -> FitResult:
    """Detection efficiency that reproduces a measured squeezing level.

    After loss and jitter the detected variance is affine in the efficiency,
    ``V = 1 - eta * gain``, where ``gain = (1 - v_minus) c2 + (1 - v_plus) s2``
    is one minus the detected variance at ``eta = 1``.  So
    ``eta = (1 - 10**(-target/10)) / gain`` exactly.  Squeezing is attainable
    only when ``gain > 0``, and only up to the level at ``eta = 1``; outside
    that range InfeasibleTargetError states the range.
    """
    inject_db = as_inject_db(inject_db)
    target = as_float(detected_db, "detected level", ge=0.0, unit=" dB")
    if target > inject_db + _RANGE_SLACK_DB:
        raise ValueError(
            f"detected level {target} dB exceeds the injected level {inject_db} dB"
        )

    full = propagate(inject_db, 1.0, phase_noise)
    if inject_db == 0.0:
        # vacuum in, vacuum out: every efficiency reproduces 0 dB
        return FitResult(1.0, 0.0, 0, (0.0, 1.0))
    if target == 0.0:
        # eta = 0 reads exactly 0 dB, even where no efficiency squeezes
        return FitResult(0.0, 0.0, 0, (0.0, 0.0))

    gain = 1.0 - full.state.v_minus
    top = full.detected_db
    if not (gain > 0.0 and target <= top + _RANGE_SLACK_DB):
        raise InfeasibleTargetError(
            f"detected level {target} dB is unattainable at this phase noise; "
            f"the attainable range is [{min(0.0, top):.6g}, {max(0.0, top):.6g}] dB"
        )
    eta = min(1.0, (1.0 - 10.0 ** (-target / 10.0)) / gain)
    residual = abs(propagate(inject_db, eta, phase_noise).detected_db - target)
    return FitResult(eta, residual, 0, (eta, eta))


@dataclass(frozen=True)
class McUncertaintyResult:
    """Monte Carlo uncertainty propagation summary.

    ``clamped`` counts draws per input that fell outside the physical
    domain and were moved to its edge; ``first_order_sigma_db`` is the
    linearized (derivative-based) sigma reported alongside for comparison.
    """

    mean_db: float
    sigma_db: float
    first_order_sigma_db: float
    clamped: dict[str, int]
    samples: int
    seed: int


def _clip_counted(m: MeasurementWithUncertainty, z, low, high, counts, name) -> np.ndarray:
    """Draws ``m.value + m.sigma * z`` clipped to [low, high]; adds the clipped count."""
    raw = m.value + m.sigma * z
    inside = np.clip(raw, low, high)
    counts[name] += int(np.count_nonzero(raw != inside))
    return inside


def _first_order_sigma(
    inject_db: MeasurementWithUncertainty,
    efficiency: MeasurementWithUncertainty,
    phase_rms: MeasurementWithUncertainty,
) -> float:
    """Quadrature sum of sigma * d(detected dB)/d(input), from the analytic gradient.

    With ``V = mix(loss_map(v_minus, eta), loss_map(v_plus, eta), s2)`` and
    ``t = -10 log10(V)``: ``dt/ds = eta (v_minus c2 - v_plus s2) / V`` for the
    injected level s in dB, ``dt/deta = -10 D / (V ln 10)`` with
    ``D = dV/deta = (v_minus - 1) c2 + (v_plus - 1) s2``, and
    ``dt/dtheta = -10 eta (v_plus - v_minus) sin(2 theta) / (V ln 10)``.
    """
    eta, theta = efficiency.value, phase_rms.value
    v_plus, v_minus = variances_from_db(inject_db.value)
    s2 = jitter_weight(theta)
    v = mix(loss_map(v_minus, eta), loss_map(v_plus, eta), s2)
    d_inject = eta * mix(v_minus, -v_plus, s2) / v
    d_eta = -10.0 * mix(v_minus - 1.0, v_plus - 1.0, s2) / (v * math.log(10.0))
    d_theta = -10.0 * eta * (v_plus - v_minus) * math.sin(2.0 * theta) / (v * math.log(10.0))
    return math.hypot(
        d_inject * inject_db.sigma, d_eta * efficiency.sigma, d_theta * phase_rms.sigma
    )


def mc_uncertainty(
    inject_db: MeasurementWithUncertainty,
    efficiency: MeasurementWithUncertainty,
    phase_rms: MeasurementWithUncertainty,
    samples: int = 100_000,
    seed: int = 42,
) -> McUncertaintyResult:
    """Propagate input uncertainties to the detected squeezing level.

    Draws independent Gaussians per input, pushes each draw through the
    forward chain, and reports the sample mean and standard deviation of the
    detected dB.  Draws outside the domain (injection outside
    [0, MAX_INJECT_DB], efficiency outside [0, 1], jitter outside [0, pi/4))
    are clamped to the domain edge and counted.  The draws come in blocks of
    ``MC_BLOCK``: block ``b`` is drawn from ``Philox(seed)`` jumped ``b``
    times (a jump advances the counter by 2**128), so results are
    reproducible for a fixed (samples, seed), and memory is the
    8-byte-per-sample result plus one block.  ``samples`` and ``seed`` must be whole numbers >= 0, and
    ``samples`` at least 1000.
    """
    samples = as_whole_number(samples, "samples")
    seed = as_whole_number(seed, "seed")
    if samples < 1000:
        raise ValueError(f"need at least 1000 samples for a meaningful spread, got {samples}")
    # the central values themselves must be valid inputs
    propagate(inject_db.value, efficiency.value, PhaseNoise(phase_rms.value))

    detected = np.empty(samples)
    clamped = {"inject_db": 0, "efficiency": 0, "phase_rms": 0}
    for block, start in enumerate(range(0, samples, MC_BLOCK)):
        stop = min(start + MC_BLOCK, samples)
        gen = np.random.Generator(np.random.Philox(seed).jumped(block))
        z = gen.standard_normal((3, stop - start))
        inj = _clip_counted(inject_db, z[0], 0.0, MAX_INJECT_DB, clamped, "inject_db")
        eff = _clip_counted(efficiency, z[1], 0.0, 1.0, clamped, "efficiency")
        theta = _clip_counted(phase_rms, z[2], 0.0, _THETA_MAX, clamped, "phase_rms")
        v_plus, v_minus = variances_from_db(inj)
        s2 = jitter_weight(theta)
        detected[start:stop] = readout_db(mix(loss_map(v_minus, eff), loss_map(v_plus, eff), s2))
    return McUncertaintyResult(
        mean_db=float(np.mean(detected)),
        sigma_db=float(np.std(detected, ddof=1)),
        first_order_sigma_db=_first_order_sigma(inject_db, efficiency, phase_rms),
        clamped=clamped,
        samples=samples,
        seed=seed,
    )


@dataclass(frozen=True)
class OptimalInjection:
    """Best injection level and the squeezing detected there."""

    inject_db: float
    detected_db: float
    iterations: int


def optimal_inject_db(
    efficiency: float,
    phase_noise: PhaseNoise | float,
    *,
    max_db: float = 60.0,
) -> OptimalInjection:
    """Injection level in [0, max_db] that maximizes the detected squeezing.

    Stronger injection narrows the squeezed quadrature but inflates the
    orthogonal one, which phase jitter folds back into the measurement; the
    trade-off peaks at a finite level.  With ``x = 10**(inject_db/10)`` the
    detected variance ``1 + eta * ((1/x - 1) c2 + (x - 1) s2)`` is least at
    ``x = cot(theta_rms)`` for every efficiency, so the optimum is the closed
    form ``10 log10(cot(theta_rms))`` dB clamped to ``[0, max_db]``, and
    ``iterations`` is 0.  At ``eta = 0`` this is the ``eta -> 0+`` limit and
    the detected level is exactly 0.0 dB.  Zero jitter has no finite optimum
    and raises NoFiniteOptimumError; a ``max_db`` outside
    ``[0, MAX_INJECT_DB]`` raises ValueError.
    """
    noise = phase_noise if isinstance(phase_noise, PhaseNoise) else PhaseNoise(phase_noise)
    if noise.theta_rms == 0.0:
        raise NoFiniteOptimumError(
            "detected squeezing grows monotonically with the injected level when "
            "phase jitter is zero; there is no finite optimum"
        )
    eta = as_efficiency(efficiency)

    ceiling = as_inject_db(max_db, "max_db")
    best = min(max(10.0 * math.log10(1.0 / math.tan(noise.theta_rms)), 0.0), ceiling)
    return OptimalInjection(best, propagate(best, eta, noise).detected_db, 0)
