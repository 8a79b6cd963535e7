"""Property tests tying the closed-form inverses to the forward chain.

Examples are derandomized so every run checks the same inputs.
"""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sqznb import (
    MeasurementWithUncertainty,
    PhaseNoise,
    fit_efficiency,
    mc_uncertainty,
    optimal_inject_db,
    propagate,
)

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=200)


def unit(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False)


@SETTINGS
@given(inject=unit(0.0, 40.0), eta=unit(0.0, 1.0), theta=unit(0.0, 0.7))
def test_fit_inverts_propagate(inject, eta, theta):
    detected = propagate(inject, eta, PhaseNoise(theta)).detected_db
    assume(detected >= 0.01)
    fit = fit_efficiency(inject, detected, PhaseNoise(theta))
    assert abs(fit.estimate - eta) <= 1e-9


@SETTINGS
@given(eta=unit(0.05, 1.0), theta=unit(1e-3, 0.5))
def test_optimum_beats_its_neighbours(eta, theta):
    best = optimal_inject_db(eta, PhaseNoise(theta))
    for step in (-0.01, 0.01):
        neighbour = propagate(best.inject_db + step, eta, PhaseNoise(theta)).detected_db
        assert best.detected_db >= neighbour - 1e-12


def central_difference_sigma(inject, eta, theta):
    """Quadrature sum of sigma * slope, with slopes by central differences."""
    center = [inject.value, eta.value, theta.value]
    total = 0.0
    for i, (sigma, h) in enumerate(zip((inject.sigma, eta.sigma, theta.sigma), (1e-5, 1e-6, 1e-6))):
        up, down = list(center), list(center)
        up[i] += h
        down[i] -= h
        slope = (
            propagate(up[0], up[1], PhaseNoise(up[2])).detected_db
            - propagate(down[0], down[1], PhaseNoise(down[2])).detected_db
        ) / (2.0 * h)
        total += (slope * sigma) ** 2
    return math.sqrt(total)


@SETTINGS
@given(
    inject=unit(0.5, 25.0),
    eta=unit(0.05, 0.95),
    theta=unit(1e-3, 0.5),
    sigmas=st.tuples(unit(0.0, 1.0), unit(0.0, 0.05), unit(0.0, 0.01)),
)
def test_first_order_sigma_matches_central_difference(inject, eta, theta, sigmas):
    inputs = (
        MeasurementWithUncertainty(inject, sigmas[0]),
        MeasurementWithUncertainty(eta, sigmas[1]),
        MeasurementWithUncertainty(theta, sigmas[2]),
    )
    analytic = mc_uncertainty(*inputs, samples=1000).first_order_sigma_db
    # 1e-9 dB absorbs the differences' own rounding where every slope is ~0
    assert analytic == pytest.approx(central_difference_sigma(*inputs), rel=1e-6, abs=1e-9)
