"""Property tests tying the closed-form inverses to the forward chain, and
the library, CLI and run-config paths to one domain rule per input.

Examples are derandomized so every run checks the same inputs.
"""

import copy
import json
import math
import pathlib

import pytest
from click.testing import CliRunner
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sqznb import (
    MeasurementWithUncertainty,
    PhaseNoise,
    fit_efficiency,
    load_run_config,
    mc_uncertainty,
    optimal_inject_db,
    propagate,
)
from sqznb.cli import main
from sqznb.states import MAX_INJECT_DB, MAX_PHASE_RMS

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


H1_CONFIG = json.loads(
    (pathlib.Path(__file__).resolve().parents[1] / "configs" / "h1.json").read_text()
)

#: Per input: its interval ends, the name the library gives it, how the library,
#: the CLI flags and the run config take a value.  The CLI and the config read the
#: jitter in mrad and both hand ``mrad * 1e-3`` rad to the library.
DOMAINS = {
    "inject_db": (
        (0.0, MAX_INJECT_DB),
        "inject_db",
        lambda x: propagate(x, 0.44, 0.037),
        lambda x: ["--inject-db", repr(x), "--eta", "0.44", "--phase-mrad", "37"],
        lambda cfg, x: cfg["squeezer"].update(inject_db=x),
    ),
    "efficiency": (
        (0.0, 1.0),
        "efficiency",
        lambda x: propagate(10.3, x, 0.037),
        lambda x: ["--inject-db", "10.3", "--eta", repr(x), "--phase-mrad", "37"],
        lambda cfg, x: cfg["squeezer"].update(losses=[{"label": "total", "efficiency": x}]),
    ),
    "phase_noise_mrad": (
        (0.0, MAX_PHASE_RMS * 1e3),
        "theta_rms",
        lambda x: propagate(10.3, 0.44, x if isinstance(x, bool) else x * 1e-3),
        lambda x: ["--inject-db", "10.3", "--eta", "0.44", "--phase-mrad", repr(x)],
        lambda cfg, x: cfg["squeezer"].update(phase_noise_mrad=x),
    ),
}


def edge_values(low, high):
    """Bools, non-finite values, negatives, the interval ends and their neighbours."""
    ends = [
        v
        for end in (low, high)
        for v in (math.nextafter(end, -math.inf), end, math.nextafter(end, math.inf))
    ]
    special = [True, False, math.nan, math.inf, -math.inf, -1.0, -0.0, *ends]
    return st.sampled_from(special) | st.floats(min_value=-1.0, max_value=2.0 * high)


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("domains") / "config.json"


@pytest.mark.parametrize("field", sorted(DOMAINS))
@settings(SETTINGS, max_examples=100)
@given(data=st.data())
def test_one_domain_rule_on_every_path(field, data, config_path):
    (low, high), name, api, cli_args, set_config = DOMAINS[field]
    value = data.draw(edge_values(low, high), label=field)

    try:
        api(value)
        api_error = None
    except ValueError as exc:
        api_error = str(exc)

    result = CliRunner().invoke(main, ["propagate", *cli_args(value)])
    assert result.exit_code in (0, 2), result.output

    cfg = copy.deepcopy(H1_CONFIG)
    set_config(cfg, value)
    config_path.write_text(json.dumps(cfg))
    try:
        load_run_config(config_path)
        config_rejects = False
    except ValueError:
        config_rejects = True

    assert (api_error is not None) == (result.exit_code == 2) == config_rejects
    if api_error is not None and not isinstance(value, bool):
        # the message names the input as the library knows it, and the CLI prints it
        assert api_error.startswith(f"{name} must be")
        assert api_error in result.output
