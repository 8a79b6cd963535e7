"""Tests of the benchmark's reference computations and output checks.

Each reference must agree with sqznb on today's code, and each check must
reject an output that is wrong.
"""

import math

import numpy as np
import pytest

import reference as ref
import sqznb

POINTS = [(10.3, 0.44, 0.037), (6.0, 0.9, 0.005), (15.0, 0.3, 0.06), (12.0, 0.75, 0.02)]


@pytest.mark.parametrize("inject, eta, theta", POINTS)
def test_closed_form_chain_matches_propagate(inject, eta, theta):
    result = sqznb.propagate(inject, eta, theta)
    assert float(ref.detected_db(inject, eta, theta)) == pytest.approx(result.detected_db, abs=1e-12)
    v_minus, v_plus = ref.degraded_variances(inject, eta, theta)
    assert v_minus == pytest.approx(result.state.v_minus, rel=1e-14)
    assert v_plus == pytest.approx(result.state.v_plus, rel=1e-14)


@pytest.mark.parametrize("inject, eta, theta", POINTS)
def test_closed_form_fit_matches_solver(inject, eta, theta):
    measured = float(ref.detected_db(inject, eta, theta))
    fitted = ref.fitted_eta(inject, measured, theta)
    assert fitted == pytest.approx(eta, abs=1e-13)
    assert sqznb.fit_efficiency(inject, measured, theta).estimate == pytest.approx(fitted, abs=1e-13)


@pytest.mark.parametrize("eta", [0.44, 1.0])
def test_closed_form_optimum_matches_search_and_ignores_eta(eta):
    theta = 0.035
    best = ref.optimal_inject_db(theta)
    assert sqznb.optimal_inject_db(eta, theta).inject_db == pytest.approx(best, abs=1e-5)
    here = float(ref.detected_db(best, eta, theta))
    assert here > float(ref.detected_db(best - 0.01, eta, theta))
    assert here > float(ref.detected_db(best + 0.01, eta, theta))


@pytest.mark.parametrize("policy", ["none", "fixed", "fd-optimal"])
def test_quantum_asd_matches_model(policy):
    cfg = {"interferometer": {"arm_length_m": 4000.0, "mirror_mass_kg": 10.7,
                              "arm_power_w": 40000.0, "finesse": 204.0}}
    ifo = ref.interferometer_params(cfg)
    config = sqznb.InterferometerConfig.from_finesse(4000.0, 10.7, 40000.0, 204.0)
    setup = sqznb.SqueezerSetup(10.3, sqznb.LossChain.from_total(0.44), sqznb.PhaseNoise(0.037), policy)
    grid = ref.log_grid(10.0, 10000.0, 300)
    want = ref.quantum_asd(grid, policy=policy, inject_db=10.3, eta=0.44, theta=0.037, **ifo)
    np.testing.assert_allclose(sqznb.quantum_noise_asd(config, setup, grid), want, rtol=1e-12)


def test_quadrature_agrees_with_monte_carlo_and_rejects_a_shift():
    inject, eta, theta = (10.3, 0.2), (0.44, 0.02), (0.037, 0.006)
    m = sqznb.MeasurementWithUncertainty
    result = sqznb.mc_uncertainty(m(*inject), m(*eta), m(*theta), samples=100_000, seed=7)
    z_mean, z_sigma = ref.check_mc(result.mean_db, result.sigma_db, result.samples, inject, eta, theta)
    assert abs(z_mean) < 4 and abs(z_sigma) < 4
    shifted = result.mean_db + 10 * result.sigma_db / math.sqrt(result.samples)
    with pytest.raises(ref.Mismatch):
        ref.check_mc(shifted, result.sigma_db, result.samples, inject, eta, theta)
    assert ref.first_order_sigma_db(inject, eta, theta) == pytest.approx(
        result.first_order_sigma_db, rel=1e-6)


def test_loglog_interp_is_exact_at_knots_and_on_power_laws():
    f = np.array([10.0, 100.0, 1000.0])
    a = 1e-22 * (f / 10.0) ** -1.5
    grid = np.array([10.0, 31.0, 100.0, 420.0, 1000.0])
    np.testing.assert_allclose(ref.loglog_interp(f, a, grid), 1e-22 * (grid / 10.0) ** -1.5, rtol=1e-12)
    table = sqznb.TabulatedASD(f, a, "t")
    np.testing.assert_allclose(ref.loglog_interp(f, a, grid), sqznb.resample(table, grid), rtol=1e-12)


def test_csv_read_back_rss_and_improvement(tmp_path):
    grid = ref.log_grid(10.0, 5000.0, 50)
    quantum, other = 1e-23 * grid ** -0.5, 2e-24 * np.ones_like(grid)
    squeezed = sqznb.compose(grid, [("quantum", quantum), ("other", other)])
    reference = sqznb.compose(grid, [("quantum", 2 * quantum), ("other", other)])
    sqznb.write_asd_csv(tmp_path / "total.csv", grid, squeezed.total, comments=["x"])
    f, total = ref.read_asd_csv(tmp_path / "total.csv")
    assert f == list(grid) and total == list(squeezed.total)
    ref.check_rss("total", total, [quantum, other])
    with pytest.raises(ref.Mismatch):
        ref.check_rss("total", np.asarray(total) * (1 + 1e-9), [quantum, other])
    band = (400.0, 3000.0)
    assert ref.improvement_median_db(grid, reference.total, squeezed.total, band) == pytest.approx(
        sqznb.improvement_db(reference, squeezed, band).median_db, abs=1e-12)


def test_svg_check_parses_and_rejects_unescaped_text(tmp_path):
    from sqznb.svgplot import write_loglog_svg

    grid = ref.log_grid(10.0, 1000.0, 20)
    write_loglog_svg(tmp_path / "ok.svg", [("a", grid, grid), ("b", grid, 2 * grid)], title="ok")
    ref.check_svg(tmp_path / "ok.svg", curves=2, points=20)
    with pytest.raises(ref.Mismatch):
        ref.check_svg(tmp_path / "ok.svg", curves=3, points=20)
    (tmp_path / "bad.svg").write_text('<svg xmlns="http://www.w3.org/2000/svg"><text>H1 & L1</text></svg>')
    with pytest.raises(ref.Mismatch):
        ref.check_svg(tmp_path / "bad.svg", curves=0, points=0)
