"""Quantum noise model: scaling laws, regression values, and envelope checks.

Regression constants were frozen from independent evaluations: the SQL
value from a hand evaluation of sqrt(8*hbar/(M*Omega^2*L^2)), the coupling
crossover from the bisection oracle below.
"""

import math

import numpy as np
import pytest
from scipy.constants import c

from sqznb import (
    InterferometerConfig,
    LossChain,
    NumericalRangeError,
    PhaseNoise,
    SqueezerSetup,
    coupling_kappa,
    quantum_noise_asd,
    quantum_noise_curve,
    sql_asd,
)

GRID = np.logspace(1, 4, 400)

# frozen: sqrt(8*hbar / (10 kg * (2*pi*100 Hz)^2 * (4000 m)^2))
SQL_10KG_4KM_100HZ = 3.6546283121502275e-24

# frozen: bisection on coupling_kappa(aligo_like) - 1 (oracle reproduced below)
ALIGO_CROSSOVER_HZ = 68.86006621222404


def bisect_crossover(config, lo=1.0, hi=10000.0, steps=200):
    """Independent bisection oracle for the kappa = 1 frequency."""
    assert coupling_kappa(config, lo) > 1.0 > coupling_kappa(config, hi)
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if coupling_kappa(config, mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def fig3_setup(policy="fixed", efficiency=0.9, inject_db=9.0, theta=0.035):
    return SqueezerSetup(
        inject_db=inject_db,
        chain=LossChain.from_total(efficiency) if efficiency < 1.0 else LossChain(),
        phase_noise=PhaseNoise(theta),
        angle_policy=policy,
    )


class TestInterferometerConfig:
    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(ValueError, match="mirror_mass"):
            InterferometerConfig(4000.0, 0.0, 1e4, 90.0)
        # bool is an int subclass; a flag is not a length
        with pytest.raises(ValueError, match="arm_length"):
            InterferometerConfig(True, 10.7, 1e4, 90.0)
        with pytest.raises(ValueError, match="finesse"):
            InterferometerConfig.from_finesse(4000.0, 10.7, 1e4, finesse=True)

    @pytest.mark.parametrize("bad", [0.0, "4000"])
    def test_from_finesse_rejects_bad_arm_length(self, bad):
        # the pole divides by the arm length, so it is checked before the division
        with pytest.raises(ValueError, match="arm_length"):
            InterferometerConfig.from_finesse(bad, 10.7, 1e4, finesse=204.0)

    def test_pole_from_finesse(self):
        cfg = InterferometerConfig.from_finesse(
            arm_length=4000.0, mirror_mass=10.7, arm_power=40e3, finesse=204.0
        )
        assert cfg.cavity_pole == pytest.approx(c / (4.0 * 204.0 * 4000.0), rel=1e-15)
        assert cfg.cavity_pole == pytest.approx(91.85, abs=0.01)

    def test_carrier_frequency(self, aligo_like):
        assert aligo_like.carrier_omega == pytest.approx(2 * math.pi * c / 1.064e-6, rel=1e-15)


class TestSqueezerSetup:
    def test_policy_normalization(self):
        setup = SqueezerSetup(angle_policy="fd_optimal")
        assert setup.angle_policy == "fd-optimal"

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="angle_policy"):
            SqueezerSetup(angle_policy="fancy")

    def test_rejects_angle_outside_half_turn(self):
        with pytest.raises(ValueError, match="fixed_angle"):
            SqueezerSetup(fixed_angle=math.pi)

    def test_rejects_negative_injection(self):
        with pytest.raises(ValueError, match="inject_db"):
            SqueezerSetup(inject_db=-1.0)
        with pytest.raises(ValueError, match="inject_db"):
            SqueezerSetup(inject_db=True, angle_policy="fixed")
        with pytest.raises(ValueError, match="inject_db"):
            SqueezerSetup(inject_db=4000.0)

    def test_degraded_state_matches_chain(self):
        setup = fig3_setup()
        state = setup.degraded_state()
        assert -10 * math.log10(state.v_minus) == pytest.approx(6.538066079942874, rel=1e-12)


class TestSqlAsd:
    def test_frozen_regression(self):
        cfg = InterferometerConfig(4000.0, 10.0, 40e3, 90.0)
        assert sql_asd(cfg, 100.0) == pytest.approx(SQL_10KG_4KM_100HZ, rel=1e-12)

    def test_doubling_frequency_halves(self, aligo_like):
        assert sql_asd(aligo_like, 200.0) == pytest.approx(sql_asd(aligo_like, 100.0) / 2, rel=1e-12)

    def test_doubling_length_halves(self, aligo_like):
        import dataclasses

        longer = dataclasses.replace(aligo_like, arm_length=2 * aligo_like.arm_length)
        assert sql_asd(longer, 100.0) == pytest.approx(sql_asd(aligo_like, 100.0) / 2, rel=1e-12)

    def test_mass_scaling(self, aligo_like):
        import dataclasses

        heavier = dataclasses.replace(aligo_like, mirror_mass=4 * aligo_like.mirror_mass)
        assert sql_asd(heavier, 100.0) == pytest.approx(sql_asd(aligo_like, 100.0) / 2, rel=1e-12)

    def test_rejects_nonpositive_frequency(self, aligo_like):
        with pytest.raises(ValueError):
            sql_asd(aligo_like, 0.0)
        with pytest.raises(ValueError):
            sql_asd(aligo_like, np.array([10.0, -1.0]))

    def test_array_matches_scalar(self, aligo_like):
        out = sql_asd(aligo_like, GRID)
        assert out[7] == sql_asd(aligo_like, GRID[7])


class TestCouplingKappa:
    def test_linear_in_power(self, aligo_like):
        import dataclasses

        doubled = dataclasses.replace(aligo_like, arm_power=2 * aligo_like.arm_power)
        assert coupling_kappa(doubled, 77.0) == pytest.approx(
            2 * coupling_kappa(aligo_like, 77.0), rel=1e-12
        )

    def test_strictly_decreasing(self, aligo_like):
        kappa = coupling_kappa(aligo_like, GRID)
        assert np.all(np.diff(kappa) < 0)

    def test_positive(self, aligo_like):
        assert np.all(coupling_kappa(aligo_like, GRID) > 0)

    def test_crossover_regression(self, aligo_like):
        crossover = bisect_crossover(aligo_like)
        assert crossover == pytest.approx(ALIGO_CROSSOVER_HZ, rel=1e-9)
        assert coupling_kappa(aligo_like, crossover) == pytest.approx(1.0, rel=1e-9)

    def test_rejects_nonpositive_frequency(self, aligo_like):
        with pytest.raises(ValueError):
            coupling_kappa(aligo_like, -5.0)


class TestQuantumNoiseAsd:
    def test_touches_sql_at_unit_coupling(self, aligo_like):
        f_star = bisect_crossover(aligo_like)
        asd = quantum_noise_asd(aligo_like, SqueezerSetup(), f_star)
        assert asd == pytest.approx(sql_asd(aligo_like, f_star), rel=1e-9)

    def test_never_below_sql_without_squeezing(self, aligo_like):
        asd = quantum_noise_asd(aligo_like, SqueezerSetup(), GRID)
        assert np.all(asd >= sql_asd(aligo_like, GRID) * (1 - 1e-12))

    def test_reduces_to_shot_radiation_budget(self, aligo_like):
        kappa = coupling_kappa(aligo_like, GRID)
        expected = np.sqrt(0.5 * sql_asd(aligo_like, GRID) ** 2 * (kappa + 1.0 / kappa))
        out = quantum_noise_asd(aligo_like, SqueezerSetup(), GRID)
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    @pytest.mark.parametrize("inject_db", [3.0, 9.0, 10.3, 20.0])
    def test_ideal_rotated_squeezing_scales_by_exp_minus_r(self, aligo_like, inject_db):
        ideal = fig3_setup(policy="fd-optimal", efficiency=1.0, inject_db=inject_db, theta=0.0)
        plain = quantum_noise_asd(aligo_like, SqueezerSetup(), GRID)
        squeezed = quantum_noise_asd(aligo_like, ideal, GRID)
        np.testing.assert_allclose(squeezed, plain * 10 ** (-inject_db / 20.0), rtol=1e-9)

    def test_fixed_angle_high_frequency_reduction_factor(self, aligo_like):
        none = quantum_noise_asd(aligo_like, SqueezerSetup(), 10000.0)
        fixed = quantum_noise_asd(aligo_like, fig3_setup("fixed"), 10000.0)
        assert none / fixed >= 2.0

    def test_fixed_angle_hurts_radiation_pressure_band(self, aligo_like):
        none = quantum_noise_asd(aligo_like, SqueezerSetup(), GRID)
        fixed = quantum_noise_asd(aligo_like, fig3_setup("fixed"), GRID)
        crossover = bisect_crossover(aligo_like)
        assert np.all(fixed[GRID > 2 * crossover] < none[GRID > 2 * crossover])
        assert np.all(fixed[GRID < crossover / 2] > none[GRID < crossover / 2])

    def test_rotated_angle_beats_any_fixed_angle(self, aligo_like):
        fd = quantum_noise_asd(aligo_like, fig3_setup("fd-optimal"), GRID)
        rng = np.random.default_rng(21)
        for angle in rng.uniform(0.0, math.pi, size=100):
            fixed_setup = SqueezerSetup(
                inject_db=9.0,
                chain=LossChain.from_total(0.9),
                phase_noise=PhaseNoise(0.035),
                angle_policy="fixed",
                fixed_angle=float(np.nextafter(angle, 0.0)),
            )
            fixed = quantum_noise_asd(aligo_like, fixed_setup, GRID)
            assert np.all(fd <= fixed * (1 + 1e-12))

    def test_more_loss_means_more_noise(self, aligo_like):
        better = quantum_noise_asd(aligo_like, fig3_setup("fd-optimal", efficiency=0.9), GRID)
        worse = quantum_noise_asd(aligo_like, fig3_setup("fd-optimal", efficiency=0.8), GRID)
        assert np.all(worse >= better)

    def test_vacuum_injection_equals_no_squeezer(self, aligo_like):
        vacuum_sqz = SqueezerSetup(inject_db=0.0, angle_policy="fixed")
        np.testing.assert_array_equal(
            quantum_noise_asd(aligo_like, vacuum_sqz, GRID),
            quantum_noise_asd(aligo_like, SqueezerSetup(), GRID),
        )


class TestQuantumNoiseCurve:
    def test_matches_scalar_calls(self, aligo_like):
        setup = fig3_setup("fixed")
        curve = quantum_noise_curve(aligo_like, setup, GRID)
        for i in (0, 57, 399):
            assert curve.asd[i] == quantum_noise_asd(aligo_like, setup, GRID[i])

    def test_single_point_grid(self, aligo_like):
        curve = quantum_noise_curve(aligo_like, SqueezerSetup(), np.array([123.0]))
        assert len(curve) == 1
        assert curve.asd[0] == quantum_noise_asd(aligo_like, SqueezerSetup(), 123.0)

    def test_split_evaluation_is_identical(self, aligo_like):
        # evaluating the grid in pieces gives bit-identical values
        setup = fig3_setup("fd-optimal")
        whole = quantum_noise_curve(aligo_like, setup, GRID).asd
        left = quantum_noise_curve(aligo_like, setup, GRID[:137]).asd
        right = quantum_noise_curve(aligo_like, setup, GRID[137:]).asd
        np.testing.assert_array_equal(whole, np.concatenate([left, right]))

    def test_rejects_unsorted_grid(self, aligo_like):
        with pytest.raises(ValueError, match="increasing"):
            quantum_noise_curve(aligo_like, SqueezerSetup(), np.array([100.0, 50.0]))

    def test_overflowing_power_is_a_numerical_error(self, aligo_like):
        import dataclasses

        hot = dataclasses.replace(aligo_like, arm_power=1e308)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalRangeError, match="Hz"):
                quantum_noise_curve(hot, SqueezerSetup(), GRID)

    def test_arrays_are_read_only(self, aligo_like):
        curve = quantum_noise_curve(aligo_like, SqueezerSetup(), GRID)
        with pytest.raises(ValueError):
            curve.asd[0] = 1.0
