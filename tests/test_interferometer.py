"""Quantum noise model: scaling laws, regression values, and envelope checks.

Regression constants were frozen from independent evaluations: the SQL
value from a hand evaluation of sqrt(8*hbar/(M*Omega^2*L^2)), the coupling
crossover from the bisection oracle below.
"""

import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from sqznb import (
    VACUUM,
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
from conftest import NO_AVX512, ROOT, child_env, host_has_avx512f

GRID = np.logspace(1, 4, 400)

# speed of light [m/s], exact by definition of the metre
c = 299_792_458.0

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
    def test_fd_optimal_spelling_is_rejected_by_api_cli_and_schema(self, configs_dir, schema_dir, tmp_path):
        import json

        import jsonschema
        from click.testing import CliRunner

        from sqznb.cli import main

        with pytest.raises(ValueError, match="angle_policy must be one of"):
            SqueezerSetup(angle_policy="fd_optimal")
        cfg = json.loads((configs_dir / "h1.json").read_text())
        cfg["squeezer"]["angle_policy"] = "fd_optimal"
        schema = json.loads((schema_dir / "runconfig.schema.json").read_text())
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(cfg, schema)
        path = tmp_path / "h1.json"
        path.write_text(json.dumps(cfg))
        result = CliRunner().invoke(main, ["budget", str(path), "--out", str(tmp_path / "out" / "run")])
        assert result.exit_code == 2, result.output
        assert "angle_policy must be one of" in result.output
        assert not (tmp_path / "out").exists()

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="angle_policy"):
            SqueezerSetup(angle_policy="fancy")

    def test_rejects_angle_outside_half_turn(self):
        with pytest.raises(ValueError, match="fixed_angle"):
            SqueezerSetup(fixed_angle=math.pi)

    def test_rejects_untyped_chain_and_jitter(self):
        with pytest.raises(ValueError, match="chain must be a LossChain"):
            SqueezerSetup(chain=0.44)
        with pytest.raises(ValueError, match="phase_noise must be a PhaseNoise"):
            SqueezerSetup(phase_noise=0.037)

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
        off = SqueezerSetup(10.3, LossChain.from_total(0.44), PhaseNoise(0.037), "none")
        assert off.degraded_state() is VACUUM


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

    @pytest.mark.parametrize("mass", [1e278, 1e285, 1e300])
    def test_a_heavy_mirror_keeps_its_coupling(self, aligo_like, mass):
        # M L c Omega^2 (g^2 + Omega^2) overflows here, from 10 kHz at 1e278 kg to all of the
        # grid at 1e300 kg, though K, down to about 3e-306, is a normal float
        import dataclasses

        f = np.logspace(1, 4, 200)
        heavy = dataclasses.replace(aligo_like, mirror_mass=mass)
        unit = dataclasses.replace(aligo_like, mirror_mass=1.0)
        np.testing.assert_allclose(coupling_kappa(heavy, f), coupling_kappa(unit, f) / mass, rtol=1e-15, atol=0.0)


#: The three computed curves, each called as ``curve(config, frequency)``.
COMPUTED = {
    "sql_asd": sql_asd,
    "coupling_kappa": coupling_kappa,
    "quantum_noise_asd": lambda config, f: quantum_noise_asd(config, SqueezerSetup(), f),
}


@pytest.mark.parametrize(
    "params, curve",
    [
        ((4000.0, 1e-300, 8e5, 390.0), "quantum_noise_asd"),  # K overflows in K**2: ASD inf
        ((4000.0, 40.0, 1e300, 390.0), "coupling_kappa"),  # K inf
        ((4000.0, 40.0, 1e300, 390.0), "quantum_noise_asd"),  # inf/inf: ASD nan
        ((1e300, 1e300, 1e-300, 390.0), "sql_asd"),  # SQL underflows to 0
        ((4000.0, 1e300, 1e-300, 390.0), "coupling_kappa"),  # K underflows to 0
        ((4000.0, 1e300, 1e-300, 390.0), "quantum_noise_asd"),
    ],
)
@pytest.mark.parametrize("frequency", [10.0, GRID], ids=["scalar", "grid"])
def test_computed_curve_out_of_range_names_its_frequency_without_a_warning(params, curve, frequency):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalRangeError) as info:
            COMPUTED[curve](InterferometerConfig(*params), frequency)
    assert info.value.frequency == 10.0


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

    def test_a_psd_below_the_normal_floats_keeps_its_root(self, aligo_like):
        # at 2750 dB the squeezed PSD, about 1e-321, is subnormal, and its root about 3e-161
        ideal = fig3_setup(policy="fd-optimal", efficiency=1.0, inject_db=2750.0, theta=0.0)
        want = quantum_noise_asd(aligo_like, SqueezerSetup(), GRID) * math.sqrt(ideal.degraded_state().v_minus)
        np.testing.assert_allclose(quantum_noise_asd(aligo_like, ideal, GRID), want, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("mass", [1e270, 1e280, 1e300])
    def test_a_heavy_mirror_keeps_its_quantum_noise(self, aligo_like, mass):
        # h_sql**2 is subnormal here (and 8 hbar / M from 1e280 kg, and K's denominator overflows
        # at 1e300 kg), though the ASD, about 1e-24, is not
        heavy = InterferometerConfig(aligo_like.arm_length, mass, aligo_like.arm_power, aligo_like.cavity_pole)
        f = np.logspace(1, 3, 200)
        unit = InterferometerConfig(aligo_like.arm_length, 1.0, aligo_like.arm_power, aligo_like.cavity_pole)
        np.testing.assert_allclose(sql_asd(heavy, f) * math.sqrt(mass), sql_asd(unit, f), rtol=1e-15, atol=0.0)
        kappa = coupling_kappa(heavy, f)
        want = sql_asd(heavy, f) * np.sqrt((1.0 + kappa**2) / (2.0 * kappa))
        np.testing.assert_allclose(quantum_noise_asd(heavy, SqueezerSetup(), f), want, rtol=1e-15, atol=0.0)

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


#: Prints the sha256 of each policy's quantum curve for both shipped interferometers on a
#: shared linear grid, after checking that numpy dispatches its AVX-512 kernels exactly
#: when argv[1] is "avx512".
_CURVES_IN_ONE_CLASS = """
import dataclasses, hashlib, math, sys
import numpy as np
from numpy._core._multiarray_umath import __cpu_features__
from sqznb import load_run_config, quantum_noise_asd

assert __cpu_features__["X86_V4"] is (sys.argv[1] == "avx512"), sys.argv[1]
grid = np.linspace(10.0, 10000.0, 1000)
for name in ("h1.json", "aligo.json"):
    cfg = load_run_config(f"configs/{name}")
    for policy, angle in [("none", 0.3), ("fd-optimal", 0.3), ("fixed", 0.3), ("fixed", math.pi / 2), ("fixed", 2.5)]:
        setup = dataclasses.replace(cfg.squeezer, angle_policy=policy, fixed_angle=angle)
        asd = quantum_noise_asd(cfg.interferometer, setup, grid)
        print(name, policy, angle, hashlib.sha256(asd.tobytes()).hexdigest())
"""


@pytest.mark.skipif(not host_has_avx512f(), reason="the host has no AVX-512, so numpy has one kernel class")
def test_quantum_curves_do_not_depend_on_numpy_simd_class():
    """On a grid both classes share, the curves use numpy for + - * /, square and sqrt only."""
    lines = {}
    for simd, features in (("avx512", None), ("libm", NO_AVX512)):
        proc = subprocess.run(
            [sys.executable, "-c", _CURVES_IN_ONE_CLASS, simd],
            capture_output=True, text=True, cwd=ROOT, env=child_env(NPY_DISABLE_CPU_FEATURES=features),
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        lines[simd] = proc.stdout.splitlines()
    assert len(lines["avx512"]) == 10
    assert lines["libm"] == lines["avx512"]
