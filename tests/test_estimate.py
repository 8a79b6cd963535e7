"""Efficiency fits, Monte Carlo uncertainty, and optimum injection search."""

import math
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sqznb import (
    FitResult,
    InfeasibleTargetError,
    MeasurementWithUncertainty,
    NoFiniteOptimumError,
    PhaseNoise,
    fit_efficiency,
    mc_uncertainty,
    optimal_inject_db,
    propagate,
)
from sqznb.estimate import _RANGE_SLACK_DB, _THETA_MAX, MC_BLOCK
from sqznb.states import MAX_INJECT_DB, _detected_db_into, loss_map, mix, variances_from_db
from conftest import NO_AVX512, child_env, host_has_avx512f

ROOT = pathlib.Path(__file__).resolve().parents[1]

H1_INJECT = MeasurementWithUncertainty(10.3, 0.2)
H1_EFFICIENCY = MeasurementWithUncertainty(0.44, 0.02)
H1_PHASE = MeasurementWithUncertainty(0.037, 0.006)


def brute_force_detected_db(inject_db, efficiency, theta):
    """Direct evaluation of the degradation chain, vectorized over inject_db."""
    s = np.asarray(inject_db, dtype=float)
    s2 = math.sin(theta) ** 2
    lossy_minus = efficiency * 10.0 ** (-s / 10.0) + (1.0 - efficiency)
    lossy_plus = efficiency * 10.0 ** (s / 10.0) + (1.0 - efficiency)
    return -10.0 * np.log10(lossy_minus * (1.0 - s2) + lossy_plus * s2)


class TestMeasurementWithUncertainty:
    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            MeasurementWithUncertainty(1.0, -0.1)
        with pytest.raises(ValueError, match="must be a number"):
            MeasurementWithUncertainty(True, False)
        with pytest.raises(ValueError, match="sigma"):
            MeasurementWithUncertainty(1.0, False)

    def test_zero_sigma_is_legal(self):
        assert MeasurementWithUncertainty(2.0).sigma == 0.0


class TestFitEfficiency:
    def test_h1_loss_only_inverse(self):
        result = fit_efficiency(10.3, 2.21, PhaseNoise(0.0))
        assert result.estimate == pytest.approx(0.44, abs=0.005)
        assert result.residual <= 1e-9
        assert result.bracket[0] <= result.estimate <= result.bracket[1]

    def test_lossless_identity(self):
        result = fit_efficiency(7.0, 7.0, PhaseNoise(0.0))
        assert result.estimate == pytest.approx(1.0, abs=1e-9)
        # the chain rounds this level one ulp above the injection; it still fits
        rounded_up = propagate(0.5625, 1.0, PhaseNoise(0.0)).detected_db
        assert rounded_up > 0.5625
        assert fit_efficiency(0.5625, rounded_up, PhaseNoise(0.0)).estimate == 1.0

    def test_vacuum_injected_fits_every_efficiency(self):
        result = fit_efficiency(0.0, 0.0, 0.037)
        assert result == FitResult(1.0, 0.0, 0, (0.0, 1.0))

    def test_full_loss_gives_zero(self):
        result = fit_efficiency(7.0, 0.0, PhaseNoise(0.0))
        assert result.estimate == 0.0
        assert result.residual == 0.0

    def test_infeasible_target_names_range(self):
        # at 35 mrad the attainable maximum for 10.3 dB injected is ~9.7 dB
        with pytest.raises(InfeasibleTargetError, match="attainable range"):
            fit_efficiency(10.3, 9.8, PhaseNoise(0.035))

    def test_an_injection_that_rounds_to_vacuum_is_infeasible(self):
        # 10**(-1e-18) rounds to 1, so the gain at eta = 1 is 0 and no efficiency squeezes
        with pytest.raises(InfeasibleTargetError, match="attainable range"):
            fit_efficiency(1e-17, 1e-12, 0)

    def test_the_attainable_level_holds_its_slack(self):
        top = propagate(10.3, 1.0, PhaseNoise(0.035)).detected_db
        assert fit_efficiency(10.3, top + _RANGE_SLACK_DB, 0.035).estimate == 1.0
        with pytest.raises(InfeasibleTargetError, match="attainable range"):
            fit_efficiency(10.3, top + 2 * _RANGE_SLACK_DB, 0.035)

    def test_rejects_target_above_injection(self):
        with pytest.raises(ValueError, match="exceeds"):
            fit_efficiency(6.0, 6.1, PhaseNoise(0.0))

    def test_the_injected_level_holds_its_slack(self):
        # no loss and no jitter attain the injected level, so a target at its slack fits
        assert fit_efficiency(6.0, 6.0 + _RANGE_SLACK_DB, 0.0).estimate == 1.0
        with pytest.raises(ValueError, match="exceeds"):
            fit_efficiency(6.0, math.nextafter(6.0 + _RANGE_SLACK_DB, math.inf), 0.0)

    def test_rejects_negative_target(self):
        with pytest.raises(ValueError, match=">= 0"):
            fit_efficiency(6.0, -0.5, PhaseNoise(0.0))
        with pytest.raises(ValueError, match="must be a number"):
            fit_efficiency(True, False)
        with pytest.raises(ValueError, match="detected level"):
            fit_efficiency(6.0, False)

    def test_round_trip_identity(self):
        rng = np.random.default_rng(12)
        checked = 0
        while checked < 200:
            inject = rng.uniform(0.5, 25.0)
            eta = rng.uniform(0.01, 1.0)
            theta = rng.uniform(0.0, 0.2)
            forward = propagate(inject, eta, PhaseNoise(theta)).detected_db
            if forward <= 0.0:
                continue  # anti-squeezing dominated; outside the fit domain
            result = fit_efficiency(inject, forward, PhaseNoise(theta))
            assert result.estimate == pytest.approx(eta, abs=1e-6)
            assert result.residual <= 1e-9
            checked += 1


class TestMcUncertainty:
    def test_degenerate_distribution(self):
        result = mc_uncertainty(
            MeasurementWithUncertainty(10.3),
            MeasurementWithUncertainty(0.44),
            MeasurementWithUncertainty(0.037),
            samples=2000,
        )
        forward = propagate(10.3, 0.44, PhaseNoise(0.037)).detected_db
        assert result.sigma_db <= 1e-12
        assert result.mean_db == pytest.approx(forward, rel=1e-12)
        assert result.clamped == {"inject_db": 0, "efficiency": 0, "phase_rms": 0}

    def test_h1_uncertainty_band(self):
        result = mc_uncertainty(H1_INJECT, H1_EFFICIENCY, H1_PHASE, samples=100_000, seed=42)
        assert abs(result.sigma_db - 0.13) <= 0.03
        assert result.mean_db == pytest.approx(2.165, abs=0.02)
        # the linearized estimate agrees with the sampled one in this regime
        assert result.first_order_sigma_db == pytest.approx(result.sigma_db, rel=0.05)

    def test_seeded_runs_are_bit_identical(self):
        a = mc_uncertainty(H1_INJECT, H1_EFFICIENCY, H1_PHASE, samples=20_000, seed=7)
        b = mc_uncertainty(H1_INJECT, H1_EFFICIENCY, H1_PHASE, samples=20_000, seed=7)
        assert a.mean_db == b.mean_db
        assert a.sigma_db == b.sigma_db

    @pytest.mark.parametrize(
        "samples, seed, mean_hex, sigma_hex, clamped",
        [
            (65536, 0, "0x1.e8ee065d61029p-2", "0x1.59279867faf7bp-2", (7004, 20141, 2083)),
            (65536, 9, "0x1.eaa6b3b748cb4p-2", "0x1.5b7030d330b28p-2", (7024, 20028, 2026)),
            (65537, 0, "0x1.e8eec5c9af1bfp-2", "0x1.592720e93930ep-2", (7004, 20142, 2083)),
            (65537, 9, "0x1.eaa5647722326p-2", "0x1.5b7024da81302p-2", (7024, 20028, 2026)),
            (200000, 0, "0x1.ea82ad1d29b85p-2", "0x1.5a50132562fcap-2", (21400, 61515, 6501)),
            (200000, 9, "0x1.ea1913d602719p-2", "0x1.5aa327c998b0ap-2", (21174, 61781, 6390)),
        ],
    )
    def test_stream_layout_is_pinned(self, samples, seed, mean_hex, sigma_hex, clamped):
        # One block, one block plus one sample, and several blocks, with inputs
        # wide enough that every input clamps: the Philox block layout, the
        # clamp counts and the reduction order all fix these bits.
        result = mc_uncertainty(
            MeasurementWithUncertainty(0.5, 0.4),
            MeasurementWithUncertainty(0.95, 0.1),
            MeasurementWithUncertainty(0.037, 0.02),
            samples=samples,
            seed=seed,
        )
        assert result.mean_db.hex() == mean_hex
        assert result.sigma_db.hex() == sigma_hex
        counts = result.clamped
        assert (counts["inject_db"], counts["efficiency"], counts["phase_rms"]) == clamped

    @pytest.mark.parametrize(
        "inputs, sigma_hex",
        [
            (((10.3, 0.2), (0.44, 0.02), (0.037, 0.006)), "0x1.080a51662983fp-3"),
            (((0.5, 0.4), (0.95, 0.1), (0.037, 0.02)), "0x1.852ba012e1c58p-2"),
            (((20.0, 0.5), (0.9, 0.05), (0.1, 0.01)), "0x1.c7452d0b83936p-1"),
        ],
        ids=["h1", "clamp-everywhere", "strong-squeezing"],
    )
    def test_first_order_sigma_is_pinned(self, inputs, sigma_hex):
        # scalar math on the central values: the same bits in every numpy kernel class
        result = mc_uncertainty(*(MeasurementWithUncertainty(*m) for m in inputs), samples=1000)
        assert result.first_order_sigma_db.hex() == sigma_hex

    def test_different_seeds_differ(self):
        a = mc_uncertainty(H1_INJECT, H1_EFFICIENCY, H1_PHASE, samples=10_000, seed=1)
        b = mc_uncertainty(H1_INJECT, H1_EFFICIENCY, H1_PHASE, samples=10_000, seed=2)
        assert a.sigma_db != b.sigma_db

    def test_doubled_sigmas_roughly_double_spread(self):
        base = mc_uncertainty(H1_INJECT, H1_EFFICIENCY, H1_PHASE, samples=100_000, seed=3)
        doubled = mc_uncertainty(
            MeasurementWithUncertainty(10.3, 0.4),
            MeasurementWithUncertainty(0.44, 0.04),
            MeasurementWithUncertainty(0.037, 0.012),
            samples=100_000,
            seed=3,
        )
        assert doubled.sigma_db == pytest.approx(2.0 * base.sigma_db, rel=0.15)

    def test_spread_of_sigma_shrinks_with_sample_count(self):
        def sigma_spread(samples):
            sigmas = [
                mc_uncertainty(H1_INJECT, H1_EFFICIENCY, H1_PHASE, samples=samples, seed=s).sigma_db
                for s in range(8)
            ]
            return np.std(sigmas)

        small, large = sigma_spread(1000), sigma_spread(100_000)
        # 100x the samples should shrink the scatter about 10x; demand at least 3x
        assert large < small / 3.0

    def test_clamping_is_counted(self):
        result = mc_uncertainty(
            H1_INJECT,
            MeasurementWithUncertainty(0.95, 0.1),
            H1_PHASE,
            samples=50_000,
            seed=4,
        )
        assert result.clamped["efficiency"] > 0
        assert math.isfinite(result.sigma_db)

    def test_injection_draws_are_clamped_at_the_ceiling(self):
        with np.errstate(all="raise"):
            result = mc_uncertainty(
                MeasurementWithUncertainty(3000.0, 200.0), H1_EFFICIENCY, H1_PHASE, samples=1000
            )
        assert result.clamped["inject_db"] > 0
        assert math.isfinite(result.mean_db) and math.isfinite(result.sigma_db)

    def test_rejects_small_sample_count(self):
        with pytest.raises(ValueError, match="1000"):
            mc_uncertainty(H1_INJECT, H1_EFFICIENCY, H1_PHASE, samples=10)

    @pytest.mark.parametrize(
        "argument, value, message",
        [
            ("seed", True, "seed must be a whole number"),
            ("seed", 2.7, "seed must be a whole number"),
            ("seed", -1, "seed must be >= 0"),
            ("seed", "7", "seed must be a whole number"),
            ("samples", 1500.9, "samples must be a whole number"),
            ("samples", False, "samples must be a whole number"),
            ("samples", math.inf, "samples must be a whole number"),
            ("samples", -5, "samples must be >= 1000, got -5"),
            ("samples", 999.0, "samples must be >= 1000, got 999.0"),
        ],
        ids=["seed-bool", "seed-fraction", "seed-negative", "seed-string",
             "samples-fraction", "samples-bool", "samples-inf", "samples-negative",
             "samples-below-1000"],
    )
    def test_rejects_bad_seed_and_samples(self, argument, value, message):
        kwargs = {"samples": 2000, argument: value}
        with pytest.raises(ValueError, match=message):
            mc_uncertainty(H1_INJECT, H1_EFFICIENCY, H1_PHASE, **kwargs)

    def test_whole_float_counts_are_accepted(self):
        a = mc_uncertainty(H1_INJECT, H1_EFFICIENCY, H1_PHASE, samples=2000.0, seed=np.int64(5))
        b = mc_uncertainty(H1_INJECT, H1_EFFICIENCY, H1_PHASE, samples=2000, seed=5)
        assert a == b
        assert type(a.samples) is int and type(a.seed) is int

    def test_rejects_invalid_central_values(self):
        with pytest.raises(ValueError):
            mc_uncertainty(
                H1_INJECT, MeasurementWithUncertainty(1.5, 0.0), H1_PHASE, samples=2000
            )


def helper_chain_mc(inject_db, efficiency, phase_rms, samples, seed):
    """``mc_uncertainty``'s block loop written with the ``states`` helpers, one fresh array per step.

    The oracle of the in-place kernel ``states._detected_db_into``: the same
    Philox blocks, each input clipped to its domain and counted where
    ``raw != clip(raw)``, and the same reduction.  ``jitter_weight`` and
    ``readout_db`` take floats only, so their two numpy calls are spelt out.
    Returns the mean, the standard deviation and the clamp counts of each
    block as ``(inject_db, efficiency, phase_rms)``.
    """
    detected = np.empty(samples)
    block_counts = []
    for block, start in enumerate(range(0, samples, MC_BLOCK)):
        stop = min(start + MC_BLOCK, samples)
        z = np.random.Generator(np.random.Philox(seed).jumped(block)).standard_normal((3, stop - start))
        drawn, counts = [], []
        for m, row, high in zip((inject_db, efficiency, phase_rms), z, (MAX_INJECT_DB, 1.0, _THETA_MAX)):
            raw = m.value + m.sigma * row
            drawn.append(np.clip(raw, 0.0, high))
            counts.append(int(np.count_nonzero(raw != drawn[-1])))
        inj, eff, theta = drawn
        v_plus, v_minus = variances_from_db(inj)
        s2 = np.sin(theta) ** 2  # jitter_weight
        detected[start:stop] = -10.0 * np.log10(mix(loss_map(v_minus, eff), loss_map(v_plus, eff), s2)) + 0.0
        block_counts.append(tuple(counts))
    return float(np.mean(detected)), float(np.std(detected, ddof=1)), block_counts


#: ``((value, sigma) of inject_db, efficiency and phase_rms), seed`` of each oracle comparison.
ORACLE_INPUTS = {
    # about one clamp per block and input: seed 3 clamps each input in some of
    # the four blocks of 3 * MC_BLOCK + 7 samples and not in others
    "rare-clamps": (((0.01, 0.0024), (0.9995, 1.2e-4), (0.784, 3.35e-4)), 3),
    # injection and jitter clamp in every full block, efficiency in none
    "near-edges": (((0.01, 0.005), (0.9995, 1e-4), (0.784, 0.002)), 0),
    # the clamp-everywhere inputs of test_stream_layout_is_pinned
    "wide": (((0.5, 0.4), (0.95, 0.1), (0.037, 0.02)), 9),
    # each sigma under an ulp of its value: most draws round onto the upper
    # edge exactly, and the rest to one ulp either side of it
    "on-and-beyond-edges": (((MAX_INJECT_DB, 1e-13), (1.0, 1e-16), (_THETA_MAX, 1e-16)), 4),
    # every draw on a domain edge, none beyond it
    "fixed-low-edges": (((0.0, 0.0), (1.0, 0.0), (_THETA_MAX, 0.0)), 1),
    "fixed-high-edges": (((MAX_INJECT_DB, 0.0), (0.0, 0.0), (0.0, 0.0)), 2),
}
ORACLE_SAMPLES = (1000, MC_BLOCK - 1, MC_BLOCK, MC_BLOCK + 1, 3 * MC_BLOCK + 7)


def oracle_inputs(case):
    return [MeasurementWithUncertainty(*m) for m in ORACLE_INPUTS[case][0]]


def assert_mc_matches_helper_chain(case, samples):
    inputs, seed = oracle_inputs(case), ORACLE_INPUTS[case][1]
    mean, sigma, block_counts = helper_chain_mc(*inputs, samples, seed)
    result = mc_uncertainty(*inputs, samples=samples, seed=seed)
    assert (result.mean_db.hex(), result.sigma_db.hex()) == (mean.hex(), sigma.hex()), (case, samples)
    clamped = tuple(result.clamped[k] for k in ("inject_db", "efficiency", "phase_rms"))
    assert clamped == tuple(map(sum, zip(*block_counts))), (case, samples)


class TestMcKernelAgainstHelperChain:
    """The in-place block kernel gives the bits and counts of the states helpers."""

    @pytest.mark.parametrize("samples", ORACLE_SAMPLES)
    @pytest.mark.parametrize("case", ORACLE_INPUTS)
    def test_same_bits_and_counts(self, case, samples):
        assert_mc_matches_helper_chain(case, samples)

    def test_rare_clamps_differ_between_blocks(self):
        _, _, block_counts = helper_chain_mc(*oracle_inputs("rare-clamps"), 3 * MC_BLOCK + 7, 3)
        for per_block in zip(*block_counts):
            assert 0 in per_block and max(per_block) > 0, block_counts

    @pytest.mark.skipif(not host_has_avx512f(), reason="the host has no AVX-512: numpy has one kernel class")
    def test_same_bits_without_avx512(self):
        proc = subprocess.run([sys.executable, "-c", _ORACLE_WITHOUT_AVX512], capture_output=True, text=True,
                              cwd=ROOT, env=child_env(NPY_DISABLE_CPU_FEATURES=NO_AVX512))
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.split() == ["checked", str(len(ORACLE_INPUTS) * len(ORACLE_SAMPLES))]

    def test_block_kernel_allocates_nothing(self):
        rows = np.random.default_rng(0).uniform(0.0, 0.5, (3, MC_BLOCK))
        out = np.empty(MC_BLOCK)
        tracemalloc.start()
        try:
            _detected_db_into(*rows, out=out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one temporary row would take 8 * MC_BLOCK bytes, 512 KiB
        assert peak < 4096

    def test_peak_memory_is_16_bytes_a_sample_plus_a_block(self):
        # the reduction holds the result and np.std's copy of the deviations;
        # the loop holds one block of draws, three rows of MC_BLOCK
        samples = 1_000_000
        tracemalloc.start()
        try:
            mc_uncertainty(H1_INJECT, H1_EFFICIENCY, H1_PHASE, samples=samples, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * samples + 8 * 3 * MC_BLOCK + 4 * 2**20


#: Runs every oracle comparison in numpy's kernel class without AVX-512 and prints how many it checked.
_ORACLE_WITHOUT_AVX512 = """
from numpy._core._multiarray_umath import __cpu_features__
import test_estimate as t

assert not __cpu_features__["X86_V4"]
cases = [(case, samples) for case in t.ORACLE_INPUTS for samples in t.ORACLE_SAMPLES]
for case, samples in cases:
    t.assert_mc_matches_helper_chain(case, samples)
print("checked", len(cases))
"""


def clipped_normal_nodes(m, low, high, nodes):
    """Nodes and weights of ``clip(m.value + m.sigma * Z, low, high)``, Z standard normal.

    The point masses at the edges are the normal's tails, from ``math.erf``; the
    interior is Gauss-Legendre against the normal density, cut at 12 sigma.
    """
    if m.sigma == 0.0:
        return np.array([m.value]), np.array([1.0])
    # in the units of Z: the edges, and the interior cut at 12 sigma
    z_low, z_high = (low - m.value) / m.sigma, (high - m.value) / m.sigma
    a, b = max(z_low, -12.0), min(z_high, 12.0)
    t, w = np.polynomial.legendre.leggauss(nodes)
    z = 0.5 * (a + b) + 0.5 * (b - a) * t
    density = np.exp(-0.5 * z**2) / math.sqrt(2.0 * math.pi)
    tails = [0.5 * (1.0 + math.erf(z_low / math.sqrt(2.0))), 0.5 * (1.0 - math.erf(z_high / math.sqrt(2.0)))]
    x = np.concatenate([[low], m.value + m.sigma * z, [high]])
    return x, np.concatenate([tails[:1], 0.5 * (b - a) * w * density, tails[1:]])


def quadrature_moments(inject_db, efficiency, phase_rms, nodes=80):
    """Mean, standard deviation and kurtosis of the detected dB under the clamped inputs, by quadrature.

    The chain restated: each quadrature variance is mixed with vacuum at power
    transmission eta, jitter mixes the orthogonal one in with weight sin(theta)**2.
    """
    (r, wr), (e, we), (th, wt) = (
        clipped_normal_nodes(inject_db, 0.0, MAX_INJECT_DB, nodes),
        clipped_normal_nodes(efficiency, 0.0, 1.0, nodes),
        clipped_normal_nodes(phase_rms, 0.0, _THETA_MAX, nodes),
    )
    r, e, th = r[:, None, None], e[None, :, None], th[None, None, :]
    s2 = np.sin(th) ** 2
    minus = e * 10.0 ** (-r / 10.0) + (1.0 - e)
    plus = e * 10.0 ** (r / 10.0) + (1.0 - e)
    g = -10.0 * np.log10(minus * (1.0 - s2) + plus * s2)
    w = wr[:, None, None] * we[None, :, None] * wt[None, None, :]
    mean = float(np.sum(w * g))
    var = float(np.sum(w * (g - mean) ** 2))
    kurtosis = float(np.sum(w * (g - mean) ** 4)) / var**2 if var > 0.0 else 1.0
    return mean, math.sqrt(var), kurtosis


HEAVY = (
    MeasurementWithUncertainty(10.3, 0.2),
    MeasurementWithUncertainty(0.9, 0.08),
    MeasurementWithUncertainty(0.020, 0.015),
)


def assert_within_4_standard_errors(result, inputs):
    mean, sigma, kurtosis = quadrature_moments(*inputs)
    n = result.samples
    slack = 1e-9 * (1.0 + abs(mean))  # rounding of a constant detected level
    assert abs(result.mean_db - mean) <= 4.0 * sigma / math.sqrt(n) + slack
    assert abs(result.sigma_db - sigma) <= 4.0 * sigma * math.sqrt((kurtosis - 1.0) / (4.0 * n)) + slack


@st.composite
def clamping(draw, low, high, max_sigma):
    """A measurement on [low, high] within 1.5 sigma of an edge: at least 6.7 % of its draws clamp."""
    sigma = draw(st.floats(0.0, max_sigma))
    depth = draw(st.floats(0.0, 1.5)) * sigma
    value = low + depth if draw(st.booleans()) else high - depth
    return MeasurementWithUncertainty(min(max(value, low), high), sigma)


class TestMcAgainstQuadrature:
    """The Monte Carlo agrees with an exact quadrature of its clamped inputs, within its standard errors."""

    def test_quadrature_converges(self):
        coarse, fine = quadrature_moments(*HEAVY, nodes=80), quadrature_moments(*HEAVY, nodes=160)
        assert coarse == pytest.approx(fine, abs=1e-10)
        assert coarse[:2] == pytest.approx((7.3936421851, 1.5407126988), abs=1e-9)

    def test_quadrature_of_the_h1_inputs(self):
        mean, sigma, _ = quadrature_moments(H1_INJECT, H1_EFFICIENCY, H1_PHASE)
        assert (mean, sigma) == pytest.approx((2.1651870197753835, 0.1289762464936796), abs=1e-12)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_heavy_clamping_at_a_million_samples(self, seed):
        result = mc_uncertainty(*HEAVY, samples=1_000_000, seed=seed)
        # about 10 % of the efficiency draws and 9 % of the jitter draws clamp
        assert result.clamped["efficiency"] > 90_000 and result.clamped["phase_rms"] > 80_000
        assert_within_4_standard_errors(result, HEAVY)

    @settings(derandomize=True, database=None, deadline=None, max_examples=25)
    @given(
        inject=clamping(0.0, MAX_INJECT_DB, 3.0),
        efficiency=clamping(0.0, 1.0, 0.3),
        phase=clamping(0.0, _THETA_MAX, 0.1),
        seed=st.integers(0, 2**32),
    )
    def test_heavily_clamped_inputs(self, inject, efficiency, phase, seed):
        assume(inject.sigma > 0.0 or efficiency.sigma > 0.0 or phase.sigma > 0.0)
        inputs = (inject, efficiency, phase)
        assert_within_4_standard_errors(mc_uncertainty(*inputs, samples=100_000, seed=seed), inputs)


class TestOptimalInjectDb:
    def test_lossless_closed_form(self):
        theta = 0.035
        result = optimal_inject_db(1.0, PhaseNoise(theta))
        r_star = 0.5 * math.log(1.0 / math.tan(theta))
        expected_db = 20.0 * r_star / math.log(10.0)
        expected_detected = -10.0 * math.log10(math.sin(2.0 * theta))
        assert result.inject_db == pytest.approx(expected_db, rel=1e-12)
        assert result.detected_db == pytest.approx(expected_detected, abs=0.001)
        assert result.inject_db == pytest.approx(14.56, abs=0.01)
        assert result.detected_db == pytest.approx(11.55, abs=0.01)

    @pytest.mark.parametrize("noise", [PhaseNoise(0.0), 0.0, None])
    def test_zero_jitter_has_no_finite_optimum(self, noise):
        with pytest.raises(NoFiniteOptimumError):
            optimal_inject_db(1.0, noise)

    def test_lossy_case_against_brute_force_scan(self):
        eta, theta = 0.44, 0.037
        result = optimal_inject_db(eta, PhaseNoise(theta))
        scan = np.arange(0.0, 60.0, 0.001)
        detected = brute_force_detected_db(scan, eta, theta)
        best = int(np.argmax(detected))
        assert result.detected_db >= detected[best] - 1e-6
        assert abs(result.detected_db - detected[best]) <= 0.01
        assert abs(result.inject_db - scan[best]) <= 0.05

    def test_never_below_probed_levels(self):
        rng = np.random.default_rng(13)
        result = optimal_inject_db(0.8, PhaseNoise(0.05))
        for level in rng.uniform(0.0, 60.0, size=50):
            assert result.detected_db >= propagate(level, 0.8, PhaseNoise(0.05)).detected_db - 1e-9

    def test_optimum_location_is_loss_independent(self):
        # the variable part of the detected variance scales linearly with eta,
        # so the optimum level does not move with loss
        a = optimal_inject_db(1.0, PhaseNoise(0.02))
        b = optimal_inject_db(0.5, PhaseNoise(0.02))
        assert a.inject_db == b.inject_db

    def test_zero_efficiency_is_the_lossy_limit(self):
        # nothing of the injection survives, so the level is the eta -> 0+ limit
        zero = optimal_inject_db(0.0, PhaseNoise(0.035))
        assert zero.inject_db == optimal_inject_db(1.0, PhaseNoise(0.035)).inject_db
        assert zero.detected_db == 0.0

    def test_clamped_to_max_db(self):
        assert optimal_inject_db(1.0, PhaseNoise(0.035), max_db=10.0).inject_db == 10.0

    @pytest.mark.parametrize("bad", [-1.0, math.inf, math.nan, 4000.0])
    def test_rejects_bad_max_db(self, bad):
        with pytest.raises(ValueError, match="max_db"):
            optimal_inject_db(1.0, PhaseNoise(0.035), max_db=bad)

    def test_rejects_bad_efficiency(self):
        with pytest.raises(ValueError):
            optimal_inject_db(1.2, PhaseNoise(0.02))
        with pytest.raises(ValueError, match="must be a number"):
            optimal_inject_db(True, PhaseNoise(0.02))
