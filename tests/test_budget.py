"""ASD tables, resampling, budget composition, and improvement metrics."""

import math

import numpy as np
import pytest

from sqznb import (
    ASD_CSV_HEADER,
    AsdFileError,
    GridSpec,
    NoiseBudget,
    TabulatedASD,
    compose,
    equivalent_power_increase,
    improvement_db,
    ingest_asd,
    resample,
    write_asd_csv,
)

MINIMAL = "frequency_hz,asd_strain_per_sqrt_hz\n10.0,1e-22\n100.0,2e-23\n"


def write(tmp_path, text, name="table.csv"):
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    return path


class TestIngest:
    def test_minimal_two_row_file(self, tmp_path):
        table = ingest_asd(write(tmp_path, MINIMAL))
        assert len(table) == 2
        np.testing.assert_array_equal(table.frequencies, [10.0, 100.0])
        np.testing.assert_array_equal(table.asd, [1e-22, 2e-23])
        assert table.label == "table"

    def test_comments_blanks_and_crlf(self, tmp_path):
        text = (
            "frequency_hz,asd_strain_per_sqrt_hz\r\n"
            "# a comment\r\n"
            "\r\n"
            "10.0,1e-22\r\n"
            "100.0,2e-23\r\n"
        )
        table = ingest_asd(write(tmp_path, text))
        assert len(table) == 2

    def test_wrong_header_names_line(self, tmp_path):
        path = write(tmp_path, "freq,asd\n10.0,1e-22\n20.0,1e-22\n")
        with pytest.raises(AsdFileError, match=r":1:"):
            ingest_asd(path)

    def test_decreasing_frequency_names_line(self, tmp_path):
        path = write(tmp_path, f"{ASD_CSV_HEADER}\n10.0,1e-22\n20.0,1e-22\n15.0,1e-22\n")
        with pytest.raises(AsdFileError, match=r":4:.*increase"):
            ingest_asd(path)

    def test_malformed_row_names_line(self, tmp_path):
        path = write(tmp_path, f"{ASD_CSV_HEADER}\n10.0,1e-22\n20.0,1e-22,extra\n")
        with pytest.raises(AsdFileError, match=r":3:"):
            ingest_asd(path)

    def test_unparseable_number_names_line(self, tmp_path):
        path = write(tmp_path, f"{ASD_CSV_HEADER}\n10.0,abc\n")
        with pytest.raises(AsdFileError, match=r":2:.*unparseable"):
            ingest_asd(path)

    def test_nonpositive_value_names_line(self, tmp_path):
        path = write(tmp_path, f"{ASD_CSV_HEADER}\n10.0,1e-22\n20.0,-1e-22\n")
        with pytest.raises(AsdFileError, match=r":3:"):
            ingest_asd(path)

    def test_single_row_rejected(self, tmp_path):
        path = write(tmp_path, f"{ASD_CSV_HEADER}\n10.0,1e-22\n")
        with pytest.raises(AsdFileError, match="at least 2"):
            ingest_asd(path)

    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        freqs = np.sort(rng.uniform(5.0, 5000.0, size=40))
        freqs += np.arange(40) * 1e-6  # guarantee strict increase
        values = 10.0 ** rng.uniform(-24, -20, size=40)
        path = tmp_path / "rt.csv"
        write_asd_csv(path, freqs, values, comments=["round trip"])
        table = ingest_asd(path)
        np.testing.assert_array_equal(table.frequencies, freqs)
        np.testing.assert_array_equal(table.asd, values)


class TestResample:
    def table(self):
        return TabulatedASD(np.array([100.0, 400.0]), np.array([1e-22, 6.25e-24]), "powerlaw")

    def test_identity_on_knots(self, tmp_path):
        table = ingest_asd(write(tmp_path, MINIMAL))
        out = resample(table, table.frequencies)
        np.testing.assert_array_equal(out, table.asd)

    def test_power_law_midpoint(self):
        # the table samples asd ~ f^-2; log-log interpolation must recover it
        out = resample(self.table(), np.array([200.0]))
        assert out[0] == pytest.approx(2.5e-23, rel=1e-9)

    def test_below_span_raises_with_frequency(self):
        with pytest.raises(ValueError, match="99.5"):
            resample(self.table(), np.array([99.5, 200.0]))

    def test_above_span_raises(self):
        with pytest.raises(ValueError, match="outside the tabulated span"):
            resample(self.table(), np.array([401.0]))

    def test_monotone_between_knots(self):
        out = resample(self.table(), np.linspace(100.0, 400.0, 200))
        assert np.all(np.diff(out) < 0)


class TestCompose:
    GRID = np.logspace(1, 3, 50)

    def test_single_component_total(self):
        values = 1e-23 * (self.GRID / 100.0) ** -0.5
        budget = compose(self.GRID, [("only", values)])
        np.testing.assert_allclose(budget.total, values, rtol=1e-14)

    def test_two_equal_components_scale_sqrt2(self):
        values = np.full_like(self.GRID, 3e-23)
        budget = compose(self.GRID, [("a", values), ("b", values)])
        np.testing.assert_allclose(budget.total, values * math.sqrt(2.0), rtol=1e-14)

    def test_permutation_invariance_is_exact(self):
        rng = np.random.default_rng(5)
        parts = [(label, 10.0 ** rng.uniform(-24, -22, self.GRID.size)) for label in "abcd"]
        forward = compose(self.GRID, parts)
        backward = compose(self.GRID, parts[::-1])
        np.testing.assert_array_equal(forward.total, backward.total)

    def test_total_bounded_by_components(self):
        rng = np.random.default_rng(6)
        a = 10.0 ** rng.uniform(-24, -22, self.GRID.size)
        b = 10.0 ** rng.uniform(-24, -22, self.GRID.size)
        budget = compose(self.GRID, [("a", a), ("b", b)])
        biggest = np.maximum(a, b)
        assert np.all(budget.total >= biggest * (1 - 1e-12))
        assert np.all(budget.total <= biggest * math.sqrt(2.0) * (1 + 1e-12))

    def test_duplicate_labels_rejected(self):
        values = np.full_like(self.GRID, 1e-23)
        with pytest.raises(ValueError, match="unique"):
            compose(self.GRID, [("a", values), ("a", values)])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="grid"):
            compose(self.GRID, [("a", np.ones(3))])

    def test_budget_derives_the_composed_total(self):
        rng = np.random.default_rng(8)
        parts = [(label, 10.0 ** rng.uniform(-24, -22, self.GRID.size)) for label in "cab"]
        direct = NoiseBudget(self.GRID, dict(parts))
        np.testing.assert_array_equal(direct.total, compose(self.GRID, parts).total)
        assert list(direct.components) == ["c", "a", "b"]


def test_svg_rejects_a_curve_whose_values_do_not_match_its_frequencies(tmp_path):
    from sqznb.svgplot import write_loglog_svg

    with pytest.raises(ValueError, match="curve 'a'"):
        write_loglog_svg(tmp_path / "bad.svg", [("a", [1.0, 10.0, 100.0], [1.0, 2.0])])
    assert not (tmp_path / "bad.svg").exists()


class TestImprovement:
    GRID = np.logspace(1, 4, 300)

    def budget_pair(self, factor_db):
        base = 1e-23 * (self.GRID / 100.0) ** -0.5
        ref = compose(self.GRID, [("noise", base)])
        sqz = compose(self.GRID, [("noise", base * 10 ** (-factor_db / 20.0))])
        return ref, sqz

    def test_identical_budgets_read_zero(self):
        ref, _ = self.budget_pair(0.0)
        result = improvement_db(ref, ref, (100.0, 1000.0))
        assert result.median_db == 0.0
        assert result.max_db == 0.0

    def test_constructed_ratio(self):
        ref, sqz = self.budget_pair(2.15)
        result = improvement_db(ref, sqz, (400.0, 3000.0))
        assert result.median_db == pytest.approx(2.15, rel=1e-9)
        assert result.max_db == pytest.approx(2.15, rel=1e-9)
        assert result.points > 10

    def test_positive_when_squeezed_is_lower(self):
        ref, sqz = self.budget_pair(1.0)
        assert improvement_db(ref, sqz, (100.0, 1000.0)).median_db > 0
        assert improvement_db(sqz, ref, (100.0, 1000.0)).median_db < 0

    def test_band_outside_grid_rejected(self):
        ref, sqz = self.budget_pair(1.0)
        with pytest.raises(ValueError, match="outside the grid"):
            improvement_db(ref, sqz, (5.0, 100.0))

    def test_mismatched_grids_rejected(self):
        ref, _ = self.budget_pair(1.0)
        other_grid = self.GRID * 1.001
        other = compose(other_grid, [("noise", np.full_like(other_grid, 1e-23))])
        with pytest.raises(ValueError, match="grids"):
            improvement_db(ref, other, (100.0, 1000.0))

    @pytest.mark.parametrize(
        "band", [("100", "1000"), (100.0, "1000"), (True, 1000.0), (100.0, True)]
    )
    def test_band_edges_must_be_numbers(self, band):
        ref, sqz = self.budget_pair(1.0)
        with pytest.raises(ValueError, match=r"band\[[01]\] must be a number"):
            improvement_db(ref, sqz, band)


class TestInterModuleConsistency:
    """Budget-level improvement agrees with the state-level detected dB."""

    def test_band_max_improvement_matches_detected_level(self, h1_like):
        from sqznb import PhaseNoise, SqueezerSetup, LossChain, propagate, quantum_noise_curve

        grid = np.logspace(1, 4, 500)
        squeezer = SqueezerSetup(
            inject_db=10.3,
            chain=LossChain.from_total(0.44),
            phase_noise=PhaseNoise(0.037),
            angle_policy="fixed",
        )
        plain = quantum_noise_curve(h1_like, SqueezerSetup(), grid).asd
        squeezed = quantum_noise_curve(h1_like, squeezer, grid).asd
        floor = plain / 10.0  # flat-ish technical floor well below the quantum noise

        reference = compose(grid, [("quantum", plain), ("floor", floor)])
        enhanced = compose(grid, [("quantum", squeezed), ("floor", floor)])
        result = improvement_db(reference, enhanced, (400.0, 3000.0))
        detected = propagate(10.3, 0.44, PhaseNoise(0.037)).detected_db
        assert abs(result.max_db - detected) < 0.1

    def test_quantum_plus_thermal_bounds(self, aligo_like, configs_dir):
        from sqznb import SqueezerSetup, quantum_noise_curve

        table = ingest_asd(configs_dir / "aligo_thermal_synthetic.csv", label="thermal")
        grid = np.logspace(1, 4, 300)
        quantum = quantum_noise_curve(aligo_like, SqueezerSetup(), grid).asd
        thermal = resample(table, grid)
        budget = compose(grid, [("quantum", quantum), ("thermal", thermal)])
        biggest = np.maximum(quantum, thermal)
        assert np.all(budget.total >= biggest * (1 - 1e-12))
        assert np.all(budget.total <= biggest * math.sqrt(2.0) * (1 + 1e-12))


class TestEquivalentPowerIncrease:
    def test_headline_value(self):
        assert equivalent_power_increase(2.15) == pytest.approx(0.6405897731995394, rel=1e-12)
        assert abs(equivalent_power_increase(2.15) - 0.64) < 0.005

    def test_zero_is_zero(self):
        assert equivalent_power_increase(0.0) == 0.0

    def test_power_doubling(self):
        assert equivalent_power_increase(3.0103) == pytest.approx(1.0, abs=1e-5)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            equivalent_power_increase(-0.1)

    @pytest.mark.parametrize("bad", [True, False, "3", None])
    def test_rejects_non_numbers(self, bad):
        # bool is an int subclass and float("3") parses; neither is a level in dB
        with pytest.raises(ValueError, match="improvement must be a number"):
            equivalent_power_increase(bad)

    def test_exact_form_and_monotonicity(self):
        xs = np.linspace(0.0, 10.0, 40)
        values = [equivalent_power_increase(x) for x in xs]
        np.testing.assert_allclose(values, 10 ** (xs / 10.0) - 1.0, rtol=1e-15)
        assert np.all(np.diff(values) > 0)


class TestGridSpec:
    @pytest.mark.parametrize(
        "f_min, f_max, points",
        [
            (0.0, 10.0, 5),
            (10.0, 10.0, 5),
            (1.0, math.inf, 5),
            (1.0, 10.0, 1),
            (True, 10.0, 5),  # bool is an int subclass; a flag is not a frequency
            (0.5, True, 5),
            (1.0, 10.0, math.inf),
            (1.0, 10.0, math.nan),
        ],
    )
    def test_rejects_bad_span(self, f_min, f_max, points):
        with pytest.raises(ValueError, match="f_min|f_max|points"):
            GridSpec(f_min, f_max, points)
