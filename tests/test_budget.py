"""ASD tables, resampling, budget composition, and improvement metrics."""

import copy
import math
import pickle

import numpy as np
import pytest

from sqznb import (
    ASD_CSV_HEADER,
    AsdFileError,
    GridSpec,
    NoiseBudget,
    NumericalRangeError,
    QuantumNoiseCurve,
    SqueezerSetup,
    TabulatedASD,
    compose,
    coupling_kappa,
    equivalent_power_increase,
    improvement_db,
    ingest_asd,
    quantum_noise_asd,
    quantum_noise_curve,
    resample,
    sql_asd,
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

    def test_repeated_frequency_names_line(self, tmp_path):
        path = write(tmp_path, f"{ASD_CSV_HEADER}\n10.0,1e-22\n20.0,1e-22\n20.0,1e-22\n")
        with pytest.raises(AsdFileError, match=r":4:.*does not increase"):
            ingest_asd(path)

    def test_malformed_row_names_line(self, tmp_path):
        path = write(tmp_path, f"{ASD_CSV_HEADER}\n10.0,1e-22\n20.0,1e-22,extra\n")
        with pytest.raises(AsdFileError, match=r":3:"):
            ingest_asd(path)

    # float() takes "1_0", Arabic-Indic digits and a U+2000 space; the contract does not
    @pytest.mark.parametrize("row", ["10.0,abc", "1_0.0,1e-22", "\u06630.0,1e-22", "10.0,\u20002e-22"])
    def test_unparseable_number_names_line(self, tmp_path, row):
        path = write(tmp_path, f"{ASD_CSV_HEADER}\n{row}\n")
        with pytest.raises(AsdFileError, match=r":2:.*unparseable"):
            ingest_asd(path)

    # U+2028, FS, FF and NEL end a line for str.splitlines, but not for the contract
    @pytest.mark.parametrize("comment", ["1_0 \u0663 \u00b5", "a\u2028b", "a\x1cb", "a\x0cb", "a\x85b"])
    @pytest.mark.parametrize("where", ["before-header", "after-header"])
    def test_comments_may_hold_any_text(self, tmp_path, comment, where):
        at = 0 if where == "before-header" else MINIMAL.index("\n") + 1
        path = write(tmp_path, f"{MINIMAL[:at]}# {comment}\n{MINIMAL[at:]}")
        assert ingest_asd(path).asd.tolist() == [1e-22, 2e-23]

    def test_rows_end_only_at_lf_or_crlf(self, tmp_path):
        path = write(tmp_path, f"{ASD_CSV_HEADER}\n10.0,1e-22\x0b20.0,2e-22\x1c30.0,3e-22\n")
        with pytest.raises(AsdFileError, match=r":2: expected 2 comma-separated fields, got 4$"):
            ingest_asd(path)

    def test_a_lone_cr_does_not_end_a_row(self, tmp_path):
        path = write(tmp_path, f"{ASD_CSV_HEADER}\n10.0,1e-22\r20.0,2e-22\n")
        with pytest.raises(AsdFileError, match=r":2: expected 2 comma-separated fields, got 3$"):
            ingest_asd(path)

    @pytest.mark.parametrize(
        "before, line",
        [(b"", 3), (b"# a\r\n\r\n# b\n", 6), (b"# a\r# b\n", 4)],
        ids=["lf", "crlf", "lone-cr"],
    )
    def test_bytes_that_are_not_utf8_name_their_line(self, tmp_path, before, line):
        path = tmp_path / "table.csv"
        path.write_bytes(before + f"{ASD_CSV_HEADER}\n10.0,1e-22\n".encode() + b"# caf\xe9\n20.0,2e-22\n")
        with pytest.raises(AsdFileError, match=rf":{line}: not UTF-8 text: .* byte 0xe9 ") as caught:
            ingest_asd(path)
        assert (caught.value.path, caught.value.line) == (str(path), line)

    def test_nonpositive_frequency_names_line(self, tmp_path):
        path = write(tmp_path, f"{ASD_CSV_HEADER}\n10.0,1e-22\n-20.0,1e-22\n")
        with pytest.raises(AsdFileError, match=r":3: frequency must be positive and finite"):
            ingest_asd(path)

    def test_missing_header_names_line_1(self, tmp_path):
        path = write(tmp_path, "# only a comment\n\n")
        with pytest.raises(AsdFileError, match=r":1: missing header"):
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

    def test_each_line_of_a_comment_gets_its_own_hash(self, tmp_path):
        path = tmp_path / "c.csv"
        comments = ["one line", "a\nb\rc\r\nd\u2028e", ""]
        write_asd_csv(path, [10.0, 100.0], [1e-22, 2e-23], comments=comments)
        assert path.read_text(encoding="utf-8") == (
            f"{ASD_CSV_HEADER}\n# one line\n# a\n# b\n# c\n# d\n# e\n# \n"
            "10.0,1e-22\n100.0,2e-23\n"
        )
        assert ingest_asd(path).asd.tolist() == [1e-22, 2e-23]

    def test_unencodable_comment_leaves_no_file(self, tmp_path):
        path = tmp_path / "c.csv"
        with pytest.raises(UnicodeEncodeError):
            write_asd_csv(path, [10.0, 100.0], [1e-22, 2e-23], comments=["\ud800"])
        assert not path.exists()


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

    def test_both_ends_outside_names_the_first_grid_point(self):
        with pytest.raises(ValueError) as info:
            resample(self.table(), np.array([50.0, 200.0, 500.0]))
        assert str(info.value) == (
            "cannot resample 'powerlaw': 50.0 Hz is outside the tabulated span [100.0 Hz, 400.0 Hz]"
        )

    def test_high_end_outside_names_its_first_point_past_the_span(self):
        with pytest.raises(ValueError, match=r": 450\.0 Hz is outside"):
            resample(self.table(), np.array([100.0, 400.0, 450.0, 500.0]))

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

    @pytest.mark.parametrize(
        "value", [1e200, 1e-200, 1.7e308, 5e-324], ids=["1e200", "1e-200", "near-max", "least-subnormal"]
    )
    def test_a_lone_component_past_the_square_range_is_its_own_total(self, value):
        # its square overflows to inf or underflows to 0; the root-sum-square is the value itself
        values = np.full_like(self.GRID, value)
        np.testing.assert_array_equal(compose(self.GRID, [("only", values)]).total, values)

    def test_a_total_below_the_normal_floats_is_right_to_one_ulp(self):
        # the squares 9e-324 and 1.6e-323 are subnormal and lose most of their bits
        parts = [("a", np.full_like(self.GRID, 3e-162)), ("b", np.full_like(self.GRID, 4e-162))]
        budget = compose(self.GRID, parts)
        assert np.all(np.abs(budget.total - 5e-162) <= math.ulp(5e-162))

    def test_scaled_points_keep_the_order_invariance_and_the_other_points(self):
        rng = np.random.default_rng(9)
        parts = [(label, 10.0 ** rng.uniform(-24, -22, self.GRID.size)) for label in "abc"]
        wide = [(label, v.copy()) for label, v in parts]
        wide[0][1][:5] = 1e200  # the sum of squares overflows at the first five points only
        forward, backward = compose(self.GRID, wide), compose(self.GRID, wide[::-1])
        np.testing.assert_array_equal(forward.total, backward.total)
        np.testing.assert_array_equal(forward.total[:5], 1e200)
        np.testing.assert_array_equal(forward.total[5:], compose(self.GRID, parts).total[5:])

    def test_a_total_past_the_largest_float_is_a_range_error(self):
        values = np.full_like(self.GRID, 1.5e308)
        with pytest.raises(NumericalRangeError, match=r"^total is not a positive finite number at 10\.0 Hz$"):
            compose(self.GRID, [("a", values), ("b", values)])

    def test_duplicate_labels_rejected(self):
        values = np.full_like(self.GRID, 1e-23)
        with pytest.raises(ValueError, match="unique"):
            compose(self.GRID, [("a", values), ("a", values)])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="grid"):
            compose(self.GRID, [("a", np.ones(3))])

    def test_budget_keys_are_labels_by_the_rule_of_compose(self):
        ones = np.ones_like(self.GRID)
        budget = NoiseBudget(self.GRID, {2: ones, "a": 2.0 * ones, 1: ones})
        assert list(budget.components) == ["2", "a", "1"]
        composed = compose(self.GRID, [(2, ones), ("a", 2.0 * ones), (1, ones)])
        np.testing.assert_array_equal(budget.total, composed.total)
        assert list(NoiseBudget(self.GRID, {1: ones}).components) == ["1"]

    def test_budget_keys_that_coincide_as_labels_are_rejected(self):
        ones = np.ones_like(self.GRID)
        with pytest.raises(ValueError, match=r"^component labels must be unique, got \['1', '1'\]$"):
            NoiseBudget(self.GRID, {1: ones, "1": ones})

    def test_no_component_rejected(self):
        with pytest.raises(ValueError, match="need at least one component"):
            NoiseBudget(self.GRID, {})

    def test_budget_derives_the_composed_total(self):
        rng = np.random.default_rng(8)
        parts = [(label, 10.0 ** rng.uniform(-24, -22, self.GRID.size)) for label in "cab"]
        direct = NoiseBudget(self.GRID, dict(parts))
        np.testing.assert_array_equal(direct.total, compose(self.GRID, parts).total)
        assert list(direct.components) == ["c", "a", "b"]

    def test_components_cannot_change_under_the_total(self):
        ones = np.ones_like(self.GRID)
        budget = compose(self.GRID, [("a", ones), ("b", ones)])
        with pytest.raises(TypeError):
            budget.components["c"] = 100.0 * ones
        with pytest.raises(TypeError):
            del budget.components["a"]
        assert list(budget.components) == ["a", "b"]
        np.testing.assert_array_equal(budget.total, math.sqrt(2.0) * ones)


def test_svg_rejects_a_curve_whose_values_do_not_match_its_frequencies(tmp_path):
    from sqznb.svgplot import write_loglog_svg

    with pytest.raises(ValueError, match="curve 'a'"):
        write_loglog_svg(tmp_path / "bad.svg", [("a", [1.0, 10.0, 100.0], [1.0, 2.0])])
    assert not (tmp_path / "bad.svg").exists()


def test_svg_one_point_curve_spans_one_decade_each_way(tmp_path):
    import xml.etree.ElementTree as ET

    from sqznb.svgplot import HEIGHT, MARGIN_B, MARGIN_L, write_loglog_svg

    write_loglog_svg(tmp_path / "one.svg", [("a", [10.0], [1e-20])])
    texts = [el.text for el in ET.parse(tmp_path / "one.svg").iter("{http://www.w3.org/2000/svg}text")]
    assert texts[:4] == ["10", "100", "1e-20", "1e-19"]
    # the point sits at the lower left corner: both axes start at its decade
    assert polylines(tmp_path / "one.svg") == [f"{MARGIN_L:.2f},{HEIGHT - MARGIN_B:.2f}"]


def test_svg_needs_a_curve(tmp_path):
    from sqznb.svgplot import write_loglog_svg

    with pytest.raises(ValueError, match="need at least one curve"):
        write_loglog_svg(tmp_path / "none.svg", [])
    assert not (tmp_path / "none.svg").exists()


@pytest.mark.parametrize(
    "label, title, message",
    [
        ("a\x01b", "", r"label 'a\\x01b' holds '\\x01'"),
        ("a", "H1\ufffe", r"title holds '\\ufffe'"),
        ("a\ud800", "", r"label 'a\\ud800' holds '\\ud800'"),
        (5, "", r"^label 5 must be text, got 5$"),
        ("a", None, r"^title must be text, got None$"),
        ("a", b"H1", r"^title must be text, got b'H1'$"),
    ],
)
def test_svg_rejects_text_xml_cannot_carry_and_writes_no_file(tmp_path, label, title, message):
    from sqznb.svgplot import write_loglog_svg

    grid = [10.0, 100.0]
    with pytest.raises(ValueError, match=message):
        write_loglog_svg(tmp_path / "bad.svg", [("ok", grid, grid), (label, grid, grid)], title=title)
    assert not (tmp_path / "bad.svg").exists()


POSITIVE = "frequencies must be positive and finite"
INCREASING = "frequencies must be strictly increasing"
NAN, INF = math.nan, math.inf


class TestCurveCheckAtEveryEntryPoint:
    """Each public door to the curve check gives the same exception, message and frequency."""

    VALUES = [1e-23, 2e-23, 3e-23, 4e-23]

    @staticmethod
    def entries(tmp_path, config):
        """name -> (min_points, call(frequencies, values), curve name or None, file written or None)."""
        table = TabulatedASD(np.array([1.0, 1000.0]), np.array([1e-22, 1e-24]), "wide")
        from sqznb.svgplot import write_loglog_svg

        return {
            "TabulatedASD": (2, lambda f, v: TabulatedASD(f, v, "t"), "ASD 't'", None),
            "resample": (1, lambda f, v: resample(table, f), None, None),
            "compose": (1, lambda f, v: compose(f, [("a", v)]), "component 'a'", None),
            "NoiseBudget": (1, lambda f, v: NoiseBudget(f, {"a": v}), "component 'a'", None),
            "quantum_noise_asd": (1, lambda f, v: quantum_noise_asd(config, SqueezerSetup(), f),
                                  None, None),
            "quantum_noise_curve": (1, lambda f, v: quantum_noise_curve(config, SqueezerSetup(), f),
                                    None, None),
            "sql_asd": (1, lambda f, v: sql_asd(config, f), None, None),
            "coupling_kappa": (1, lambda f, v: coupling_kappa(config, f), None, None),
            "QuantumNoiseCurve": (1, lambda f, v: QuantumNoiseCurve(f, v, config, SqueezerSetup()),
                                  "quantum noise ASD", None),
            "write_asd_csv": (2, lambda f, v: write_asd_csv(tmp_path / "t.csv", f, v), "ASD",
                              tmp_path / "t.csv"),
            "write_loglog_svg": (1, lambda f, v: write_loglog_svg(tmp_path / "t.svg", [("a", f, v)]),
                                 "curve 'a'", tmp_path / "t.svg"),
        }

    ENTRIES = ["TabulatedASD", "resample", "compose", "NoiseBudget", "quantum_noise_asd",
               "quantum_noise_curve", "QuantumNoiseCurve", "sql_asd", "coupling_kappa",
               "write_asd_csv", "write_loglog_svg"]

    @pytest.mark.parametrize(
        "grid, message",
        [
            pytest.param([NAN, 20.0, 30.0, 40.0], POSITIVE, id="nan-first"),
            pytest.param([10.0, NAN, 30.0, 40.0], POSITIVE, id="nan-middle"),
            pytest.param([10.0, 20.0, 30.0, NAN], POSITIVE, id="nan-last"),
            pytest.param([10.0, 20.0, 30.0, INF], POSITIVE, id="inf"),
            pytest.param([-INF, 20.0, 30.0, 40.0], POSITIVE, id="minus-inf"),
            pytest.param([0.0, 20.0, 30.0, 40.0], POSITIVE, id="zero"),
            pytest.param([-0.0, 20.0, 30.0, 40.0], POSITIVE, id="minus-zero"),
            pytest.param([10.0, -20.0, 30.0, 40.0], POSITIVE, id="negative"),
            pytest.param([10.0, 20.0, 20.0, 40.0], INCREASING, id="equal-neighbours"),
            pytest.param([10.0, 30.0, 20.0, 40.0], INCREASING, id="decreasing-step"),
            pytest.param([10.0, 30.0, 20.0, NAN], POSITIVE, id="decreasing-and-nan"),
            pytest.param([NAN], POSITIVE, id="one-point-nan"),
            pytest.param([], None, id="empty"),  # the message names each entry's min_points
            pytest.param([[10.0, 20.0], [30.0, 40.0]], "frequencies must be a 1-d array, got shape (2, 2)",
                         id="two-d"),
        ],
    )
    @pytest.mark.parametrize("entry", ENTRIES)
    def test_bad_frequencies(self, tmp_path, aligo_like, entry, grid, message):
        min_points, call, _, written = self.entries(tmp_path, aligo_like)[entry]
        if len(grid) < min_points:
            message = f"need at least {min_points} frequency points, got {len(grid)}"
        values = self.VALUES[: len(grid)]
        with pytest.raises(ValueError) as info:
            call(np.array(grid), np.array(values))
        assert type(info.value) is ValueError
        assert str(info.value) == message
        assert written is None or not written.exists()

    #: Inputs that as_float refuses as numbers, with the kind the message names; a list or
    #: object array that mixes one among numbers names no kind, and its message quotes it whole.
    NOT_REAL = [
        pytest.param(True, "bool", id="bool"),
        pytest.param(np.bool_(True), "bool", id="numpy-bool"),
        pytest.param([True, True, True, True], "bool", id="bool-list"),
        pytest.param(np.ones(4, dtype=bool), "bool", id="bool-array"),
        pytest.param("100", "text", id="text"),
        pytest.param(["10", "20", "30", "40"], "text", id="text-list"),
        pytest.param(np.array([b"10", b"20", b"30", b"40"]), "text", id="bytes-array"),
        pytest.param(10j, "complex", id="complex"),
        pytest.param(np.array([10.0, 20.0, 30.0, 40.0], dtype=complex), "complex", id="complex-array"),
        pytest.param([True, 100.0], None, id="bool-among-floats-list"),
        pytest.param(np.array(["1", 100.0], dtype=object), None, id="text-among-floats-object-array"),
    ]

    @staticmethod
    def refusal(name, values, kind):
        """The start of the message that refuses ``values`` as ``name``."""
        return f"{name} must be real numbers, got {kind + ' ' if kind else repr(values)}"

    @pytest.mark.parametrize("grid, kind", NOT_REAL)
    @pytest.mark.parametrize("entry", ENTRIES)
    def test_frequencies_that_are_not_real_numbers(self, tmp_path, aligo_like, entry, grid, kind):
        _, call, _, written = self.entries(tmp_path, aligo_like)[entry]
        with pytest.raises(ValueError) as info:
            call(grid, np.array(self.VALUES))
        assert type(info.value) is ValueError
        assert str(info.value).startswith(self.refusal("frequencies", grid, kind))
        assert written is None or not written.exists()

    @pytest.mark.parametrize("values, kind", [p for p in NOT_REAL if p.id.endswith(("list", "array"))])
    @pytest.mark.parametrize(
        "entry",
        [e for e in ENTRIES
         if e not in ("resample", "quantum_noise_asd", "quantum_noise_curve", "sql_asd", "coupling_kappa")],
    )
    def test_values_that_are_not_real_numbers(self, tmp_path, aligo_like, entry, values, kind):
        _, call, name, written = self.entries(tmp_path, aligo_like)[entry]
        with pytest.raises(ValueError) as info:
            call(np.array([10.0, 20.0, 30.0, 40.0]), values)
        assert type(info.value) is ValueError
        assert str(info.value).startswith(self.refusal(name, values, kind))
        assert written is None or not written.exists()

    @pytest.mark.parametrize("bad", [NAN, INF, 0.0, -0.0], ids=["nan", "inf", "zero", "minus-zero"])
    @pytest.mark.parametrize(
        "entry",
        [e for e in ENTRIES
         if e not in ("resample", "quantum_noise_asd", "quantum_noise_curve", "sql_asd", "coupling_kappa")],
    )
    def test_bad_value_names_its_frequency(self, tmp_path, aligo_like, entry, bad):
        _, call, name, written = self.entries(tmp_path, aligo_like)[entry]
        values = list(self.VALUES)
        values[1] = bad
        with pytest.raises(NumericalRangeError) as info:
            call(np.array([10.0, 20.0, 30.0, 40.0]), np.array(values))
        assert str(info.value) == f"{name} is not a positive finite number at 20.0 Hz"
        assert info.value.frequency == 20.0
        assert written is None or not written.exists()


def test_a_design_point_checks_each_curve_once(aligo_like, curve_checks):
    """perfbench's api-scan point: two quantum curves, one resampled table and two budgets, one check each."""
    grid = np.logspace(1, 4, 1000)
    table = TabulatedASD(np.array([1.0, 1e5]), np.array([1e-22, 1e-25]), "thermal")
    setups = [SqueezerSetup(10.3, angle_policy="fixed"), SqueezerSetup()]
    start = len(curve_checks)
    curves = [quantum_noise_curve(aligo_like, setup, grid).asd for setup in setups]
    thermal = resample(table, grid)
    for curve in curves:
        compose(grid, [("quantum", curve), ("thermal", thermal)])
    assert len(curve_checks) - start == 5
    # a total is checked again only where its squares left the float range and it was rescaled
    compose(grid, [("far", np.full(grid.size, 1e200))])
    assert len(curve_checks) - start == 7


def polylines(path):
    import xml.etree.ElementTree as ET

    tree = ET.parse(path)
    return [el.get("points") for el in tree.iter("{http://www.w3.org/2000/svg}polyline")]


class TestSvgGridReuse:
    """A plot holds one grid: every curve's frequencies are the first curve's."""

    GRID = np.logspace(1, 4, 60)
    OTHER = np.logspace(1.5, 3.5, 60)  # another grid of the same length

    @staticmethod
    def values(seed):
        return 10.0 ** np.random.default_rng(seed).uniform(-24, -20, 60)

    def test_equal_grids_give_the_bytes_of_one_shared_grid(self, tmp_path):
        from sqznb.svgplot import write_loglog_svg

        ys = [self.values(seed) for seed in range(3)]
        write_loglog_svg(tmp_path / "shared.svg", [(f"c{i}", self.GRID, y) for i, y in enumerate(ys)])
        copies = [(f"c{i}", self.GRID.copy().tolist() if i == 1 else self.GRID.copy(), y)
                  for i, y in enumerate(ys)]
        write_loglog_svg(tmp_path / "copies.svg", copies)
        assert (tmp_path / "shared.svg").read_bytes() == (tmp_path / "copies.svg").read_bytes()

    @pytest.mark.parametrize("other", [OTHER, OTHER[:50], OTHER.tolist()], ids=["same-length", "shorter", "list"])
    def test_another_grid_names_its_curve_and_writes_no_file(self, tmp_path, other):
        from sqznb.svgplot import write_loglog_svg

        curves = [("a", self.GRID, self.values(1)), ("b", other, self.values(2)[: len(other)])]
        with pytest.raises(ValueError, match="curve 'b'"):
            write_loglog_svg(tmp_path / "two.svg", curves)
        assert not (tmp_path / "two.svg").exists()

    def test_a_bad_first_grid_is_reported_by_the_curve_rule(self, tmp_path):
        from sqznb.svgplot import write_loglog_svg

        grid = np.array([10.0, NAN, 30.0])
        with pytest.raises(ValueError, match=f"^{POSITIVE}$"):
            write_loglog_svg(tmp_path / "nan.svg", [("a", grid, [1.0, 2.0, 3.0]), ("b", grid.copy(), [1.0, 2.0, 3.0])])
        assert not (tmp_path / "nan.svg").exists()

    def test_points_match_the_per_point_formula(self, tmp_path):
        from sqznb.svgplot import HEIGHT, MARGIN_B, MARGIN_L, MARGIN_R, MARGIN_T, WIDTH, write_loglog_svg

        # x spans decades 1..4 and y decades -24..-20, the axis ends of the plot
        y = np.concatenate([[1e-24], self.values(5)[1:-1], [1e-20]])
        write_loglog_svg(tmp_path / "one.svg", [("a", self.GRID, y), ("b", self.GRID, y[::-1])])
        plot_w, plot_h = WIDTH - MARGIN_L - MARGIN_R, HEIGHT - MARGIN_T - MARGIN_B
        for values, points in zip((y, y[::-1]), polylines(tmp_path / "one.svg")):
            want = " ".join(
                f"{MARGIN_L + (math.log10(fx) - 1) / 3 * plot_w:.2f},"
                f"{MARGIN_T + plot_h - (math.log10(fy) + 24) / 4 * plot_h:.2f}"
                for fx, fy in zip(self.GRID.tolist(), values.tolist())
            )
            assert points == want

    def test_extreme_values_give_a_plot_with_at_most_12_ticks_per_axis(self, tmp_path):
        import xml.etree.ElementTree as ET
        from decimal import Decimal

        from sqznb.svgplot import HEIGHT, MARGIN_B, MARGIN_L, MARGIN_R, MARGIN_T, WIDTH, write_loglog_svg

        # x from the least subnormal, y up to near the largest float: 10**d is 0 or inf at the axis ends
        x = np.array([5e-324, 1e-300, 1.0, 1e300, 1.7e308])
        y = np.array([1.7e308, 5e-324, 1e-200, 2.2250738585072014e-308, 1.0])
        write_loglog_svg(tmp_path / "wide.svg", [("a", x, y)])
        texts = [el.text for el in ET.parse(tmp_path / "wide.svg").iter("{http://www.w3.org/2000/svg}text")]
        # both axes span decades -324..309: 633 decades, so every 58th decade carries a tick
        decades = [Decimal(10) ** d for d in range(-324, 310, 58)]
        assert len(decades) == 11
        assert [Decimal(t) for t in texts[: 2 * len(decades)]] == decades + decades
        assert texts[0] == texts[len(decades)] == "1e-324" and texts[len(decades) - 1] == "1e+256"
        assert texts[2 * len(decades)] == "a"  # the legend follows the ticks
        (points,) = polylines(tmp_path / "wide.svg")
        for point in points.split():
            px, py = map(float, point.split(","))
            assert MARGIN_L <= px <= WIDTH - MARGIN_R and MARGIN_T <= py <= HEIGHT - MARGIN_B

    @pytest.mark.parametrize(
        "top, step, ticks", [(1, 1, 2), (11, 1, 12), (12, 2, 7), (22, 2, 12), (23, 3, 8)]
    )
    def test_an_axis_ticks_every_decade_up_to_12(self, tmp_path, top, step, ticks):
        import xml.etree.ElementTree as ET

        from sqznb.svgplot import write_loglog_svg

        grid = np.array([1.0, 10.0 ** top])
        write_loglog_svg(tmp_path / "span.svg", [("a", grid, grid)])
        tree = ET.parse(tmp_path / "span.svg")
        labels = [el.text for el in tree.iter("{http://www.w3.org/2000/svg}text")][: 2 * ticks]
        assert labels == 2 * [f"{10.0 ** d:g}" for d in range(0, top + 1, step)]
        lines = [el for el in tree.iter("{http://www.w3.org/2000/svg}line") if el.get("stroke") == "#dddddd"]
        assert len(lines) == 2 * (ticks - 1)  # the axis start is the frame, not a grid line


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

    @pytest.mark.parametrize(
        "band, message",
        [
            ((400.0, 401.0), "no grid points inside band"),
            ((math.nextafter(10.0, 0.0), 100.0), "outside the grid"),
            ((100.0, math.nextafter(10000.0, math.inf)), "outside the grid"),
            ((100.0, 100.0), r"band\[1\] must be > 100"),
        ],
    )
    def test_band_rule(self, band, message):
        ref, sqz = self.budget_pair(1.0)
        with pytest.raises(ValueError, match=message):
            improvement_db(ref, sqz, band)

    def test_band_at_the_grid_ends_holds_them(self):
        ref, sqz = self.budget_pair(1.0)
        assert improvement_db(ref, sqz, (10.0, 10000.0)).points == self.GRID.size

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

    @pytest.mark.parametrize("band", [(10.0, 30.0, "junk"), (10.0,), 10.0, "ab", {"a": 10.0, "b": 30.0}])
    def test_band_must_be_a_pair(self, band):
        ref, sqz = self.budget_pair(1.0)
        with pytest.raises(ValueError, match=r"^band must be a \[low, high\] pair of numbers, got "):
            improvement_db(ref, sqz, band)

    def test_band_may_be_an_array_pair(self):
        ref, sqz = self.budget_pair(1.0)
        assert improvement_db(ref, sqz, np.array([100.0, 1000.0])) == improvement_db(ref, sqz, (100.0, 1000.0))


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

    @pytest.mark.parametrize("bad", [True, False, "3", None, 4000.0])
    def test_rejects_non_numbers(self, bad):
        # bool is an int subclass and float("3") parses; neither is a level in dB.
        # 4000 dB is past the injection ceiling, and 10**400 overflows a float.
        with pytest.raises(ValueError, match=r"improvement must be (a number|in \[0, 3000\] dB)"):
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

    def test_rejects_unknown_spacing(self):
        with pytest.raises(ValueError, match="spacing must be 'log' or 'linear', got 'cubic'"):
            GridSpec(10.0, 100.0, 5, "cubic")

    @pytest.mark.parametrize("points", [-3, 0, 1])
    def test_point_count_names_its_bound(self, points):
        with pytest.raises(ValueError, match=f"points must be >= 2, got {points}"):
            GridSpec(10.0, 100.0, points)

    @pytest.mark.parametrize("spacing", ["log", "linear"])
    def test_rejects_span_too_narrow_for_its_points(self, spacing):
        with pytest.raises(ValueError, match="too narrow for 5 strictly increasing points"):
            GridSpec(1000.0, math.nextafter(1000.0, math.inf), 5, spacing)

    @pytest.mark.parametrize("f_max", [3000.0, 5000.0, 1234.5, 10000.0])
    @pytest.mark.parametrize("spacing", ["log", "linear"])
    def test_grid_ends_are_the_span_ends(self, f_max, spacing):
        grid = GridSpec(10.0, f_max, 100, spacing)
        f = grid.frequencies()
        assert f[0] == 10.0 and f[-1] == f_max
        assert np.all(np.diff(f) > 0.0)
        # built once: every call hands out the same read-only array
        assert grid.frequencies() is f
        assert not f.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            f[1] = 1.0
        # numpy's own grid with the two ends snapped, bit for bit
        built = np.linspace(10.0, f_max, 100) if spacing == "linear" else np.logspace(1.0, math.log10(f_max), 100)
        built[0], built[-1] = 10.0, f_max
        assert f.tobytes() == built.tobytes()


def _frozen_records(config):
    """One of each record that promises read-only arrays: the record, its arrays, its other fields."""
    grid = GridSpec(10.0, 3000.0, 40)
    f = grid.frequencies()
    asd = 1e-23 * (1.0 + 100.0 / f)
    return [
        (grid, lambda r: [r.frequencies()], lambda r: r),
        (TabulatedASD(f, asd, "seismic", "seismic.csv"), lambda r: [r.frequencies, r.asd],
         lambda r: (r.label, r.source)),
        (QuantumNoiseCurve(f, asd, config, SqueezerSetup(inject_db=10.3)), lambda r: [r.frequencies, r.asd],
         lambda r: (r.config, r.setup)),
        (compose(f, [("thermal", asd), ("seismic", 2.0 * asd)]),
         lambda r: [r.grid, r.total, *r.components.values()], lambda r: list(r.components)),
    ]


def _pickled(record):
    return pickle.loads(pickle.dumps(record))


@pytest.mark.parametrize("route", [copy.copy, copy.deepcopy, _pickled], ids=["copy", "deepcopy", "pickle"])
@pytest.mark.parametrize("index", range(4), ids=["GridSpec", "TabulatedASD", "QuantumNoiseCurve", "NoiseBudget"])
def test_copies_of_frozen_records_stay_read_only(aligo_like, route, index):
    original, arrays, others = _frozen_records(aligo_like)[index]
    copied = route(original)  # each route, a shallow copy too, builds a new record through the constructor
    assert copied is not original and type(copied) is type(original)
    assert others(copied) == others(original)
    for mine, theirs in zip(arrays(copied), arrays(original), strict=True):
        assert mine.tobytes() == theirs.tobytes()
        assert not mine.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            mine[0] = 1.0
    if isinstance(copied, NoiseBudget):
        with pytest.raises(TypeError):
            copied.components["thermal"] = copied.total
