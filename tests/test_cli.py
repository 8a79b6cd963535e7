"""CLI behavior: JSON outputs against their schemas, files, exit codes,
and byte-level determinism of emitted artifacts."""

import json
import pathlib
import re
import subprocess
import sys
import warnings

import jsonschema
import numpy as np
import pytest
from click.testing import CliRunner

from sqznb import (
    LossChain,
    MeasurementWithUncertainty,
    PhaseNoise,
    fit_efficiency,
    ingest_asd,
    load_run_config,
    mc_uncertainty,
    optimal_inject_db,
    propagate,
    quantum_noise_curve,
)
from sqznb.cli import main
from conftest import NO_AVX512, child_env, host_has_avx512f
from test_readme import README_COMMANDS, strict_json

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture()
def runner():
    return CliRunner()


def validate(schema_dir, name, payload):
    schema = json.loads((schema_dir / name).read_text())
    jsonschema.validate(payload, schema)


def invoke_json(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    return strict_json(result.output)


def write_config(tmp_path, **overrides):
    cfg = {
        "label": "test",
        "interferometer": {
            "label": "T1",
            "arm_length_m": 4000.0,
            "mirror_mass_kg": 10.7,
            "arm_power_w": 40000.0,
            "finesse": 204.0,
        },
        "squeezer": {
            "inject_db": 10.3,
            "losses": [{"label": "total_detection", "efficiency": 0.44}],
            "phase_noise_mrad": 37.0,
            "angle_policy": "fixed",
        },
        "grid": {"f_min_hz": 10.0, "f_max_hz": 10000.0, "points": 200, "spacing": "log"},
        "components": [],
        "band_hz": [400.0, 3000.0],
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestPropagateCommand:
    def test_h1_numbers_and_schema(self, runner, schema_dir):
        payload = invoke_json(
            runner, ["propagate", "--inject-db", "10.3", "--eta", "0.44", "--phase-mrad", "37"]
        )
        validate(schema_dir, "propagate.schema.json", payload)
        assert payload["loss_chain"] == [{"label": "total", "efficiency": 0.44}]
        assert payload["detected_db"] == pytest.approx(2.1648341645059834, rel=1e-12)
        assert payload["variances"]["after_loss"]["v_minus"] == pytest.approx(0.6011, abs=1e-4)

    def test_loss_chain_flags(self, runner):
        payload = invoke_json(
            runner,
            [
                "propagate",
                "--inject-db",
                "10.3",
                "--loss",
                "mm=0.75",
                "--loss",
                "omc=0.82",
                "--loss",
                "faraday=0.80",
                "--phase-mrad",
                "0",
            ],
        )
        assert payload["efficiency"] == pytest.approx(0.492, abs=1e-12)
        assert [e["label"] for e in payload["loss_chain"]] == ["mm", "omc", "faraday"]

    def test_zero_loss_element_gives_vacuum(self, runner, schema_dir):
        blocked = invoke_json(
            runner, ["propagate", "--inject-db", "10.3", "--loss", "mm=0", "--phase-mrad", "37"]
        )
        validate(schema_dir, "propagate.schema.json", blocked)
        assert blocked["detected_db"] == 0.0
        bare = invoke_json(
            runner, ["propagate", "--inject-db", "10.3", "--eta", "0", "--phase-mrad", "37"]
        )
        assert bare["detected_db"] == 0.0

    def test_vacuum_input(self, runner):
        payload = invoke_json(
            runner, ["propagate", "--inject-db", "0", "--eta", "0.5", "--phase-mrad", "10"]
        )
        assert payload["detected_db"] == 0.0

    @pytest.mark.parametrize(
        "args",
        [
            ["propagate", "--inject-db", "10.3"],
            ["propagate", "--inject-db", "10.3", "--eta", "0.5", "--loss", "a=0.9"],
            ["propagate", "--inject-db", "10.3", "--loss", "broken"],
            ["propagate", "--inject-db", "10.3", "--eta", "1.5"],
            ["propagate", "--inject-db", "-3", "--eta", "0.5"],
            ["propagate", "--inject-db", "10.3", "--eta", "0.5", "--phase-mrad", "-2"],
            ["propagate", "--inject-db", "4000", "--eta", "0.5"],
            ["propagate", "--inject-db", "10.3", "--eta", "0.5", "--exact-gaussian"],
        ],
    )
    def test_usage_errors_exit_2(self, runner, args):
        result = runner.invoke(main, args)
        assert result.exit_code == 2

    def test_loss_efficiency_that_is_not_a_number_exits_2(self, runner):
        result = runner.invoke(main, ["propagate", "--inject-db", "10.3", "--loss", "a=x"])
        assert result.exit_code == 2
        assert "--loss 'a=x': efficiency is not a number" in result.output

    def test_injection_above_the_ceiling_names_inject_db(self, runner):
        result = runner.invoke(main, ["propagate", "--inject-db", "4000", "--eta", "0.5"])
        assert result.exit_code == 2
        assert "inject_db must be in [0, 3000] dB" in result.output


class TestFitCommand:
    def test_h1_inverse(self, runner, schema_dir):
        payload = invoke_json(
            runner, ["fit", "--injected", "10.3", "--detected", "2.21", "--phase-mrad", "0"]
        )
        validate(schema_dir, "fit.schema.json", payload)
        assert payload["efficiency"] == pytest.approx(0.44, abs=0.005)
        assert payload["residual_db"] <= 1e-9

    def test_infeasible_exits_2(self, runner):
        result = runner.invoke(
            main, ["fit", "--injected", "10.3", "--detected", "9.8", "--phase-mrad", "35"]
        )
        assert result.exit_code == 2
        assert "attainable" in result.output

    def test_injection_above_the_ceiling_exits_2(self, runner):
        result = runner.invoke(main, ["fit", "--injected", "4000", "--detected", "2"])
        assert result.exit_code == 2
        assert "inject_db must be in [0, 3000] dB" in result.output


class TestUncertaintyCommand:
    def test_defaults_reproduce_uncertainty_band(self, runner, schema_dir):
        payload = invoke_json(runner, ["uncertainty"])
        validate(schema_dir, "uncertainty.schema.json", payload)
        assert abs(payload["sigma_db"] - 0.13) <= 0.03
        assert payload["samples"] == 100000
        assert payload["seed"] == 42

    def test_small_sample_count_exits_2(self, runner):
        result = runner.invoke(main, ["uncertainty", "--mc-samples", "10"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("error", [MemoryError, ValueError])
    def test_unallocatable_sample_count_exits_2(self, runner, monkeypatch, error):
        # the allocation is refused by a stand-in, so no host memory is ever asked for
        requested = []

        def refuse(shape, *args, **kwargs):
            requested.append(shape)
            raise error("simulated allocation failure")

        monkeypatch.setattr(np, "empty", refuse)
        result = runner.invoke(main, ["uncertainty", "--mc-samples", "1e13"])
        assert requested == [10**13]
        assert result.exit_code == 2, result.output
        assert "samples = 10000000000000 needs a 7.45e+04 GiB result buffer" in result.output

    def test_sample_count_past_numpy_dimension_limit_exits_2(self, runner):
        # 8e20 bytes overflows numpy's size type, so numpy refuses before allocating
        result = runner.invoke(main, ["uncertainty", "--mc-samples", "1e20"])
        assert result.exit_code == 2, result.output
        assert "samples = 100000000000000000000 needs a" in result.output

    def test_negative_seed_exits_2(self, runner):
        result = runner.invoke(main, ["uncertainty", "--seed", "-1"])
        assert result.exit_code == 2
        assert "seed must be >= 0" in result.output

    def test_seed_takes_whole_floats(self, runner):
        as_int = runner.invoke(main, ["uncertainty", "--mc-samples", "2000", "--seed", "1000"])
        as_float = runner.invoke(main, ["uncertainty", "--mc-samples", "2000", "--seed", "1e3"])
        assert as_int.exit_code == 0, as_int.output
        assert as_float.output == as_int.output
        assert json.loads(as_float.output)["seed"] == 1000

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--mc-samples", "-5"], "samples must be >= 1000, got -5.0"),
            (["--mc-samples", "999"], "samples must be >= 1000, got 999.0"),
            (["--seed", "0.5"], "seed must be a whole number, got 0.5"),
        ],
    )
    def test_counts_name_their_own_bound(self, runner, args, message):
        result = runner.invoke(main, ["uncertainty", *args])
        assert result.exit_code == 2
        assert message in result.output

    def test_sample_count_takes_whole_floats(self, runner):
        as_int = runner.invoke(main, ["uncertainty", "--mc-samples", "2000"])
        as_float = runner.invoke(main, ["uncertainty", "--mc-samples", "2e3"])
        assert as_int.exit_code == 0, as_int.output
        assert as_float.output == as_int.output
        fraction = runner.invoke(main, ["uncertainty", "--mc-samples", "1500.5"])
        assert fraction.exit_code == 2
        assert "samples must be a whole number" in fraction.output

    def test_injection_above_the_ceiling_exits_2(self, runner):
        result = runner.invoke(main, ["uncertainty", "--inject-db", "4000"])
        assert result.exit_code == 2
        assert "must be in [0, 3000] dB" in result.output

    def test_injection_above_the_ceiling_names_inject_db(self, runner):
        result = runner.invoke(main, ["uncertainty", "--inject-db", "4000"])
        assert result.exit_code == 2
        assert "inject_db must be in [0, 3000] dB" in result.output

    def test_draws_at_the_ceiling_give_finite_json(self, runner, schema_dir):
        args = ["uncertainty", "--inject-db", "3000", "--inject-sigma-db", "200", "--mc-samples", "1000"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            payload = invoke_json(runner, args)
        validate(schema_dir, "uncertainty.schema.json", payload)
        assert payload["clamped"]["inject_db"] > 0

    @pytest.mark.parametrize(
        "flag, name",
        [
            ("--inject-sigma-db", "inject_db sigma"),
            ("--eta-sigma", "efficiency sigma"),
            ("--phase-sigma-mrad", "phase_rms sigma"),
        ],
    )
    def test_sigma_wider_than_its_domain_exits_2(self, runner, flag, name):
        result = runner.invoke(main, ["uncertainty", flag, "1e308", "--mc-samples", "1000"])
        assert result.exit_code == 2
        assert f"{name} must be in [0, " in result.output

    @pytest.mark.parametrize(
        "inject, eta, phase",
        [("10.3", "0.44", "37"), ("3000", "1", "0"), ("0", "0", "785.3981633974481"), ("3000", "0.5", "1e-150")],
    )
    def test_every_sigma_at_its_bound_gives_strict_json(self, runner, schema_dir, inject, eta, phase):
        args = [
            "uncertainty", "--inject-db", inject, "--eta", eta, "--phase-mrad", phase,
            "--inject-sigma-db", "3000", "--eta-sigma", "1", "--phase-sigma-mrad", "785.3981633974482",
            "--mc-samples", "1000",
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            payload = invoke_json(runner, args)
        validate(schema_dir, "uncertainty.schema.json", payload)
        payload["inputs"]["phase_noise_mrad"]["sigma"] = 785.3981633974483
        with pytest.raises(jsonschema.ValidationError, match="785.398"):
            validate(schema_dir, "uncertainty.schema.json", payload)

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("seed", -1),
            ("inject_db", -0.1),
            ("inject_db", 3000.5),
            ("efficiency", -0.01),
            ("efficiency", 1.01),
            ("phase_noise_mrad", -0.1),
            ("phase_noise_mrad", 785.3981633974482),
        ],
    )
    def test_schema_refuses_what_the_command_refuses(self, runner, schema_dir, field, bad):
        # each bad value is one the command exits 2 for, as --seed -1 or --eta 1.01
        payload = invoke_json(runner, ["uncertainty", "--mc-samples", "1000"])
        validate(schema_dir, "uncertainty.schema.json", payload)
        if field == "seed":
            payload["seed"] = bad
        else:
            payload["inputs"][field]["value"] = bad
        with pytest.raises(jsonschema.ValidationError):
            validate(schema_dir, "uncertainty.schema.json", payload)


class TestOptimizeCommand:
    def test_lossless_35_mrad(self, runner, schema_dir):
        payload = invoke_json(runner, ["optimize", "--eta", "1.0", "--phase-mrad", "35"])
        validate(schema_dir, "optimize.schema.json", payload)
        assert payload["optimal_inject_db"] == pytest.approx(14.56, abs=0.01)
        assert payload["detected_db"] == pytest.approx(11.55, abs=0.01)

    def test_zero_jitter_exits_2(self, runner):
        result = runner.invoke(main, ["optimize", "--eta", "1.0", "--phase-mrad", "0"])
        assert result.exit_code == 2

    def test_zero_efficiency(self, runner, schema_dir):
        payload = invoke_json(runner, ["optimize", "--eta", "0", "--phase-mrad", "35"])
        validate(schema_dir, "optimize.schema.json", payload)
        assert payload["optimal_inject_db"] == pytest.approx(14.56, abs=0.01)
        assert payload["detected_db"] == 0.0

    def test_negative_max_db_exits_2(self, runner):
        result = runner.invoke(
            main, ["optimize", "--eta", "1.0", "--phase-mrad", "35", "--max-db", "-1"]
        )
        assert result.exit_code == 2
        assert "max_db" in result.output


class TestBudgetCommand:
    def test_h1_budget_files_and_summary(self, runner, configs_dir, schema_dir, tmp_path):
        out = tmp_path / "h1"
        result = runner.invoke(main, ["budget", str(configs_dir / "h1.json"), "--out", str(out)])
        assert result.exit_code == 0, result.output
        summary = json.loads((tmp_path / "h1-summary.json").read_text())
        validate(schema_dir, "budget-summary.schema.json", summary)
        for name in ("h1-total.csv", "h1-total-reference.csv", "h1-quantum.csv"):
            assert (tmp_path / name).is_file()
        # in a quantum-limited band the improvement matches the detected level
        assert abs(summary["improvement_db"]["max"] - summary["detected_squeezing_db"]) < 0.1
        assert summary["low_band_improvement_db"]["max"] > 2.0
        expected_power = 10 ** (summary["improvement_db"]["max"] / 10.0) - 1.0
        assert summary["equivalent_power_increase"]["from_max"] == pytest.approx(expected_power)

    @pytest.mark.parametrize(
        "squeezer",
        [
            {"inject_db": 0.0, "losses": [], "phase_noise_mrad": 0.0, "angle_policy": "none"},
            # a squeezer that is set up but off: the readout still sees vacuum
            {
                "inject_db": 10.3,
                "losses": [{"label": "total_detection", "efficiency": 0.44}],
                "phase_noise_mrad": 37.0,
                "angle_policy": "none",
            },
        ],
        ids=["absent", "off"],
    )
    def test_unsqueezed_total_equals_quantum_curve(self, runner, tmp_path, squeezer):
        cfg = write_config(tmp_path, squeezer=squeezer)
        out = tmp_path / "plain"
        result = runner.invoke(main, ["budget", str(cfg), "--out", str(out)])
        assert result.exit_code == 0, result.output
        total = ingest_asd(tmp_path / "plain-total.csv")
        quantum = ingest_asd(tmp_path / "plain-quantum.csv")
        np.testing.assert_allclose(total.asd, quantum.asd, rtol=1e-14)
        summary = json.loads((tmp_path / "plain-summary.json").read_text())
        assert summary["detected_squeezing_db"] == 0.0
        assert summary["improvement_db"]["max"] == pytest.approx(0.0, abs=1e-12)

    def test_svg_flag_writes_plot(self, runner, configs_dir, tmp_path):
        out = tmp_path / "h1"
        result = runner.invoke(
            main, ["budget", str(configs_dir / "h1.json"), "--out", str(out), "--svg"]
        )
        assert result.exit_code == 0, result.output
        svg = (tmp_path / "h1.svg").read_text()
        assert svg.startswith("<svg ")
        assert "polyline" in svg
        import xml.etree.ElementTree as ET

        ET.fromstring(svg)  # well-formed XML

    def test_svg_escapes_markup_in_labels(self, runner, configs_dir, tmp_path):
        import xml.etree.ElementTree as ET

        cfg = json.loads((configs_dir / "h1.json").read_text())
        cfg["label"] = "H1 & L1 <demo>"
        path = tmp_path / "h1.json"
        path.write_text(json.dumps(cfg))
        result = runner.invoke(main, ["budget", str(path), "--out", str(tmp_path / "amp"), "--svg"])
        assert result.exit_code == 0, result.output
        root = ET.parse(tmp_path / "amp.svg").getroot()
        texts = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]
        assert "H1 & L1 <demo>" in texts

    def test_aligo_budget_with_thermal_component(self, runner, configs_dir, tmp_path):
        out = tmp_path / "aligo"
        result = runner.invoke(
            main, ["budget", str(configs_dir / "aligo.json"), "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        summary = json.loads((tmp_path / "aligo-summary.json").read_text())
        assert summary["components"] == ["quantum", "thermal"]
        assert (tmp_path / "aligo-thermal.csv").is_file()

    def test_numerical_failure_exits_3(self, runner, tmp_path):
        cfg = write_config(
            tmp_path,
            interferometer={
                "label": "hot",
                "arm_length_m": 4000.0,
                "mirror_mass_kg": 10.7,
                "arm_power_w": 1e308,
                "cavity_pole_hz": 90.0,
            },
        )
        with np.errstate(over="ignore", invalid="ignore"):
            result = runner.invoke(main, ["budget", str(cfg), "--out", str(tmp_path / "hot")])
        assert result.exit_code == 3
        assert "Hz" in result.output

    def test_overflowing_total_exits_3(self, runner, configs_dir, tmp_path):
        # each component is a finite float; their root-sum-square, 2.1e308, is not
        (tmp_path / "huge.csv").write_text("frequency_hz,asd_strain_per_sqrt_hz\n1.0,1.5e308\n100000.0,1.5e308\n")
        cfg = json.loads((configs_dir / "h1.json").read_text())
        cfg["components"] = [{"label": "huge", "file": "huge.csv"}, {"label": "huge too", "file": "huge.csv"}]
        path = tmp_path / "h1.json"
        path.write_text(json.dumps(cfg))
        result = runner.invoke(main, ["budget", str(path), "--out", str(tmp_path / "huge")])
        assert result.exit_code == 3, result.output
        assert "total is not a positive finite number at 10.0 Hz" in result.output

    def test_a_total_whose_squares_overflow_is_written(self, runner, configs_dir, tmp_path):
        (tmp_path / "far.csv").write_text("frequency_hz,asd_strain_per_sqrt_hz\n1.0,1e200\n100000.0,1e200\n")
        cfg = json.loads((configs_dir / "h1.json").read_text())
        cfg["components"] = [{"label": "far", "file": "far.csv"}]
        path = tmp_path / "h1.json"
        path.write_text(json.dumps(cfg))
        result = runner.invoke(main, ["budget", str(path), "--out", str(tmp_path / "far"), "--svg"])
        assert result.exit_code == 0, result.output
        # the quantum noise, about 1e-24, adds nothing to it
        assert set(ingest_asd(tmp_path / "far-total.csv").asd.tolist()) == {1e200}

    @pytest.mark.parametrize("inject_db", [2750.0, 2800.0, 3000.0])
    def test_the_highest_injections_gain_their_level(self, runner, tmp_path, inject_db):
        # the squeezed PSD falls below the normal floats while its root, about 1e-160, does not
        squeezer = {"inject_db": inject_db, "losses": [], "phase_noise_mrad": 0.0, "angle_policy": "fd-optimal"}
        cfg = write_config(tmp_path, squeezer=squeezer)
        result = runner.invoke(main, ["budget", str(cfg), "--out", str(tmp_path / "high")])
        assert result.exit_code == 0, result.output
        summary = json.loads((tmp_path / "high-summary.json").read_text())
        assert summary["improvement_db"]["median"] == pytest.approx(inject_db, rel=0.0, abs=1e-9)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"grid": {"f_min_hz": 10.0, "f_max_hz": 100.0, "points": 50}},  # band outside grid
            {"interferometer": {"arm_length_m": 4000.0, "mirror_mass_kg": 10.7, "arm_power_w": 4e4}},
            {"components": [{"label": "ghost", "file": "missing.csv"}]},
            {"squeezer": {"inject_db": 10.3, "angle_policy": "sideways"}},
            {"components": [{"label": "thermal", "file": "config.json"}]},  # not an ASD table
        ],
    )
    def test_config_errors_exit_2(self, runner, tmp_path, overrides):
        cfg = write_config(tmp_path, **overrides)
        result = runner.invoke(main, ["budget", str(cfg), "--out", str(tmp_path / "bad")])
        assert result.exit_code == 2

    def test_whole_float_point_count_writes_the_same_files(self, runner, configs_dir, tmp_path):
        cfg = json.loads((configs_dir / "h1.json").read_text())
        blobs = []
        for points in (1000, 1000.0):
            cfg["grid"]["points"] = points
            run_dir = tmp_path / repr(points)
            run_dir.mkdir()
            path = run_dir / "h1.json"
            path.write_text(json.dumps(cfg))
            result = runner.invoke(main, ["budget", str(path), "--out", str(run_dir / "run"), "--svg"])
            assert result.exit_code == 0, result.output
            blobs.append({p.name: p.read_bytes() for p in run_dir.iterdir() if p != path})
        assert blobs[0] == blobs[1]
        assert len(blobs[0]) == 5

    def test_jitter_past_pi_over_4_fails_schema_and_loader(self, configs_dir, schema_dir, tmp_path):
        # pi/4 rad is 785.398 mrad: 785 passes both checks, 786 fails both
        cfg = json.loads((configs_dir / "h1.json").read_text())
        cfg["squeezer"]["phase_noise_mrad"] = 785.0
        validate(schema_dir, "runconfig.schema.json", cfg)
        cfg["squeezer"]["phase_noise_mrad"] = 786.0
        path = tmp_path / "h1.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(jsonschema.ValidationError, match="785.398"):
            validate(schema_dir, "runconfig.schema.json", cfg)
        with pytest.raises(ValueError, match="theta_rms"):
            load_run_config(path)

    def test_jitter_at_the_last_float_below_pi_over_4(self, runner, configs_dir, schema_dir, tmp_path):
        # 785.3981633974482 * 1e-3 is exactly pi/4, the excluded end; the float below passes
        cfg = json.loads((configs_dir / "h1.json").read_text())
        path = tmp_path / "h1.json"
        for mrad, ok in ((785.3981633974481, True), (785.3981633974482, False)):
            cfg["squeezer"]["phase_noise_mrad"] = mrad
            path.write_text(json.dumps(cfg))
            args = ["propagate", "--inject-db", "10.3", "--eta", "0.44", "--phase-mrad", repr(mrad)]
            if ok:
                validate(schema_dir, "runconfig.schema.json", cfg)
                load_run_config(path)
                validate(schema_dir, "propagate.schema.json", invoke_json(runner, args))
            else:
                with pytest.raises(jsonschema.ValidationError):
                    validate(schema_dir, "runconfig.schema.json", cfg)
                with pytest.raises(ValueError, match="theta_rms"):
                    load_run_config(path)
                result = runner.invoke(main, args)
                assert result.exit_code == 2
                assert "theta_rms must be in [0, 0.7853981633974483) rad" in result.output

    def test_zero_arm_length_with_finesse_exits_2(self, runner, configs_dir, tmp_path):
        cfg = json.loads((configs_dir / "h1.json").read_text())
        cfg["interferometer"]["arm_length_m"] = 0.0
        path = tmp_path / "h1.json"
        path.write_text(json.dumps(cfg))
        result = runner.invoke(main, ["budget", str(path), "--out", str(tmp_path / "bad")])
        assert result.exit_code == 2
        assert "arm_length must be > 0" in result.output

    def test_rejects_pole_and_finesse_together(self, runner, tmp_path):
        cfg = write_config(
            tmp_path,
            interferometer={
                "arm_length_m": 4000.0,
                "mirror_mass_kg": 10.7,
                "arm_power_w": 4e4,
                "cavity_pole_hz": 90.0,
                "finesse": 204.0,
            },
        )
        result = runner.invoke(main, ["budget", str(cfg), "--out", str(tmp_path / "bad")])
        assert result.exit_code == 2
        assert "not both" in result.output

    @pytest.mark.parametrize(
        "labels, first",
        [(["total"], "total, squeezer as configured"), (["total reference"], "total, squeezer off"),
         (["a b", "a-b"], "component a b")],
        ids=["overwrites-total", "overwrites-reference-total", "one-file-for-two-labels"],
    )
    def test_labels_colliding_as_file_names_exit_2(self, runner, configs_dir, tmp_path, labels, first):
        table = str(configs_dir / "aligo_thermal_synthetic.csv")
        components = [{"label": label, "file": table} for label in labels]
        cfg = write_config(tmp_path, components=components)
        result = runner.invoke(main, ["budget", str(cfg), "--out", str(tmp_path / "run")])
        assert result.exit_code == 2, result.output
        shared = tmp_path / f"run-{labels[-1].replace(' ', '-')}.csv"
        owners = f"'{first} (test)' and 'component {labels[-1]} (test)'"
        assert f"{owners} would both go to '{shared}'" in result.output
        assert not list(tmp_path.glob("run*"))

    @pytest.mark.parametrize("command", ["budget", "project", "load_run_config"])
    @pytest.mark.parametrize(
        "labels, message",
        [
            (["quantum"], "components[0].label 'quantum' is already used by the budget's quantum-noise curve"),
            (["thermal", "seismic", "thermal"], "components[2].label 'thermal' is already used by components[0]"),
        ],
        ids=["quantum", "duplicate"],
    )
    def test_a_used_label_names_its_entry_before_any_table_is_read(
        self, runner, configs_dir, tmp_path, command, labels, message
    ):
        # the last component's file is no ASD table, so reading it would be a different error
        files = [str(configs_dir / "aligo_thermal_synthetic.csv")] * (len(labels) - 1) + [str(configs_dir / "h1.json")]
        cfg = write_config(tmp_path, components=[{"label": label, "file": f} for label, f in zip(labels, files)])
        if command == "load_run_config":  # the loader holds the rule, so the API refuses what the CLI does
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                load_run_config(cfg)
            return
        out = tmp_path / "out"
        result = runner.invoke(main, [command, str(cfg), "--out", str(out / "run")])
        assert result.exit_code == 2, result.output
        assert f"Error: {message}\n" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("command", ["budget", "project"])
    def test_a_bad_band_is_reported_before_a_used_label(self, runner, configs_dir, tmp_path, command):
        table = str(configs_dir / "aligo_thermal_synthetic.csv")
        cfg = write_config(tmp_path, components=[{"label": "quantum", "file": table}], band_hz=[400.0, 20000.0])
        message = "band_hz [400.0, 20000.0] Hz lies outside the grid span [10.0, 10000.0] Hz"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_run_config(cfg)
        result = runner.invoke(main, [command, str(cfg), "--out", str(tmp_path / "run")])
        assert result.exit_code == 2, result.output
        assert f"Error: {message}\n" in result.output

    @pytest.mark.parametrize("newline", ["\n", "\r", "\r\n", "\u2028"])
    def test_multiline_label_keeps_every_csv_readable(self, runner, tmp_path, newline):
        cfg = write_config(tmp_path, label=f"H1{newline}run 7")
        result = runner.invoke(main, ["budget", str(cfg), "--out", str(tmp_path / "run"), "--svg"])
        assert result.exit_code == 0, result.output
        csvs = sorted(tmp_path.glob("run-*.csv"))
        assert len(csvs) == 3
        for path in csvs:
            lines = path.read_text(encoding="utf-8").splitlines()
            assert lines[1].startswith("# ") and lines[1].endswith("(H1")
            assert lines[2] == "# run 7)"
            table = ingest_asd(path)
            assert len(table) == 200
            assert table.frequencies[0] == 10.0 and table.frequencies[-1] == 10000.0


class TestLabelsThatReachFiles:
    """A label either reaches every file well-formed or the run writes nothing."""

    @staticmethod
    def with_label(tmp_path, configs_dir, where, label):
        cfg = json.loads((configs_dir / "aligo.json").read_text())
        cfg["grid"]["points"] = 50
        cfg["components"][0]["file"] = str(configs_dir / cfg["components"][0]["file"])
        if where == "label":
            cfg["label"] = label
        elif where == "interferometer.label":
            del cfg["label"]
            cfg["interferometer"]["label"] = label
        else:
            cfg["components"][0]["label"] = label
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        return cfg, path

    @pytest.mark.parametrize("command", [["budget", "--svg"], ["project"]], ids=["budget", "project"])
    @pytest.mark.parametrize("where", ["label", "interferometer.label", "components[0].label"])
    @pytest.mark.parametrize(
        "label", ["H1\x01run", "H1\ufffe", "H1\ud800"], ids=["C0", "FFFE", "surrogate"]
    )
    def test_non_xml_characters_exit_2_before_any_write(
        self, runner, configs_dir, schema_dir, tmp_path, command, where, label
    ):
        cfg, path = self.with_label(tmp_path, configs_dir, where, label)
        with pytest.raises(jsonschema.ValidationError):
            validate(schema_dir, "runconfig.schema.json", cfg)
        out = tmp_path / "out"
        result = runner.invoke(main, [command[0], str(path), "--out", str(out / "run"), *command[1:]])
        assert result.exit_code == 2, result.output
        assert f"{where} holds" in result.output
        assert not out.exists()

    def test_too_long_component_name_exits_2_before_any_write(self, runner, configs_dir, tmp_path):
        _, path = self.with_label(tmp_path, configs_dir, "components[0].label", "x" * 300)
        out = tmp_path / "out"
        result = runner.invoke(main, ["budget", str(path), "--out", str(out / "run"), "--svg"])
        assert result.exit_code == 2, result.output
        assert "x" * 300 in result.output and "longer than" in result.output
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("label", ["total-seismic", "quantum-radiation", "summary"])
    def test_budget_takes_a_label_whose_file_no_other_output_uses(self, runner, configs_dir, tmp_path, label):
        _, path = self.with_label(tmp_path, configs_dir, "components[0].label", label)
        out = tmp_path / "out"
        result = runner.invoke(main, ["budget", str(path), "--out", str(out / "run"), "--svg"])
        assert result.exit_code == 0, result.output
        assert sorted(p.name for p in out.iterdir()) == sorted([
            "run-quantum.csv", f"run-{label}.csv", "run-summary.json", "run-total-reference.csv",
            "run-total.csv", "run.svg",
        ])
        assert ingest_asd(out / f"run-{label}.csv").frequencies.size == 50

    @pytest.mark.parametrize(
        "label", ["total", "total reference", "total-seismic", "quantum-radiation", "quantum-fixed", "total-none"]
    )
    def test_project_takes_every_label_compose_takes(self, runner, configs_dir, tmp_path, label):
        _, path = self.with_label(tmp_path, configs_dir, "components[0].label", label)
        out = tmp_path / "out"
        result = runner.invoke(main, ["project", str(path), "--out", str(out / "run")])
        assert result.exit_code == 0, result.output
        assert len(list(out.iterdir())) == 7

    def test_project_writes_no_component_file_so_a_long_label_passes(
        self, runner, configs_dir, tmp_path
    ):
        import xml.etree.ElementTree as ET

        _, path = self.with_label(tmp_path, configs_dir, "components[0].label", "x" * 300)
        result = runner.invoke(main, ["project", str(path), "--out", str(tmp_path / "run")])
        assert result.exit_code == 0, result.output
        root = ET.parse(tmp_path / "run.svg").getroot()
        texts = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]
        assert "x" * 300 in texts


class TestConfigKeysAndTypes:
    """The loader rejects, with exit 2 and a message naming the key, what the schema rejects."""

    CASES = {
        "misspelt-phase-noise": (
            lambda cfg: cfg["squeezer"].update(phase_mrad=cfg["squeezer"].pop("phase_noise_mrad")),
            "squeezer has unknown key 'phase_mrad'",
        ),
        "misspelt-band": (
            lambda cfg: cfg.update(band=cfg.pop("band_hz")),
            "config has unknown key 'band'",
        ),
        "numeric-label": (lambda cfg: cfg.update(label=7), "label must be a string, got 7"),
        "numeric-loss-label": (
            lambda cfg: cfg["squeezer"]["losses"][0].update(label=1),
            "squeezer.losses[0].label must be a string, got 1",
        ),
        "null-squeezer": (lambda cfg: cfg.update(squeezer=None), "squeezer must be an object, got None"),
        "null-label": (lambda cfg: cfg.update(label=None), "label must be a string, got None"),
        "extra-loss-key": (
            lambda cfg: cfg["squeezer"]["losses"][0].update(loss=0.1),
            "squeezer.losses[0] has unknown key 'loss'",
        ),
        "extra-component-key": (
            lambda cfg: cfg["components"][0].update(scale=2.0),
            "components[0] has unknown key 'scale'",
        ),
        "numeric-component-file": (
            lambda cfg: cfg["components"][0].update(file=3),
            "components[0].file must be a string, got 3",
        ),
        "pole-and-finesse": (
            lambda cfg: cfg["interferometer"].update(finesse=450.0),
            "give cavity_pole_hz or finesse, not both",
        ),
        "losses-not-a-list": (
            lambda cfg: cfg["squeezer"].update(losses={"label": "omc", "efficiency": 0.9}),
            "squeezer.losses must be a list",
        ),
        "components-not-a-list": (
            lambda cfg: cfg.update(components=cfg["components"][0]),
            "components must be a list",
        ),
        "unknown-spacing": (
            lambda cfg: cfg["grid"].update(spacing="cubic"),
            "spacing must be 'log' or 'linear', got 'cubic'",
        ),
        # a non-string value is named as the JSON gave it
        "numeric-angle-policy": (
            lambda cfg: cfg["squeezer"].update(angle_policy=5),
            "angle_policy must be one of ('none', 'fixed', 'fd-optimal'), got 5",
        ),
        "null-angle-policy": (
            lambda cfg: cfg["squeezer"].update(angle_policy=None),
            "angle_policy must be one of ('none', 'fixed', 'fd-optimal'), got None",
        ),
        "list-spacing": (
            lambda cfg: cfg["grid"].update(spacing=["log"]),
            "spacing must be 'log' or 'linear', got ['log']",
        ),
        # every required grid key is named the same way when it is missing
        "missing-f-min": (lambda cfg: cfg["grid"].pop("f_min_hz"), "grid is missing 'f_min_hz'"),
        "missing-f-max": (lambda cfg: cfg["grid"].pop("f_max_hz"), "grid is missing 'f_max_hz'"),
        "missing-points": (lambda cfg: cfg["grid"].pop("points"), "grid is missing 'points'"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_schema_and_loader_both_reject(self, runner, configs_dir, schema_dir, tmp_path, case):
        mutate, message = self.CASES[case]
        cfg = json.loads((configs_dir / "aligo.json").read_text())
        cfg["components"][0]["file"] = str(configs_dir / cfg["components"][0]["file"])
        mutate(cfg)
        with pytest.raises(jsonschema.ValidationError):
            validate(schema_dir, "runconfig.schema.json", cfg)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        result = runner.invoke(main, ["budget", str(path), "--out", str(out / "run"), "--svg"])
        assert result.exit_code == 2, result.output
        assert message in result.output
        assert not out.exists()

    @pytest.mark.parametrize("command", ["budget", "project"])
    def test_config_nested_too_deeply_exits_2(self, runner, tmp_path, command):
        # json.loads raises RecursionError at about 1000 levels
        path = tmp_path / "deep.json"
        path.write_text('{"label": "x", "interferometer": ' + "[" * 10_000 + "]" * 10_000 + "}")
        result = runner.invoke(main, [command, str(path), "--out", str(tmp_path / "run")])
        assert result.exit_code == 2, result.output
        assert f"{path}: JSON nested too deeply to parse" in result.output

    @pytest.mark.parametrize("command", ["budget", "project"])
    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"label": ', "not JSON: Expecting value: line 1 column 11 (char 10)"),
            ('{"grid": {"points": ' + "9" * 5001 + "}}", "an integer has more than"),
        ],
        ids=["truncated", "integer-of-5001-digits"],
    )
    def test_config_json_cannot_parse_names_its_path(self, runner, tmp_path, command, text, message):
        path = tmp_path / "bad.json"
        path.write_text(text)
        result = runner.invoke(main, [command, str(path), "--out", str(tmp_path / "run")])
        assert result.exit_code == 2, result.output
        assert f"Error: {path}: {message}" in result.output
        assert "sys." not in result.output

    def test_integer_past_the_float_range_exits_2(self, runner, configs_dir, tmp_path):
        # JSON has no size limit on integers; float() of a 400-digit one overflows
        cfg = json.loads((configs_dir / "h1.json").read_text())
        cfg["interferometer"]["arm_length_m"] = 10**400
        path = tmp_path / "h1.json"
        path.write_text(json.dumps(cfg))
        result = runner.invoke(main, ["budget", str(path), "--out", str(tmp_path / "run")])
        assert result.exit_code == 2, result.output
        assert "interferometer.arm_length_m must be finite" in result.output

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda cfg: cfg.update(interferometer=[0] * 100_000), "interferometer must be an object, got [0, 0"),
            (
                lambda cfg: cfg["squeezer"].update(losses=[{"label": "x" * 10**6, "efficiency": 2}]),
                "efficiency for 'xxx",
            ),
        ],
        ids=["interferometer-of-100000-zeros", "loss-label-of-a-million-characters"],
    )
    def test_a_huge_input_is_quoted_in_a_bounded_message(self, configs_dir, tmp_path, mutate, message):
        cfg = json.loads((configs_dir / "h1.json").read_text())
        mutate(cfg)
        path = tmp_path / "h1.json"
        path.write_text(json.dumps(cfg))
        proc = subprocess.run(
            [sys.executable, "-m", "sqznb", "budget", str(path), "--out", str(tmp_path / "run")],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 2, proc.stderr[:2000]
        assert message in proc.stderr and " characters]" in proc.stderr
        assert len(proc.stderr.encode()) < 1024

    def test_config_that_is_not_utf8_names_its_path(self, runner, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"label": "caf\xe9"}')
        result = runner.invoke(main, ["budget", str(path), "--out", str(tmp_path / "run")])
        assert result.exit_code == 2, result.output
        assert f"{path}: not UTF-8 text" in result.output

    def test_table_that_is_not_utf8_names_its_path_and_line(self, runner, configs_dir, tmp_path):
        table = tmp_path / "thermal.csv"
        table.write_bytes(b"# a\r\n# caf\xe9\n" + (configs_dir / "aligo_thermal_synthetic.csv").read_bytes())
        cfg = json.loads((configs_dir / "aligo.json").read_text())
        cfg["components"][0]["file"] = str(table)
        path = tmp_path / "aligo.json"
        path.write_text(json.dumps(cfg))
        result = runner.invoke(main, ["budget", str(path), "--out", str(tmp_path / "run")])
        assert result.exit_code == 2, result.output
        assert f"{table}:2: not UTF-8 text" in result.output

    @pytest.mark.parametrize("spacing", ["log", "linear"])
    @pytest.mark.parametrize("command", ["budget", "project"])
    @pytest.mark.parametrize("error", [MemoryError, ValueError])
    def test_unallocatable_grid_exits_2(self, runner, configs_dir, tmp_path, monkeypatch, error, command, spacing):
        # the allocation is refused by a stand-in, so no host memory is ever asked for
        requested = []

        def refuse(start, stop, num, *args, **kwargs):
            requested.append(num)
            raise error("simulated allocation failure")

        monkeypatch.setattr(np, "logspace", refuse)
        monkeypatch.setattr(np, "linspace", refuse)
        cfg = json.loads((configs_dir / "h1.json").read_text())
        cfg["grid"].update(points=1e13, spacing=spacing)
        path = tmp_path / "h1.json"
        path.write_text(json.dumps(cfg))
        result = runner.invoke(main, [command, str(path), "--out", str(tmp_path / "run")])
        assert requested == [10**13]
        assert result.exit_code == 2, result.output
        assert "points = 10000000000000 needs a 7.45e+04 GiB grid, which could not be allocated" in result.output

    @pytest.mark.parametrize("command", ["budget", "project"])
    def test_grid_past_numpy_size_limit_exits_2(self, runner, configs_dir, tmp_path, command):
        # numpy refuses 1e20 points before allocating
        cfg = json.loads((configs_dir / "h1.json").read_text())
        cfg["grid"]["points"] = 1e20
        path = tmp_path / "h1.json"
        path.write_text(json.dumps(cfg))
        result = runner.invoke(main, [command, str(path), "--out", str(tmp_path / "run")])
        assert result.exit_code == 2, result.output
        assert "points = 100000000000000000000 needs a" in result.output

    @pytest.mark.parametrize("spacing", ["log", "linear"])
    @pytest.mark.parametrize("command", [["budget", "--svg"], ["project"]])
    def test_a_run_builds_its_grid_once(self, runner, configs_dir, tmp_path, monkeypatch, command, spacing):
        built = []

        def counting(build):
            def counted(start, stop, num, *args, **kwargs):
                built.append(num)
                return build(start, stop, num, *args, **kwargs)

            return counted

        monkeypatch.setattr(np, "logspace", counting(np.logspace))
        monkeypatch.setattr(np, "linspace", counting(np.linspace))
        cfg = json.loads((configs_dir / "aligo.json").read_text())
        cfg["components"][0]["file"] = str(configs_dir / cfg["components"][0]["file"])
        cfg["grid"]["spacing"] = spacing
        path = tmp_path / "aligo.json"
        path.write_text(json.dumps(cfg))
        result = runner.invoke(main, [command[0], str(path), "--out", str(tmp_path / "run"), *command[1:]])
        assert result.exit_code == 0, result.output
        assert built == [cfg["grid"]["points"]]

    @pytest.mark.parametrize("command, checks", [(["budget", "--svg"], 7), (["project"], 9)], ids=["budget", "project"])
    def test_a_run_checks_each_curve_once(self, runner, configs_dir, tmp_path, curve_checks, command, checks):
        """aligo: the table as read and as resampled, each quantum curve, each budget's
        components (a total is checked only where it was rescaled) and the plot."""
        result = runner.invoke(main, [command[0], str(configs_dir / "aligo.json"), "--out", str(tmp_path / "r"), *command[1:]])
        assert result.exit_code == 0, result.output
        assert len(curve_checks) == checks

    def test_neither_pole_nor_finesse_fails_schema_and_loader(self, configs_dir, schema_dir, tmp_path):
        cfg = json.loads((configs_dir / "h1.json").read_text())
        del cfg["interferometer"]["finesse"]
        with pytest.raises(jsonschema.ValidationError):
            validate(schema_dir, "runconfig.schema.json", cfg)
        path = tmp_path / "h1.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(ValueError, match="cavity_pole_hz"):
            load_run_config(path)


class TestBandRule:
    """The loader, ``budget`` and ``project`` accept the same bands and grids."""

    def invoke_both(self, runner, tmp_path, **overrides):
        cfg = write_config(tmp_path, **overrides)
        budget = runner.invoke(main, ["budget", str(cfg), "--out", str(tmp_path / "b")])
        project = runner.invoke(main, ["project", str(cfg), "--out", str(tmp_path / "p")])
        return budget, project

    def test_band_without_a_grid_point_exits_2_everywhere(self, runner, tmp_path):
        budget, project = self.invoke_both(
            runner,
            tmp_path,
            grid={"f_min_hz": 10.0, "f_max_hz": 10000.0, "points": 20},
            band_hz=[400.0, 401.0],
        )
        for result in (budget, project):
            assert result.exit_code == 2, result.output
            assert "no grid points inside band_hz [400.0, 401.0] Hz" in result.output

    def test_low_band_without_a_grid_point_is_not_reported(self, runner, schema_dir, tmp_path):
        # 10, 316.2 and 10000 Hz: no point in 150-300 Hz, one in the band
        budget, project = self.invoke_both(
            runner,
            tmp_path,
            grid={"f_min_hz": 10.0, "f_max_hz": 10000.0, "points": 3},
            band_hz=[300.0, 400.0],
        )
        assert budget.exit_code == 0, budget.output
        assert project.exit_code == 0, project.output
        summary = json.loads((tmp_path / "b-summary.json").read_text())
        validate(schema_dir, "budget-summary.schema.json", summary)
        assert summary["low_band_hz"] is None
        assert summary["low_band_improvement_db"] is None
        assert summary["improvement_db"]["max"] > 2.0

    @pytest.mark.parametrize("f_max", [3000.0, 5000.0])
    def test_band_ending_at_f_max(self, runner, tmp_path, f_max):
        budget, project = self.invoke_both(
            runner,
            tmp_path,
            grid={"f_min_hz": 10.0, "f_max_hz": f_max, "points": 200},
            band_hz=[400.0, f_max],
        )
        assert budget.exit_code == 0, budget.output
        assert project.exit_code == 0, project.output
        summary = json.loads((tmp_path / "b-summary.json").read_text())
        assert summary["band_hz"] == [400.0, f_max]
        assert ingest_asd(tmp_path / "b-total.csv").frequencies[-1] == f_max

    def test_table_spanning_exactly_the_grid_resamples(self, runner, tmp_path):
        (tmp_path / "flat.csv").write_text(
            "frequency_hz,asd_strain_per_sqrt_hz\n10.0,1e-24\n3000.0,1e-24\n"
        )
        budget, project = self.invoke_both(
            runner,
            tmp_path,
            grid={"f_min_hz": 10.0, "f_max_hz": 3000.0, "points": 200},
            components=[{"label": "flat", "file": "flat.csv"}],
        )
        assert budget.exit_code == 0, budget.output
        assert project.exit_code == 0, project.output
        assert np.all(ingest_asd(tmp_path / "b-flat.csv").asd == 1e-24)

    def test_grid_too_narrow_for_its_points_is_a_config_error(self, runner, tmp_path):
        budget, project = self.invoke_both(
            runner,
            tmp_path,
            grid={"f_min_hz": 1000.0, "f_max_hz": 1000.0000000000001, "points": 5},
            band_hz=[1000.0, 1000.0000000000001],
        )
        for result in (budget, project):
            assert result.exit_code == 2, result.output
            assert "too narrow for 5 strictly increasing points" in result.output


class TestProjectCommand:
    def test_all_modes_emit_three_curve_pairs(self, runner, configs_dir, tmp_path):
        out = tmp_path / "proj"
        result = runner.invoke(main, ["project", str(configs_dir / "aligo.json"), "--out", str(out)])
        assert result.exit_code == 0, result.output
        for policy in ("none", "fixed", "fd-optimal"):
            assert (tmp_path / f"proj-quantum-{policy}.csv").is_file()
            assert (tmp_path / f"proj-total-{policy}.csv").is_file()
        assert (tmp_path / "proj.svg").is_file()

    def test_policy_ordering_and_shot_noise_factor(self, runner, configs_dir, tmp_path):
        out = tmp_path / "proj"
        result = runner.invoke(main, ["project", str(configs_dir / "aligo.json"), "--out", str(out)])
        assert result.exit_code == 0, result.output
        none = ingest_asd(tmp_path / "proj-quantum-none.csv")
        fixed = ingest_asd(tmp_path / "proj-quantum-fixed.csv")
        rotated = ingest_asd(tmp_path / "proj-quantum-fd-optimal.csv")
        assert np.all(rotated.asd <= fixed.asd * (1 + 1e-12))
        # shot-noise-limited end: at least a factor 2 below the unsqueezed curve
        assert none.asd[-1] / fixed.asd[-1] >= 2.0

    def test_single_mode_run(self, runner, configs_dir, tmp_path):
        out = tmp_path / "only"
        result = runner.invoke(
            main, ["project", str(configs_dir / "aligo.json"), "--mode", "none", "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        assert (tmp_path / "only-quantum-none.csv").is_file()
        assert not (tmp_path / "only-quantum-fixed.csv").exists()

    def test_fixed_angle_from_the_config_reaches_the_projection(self, runner, configs_dir, tmp_path):
        cfg = json.loads((configs_dir / "h1.json").read_text())
        cfg["squeezer"]["fixed_angle_rad"] = 1.2
        path = tmp_path / "h1.json"
        path.write_text(json.dumps(cfg))
        for config, prefix in ((path, "turned"), (configs_dir / "h1.json", "default")):
            args = ["project", str(config), "--mode", "fixed", "--out", str(tmp_path / prefix)]
            result = runner.invoke(main, args)
            assert result.exit_code == 0, result.output
        run = load_run_config(path)
        assert run.squeezer.fixed_angle == 1.2
        expected = quantum_noise_curve(run.interferometer, run.squeezer, run.grid.frequencies())
        written = ingest_asd(tmp_path / "turned-quantum-fixed.csv")
        assert np.array_equal(written.frequencies, expected.frequencies)
        assert np.array_equal(written.asd, expected.asd)
        assert not np.array_equal(written.asd, ingest_asd(tmp_path / "default-quantum-fixed.csv").asd)


def _variances(state) -> dict:
    return {"v_plus": state.v_plus, "v_minus": state.v_minus}


def _propagate_payload(losses, chain, phase_mrad) -> dict:
    result = propagate(10.3, losses, PhaseNoise(phase_mrad * 1e-3))
    return {
        "inject_db": 10.3,
        "efficiency": result.efficiency,
        "loss_chain": [{"label": label, "efficiency": eta} for label, eta in chain],
        "phase_noise_mrad": phase_mrad,
        "phase_noise_model": "rms-substitution",
        "variances": {
            "injected": _variances(result.injected),
            "after_loss": _variances(result.after_loss),
            "detected": _variances(result.state),
        },
        "detected_db": result.detected_db,
    }


def _fit_payload() -> dict:
    result = fit_efficiency(10.3, 2.21, PhaseNoise(0.0))
    return {
        "inject_db": 10.3,
        "target_db": 2.21,
        "phase_noise_mrad": 0.0,
        "efficiency": result.estimate,
        "residual_db": result.residual,
        "iterations": 0,
        "bracket": [result.estimate, result.estimate],
    }


def _optimize_payload() -> dict:
    result = optimal_inject_db(1.0, PhaseNoise(35.0 * 1e-3))
    return {
        "efficiency": 1.0,
        "phase_noise_mrad": 35.0,
        "optimal_inject_db": result.inject_db,
        "detected_db": result.detected_db,
        "iterations": 0,
    }


def _uncertainty_payload() -> dict:
    result = mc_uncertainty(
        MeasurementWithUncertainty(10.3, 0.2),
        MeasurementWithUncertainty(0.44, 0.02),
        MeasurementWithUncertainty(37.0 * 1e-3, 6.0 * 1e-3),
        samples=2000,
        seed=42,
    )
    return {
        "inputs": {
            "inject_db": {"value": 10.3, "sigma": 0.2},
            "efficiency": {"value": 0.44, "sigma": 0.02},
            "phase_noise_mrad": {"value": 37.0, "sigma": 6.0},
        },
        "mean_db": result.mean_db,
        "sigma_db": result.sigma_db,
        "first_order_sigma_db": result.first_order_sigma_db,
        "clamped": result.clamped,
        "samples": 2000,
        "seed": 42,
    }


#: Arguments of each JSON command, with the payload built in process from the library's results.
CHAIN = (("mm", 0.75), ("omc", 0.82), ("faraday", 0.80))
EXACT_STDOUT = {
    ("propagate", "--inject-db", "10.3", "--eta", "0.44", "--phase-mrad", "37"): (
        lambda: _propagate_payload(0.44, [("total", 0.44)], 37.0)
    ),
    ("propagate", "--inject-db", "10.3", "--loss", "mm=0.75", "--loss", "omc=0.82", "--loss", "faraday=0.80"): (
        lambda: _propagate_payload(LossChain(CHAIN), CHAIN, 0.0)
    ),
    ("fit", "--injected", "10.3", "--detected", "2.21", "--phase-mrad", "0"): _fit_payload,
    ("optimize", "--eta", "1.0", "--phase-mrad", "35"): _optimize_payload,
    ("uncertainty", "--mc-samples", "2000"): _uncertainty_payload,
}


class TestDeterminism:
    def test_budget_outputs_are_byte_identical(self, runner, configs_dir, tmp_path):
        files = {}
        for tag in ("first", "second"):
            out_dir = tmp_path / tag
            out_dir.mkdir()
            result = runner.invoke(
                main, ["budget", str(configs_dir / "h1.json"), "--out", str(out_dir / "run"), "--svg"]
            )
            assert result.exit_code == 0, result.output
            files[tag] = sorted(out_dir.iterdir())
        assert [p.name for p in files["first"]] == [p.name for p in files["second"]]
        for a, b in zip(files["first"], files["second"]):
            assert a.read_bytes() == b.read_bytes(), a.name

    def test_project_mode_none_is_byte_identical(self, runner, configs_dir, tmp_path):
        blobs = []
        for tag in ("a", "b"):
            out_dir = tmp_path / tag
            out_dir.mkdir()
            result = runner.invoke(
                main,
                ["project", str(configs_dir / "aligo.json"), "--mode", "none", "--out", str(out_dir / "p")],
            )
            assert result.exit_code == 0, result.output
            blobs.append({p.name: p.read_bytes() for p in out_dir.iterdir()})
        assert blobs[0] == blobs[1]

    def test_stdout_json_is_identical_across_runs(self, runner):
        args = ["uncertainty", "--mc-samples", "5000", "--seed", "11"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.output == second.output

    @pytest.mark.parametrize("args", list(EXACT_STDOUT), ids=" ".join)
    def test_json_stdout_is_the_library_result_dumped_once(self, runner, args):
        # the exact text: key order, int against float and the final newline
        result = runner.invoke(main, list(args))
        assert result.exit_code == 0, result.output
        assert result.stdout == json.dumps(EXACT_STDOUT[args](), indent=2, sort_keys=True) + "\n"

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "sqznb", "propagate", "--inject-db", "10.3", "--eta", "0.44"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["detected_db"] == pytest.approx(2.2108, abs=0.001)


#: Per command, arguments that make the library raise a plain ValueError.
LIBRARY_VALUE_ERRORS = {
    "propagate": ["--inject-db", "-1", "--eta", "0.5"],
    "fit": ["--injected", "10.3", "--detected", "20"],
    "uncertainty": ["--mc-samples", "10"],
    "optimize": ["--eta", "2", "--phase-mrad", "35"],
    "budget": ["{empty}", "--out", "{out}"],
    "project": ["{empty}", "--out", "{out}"],
}


@pytest.mark.parametrize("command", sorted(main.commands))
def test_library_value_error_exits_2_with_the_usage_hint(runner, tmp_path, command):
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    args = [a.format(empty=empty, out=tmp_path / "run") for a in LIBRARY_VALUE_ERRORS[command]]
    result = runner.invoke(main, [command, *args])
    assert result.exit_code == 2, result.output
    # the program name differs between CliRunner and python -m sqznb
    assert re.search(rf"^Try '.* {command} --help' for help\.$", result.output, re.M), result.output


@pytest.mark.parametrize("command", ["budget", "project"])
def test_overflowing_quantum_noise_exits_3_with_one_line_on_stderr(configs_dir, tmp_path, command):
    cfg = json.loads((configs_dir / "h1.json").read_text())
    cfg["interferometer"]["mirror_mass_kg"] = 1e-300
    path = tmp_path / "h1.json"
    path.write_text(json.dumps(cfg))
    proc = subprocess.run(
        [sys.executable, "-m", "sqznb", command, str(path), "--out", str(tmp_path / "run")],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 3
    # no usage lines and no numpy RuntimeWarning
    assert proc.stderr == "Error: quantum noise ASD is not a positive finite number at 10.0 Hz\n"
    assert proc.stdout == ""


@pytest.mark.parametrize("command, files", [(["budget", "--svg"], 6), (["project"], 7)], ids=["budget", "project"])
def test_a_subnormal_component_value_reaches_the_plot(runner, configs_dir, tmp_path, command, files):
    import xml.etree.ElementTree as ET

    table = tmp_path / "subnormal.csv"
    table.write_text("frequency_hz,asd_strain_per_sqrt_hz\n5.0,1e-23\n100.0,5e-324\n20000.0,1e-23\n")
    cfg = json.loads((configs_dir / "aligo.json").read_text())
    cfg["components"] = [{"label": "thermal", "file": str(table)}]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    result = runner.invoke(main, [command[0], str(path), "--out", str(out / "run"), *command[1:]])
    assert result.exit_code == 0, result.output
    assert len(list(out.iterdir())) == files
    for csv in out.glob("*.csv"):
        assert ingest_asd(csv).frequencies.size == 1000
    y_ticks = [el.text for el in ET.parse(out / "run.svg").iter("{http://www.w3.org/2000/svg}text")
               if el.get("text-anchor") == "end"]
    assert y_ticks[0] == "1e-324"


@pytest.mark.parametrize("pathconf", [OSError, ValueError, AttributeError, -1], ids=str)
def test_file_name_limit_falls_back_to_255(tmp_path, monkeypatch, pathconf):
    from sqznb import cli

    def fake(path, name):
        if isinstance(pathconf, int):
            return pathconf  # a file system without a limit reports -1
        raise pathconf(name)

    monkeypatch.setattr(cli.os, "pathconf", fake)
    assert cli._name_max(tmp_path) == 255


def test_run_csvs_are_the_bytes_of_write_asd_csv(tmp_path):
    from sqznb import write_asd_csv
    from sqznb.cli import _write_run

    rng = np.random.default_rng(12)
    grid = np.cumsum(rng.uniform(0.1, 50.0, 300))
    csvs = [(f"c{i}", 10.0 ** rng.uniform(-24, -20, 300), f"curve {i}\nsecond line") for i in range(3)]
    _write_run(str(tmp_path / "run" / "r"), grid, csvs)
    for tag, values, comment in csvs:
        write_asd_csv(tmp_path / f"{tag}.csv", grid, values, comments=[comment])
        assert (tmp_path / "run" / f"r-{tag}.csv").read_bytes() == (tmp_path / f"{tag}.csv").read_bytes()


#: sha256 of every file three shipped runs write, with ``--out <dir>/run``.  Taken
#: before the writers formatted a run's grid once; a writer that changes a single
#: byte of any file fails here, where a run-against-run comparison cannot.  The
#: curves' last bits come from numpy (2.4 here), so a numpy upgrade may move them.
#: The six ``fixed``-policy curve and total files were re-taken when the projection
#: went to closed form: 138-249 of 1000 values moved, by at most 5 ulp.
PINNED_SHA256 = {
    "budget-h1": {
        "run-quantum.csv": "fd883b80ad16388ab04b863dd9fd73f56d29aa12f4c93272ace553a82073710d",
        "run-summary.json": "ba61f9cb77c64d23056da6b1bf7347471fe34b5f8fca48b15948436934da05bc",
        "run-total-reference.csv": "8f38b69c548691487740f819017445d1820cba0e6eff2184bc0dafe201e2ae3c",
        "run-total.csv": "d0367f393aee8beed57296d373d9b3543bd574d239f344432178331a844de478",
        "run.svg": "f9c9160d58c57786aa443e8975a6dc465d5ed9df061a0729219a1aaffbfd2f24",
    },
    "budget-aligo": {
        "run-quantum.csv": "db4791a8e3a7975295b44dea44a1e40b0b703369e7b540e9429c7e862194d9f1",
        "run-summary.json": "49f521b9eed9c289242f42f55c9b42cc637053a5413fbe83bc755b0a0a53941c",
        "run-thermal.csv": "98f101afcd5dffcb681d426530b203cdd567d2da54b7cfa831e95b0626d9971a",
        "run-total-reference.csv": "156a4ff895e41cbb2de69a3879615900ae19a515a4249909f53e451a98abe168",
        "run-total.csv": "5330672a3581990c81893ad686aa411faea8dd308f777da2808276231db9b945",
        "run.svg": "5c43d2cb0434213bc6a25fc7598d0513943a7c15b719e5e7d1f89f809a83fff0",
    },
    "project-aligo": {
        "run-quantum-fd-optimal.csv": "0cd30e58ed6a18c514de0dac8e020105633f0cfb866d9b29abe1ed772dd55108",
        "run-quantum-fixed.csv": "830a878f1f83693235268c05e5036c172119a11e8a1b641e9863a74cb4494eb6",
        "run-quantum-none.csv": "fff6232e570502b65bc16eaac206777285c636868c2588067833d2dc01b175d2",
        "run-total-fd-optimal.csv": "c4b350e63d947becd8675f43d90a82ec91802e390dc8274f812696c9e1b8c4e0",
        "run-total-fixed.csv": "c4995c6f2ed8197c72b14915c4558c694ddf104fbb42f9c9810a3ee10c3aad91",
        "run-total-none.csv": "891e17cf748db1907eb40e47fe231aee92eb574065c2803ae81b1ea926c920a1",
        "run.svg": "1467b4574c8e13c06c3b516ac1e58958abadad9de62ad171167f38b91892713c",
    },
}
PINNED_RUNS = {
    "budget-h1": ["budget", "h1.json", "--svg"],
    "budget-aligo": ["budget", "aligo.json", "--svg"],
    "project-aligo": ["project", "aligo.json"],
}


@pytest.mark.parametrize(
    "run, entry",
    [pytest.param(run, "CliRunner", id=run) for run in PINNED_RUNS]
    + [pytest.param(run, "python -m sqznb", id=f"{run}-python-m") for run in PINNED_RUNS],
)
def test_shipped_runs_write_the_pinned_bytes(runner, configs_dir, tmp_path, run, entry):
    """In process, and through the entry point, which runs with the cycle collector off."""
    import hashlib

    command, config, *flags = PINNED_RUNS[run]
    args = [command, str(configs_dir / config), "--out", str(tmp_path / "run"), *flags]
    if entry == "CliRunner":
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
    else:
        proc = subprocess.run([sys.executable, "-m", "sqznb", *args], capture_output=True, text=True,
                              cwd=ROOT, env=child_env())
        assert proc.returncode == 0, proc.stderr[-2000:]
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert written == PINNED_SHA256[run]


#: Writes the aligo plots of ``budget --svg`` and ``project`` under argv[2], after checking that
#: numpy dispatches its AVX-512 kernels exactly when argv[1] is "avx512".
_PLOTS_IN_ONE_CLASS = """
import sys
from numpy._core._multiarray_umath import __cpu_features__
from sqznb.cli import main

assert __cpu_features__["X86_V4"] is (sys.argv[1] == "avx512"), sys.argv[1]
for args in (["budget", "configs/aligo.json", "--svg"], ["project", "configs/aligo.json"]):
    main([*args, "--out", f"{sys.argv[2]}/{args[0]}"], standalone_mode=False)
"""


@pytest.mark.skipif(not host_has_avx512f(), reason="the host has no AVX-512, so numpy has one kernel class")
def test_plots_do_not_depend_on_numpy_simd_class(tmp_path):
    """The SVG pixels use numpy for + - * / only, which round alike in every kernel class."""
    for simd, features in (("avx512", None), ("libm", NO_AVX512)):
        proc = subprocess.run(
            [sys.executable, "-c", _PLOTS_IN_ONE_CLASS, simd, str(tmp_path / simd)],
            capture_output=True, text=True, cwd=ROOT, env=child_env(NPY_DISABLE_CPU_FEATURES=features),
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
    for command in ("budget", "project"):
        plot = f"{command}.svg"
        assert (tmp_path / "libm" / plot).read_bytes() == (tmp_path / "avx512" / plot).read_bytes()


def test_cli_import_loads_neither_scipy_nor_threads():
    code = (
        "import sys, sqznb.cli; "
        "print(sorted(m for m in ('scipy', 'concurrent.futures') if m in sys.modules))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("args", [a for a in README_COMMANDS if "--out" not in a], ids=" ".join)
def test_readme_json_matches_its_schema(runner, schema_dir, monkeypatch, args):
    """The README's commands that print JSON print what their schemas allow; test_readme.py runs them all."""
    monkeypatch.chdir(ROOT)
    validate(schema_dir, f"{args[0]}.schema.json", invoke_json(runner, args))
