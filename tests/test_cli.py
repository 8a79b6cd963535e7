"""CLI behavior: JSON outputs against their schemas, files, exit codes,
and byte-level determinism of emitted artifacts."""

import json
import subprocess
import sys
import warnings

import jsonschema
import numpy as np
import pytest
from click.testing import CliRunner

from sqznb import ingest_asd, load_run_config
from sqznb.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def validate(schema_dir, name, payload):
    schema = json.loads((schema_dir / name).read_text())
    jsonschema.validate(payload, schema)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def invoke_json(runner, args):
    # strict JSON: NaN and Infinity are not numbers any consumer can read
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    return json.loads(result.output, parse_constant=_reject_constant)


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

    def test_negative_seed_exits_2(self, runner):
        result = runner.invoke(main, ["uncertainty", "--seed", "-1"])
        assert result.exit_code == 2
        assert "--seed" in result.output and "x>=0" in result.output

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

    def test_unsqueezed_total_equals_quantum_curve(self, runner, tmp_path):
        cfg = write_config(
            tmp_path,
            squeezer={"inject_db": 0.0, "losses": [], "phase_noise_mrad": 0.0, "angle_policy": "none"},
        )
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
        table = tmp_path / "huge.csv"
        table.write_text("frequency_hz,asd_strain_per_sqrt_hz\n1.0,1e200\n100000.0,1e200\n")
        cfg = json.loads((configs_dir / "h1.json").read_text())
        cfg["components"] = [{"label": "huge", "file": "huge.csv"}]
        path = tmp_path / "h1.json"
        path.write_text(json.dumps(cfg))
        result = runner.invoke(main, ["budget", str(path), "--out", str(tmp_path / "huge")])
        assert result.exit_code == 3, result.output
        assert "total is not a positive finite number at 10.0 Hz" in result.output

    @pytest.mark.parametrize(
        "overrides",
        [
            {"grid": {"f_min_hz": 10.0, "f_max_hz": 100.0, "points": 50}},  # band outside grid
            {"interferometer": {"arm_length_m": 4000.0, "mirror_mass_kg": 10.7, "arm_power_w": 4e4}},
            {"components": [{"label": "ghost", "file": "missing.csv"}]},
            {"squeezer": {"inject_db": 10.3, "angle_policy": "sideways"}},
            {"components": [{"label": "total", "file": "config.json"}]},  # reserved label
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

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "sqznb", "propagate", "--inject-db", "10.3", "--eta", "0.44"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["detected_db"] == pytest.approx(2.2108, abs=0.001)


def test_cli_import_loads_neither_scipy_nor_threads():
    code = (
        "import sys, sqznb.cli; "
        "print(sorted(m for m in ('scipy', 'concurrent.futures') if m in sys.modules))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
