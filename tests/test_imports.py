"""Start-up cost and the lazy package namespace.

The scalar commands (propagate, fit, optimize) run without numpy, only fit,
optimize and uncertainty load ``sqznb.estimate``, no README command imports a
package of the test extra, ``python -m sqznb`` starts numpy's OpenBLAS with one
thread while ``import sqznb`` changes no environment variable, the entry point
runs a command with the cycle collector off while the library leaves it on,
and ``sqznb.X`` resolves on first use to the object its submodule defines.
"""

import importlib
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import sqznb
from sqznb import budget, estimate, interferometer, states
from conftest import child_env
from test_readme import README_COMMANDS, readme_args

ROOT = pathlib.Path(__file__).resolve().parents[1]
SUBMODULES = ("budget", "config", "estimate", "interferometer", "states")
#: The test extra's packages, with pytest's internals: installed for tier-1, so an import of
#: one from src/ works here and fails only where the package is installed without the extra.
TEST_EXTRA = {"jsonschema", "hypothesis", "pytest", "_pytest"}


def imported_modules(args) -> set[str]:
    """Names of the modules that ``python -m sqznb ARGS`` imports, from ``-X importtime``."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "sqznb", *args],
        capture_output=True, text=True, env=child_env(), cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:") and "[us]" not in line
    }


@pytest.mark.parametrize(
    "args",
    [
        ["propagate", "--inject-db", "10.3", "--eta", "0.44", "--phase-mrad", "37"],
        ["propagate", "--inject-db", "10.3", "--loss", "mm=0.75", "--loss", "omc=0.82"],
        ["fit", "--injected", "10.3", "--detected", "2.1", "--phase-mrad", "37"],
        ["optimize", "--eta", "0.44", "--phase-mrad", "37"],
        ["--help"],
        ["project", "--help"],
    ],
    ids=["propagate-eta", "propagate-loss", "fit", "optimize", "help", "project-help"],
)
def test_scalar_commands_never_import_numpy(args):
    modules = imported_modules(args)
    assert "sqznb.cli" in modules
    assert not {m for m in modules if m.split(".")[0] == "numpy"}
    # the solvers load only for the commands that call them; propagate and --help load none
    assert ("sqznb.estimate" in modules) == (args[0] in ("fit", "optimize"))


def test_uncertainty_loads_numpy_but_not_the_budget_layers():
    modules = imported_modules(["uncertainty", "--mc-samples", "1000"])
    assert "numpy" in modules  # the check sees an import when there is one
    assert not modules & {"sqznb.budget", "sqznb.interferometer", "sqznb.config", "sqznb.svgplot"}


@pytest.mark.parametrize("args", README_COMMANDS, ids=" ".join)
def test_readme_commands_import_no_test_package(tmp_path, args):
    modules = imported_modules(readme_args(args, tmp_path))
    assert "sqznb.cli" in modules
    assert not {m for m in modules if m.split(".")[0] in TEST_EXTRA}
    if args[0] in ("budget", "project"):
        # np.median's NaN check would load numpy.ma, about 13 ms of a cold budget
        assert "numpy" in modules and "numpy.ma" not in modules
        assert "sqznb.estimate" not in modules  # the solvers and the Monte Carlo are never called here


def test_import_sqznb_alone_leaves_numpy_out():
    code = (
        "import sys, sqznb; "
        "print('numpy' in sys.modules, sqznb.states.PhaseNoise is sqznb.PhaseNoise, "
        "'numpy' in sys.modules, sqznb.budget.resample is sqznb.resample)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True", "False", "True"]


def run_child(code: str, **extra) -> str:
    """Stdout of ``python -c CODE`` with ``OPENBLAS_NUM_THREADS`` unset unless ``extra`` sets it."""
    env = child_env(**{"OPENBLAS_NUM_THREADS": None, **extra})
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout.strip()


SHOW_THREADS = "import os; print(os.environ.get('OPENBLAS_NUM_THREADS'))"


class TestBlasThreads:
    """The process entry points start numpy's OpenBLAS with one thread; the library changes no variable."""

    def test_the_entry_point_sets_one_thread(self):
        assert run_child(f"import sqznb.__main__; {SHOW_THREADS}") == "1"

    def test_a_users_count_is_kept(self):
        assert run_child(f"import sqznb.__main__; {SHOW_THREADS}", OPENBLAS_NUM_THREADS="3") == "3"

    def test_the_library_leaves_the_environment_alone(self):
        assert run_child(f"import sqznb, sqznb.cli; {SHOW_THREADS}") == "None"

    @pytest.mark.skipif(not pathlib.Path("/proc/self/task").is_dir(), reason="needs /proc/self/task")
    def test_numpy_starts_no_worker_threads(self):
        assert run_child("import os, sqznb.__main__, numpy; print(len(os.listdir('/proc/self/task')))") == "1"

    def test_the_thread_count_changes_no_output_byte(self, tmp_path):
        def run(threads):
            out = tmp_path / threads
            out.mkdir()
            env = child_env(OPENBLAS_NUM_THREADS=threads)
            stdout = []
            for args in (["uncertainty", "--mc-samples", "1000", "--seed", "3"],
                         ["budget", "configs/h1.json", "--out", str(out / "h1"), "--svg"]):
                proc = subprocess.run([sys.executable, "-m", "sqznb", *args],
                                      capture_output=True, env=env, cwd=ROOT)
                assert proc.returncode == 0, proc.stderr[-2000:]
                stdout.append(proc.stdout)
            return stdout, {path.name: path.read_bytes() for path in out.iterdir()}

        one, two = run("1"), run("2")
        assert one[1], "budget wrote no file"
        assert one == two


#: Runs ``sqznb.__main__.main()`` on argv[1:] and prints how many collections the cyclic
#: collector started in it; the count is printed before the exit code passes on.
COUNT_COLLECTIONS = """
import gc, sys
import sqznb.__main__

starts = []
gc.callbacks.append(lambda phase, info: phase == "start" and starts.append(info["generation"]))
sys.argv[0] = "sqznb"
try:
    sqznb.__main__.main()
finally:
    print(len(starts))
"""


class TestCycleCollector:
    """The entry point runs a command with the collector off and the heap frozen at exit; the library,
    the import of the entry point and in-process ``cli.main`` leave the collector as they find it."""

    def test_the_library_leaves_the_collector_alone(self):
        code = (
            "import gc, sqznb, sqznb.cli, sqznb.__main__; from click.testing import CliRunner; "
            "r = CliRunner().invoke(sqznb.cli.main, ['propagate', '--inject-db', '10.3', '--eta', '0.44']); "
            "print(r.exit_code, gc.isenabled(), gc.get_freeze_count())"
        )
        assert run_child(code) == "0 True 0"

    @pytest.mark.parametrize(
        "args, code",
        [
            (["budget", "configs/h1.json", "--out", "{tmp}/h1", "--svg"], 0),
            (["fit", "--injected", "10.3", "--detected", "20"], 2),
        ],
        ids=["budget", "usage-error"],
    )
    def test_a_command_runs_without_a_collection(self, tmp_path, args, code):
        argv = [a.format(tmp=tmp_path) for a in args]
        proc = subprocess.run([sys.executable, "-c", COUNT_COLLECTIONS, *argv],
                              capture_output=True, text=True, env=child_env(), cwd=ROOT)
        assert proc.returncode == code, proc.stderr[-2000:]
        assert proc.stdout.splitlines()[-1] == "0"
        if code == 0:
            assert (tmp_path / "h1-total.csv").is_file()


class TestLazyNamespace:
    @pytest.mark.parametrize("name", sqznb.__all__)
    def test_name_is_the_object_of_its_defining_module(self, name):
        value = getattr(sqznb, name)
        holders = [
            m for m in SUBMODULES if hasattr(importlib.import_module(f"sqznb.{m}"), name)
        ]
        assert holders, f"no submodule defines {name}"
        for m in holders:
            assert getattr(importlib.import_module(f"sqznb.{m}"), name) is value, (m, name)

    def test_dir_lists_every_public_name(self):
        assert set(sqznb.__all__) <= set(dir(sqznb))
        assert set(SUBMODULES) <= set(dir(sqznb))

    def test_star_import_binds_all(self):
        namespace = {}
        exec("from sqznb import *", namespace)
        namespace.pop("__builtins__")
        assert set(namespace) == set(sqznb.__all__)
        assert all(namespace[name] is getattr(sqznb, name) for name in sqznb.__all__)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
            sqznb.not_a_name
        assert not hasattr(sqznb, "not_a_name")
        assert not hasattr(sqznb, "np")

    def test_submodules_are_attributes(self):
        for m in SUBMODULES:
            assert getattr(sqznb, m) is sys.modules[f"sqznb.{m}"]

    @pytest.mark.parametrize("module", SUBMODULES)
    def test_submodule_all_is_its_providers_entry(self, module):
        assert set(getattr(sqznb, module).__all__) == set(sqznb._PROVIDERS[module])

    def test_vacuum_is_a_public_name_of_states(self):
        assert "VACUUM" in states.__all__

    def test_numerical_range_error_has_one_class(self):
        assert sqznb.NumericalRangeError is budget.NumericalRangeError is states.NumericalRangeError
        assert interferometer.NumericalRangeError is states.NumericalRangeError
        assert issubclass(states.NumericalRangeError, ValueError)

    def test_angle_policies_have_one_tuple(self):
        assert interferometer.ANGLE_POLICIES is states.ANGLE_POLICIES is sqznb.ANGLE_POLICIES
        assert states.ANGLE_POLICIES == ("none", "fixed", "fd-optimal")

    def test_theta_max_is_the_numpy_value(self):
        assert estimate._THETA_MAX == float(np.nextafter(states.MAX_PHASE_RMS, 0.0))
        assert estimate._THETA_MAX < states.MAX_PHASE_RMS
