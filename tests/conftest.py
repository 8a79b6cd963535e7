import os
import pathlib
import sys

import pytest

from sqznb import InterferometerConfig

ROOT = pathlib.Path(__file__).resolve().parents[1]

#: The kernel choice numpy makes on an x86 host without AVX-512; the variable acts per process.
NO_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"


def host_has_avx512f() -> bool:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x, whose dispatch targets have other names
        return False
    return bool(__cpu_features__.get("AVX512F"))  # a hardware flag: the variable leaves it set


def child_env(**extra) -> dict:
    """This process's environment for a child Python: ``src`` and ``tests`` first on PYTHONPATH,
    then each ``extra`` variable set, or removed where its value is None."""
    paths = [str(ROOT / "src"), str(ROOT / "tests"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths), **extra}
    return {name: value for name, value in env.items() if value is not None}


@pytest.fixture()
def curve_checks(monkeypatch) -> list:
    """The grids ``_validated_curve`` is called with from now on, under every sqznb module that imports it."""
    # load the modules cli imports inside its commands, so that each copy of the name is patched
    import sqznb.budget, sqznb.cli, sqznb.config, sqznb.interferometer, sqznb.svgplot  # noqa: E401, F401

    rule, calls = sqznb.budget._validated_curve, []

    def counted(frequencies, *args, **kwargs):
        calls.append(frequencies)
        return rule(frequencies, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "sqznb" and getattr(module, "_validated_curve", None) is rule:
            monkeypatch.setattr(module, "_validated_curve", counted)
    return calls


@pytest.fixture(scope="session")
def configs_dir() -> pathlib.Path:
    return ROOT / "configs"


@pytest.fixture(scope="session")
def schema_dir() -> pathlib.Path:
    return ROOT / "docs" / "schema"


@pytest.fixture()
def aligo_like() -> InterferometerConfig:
    # illustrative Advanced-LIGO-scale parameters, as shipped in configs/aligo.json
    return InterferometerConfig(
        arm_length=3995.0,
        mirror_mass=40.0,
        arm_power=800e3,
        cavity_pole=390.0,
        wavelength=1.064e-6,
        label="aLIGO-class",
    )


@pytest.fixture()
def h1_like() -> InterferometerConfig:
    return InterferometerConfig.from_finesse(
        arm_length=4000.0,
        mirror_mass=10.7,
        arm_power=40e3,
        finesse=204.0,
        wavelength=1.064e-6,
        label="H1",
    )
