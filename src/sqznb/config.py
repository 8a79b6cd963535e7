"""JSON run configuration for budget and projection runs.

A run config describes the interferometer, the squeezer setup, the
frequency grid, optional tabulated ASD components, and the band used for
improvement metrics.  Keys carry their units.  Relative component paths
resolve against the directory containing the config file.  The machine
readable schema lives in ``docs/schema/runconfig.schema.json``.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _PROVIDERS
from .budget import _Rebuilt, _band
from .interferometer import InterferometerConfig, SqueezerSetup
from .states import LossChain, PhaseNoise, _quote, as_float, as_whole_number

__all__ = list(_PROVIDERS["config"])

#: Default band for improvement metrics: the shot-noise-limited region.
DEFAULT_BAND = (400.0, 3000.0)

#: Additionally reported low-frequency band when the grid covers it.
LOW_BAND = (150.0, 300.0)


@dataclass(frozen=True)
class GridSpec(_Rebuilt):
    """Frequency grid: span, point count, and log or linear spacing; its points are built on construction."""

    f_min: float
    f_max: float
    points: int
    spacing: str = "log"

    def __post_init__(self):
        f_min = as_float(self.f_min, "f_min", gt=0.0)
        object.__setattr__(self, "f_max", as_float(self.f_max, "f_max", gt=f_min))
        object.__setattr__(self, "f_min", f_min)
        object.__setattr__(self, "points", as_whole_number(self.points, "points", ge=2))
        if self.spacing not in ("log", "linear"):
            raise ValueError(f"spacing must be 'log' or 'linear', got {_quote(self.spacing)}")
        try:
            if self.spacing == "linear":
                f = np.linspace(self.f_min, self.f_max, self.points)
            else:
                f = np.logspace(math.log10(self.f_min), math.log10(self.f_max), self.points)
        except (MemoryError, ValueError) as exc:  # numpy's refusal of a size past its limit is a ValueError
            raise ValueError(
                f"points = {self.points} needs a {8 * self.points / 2**30:.3g} GiB grid, "
                "which could not be allocated"
            ) from exc
        # 10**log10(x) can miss x by an ulp (3000 -> 3000.000000000001)
        f[0], f[-1] = self.f_min, self.f_max
        if not (f[1:] > f[:-1]).all():
            raise ValueError(
                f"grid [{self.f_min}, {self.f_max}] is too narrow for {self.points} "
                "strictly increasing points"
            )
        f.flags.writeable = False
        object.__setattr__(self, "_frequencies", f)

    def frequencies(self) -> np.ndarray:
        """The grid points as one read-only array; the first is exactly ``f_min``, the last exactly ``f_max``."""
        return self._frequencies


@dataclass(frozen=True)
class RunConfig:
    """Everything a budget or projection run needs."""

    label: str
    interferometer: InterferometerConfig
    squeezer: SqueezerSetup
    grid: GridSpec
    components: tuple[tuple[str, str], ...]
    band: tuple[float, float]


#: The keys of the two larger sections, as in docs/schema/runconfig.schema.json.
_IFO_KEYS = ("label", "arm_length_m", "mirror_mass_kg", "arm_power_w", "wavelength_m", "cavity_pole_hz", "finesse")
_SQUEEZER_KEYS = ("inject_db", "losses", "phase_noise_mrad", "angle_policy", "fixed_angle_rad")


def _string(value, key: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{key} must be a string, got {_quote(value)}")
    return value


def _label(value, key: str) -> str:
    """A label that reaches output files, as text made only of XML 1.0 characters."""
    from .svgplot import _xml_text  # the SVG's rule; imported here so GridSpec alone loads no svgplot

    return _xml_text(_string(value, key), key)


def _object(value, where: str, keys) -> dict:
    """``value`` as a JSON object with no key outside ``keys``, as the schema has it."""
    if not isinstance(value, dict):
        raise ValueError(f"{where} must be an object, got {_quote(value)}")
    for key in value:
        if key not in keys:
            raise ValueError(f"{where} has unknown key {_quote(key)}")
    return value


def _required(section: dict, key: str, where: str, default=None):
    value = section.get(key, default)
    if value is None:
        raise ValueError(f"{where} is missing {key!r}")
    return value


def _number(section: dict, key: str, where: str, default=None) -> float:
    return as_float(_required(section, key, where, default), f"{where}.{key}")


def _parse_interferometer(section: dict) -> InterferometerConfig:
    label = _label(section.get("label", ""), "interferometer.label")
    common = dict(
        arm_length=_number(section, "arm_length_m", "interferometer"),
        mirror_mass=_number(section, "mirror_mass_kg", "interferometer"),
        arm_power=_number(section, "arm_power_w", "interferometer"),
        wavelength=_number(section, "wavelength_m", "interferometer", InterferometerConfig.wavelength),
        label=label,
    )
    if "cavity_pole_hz" in section and "finesse" in section:
        raise ValueError("interferometer: give cavity_pole_hz or finesse, not both")
    if "finesse" in section:
        return InterferometerConfig.from_finesse(
            finesse=_number(section, "finesse", "interferometer"), **common
        )
    return InterferometerConfig(
        cavity_pole=_number(section, "cavity_pole_hz", "interferometer"), **common
    )


def _parse_squeezer(section: dict) -> SqueezerSetup:
    losses = section.get("losses", [])
    if not isinstance(losses, list):
        raise ValueError("squeezer.losses must be a list of {label, efficiency} objects")
    elements = []
    for i, entry in enumerate(losses):
        where = f"squeezer.losses[{i}]"
        entry = _object(entry, where, ("label", "efficiency"))
        elements.append((_string(entry.get("label"), f"{where}.label"), _number(entry, "efficiency", where)))
    phase_mrad = _number(section, "phase_noise_mrad", "squeezer", 0.0)
    return SqueezerSetup(
        inject_db=_number(section, "inject_db", "squeezer", SqueezerSetup.inject_db),
        chain=LossChain(tuple(elements)),
        phase_noise=PhaseNoise(phase_mrad * 1e-3),
        angle_policy=section.get("angle_policy", SqueezerSetup.angle_policy),
        fixed_angle=_number(section, "fixed_angle_rad", "squeezer", SqueezerSetup.fixed_angle),
    )


def _parse_grid(section: dict) -> GridSpec:
    return GridSpec(
        f_min=_number(section, "f_min_hz", "grid"),
        f_max=_number(section, "f_max_hz", "grid"),
        points=_required(section, "points", "grid"),
        spacing=section.get("spacing", GridSpec.spacing),
    )


def load_run_config(path) -> RunConfig:
    """Parse and validate a run configuration file.

    Raises ValueError (with the offending key in the message) for missing
    or ill-typed entries, out-of-range values, or missing component files,
    and (with the path in the message) for a file that is not UTF-8 JSON.
    Last, a component label already used (``quantum``, or an earlier
    component's) is a ValueError naming both entries, before any table is read.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply to parse") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not JSON: {exc}") from None
    except ValueError:  # json.loads's one other refusal: an integer past int()'s digit limit
        raise ValueError(f"{path}: an integer has more than {sys.get_int_max_str_digits()} digits") from None
    _object(raw, "config", ("label", "interferometer", "squeezer", "grid", "components", "band_hz"))
    interferometer = _parse_interferometer(_object(raw.get("interferometer"), "interferometer", _IFO_KEYS))
    squeezer = _parse_squeezer(_object(raw.get("squeezer", {}), "squeezer", _SQUEEZER_KEYS))
    grid = _parse_grid(_object(raw.get("grid"), "grid", ("f_min_hz", "f_max_hz", "points", "spacing")))

    components = []
    raw_components = raw.get("components", [])
    if not isinstance(raw_components, list):
        raise ValueError("components must be a list of {label, file} objects")
    for i, entry in enumerate(raw_components):
        entry = _object(entry, f"components[{i}]", ("label", "file"))
        label = _label(entry.get("label"), f"components[{i}].label")
        file_path = (path.parent / _string(entry.get("file"), f"components[{i}].file")).resolve()
        if not file_path.is_file():
            raise ValueError(f"components[{i}]: file not found: {file_path}")
        components.append((label, str(file_path)))

    low, high, _ = _band(raw.get("band_hz", DEFAULT_BAND), grid.frequencies(), "band_hz")
    label = _label(raw.get("label", interferometer.label), "label")
    owners = {"quantum": "the budget's quantum-noise curve"}
    for i, (component, _) in enumerate(components):
        if component in owners:
            raise ValueError(f"components[{i}].label {_quote(component)} is already used by {owners[component]}")
        owners[component] = f"components[{i}]"

    return RunConfig(
        label=label,
        interferometer=interferometer,
        squeezer=squeezer,
        grid=grid,
        components=tuple(components),
        band=(low, high),
    )
