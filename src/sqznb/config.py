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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .interferometer import InterferometerConfig, SqueezerSetup
from .states import LossChain, PhaseNoise, as_float, as_whole_number

__all__ = ["GridSpec", "RunConfig", "load_run_config", "DEFAULT_BAND", "LOW_BAND"]

#: Default band for improvement metrics: the shot-noise-limited region.
DEFAULT_BAND = (400.0, 3000.0)

#: Additionally reported low-frequency band when the grid covers it.
LOW_BAND = (150.0, 300.0)


@dataclass(frozen=True)
class GridSpec:
    """Frequency grid: span, point count, and log or linear spacing."""

    f_min: float
    f_max: float
    points: int
    spacing: str = "log"

    def __post_init__(self):
        f_min = as_float(self.f_min, "f_min", gt=0.0)
        as_float(self.f_max, "f_max", gt=f_min)
        object.__setattr__(self, "points", as_whole_number(self.points, "points"))
        if self.points < 2:
            raise ValueError(f"points must be an integer >= 2, got {self.points!r}")
        if self.spacing not in ("log", "linear"):
            raise ValueError(f"spacing must be 'log' or 'linear', got {self.spacing!r}")

    def frequencies(self) -> np.ndarray:
        if self.spacing == "log":
            return np.logspace(math.log10(self.f_min), math.log10(self.f_max), self.points)
        return np.linspace(self.f_min, self.f_max, self.points)


@dataclass(frozen=True)
class RunConfig:
    """Everything a budget or projection run needs."""

    label: str
    interferometer: InterferometerConfig
    squeezer: SqueezerSetup
    grid: GridSpec
    components: tuple[tuple[str, str], ...]
    band: tuple[float, float]


def _section(raw: dict, key: str, required: bool = True) -> dict:
    value = raw.get(key)
    if value is None:
        if required:
            raise ValueError(f"config is missing the {key!r} section")
        return {}
    if not isinstance(value, dict):
        raise ValueError(f"config section {key!r} must be an object")
    return value


def _number(section: dict, key: str, where: str, default=None) -> float:
    value = section.get(key, default)
    if value is None:
        raise ValueError(f"{where} is missing {key!r}")
    return as_float(value, f"{where}.{key}")


def _parse_interferometer(section: dict) -> InterferometerConfig:
    label = str(section.get("label", ""))
    common = dict(
        arm_length=_number(section, "arm_length_m", "interferometer"),
        mirror_mass=_number(section, "mirror_mass_kg", "interferometer"),
        arm_power=_number(section, "arm_power_w", "interferometer"),
        wavelength=_number(section, "wavelength_m", "interferometer", 1.064e-6),
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
        if not isinstance(entry, dict) or "label" not in entry or "efficiency" not in entry:
            raise ValueError(f"squeezer.losses[{i}] must be an object with label and efficiency")
        elements.append((str(entry["label"]), _number(entry, "efficiency", f"squeezer.losses[{i}]")))
    phase_mrad = _number(section, "phase_noise_mrad", "squeezer", 0.0)
    kwargs = {}
    if "fixed_angle_rad" in section:
        kwargs["fixed_angle"] = _number(section, "fixed_angle_rad", "squeezer")
    return SqueezerSetup(
        inject_db=_number(section, "inject_db", "squeezer", 0.0),
        chain=LossChain(tuple(elements)),
        phase_noise=PhaseNoise(phase_mrad * 1e-3),
        angle_policy=str(section.get("angle_policy", "none")),
        **kwargs,
    )


def _parse_grid(section: dict) -> GridSpec:
    return GridSpec(
        f_min=_number(section, "f_min_hz", "grid"),
        f_max=_number(section, "f_max_hz", "grid"),
        points=as_whole_number(section.get("points"), "grid.points"),
        spacing=str(section.get("spacing", "log")),
    )


def load_run_config(path) -> RunConfig:
    """Parse and validate a run configuration file.

    Raises ValueError (with the offending key in the message) for missing
    or ill-typed entries, out-of-range values, or missing component files.
    """
    path = Path(path)
    raw = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(raw, dict):
        raise ValueError("config root must be a JSON object")

    interferometer = _parse_interferometer(_section(raw, "interferometer"))
    squeezer = _parse_squeezer(_section(raw, "squeezer", required=False))
    grid = _parse_grid(_section(raw, "grid"))

    components = []
    raw_components = raw.get("components", [])
    if not isinstance(raw_components, list):
        raise ValueError("components must be a list of {label, file} objects")
    seen = set()
    for i, entry in enumerate(raw_components):
        if not isinstance(entry, dict) or "label" not in entry or "file" not in entry:
            raise ValueError(f"components[{i}] must be an object with label and file")
        label = str(entry["label"])
        reserved = label in ("quantum", "total") or label.startswith(("quantum-", "total-"))
        if label in seen or reserved:
            raise ValueError(f"components[{i}]: duplicate or reserved label {label!r}")
        seen.add(label)
        file_path = (path.parent / str(entry["file"])).resolve()
        if not file_path.is_file():
            raise ValueError(f"components[{i}]: file not found: {file_path}")
        components.append((label, str(file_path)))

    band_raw = raw.get("band_hz", list(DEFAULT_BAND))
    if not isinstance(band_raw, list) or len(band_raw) != 2:
        raise ValueError(f"band_hz must be a [low, high] pair of numbers, got {band_raw!r}")
    low = as_float(band_raw[0], "band_hz[0]")
    band = (low, as_float(band_raw[1], "band_hz[1]", gt=low))
    if band[0] < grid.f_min or band[1] > grid.f_max:
        raise ValueError(
            f"band_hz [{band[0]}, {band[1]}] lies outside the grid span "
            f"[{grid.f_min}, {grid.f_max}]"
        )

    return RunConfig(
        label=str(raw.get("label", interferometer.label)),
        interferometer=interferometer,
        squeezer=squeezer,
        grid=grid,
        components=tuple(components),
        band=band,
    )
