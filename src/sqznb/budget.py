"""Noise-budget assembly: ASD tables, log-log resampling, quadrature sums.

Tabulated amplitude spectral densities travel as CSV with this exact
contract (also what the CLI emits):

    frequency_hz,asd_strain_per_sqrt_hz
    10.0,2.1e-22
    ...

The header line must match exactly, rows are two decimal floating-point
fields joined by a single comma, lines starting with ``#`` are comments,
blank lines are ignored, encoding is UTF-8, and both LF and CRLF line ends
are accepted.  Written floats use ``repr`` so a read-back reproduces them
bit-exactly.

Every frequency curve in the package, tabulated, computed or plotted, is
checked by ``_validated_curve`` alone.

Independent noises add in power, so the total of a budget is the
point-wise root-sum-square of its component ASDs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .states import as_float

__all__ = [
    "ASD_CSV_HEADER",
    "AsdFileError",
    "NumericalRangeError",
    "TabulatedASD",
    "NoiseBudget",
    "BandImprovement",
    "ingest_asd",
    "write_asd_csv",
    "resample",
    "compose",
    "improvement_db",
    "equivalent_power_increase",
]

ASD_CSV_HEADER = "frequency_hz,asd_strain_per_sqrt_hz"


class AsdFileError(ValueError):
    """Malformed or invalid ASD table; carries the path and 1-based line."""

    def __init__(self, path, line: int, message: str):
        self.path = str(path)
        self.line = line
        super().__init__(f"{path}:{line}: {message}")


class NumericalRangeError(ValueError):
    """A spectral value left the positive finite range; carries its frequency."""

    def __init__(self, message: str, frequency: float | None = None):
        super().__init__(message)
        self.frequency = frequency


def _validated_curve(frequencies, curves=(), *, min_points=1):
    """The rule for a frequency curve: return the frequencies and values as float arrays.

    The frequencies must form a 1-d array of at least ``min_points``
    positive, finite, strictly increasing values, else ValueError.  Each
    ``(name, values)`` pair in ``curves`` must have the same shape, else
    ValueError, and positive finite values, else NumericalRangeError naming
    the first bad frequency.
    """
    f = np.asarray(frequencies, dtype=float)
    if f.ndim != 1:
        raise ValueError(f"frequencies must be a 1-d array, got shape {f.shape}")
    if f.size < min_points:
        raise ValueError(f"need at least {min_points} frequency points, got {f.size}")
    if not np.all(np.isfinite(f)) or np.any(f <= 0.0):
        raise ValueError("frequencies must be positive and finite")
    if np.any(np.diff(f) <= 0.0):
        raise ValueError("frequencies must be strictly increasing")
    checked = []
    for name, values in curves:
        v = np.asarray(values, dtype=float)
        if v.shape != f.shape:
            raise ValueError(f"{name} has shape {v.shape} but the frequency grid has {f.shape}")
        bad = ~(np.isfinite(v) & (v > 0.0))
        if bad.any():
            f_bad = float(f[int(np.argmax(bad))])
            raise NumericalRangeError(
                f"{name} is not a positive finite number at {f_bad} Hz", frequency=f_bad
            )
        checked.append(v)
    return f, checked


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = arr.copy()
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class TabulatedASD:
    """An ASD curve read from (or destined for) a CSV table."""

    frequencies: np.ndarray
    asd: np.ndarray
    label: str
    source: str = ""

    def __post_init__(self):
        f, (v,) = _validated_curve(
            self.frequencies, [(f"ASD {self.label!r}", self.asd)], min_points=2
        )
        object.__setattr__(self, "frequencies", _freeze(f))
        object.__setattr__(self, "asd", _freeze(v))

    def __len__(self):
        return self.frequencies.size


def ingest_asd(path, label: str | None = None) -> TabulatedASD:
    """Read and validate an ASD table; the label defaults to the file stem.

    Raises AsdFileError naming the offending 1-based line for any parse or
    validation failure (bad header, malformed row, non-increasing
    frequency, non-positive value).
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    header_seen = False
    rows: list[tuple[int, float, float]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not header_seen:
            if line != ASD_CSV_HEADER:
                raise AsdFileError(path, lineno, f"expected header {ASD_CSV_HEADER!r}, got {line!r}")
            header_seen = True
            continue
        fields = line.split(",")
        if len(fields) != 2:
            raise AsdFileError(path, lineno, f"expected 2 comma-separated fields, got {len(fields)}")
        try:
            freq = float(fields[0])
            value = float(fields[1])
        except ValueError:
            raise AsdFileError(path, lineno, f"unparseable number in row {line!r}") from None
        if not (math.isfinite(freq) and freq > 0.0):
            raise AsdFileError(path, lineno, f"frequency must be positive and finite, got {fields[0]}")
        if not (math.isfinite(value) and value > 0.0):
            raise AsdFileError(path, lineno, f"ASD value must be positive and finite, got {fields[1]}")
        if rows and freq <= rows[-1][1]:
            raise AsdFileError(
                path, lineno, f"frequency {fields[0]} Hz does not increase past the previous row"
            )
        rows.append((lineno, freq, value))
    if not header_seen:
        raise AsdFileError(path, 1, f"missing header {ASD_CSV_HEADER!r}")
    if len(rows) < 2:
        raise AsdFileError(path, rows[-1][0] if rows else 1, "need at least 2 data rows")
    return TabulatedASD(
        np.array([r[1] for r in rows]),
        np.array([r[2] for r in rows]),
        label=label if label is not None else path.stem,
        source=str(path),
    )


def write_asd_csv(path, frequencies, asd, comments=()) -> None:
    """Emit an ASD table in the CSV contract above.

    Floats are written with ``repr`` so ingesting the file reproduces the
    arrays bit-exactly.
    """
    f, (v,) = _validated_curve(frequencies, [("ASD", asd)], min_points=2)
    lines = [ASD_CSV_HEADER]
    lines.extend(f"# {comment}" for comment in comments)
    lines.extend(f"{float(x)!r},{float(y)!r}" for x, y in zip(f, v))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def resample(table: TabulatedASD, grid) -> np.ndarray:
    """Interpolate the table onto a grid, linearly in log-log coordinates.

    Exact at the table knots; power laws between knots are reproduced
    exactly.  Grid points outside the tabulated span raise ValueError
    naming the offending frequency (no extrapolation).
    """
    g, _ = _validated_curve(grid)
    lo = table.frequencies[0]
    hi = table.frequencies[-1]
    outside = (g < lo) | (g > hi)
    if outside.any():
        f_bad = float(g[outside][0])
        raise ValueError(
            f"cannot resample {table.label!r}: {f_bad} Hz is outside the tabulated span "
            f"[{lo} Hz, {hi} Hz]"
        )
    out = 10.0 ** np.interp(np.log10(g), np.log10(table.frequencies), np.log10(table.asd))
    # snap knots to the tabulated values so they are reproduced bit-exactly
    idx = np.clip(np.searchsorted(table.frequencies, g), 0, len(table) - 1)
    knot = table.frequencies[idx] == g
    out = np.where(knot, table.asd[idx], out)
    return out


@dataclass(frozen=True, eq=False)
class NoiseBudget:
    """Named ASD components on a common grid and their quadrature sum.

    ``total`` is derived, not passed: the point-wise root-sum-square of the
    components, accumulated in label-sorted order so that it is exactly
    invariant under reordering them.  ``compose`` builds one from pairs.
    """

    grid: np.ndarray
    components: dict[str, np.ndarray]
    total: np.ndarray = field(init=False)

    def __post_init__(self):
        if not self.components:
            raise ValueError("need at least one component")
        grid, values = _validated_curve(
            self.grid, [(f"component {k!r}", v) for k, v in self.components.items()]
        )
        comps = dict(zip(self.components, values))
        power = np.zeros_like(grid)
        with np.errstate(over="ignore"):  # an overflow fails the check of the total below
            for label in sorted(comps):
                power = power + comps[label] * comps[label]
        _, (total,) = _validated_curve(grid, [("total", np.sqrt(power))])
        object.__setattr__(self, "grid", _freeze(grid))
        object.__setattr__(self, "components", {k: _freeze(v) for k, v in comps.items()})
        object.__setattr__(self, "total", _freeze(total))


def compose(grid, components) -> NoiseBudget:
    """Combine ``(label, values)`` pairs into a budget; labels must be unique."""
    comps = [(str(label), values) for label, values in components]
    labels = [label for label, _ in comps]
    if len(set(labels)) != len(labels):
        raise ValueError(f"component labels must be unique, got {labels}")
    return NoiseBudget(grid, dict(comps))


@dataclass(frozen=True)
class BandImprovement:
    """Sensitivity gain over a band: median and best point-wise ratio in dB."""

    median_db: float
    max_db: float
    band: tuple[float, float]
    points: int


def improvement_db(reference: NoiseBudget, squeezed: NoiseBudget, band) -> BandImprovement:
    """Broadband gain of ``squeezed`` over ``reference`` inside a band.

    Positive dB means the squeezed total sits below the reference.  Reports
    20*log10 of the median point-wise ASD ratio and of the largest ratio
    (the "up to" figure).  Both budgets must share the grid and the band
    must lie inside it.
    """
    lo = as_float(band[0], "band[0]")
    hi = as_float(band[1], "band[1]", gt=lo)
    if not np.array_equal(reference.grid, squeezed.grid):
        raise ValueError("budgets are on different frequency grids")
    g = reference.grid
    if lo < g[0] or hi > g[-1]:
        raise ValueError(
            f"band [{lo}, {hi}] Hz extends outside the grid span [{g[0]}, {g[-1]}] Hz"
        )
    mask = (g >= lo) & (g <= hi)
    if not mask.any():
        raise ValueError(f"no grid points inside band [{lo}, {hi}] Hz")
    ratio = reference.total[mask] / squeezed.total[mask]
    return BandImprovement(
        median_db=20.0 * math.log10(float(np.median(ratio))) + 0.0,
        max_db=20.0 * math.log10(float(np.max(ratio))) + 0.0,
        band=(lo, hi),
        points=int(mask.sum()),
    )


def equivalent_power_increase(improvement_db: float) -> float:
    """Fractional arm-power increase matching a shot-noise gain in dB.

    Shot-noise ASD scales as 1/sqrt(P), so an amplitude improvement of
    x dB is equivalent to multiplying the stored power by 10**(x/10).
    """
    x = as_float(improvement_db, "improvement", ge=0.0, unit=" dB")
    return 10.0 ** (x / 10.0) - 1.0
