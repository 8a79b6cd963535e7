"""Noise-budget assembly: ASD tables, log-log resampling, quadrature sums.

Tabulated amplitude spectral densities travel as CSV with this exact
contract (also what the CLI emits):

    frequency_hz,asd_strain_per_sqrt_hz
    10.0,2.1e-22
    ...

The header line must match exactly, rows are two ASCII decimal
floating-point fields joined by a single comma, lines starting with ``#``
are comments, blank lines are ignored, encoding is UTF-8, and a line ends
at LF or CRLF only.  Written floats use ``repr`` so a read-back
reproduces them bit-exactly, and a write that fails leaves no file.

Every frequency curve, tabulated, computed or plotted, passes ``_validated_curve``.
``ingest_asd`` reads a well-formed table in bulk; its row loop runs only to
name the bad line of a table that fails.

Independent noises add in power, so the total of a budget is the
point-wise root-sum-square of its component ASDs.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Mapping
from contextlib import suppress
from dataclasses import dataclass, field, fields
from itertools import compress
from pathlib import Path
from types import MappingProxyType

import numpy as np

from . import _PROVIDERS
from .states import NumericalRangeError, _is_number, _quote, as_float, as_inject_db

__all__ = list(_PROVIDERS["budget"])

ASD_CSV_HEADER = "frequency_hz,asd_strain_per_sqrt_hz"


class AsdFileError(ValueError):
    """Malformed or invalid ASD table; carries the path and 1-based line."""

    def __init__(self, path, line: int, message: str):
        self.path = str(path)
        self.line = line
        super().__init__(f"{path}:{line}: {message}")


#: Array kinds as_float would refuse as numbers: bool, complex and text.
_NOT_REAL = {"b": "bool", "c": "complex", "S": "text", "U": "text"}
_FLOAT64 = np.dtype(float)  # an ndarray of this dtype passes _real_array as it is


def _real_array(values, name: str) -> np.ndarray:
    """``values`` as a float array, else ValueError naming ``name`` unless each element is a number.

    A native float64 ndarray is returned as is.  Any other ndarray is judged
    by its dtype, with no pass over its elements; a bool, complex or text
    dtype names its kind.  A list or an object array, whose dtype can hide a
    bool or a number's text among numbers, has each element checked by as_float's rule.
    """
    if type(values) is np.ndarray and values.dtype is _FLOAT64:
        return values
    a = np.asarray(values)
    if a.dtype.kind in _NOT_REAL:
        raise ValueError(f"{name} must be real numbers, got {_NOT_REAL[a.dtype.kind]} {_quote(values)}")
    if (a.dtype.kind == "O" or not isinstance(values, np.ndarray)) and not all(
        map(_is_number, np.asarray(values, dtype=object).flat)
    ):
        raise ValueError(f"{name} must be real numbers, got {_quote(values)}")
    return a.astype(float, copy=False)


def _validated_curve(frequencies, curves=(), *, min_points=1):
    """The rule for a frequency curve: return the frequencies and values as float arrays.

    The frequencies must form a 1-d array of at least ``min_points`` (≥ 1)
    positive, finite, strictly increasing values, else ValueError.  Each
    ``(name, values)`` pair in ``curves`` must have the same shape, else
    ValueError, and positive finite values, else NumericalRangeError naming
    the first bad frequency.  A bool, complex or text grid or curve is a
    ValueError naming it (``_real_array``).

    Each test is one pass of comparisons, which NaN fails: a grid passes
    when ``f[0] > 0``, ``f[-1] < inf`` and every neighbour increases (so
    every point is positive and finite), and values pass when their min is
    positive and their max finite.  Only a failed test runs the
    per-element diagnostics that pick the message and the bad frequency.
    """
    f = _real_array(frequencies, "frequencies")
    if f.ndim != 1:
        raise ValueError(f"frequencies must be a 1-d array, got shape {f.shape}")
    if f.size < min_points:
        raise ValueError(f"need at least {min_points} frequency points, got {f.size}")
    if not (f[0] > 0.0 and f[-1] < math.inf and (f[1:] > f[:-1]).all()):
        if not np.all(np.isfinite(f)) or np.any(f <= 0.0):
            raise ValueError("frequencies must be positive and finite")
        raise ValueError("frequencies must be strictly increasing")
    checked = []
    for name, values in curves:
        v = _real_array(values, name)
        if v.shape != f.shape:
            raise ValueError(f"{name} has shape {v.shape} but the frequency grid has {f.shape}")
        if not (v.min() > 0.0 and v.max() < math.inf):
            bad = ~(np.isfinite(v) & (v > 0.0))
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


class _Rebuilt:
    """A frozen record that copy and pickle rebuild through its constructor, which checks and freezes again.

    Neither keeps numpy's read-only flag, and a mappingproxy cannot be pickled, so it goes on as a dict.
    """

    def __reduce__(self):
        args = (getattr(self, f.name) for f in fields(self) if f.init)
        return type(self), tuple(dict(a) if isinstance(a, MappingProxyType) else a for a in args)


@dataclass(frozen=True, eq=False)
class TabulatedASD(_Rebuilt):
    """An ASD curve read from (or destined for) a CSV table."""

    frequencies: np.ndarray
    asd: np.ndarray
    label: str
    source: str = ""

    def __post_init__(self):
        f, (v,) = _validated_curve(
            self.frequencies, [(f"ASD {_quote(self.label)}", self.asd)], min_points=2
        )
        object.__setattr__(self, "frequencies", _freeze(f))
        object.__setattr__(self, "asd", _freeze(v))

    def __len__(self):
        return self.frequencies.size


def ingest_asd(path, label: str | None = None) -> TabulatedASD:
    """Read and validate an ASD table; the label defaults to the file stem.

    Raises AsdFileError naming the offending 1-based line for any parse or
    validation failure (bytes that are not UTF-8, bad header, malformed row,
    non-increasing frequency, non-positive value).  The rows are read in
    bulk; only when that fails does a loop walk them to name the first bad line.
    """
    path = Path(path)
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise AsdFileError(path, data.count(b"\n", 0, exc.start) + 1, f"not UTF-8 text: {exc}") from None
    lines = text.split("\n")
    stripped = [raw.strip() for raw in lines]  # strip() drops the CR of CRLF
    keep = [line[:1] not in ("", "#") for line in stripped]  # the header, then the data rows
    if True not in keep:
        raise AsdFileError(path, 1, f"missing header {ASD_CSV_HEADER!r}")
    numbered = compress(enumerate(lines, start=1), keep)  # (1-based line number, line as read)
    lineno, _ = next(numbered)
    header = stripped[lineno - 1]
    if header != ASD_CSV_HEADER:
        raise AsdFileError(path, lineno, f"expected header {ASD_CSV_HEADER!r}, got {_quote(header)}")
    kept = list(compress(lines[lineno:], keep[lineno:]))
    rows = list(compress(stripped[lineno:], keep[lineno:]))
    body = "".join(kept)  # as read: strip() also drops non-ASCII spaces, which the grammar refuses
    if body.isascii() and "_" not in body:  # float() takes 1_0 and non-ASCII digits
        fields = ",".join(rows).split(",")
        # n commas in n rows, none of them without one: one comma per row
        if len(fields) == 2 * len(rows) and all("," in row for row in rows):
            with suppress(ValueError):  # a bad number, order or row count: the loop names its line
                columns = np.fromiter(map(float, fields), dtype=float, count=len(fields)).reshape(-1, 2)
                label = label if label is not None else path.stem
                return TabulatedASD(columns[:, 0], columns[:, 1], label=label, source=str(path))
    previous = 0.0  # every frequency is positive, so the first row passes the order check
    for (lineno, raw), line in zip(numbered, rows):  # the rows after the header, as kept above
        fields = line.split(",")
        if len(fields) != 2:
            raise AsdFileError(path, lineno, f"expected 2 comma-separated fields, got {len(fields)}")
        try:
            if "_" in raw or not raw.isascii():
                raise ValueError(raw)
            freq, value = float(fields[0]), float(fields[1])
        except ValueError:
            raise AsdFileError(path, lineno, f"unparseable number in row {_quote(line)}") from None
        if not (math.isfinite(freq) and freq > 0.0):
            raise AsdFileError(path, lineno, f"frequency must be positive and finite, got {fields[0]}")
        if not (math.isfinite(value) and value > 0.0):
            raise AsdFileError(path, lineno, f"ASD value must be positive and finite, got {fields[1]}")
        if freq <= previous:
            raise AsdFileError(
                path, lineno, f"frequency {fields[0]} Hz does not increase past the previous row"
            )
        previous = freq
    # every row is well-formed, so the bulk read failed on the row count
    raise AsdFileError(path, lineno if kept else 1, "need at least 2 data rows")


def write_asd_csv(path, frequencies, asd, comments=()) -> None:
    """Emit an ASD table in the CSV contract above.

    Floats are written with ``repr`` so ingesting the file reproduces the
    arrays bit-exactly.  Each line of a comment, split at every
    ``str.splitlines`` boundary, becomes its own ``#`` line.
    """
    f, (v,) = _validated_curve(frequencies, [("ASD", asd)], min_points=2)
    _write_csvs(f, [(path, v, comments)])


def _write_csvs(grid, tables) -> None:
    """Write checked ``(path, values, comments)`` tables against ``grid``, formatting its column once."""
    column = [repr(x) for x in grid.tolist()]
    for path, values, comments in tables:
        lines = [ASD_CSV_HEADER]
        lines.extend(f"# {piece}" for comment in comments for piece in comment.splitlines() or [""])
        lines.extend([f"{x},{y!r}" for x, y in zip(column, values.tolist())])
        Path(path).write_bytes(("\n".join(lines) + "\n").encode("utf-8"))


def resample(table: TabulatedASD, grid) -> np.ndarray:
    """Interpolate the table onto a grid, linearly in log-log coordinates.

    Exact at the table knots; power laws between knots are reproduced
    exactly.  Grid points outside the tabulated span raise ValueError
    naming the offending frequency (no extrapolation).
    """
    g, _ = _validated_curve(grid)
    lo = table.frequencies[0]
    hi = table.frequencies[-1]
    if g[0] < lo or g[-1] > hi:  # g is increasing, so its ends decide
        f_bad = float(g[(g < lo) | (g > hi)][0])
        raise ValueError(
            f"cannot resample {_quote(table.label)}: {f_bad} Hz is outside the tabulated span "
            f"[{lo} Hz, {hi} Hz]"
        )
    out = 10.0 ** np.interp(np.log10(g), np.log10(table.frequencies), np.log10(table.asd))
    # snap knots to their values bit-exactly, searching the shorter array in the longer
    if len(table) <= g.size:
        idx = g[:-1].searchsorted(table.frequencies)  # in range, at the one point that can match
        hit = g[idx] == table.frequencies
        out[idx[hit]] = table.asd[hit]
    else:
        idx = table.frequencies[:-1].searchsorted(g)
        hit = table.frequencies[idx] == g
        out[hit] = table.asd[idx[hit]]
    return out


@dataclass(frozen=True, eq=False)
class NoiseBudget(_Rebuilt):
    """Named ASD components on a common grid and their quadrature sum.

    ``total`` is derived, not passed: the point-wise root-sum-square of the
    components, accumulated in label-sorted order so that it is exactly
    invariant under reordering them.  Where the sum of squares overflows or
    falls below the normal floats, that point is summed in units of its
    largest component m instead, as m·sqrt(Σ(c/m)²), so a total that is a
    finite float comes out as one.  The components are read-only, so none
    can change under the total.  Each label is kept as ``str(label)``, and
    labels that coincide then are refused, as ``compose`` (which builds one
    from pairs) refuses them.
    """

    grid: np.ndarray
    components: Mapping[str, np.ndarray]
    total: np.ndarray = field(init=False)

    def __post_init__(self):
        if not self.components:
            raise ValueError("need at least one component")
        labels = _labels(self.components)
        grid, values = _validated_curve(
            self.grid, [(f"component {_quote(k)}", v) for k, v in zip(labels, self.components.values())]
        )
        comps = {label: _freeze(v) for label, v in zip(labels, values)}
        columns = [comps[label] for label in sorted(comps)]
        with np.errstate(over="ignore"):  # an overflow fails the check of the total below
            power = _power_sum(columns)
            total = np.sqrt(power)
            if not (power.min() >= sys.float_info.min and power.max() < math.inf):
                far = (power < sys.float_info.min) | (power == math.inf)
                parts = [c[far] for c in columns]
                largest = np.maximum.reduce(parts)
                total[far] = largest * np.sqrt(_power_sum([c / largest for c in parts]))
                _, (total,) = _validated_curve(grid, [("total", total)])  # a root elsewhere is in range
        object.__setattr__(self, "grid", _freeze(grid))
        object.__setattr__(self, "components", MappingProxyType(comps))
        total.flags.writeable = False  # computed here, so no caller holds it
        object.__setattr__(self, "total", total)


def _power_sum(columns) -> np.ndarray:
    """Point-wise sum of the squares of ``columns``, added in the order given."""
    power = columns[0] * columns[0]
    for c in columns[1:]:
        power += c * c
    return power


def _labels(keys) -> list[str]:
    """``str`` of each component label; ValueError if two of them coincide."""
    labels = [str(key) for key in keys]
    if len(set(labels)) != len(labels):
        raise ValueError(f"component labels must be unique, got {_quote(labels)}")
    return labels


def compose(grid, components) -> NoiseBudget:
    """Combine ``(label, values)`` pairs into a budget; labels must be unique."""
    pairs = list(components)
    return NoiseBudget(grid, dict(zip(_labels(label for label, _ in pairs), [v for _, v in pairs])))


@dataclass(frozen=True)
class BandImprovement:
    """Sensitivity gain over a band: median and best point-wise ratio in dB."""

    median_db: float
    max_db: float
    band: tuple[float, float]
    points: int


def _band(band, grid, name: str):
    """The one rule for a band on a grid: return ``(low, high, slice of the points inside)``.

    ``band`` must be a list, tuple or numpy array of two numbers, and
    ``band[0]`` < ``band[1]`` must be finite, inside ``[grid[0], grid[-1]]``
    and hold at least one grid point, else ValueError naming ``name``.
    """
    pair = band.tolist() if isinstance(band, np.ndarray) else band
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise ValueError(f"{name} must be a [low, high] pair of numbers, got {_quote(band)}")
    lo = as_float(pair[0], f"{name}[0]")
    hi = as_float(pair[1], f"{name}[1]", gt=lo)
    if lo < grid[0] or hi > grid[-1]:
        raise ValueError(
            f"{name} [{lo}, {hi}] Hz lies outside the grid span [{grid[0]}, {grid[-1]}] Hz"
        )
    inside = slice(grid.searchsorted(lo), grid.searchsorted(hi, "right"))  # grid increases
    if inside.start == inside.stop:
        raise ValueError(f"no grid points inside {name} [{lo}, {hi}] Hz")
    return lo, hi, inside


def improvement_db(reference: NoiseBudget, squeezed: NoiseBudget, band) -> BandImprovement:
    """Broadband gain of ``squeezed`` over ``reference`` inside a band.

    Positive dB means the squeezed total sits below the reference.  Reports
    20*log10 of the median point-wise ASD ratio and of the largest ratio
    (the "up to" figure).  Both budgets must share the grid, and the band
    must pass ``_band`` on it.
    """
    lo, hi, inside = _band(band, reference.grid, "band")
    if reference.grid.shape != squeezed.grid.shape or not (reference.grid == squeezed.grid).all():
        raise ValueError("budgets are on different frequency grids")
    ratio = reference.total[inside] / squeezed.total[inside]
    return BandImprovement(
        median_db=20.0 * math.log10(_median(ratio)),
        max_db=20.0 * math.log10(float(ratio.max())),
        band=(lo, hi),
        points=int(inside.stop - inside.start),
    )


def _median(values: np.ndarray) -> float:
    """``np.median`` of a NaN-free array, without the NaN check that imports ``numpy.ma``."""
    s = np.sort(values)
    m = s.size // 2
    return float(s[m] if s.size % 2 else (s[m - 1] + s[m]) / 2.0)


def equivalent_power_increase(improvement_db: float) -> float:
    """Fractional arm-power increase matching a shot-noise gain in dB.

    Shot-noise ASD scales as 1/sqrt(P), so an amplitude improvement of
    x dB is equivalent to multiplying the stored power by 10**(x/10).  The
    gain must lie in [0, MAX_INJECT_DB] dB, which holds every gain a budget can show.
    """
    return 10.0 ** (as_inject_db(improvement_db, "improvement") / 10.0) - 1.0
