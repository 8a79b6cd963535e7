"""Minimal self-contained SVG writer for log-log noise curves.

Cosmetic output only: no external renderer, deterministic bytes for
identical inputs.
"""

from __future__ import annotations

import re
from html import escape
from math import ceil, floor, log10
from pathlib import Path

import numpy as np

from .budget import _validated_curve
from .states import _quote

__all__ = ["write_loglog_svg"]

#: Characters outside XML 1.0 ``Char``: C0 controls but tab, LF and CR; surrogates;
#: U+FFFE and U+FFFF.  The SVG cannot carry them, and UTF-8 cannot encode a surrogate.
_NOT_XML_CHAR = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")

PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
)

WIDTH, HEIGHT = 960, 620
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 80, 30, 50, 60

#: The most ticks (grid line and label) an axis carries; a wider span ticks every k-th decade.
MAX_TICKS = 12


def write_loglog_svg(path, curves, *, title=""):
    """Write a log-log ASD-against-frequency plot; ``curves`` is a list of (label, x, y).

    A plot holds one grid: each ``x`` must be the first curve's, the same object
    or an equal array, else ValueError naming the curve.  The grid, the curves
    and the texts pass the package's checks first, so a bad input writes no
    file.  The axes take any positive finite value, subnormals included, and
    each carries at most MAX_TICKS decade ticks.
    """
    if not curves:
        raise ValueError("need at least one curve")
    _xml_text(title, "title")
    for label, _, _ in curves:
        _xml_text(label, f"label {_quote(label)}")
    grid = curves[0][1]
    xs, ys = _validated_curve(grid, [(f"curve {_quote(label)}", y) for label, _, y in curves])
    for label, x, _ in curves:
        if x is not grid and not np.array_equal(x, xs):
            raise ValueError(f"curve {_quote(label)} is not on the grid of the first curve")

    x0 = floor(log10(xs[0]))
    x1 = max(ceil(log10(xs[-1])), x0 + 1)
    y0 = floor(log10(min(y.min() for y in ys)))
    y1 = max(ceil(log10(max(y.max() for y in ys))), y0 + 1)

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    # The pixel maps take log10 values, so a tick sits at its decade even where 10**d is 0 or inf.
    # log10 stays on math; numpy does only + - * /, which round the same in every SIMD class.
    def px(logs):
        return (MARGIN_L + (np.fromiter(logs, dtype=float) - x0) / (x1 - x0) * plot_w).tolist()

    def py(logs):
        return (MARGIN_T + plot_h - (np.fromiter(logs, dtype=float) - y0) / (y1 - y0) * plot_h).tolist()

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#444444" stroke-width="1"/>',
    ]

    x_ticks, y_ticks = _ticks(x0, x1), _ticks(y0, y1)
    for d, gx in zip(x_ticks, px(x_ticks)):
        if d != x0:
            parts.append(
                f'<line x1="{gx:.2f}" y1="{MARGIN_T}" x2="{gx:.2f}" y2="{MARGIN_T + plot_h}" '
                'stroke="#dddddd" stroke-width="1"/>'
            )
        parts.append(
            f'<text x="{gx:.2f}" y="{MARGIN_T + plot_h + 20}" font-size="12" '
            f'text-anchor="middle" font-family="sans-serif">{_decade(d)}</text>'
        )
    for d, gy in zip(y_ticks, py(y_ticks)):
        if d != y0:
            parts.append(
                f'<line x1="{MARGIN_L}" y1="{gy:.2f}" x2="{MARGIN_L + plot_w}" y2="{gy:.2f}" '
                'stroke="#dddddd" stroke-width="1"/>'
            )
        parts.append(
            f'<text x="{MARGIN_L - 8}" y="{gy + 4:.2f}" font-size="12" '
            f'text-anchor="end" font-family="sans-serif">{_decade(d)}</text>'
        )

    # each curve's colour is its palette entry, on its polyline and on its legend line
    legend_x = MARGIN_L + plot_w - 230
    legend = []
    template = " ".join([f"{x:.2f},%.2f" for x in px(map(log10, xs.tolist()))])
    for i, ((label, _, _), y) in enumerate(zip(curves, ys)):
        color = PALETTE[i % len(PALETTE)]
        points = template % tuple(py(map(log10, y.tolist())))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.6" points="{points}"/>')
        ly = MARGIN_T + 14 + 18 * i
        legend += [
            f'<line x1="{legend_x}" y1="{ly}" x2="{legend_x + 26}" y2="{ly}" stroke="{color}" stroke-width="2"/>',
            f'<text x="{legend_x + 32}" y="{ly + 4}" font-size="12" font-family="sans-serif">{escape(label)}</text>',
        ]
    parts += legend

    if title:
        parts.append(
            f'<text x="{WIDTH / 2:g}" y="28" font-size="16" text-anchor="middle" '
            f'font-family="sans-serif">{escape(title)}</text>'
        )
    parts.append(
        f'<text x="{MARGIN_L + plot_w / 2:g}" y="{HEIGHT - 16}" font-size="13" '
        'text-anchor="middle" font-family="sans-serif">frequency [Hz]</text>'
    )
    parts.append(
        f'<text x="18" y="{MARGIN_T + plot_h / 2:g}" font-size="13" text-anchor="middle" '
        f'font-family="sans-serif" transform="rotate(-90 18 {MARGIN_T + plot_h / 2:g})">ASD [1/√Hz]</text>'
    )
    parts.append("</svg>")
    Path(path).write_bytes(("\n".join(parts) + "\n").encode("utf-8"))


def _ticks(d0: int, d1: int) -> range:
    """Every k-th decade from ``d0`` to ``d1``, with k the least step that leaves at most MAX_TICKS."""
    return range(d0, d1 + 1, -(-(d1 - d0) // (MAX_TICKS - 1)))


def _decade(d: int) -> str:
    """The tick label of decade ``d``: ``10**d`` as ``:g`` has it, or ``1e±d`` past the normal floats."""
    return f"{10.0 ** d:g}" if -307 <= d <= 308 else f"1e{d:+d}"


def _xml_text(text: str, what: str) -> str:
    """``text`` if it is a str made only of XML 1.0 characters, else ValueError naming ``what``."""
    if not isinstance(text, str):
        raise ValueError(f"{what} must be text, got {_quote(text)}")
    bad = _NOT_XML_CHAR.search(text)
    if bad:
        raise ValueError(f"{what} holds {bad.group()!r}, which is not an XML 1.0 character")
    return text
