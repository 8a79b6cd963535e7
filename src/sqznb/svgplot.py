"""Minimal self-contained SVG writer for log-log noise curves.

Cosmetic output only: no external renderer, deterministic bytes for
identical inputs.
"""

from __future__ import annotations

import math
from html import escape
from pathlib import Path

from .budget import _validated_curve

__all__ = ["write_loglog_svg"]

PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
)

WIDTH, HEIGHT = 960, 620
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 80, 30, 50, 60


def _decade_floor(x: float) -> int:
    return int(math.floor(math.log10(x)))


def _decade_ceil(x: float) -> int:
    return int(math.ceil(math.log10(x)))


def write_loglog_svg(path, curves, *, title=""):
    """Write a log-log ASD-against-frequency plot; ``curves`` is a list of (label, x, y).

    Each curve must pass the package's frequency-curve check.
    """
    if not curves:
        raise ValueError("need at least one curve")
    checked = []
    for label, x, y in curves:
        xs, (ys,) = _validated_curve(x, [(f"curve {label!r}", y)])
        checked.append((label, xs, ys))

    x0 = _decade_floor(min(x[0] for _, x, _ in checked))
    x1 = _decade_ceil(max(x[-1] for _, x, _ in checked))
    y0 = _decade_floor(min(y.min() for _, _, y in checked))
    y1 = _decade_ceil(max(y.max() for _, _, y in checked))
    if x1 == x0:
        x1 += 1
    if y1 == y0:
        y1 += 1

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(x):
        return MARGIN_L + (math.log10(x) - x0) / (x1 - x0) * plot_w

    def py(y):
        return MARGIN_T + plot_h - (math.log10(y) - y0) / (y1 - y0) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#444444" stroke-width="1"/>',
    ]

    for d in range(x0, x1 + 1):
        gx = px(10.0**d)
        if d not in (x0,):
            parts.append(
                f'<line x1="{gx:.2f}" y1="{MARGIN_T}" x2="{gx:.2f}" y2="{MARGIN_T + plot_h}" '
                'stroke="#dddddd" stroke-width="1"/>'
            )
        parts.append(
            f'<text x="{gx:.2f}" y="{MARGIN_T + plot_h + 20}" font-size="12" '
            f'text-anchor="middle" font-family="sans-serif">{10.0 ** d:g}</text>'
        )
    for d in range(y0, y1 + 1):
        gy = py(10.0**d)
        if d not in (y0,):
            parts.append(
                f'<line x1="{MARGIN_L}" y1="{gy:.2f}" x2="{MARGIN_L + plot_w}" y2="{gy:.2f}" '
                'stroke="#dddddd" stroke-width="1"/>'
            )
        parts.append(
            f'<text x="{MARGIN_L - 8}" y="{gy + 4:.2f}" font-size="12" '
            f'text-anchor="end" font-family="sans-serif">{10.0 ** d:g}</text>'
        )

    for i, (label, x, y) in enumerate(checked):
        color = PALETTE[i % len(PALETTE)]
        points = " ".join(f"{px(xi):.2f},{py(yi):.2f}" for xi, yi in zip(x.tolist(), y.tolist()))
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.6" points="{points}"/>'
        )

    legend_x = MARGIN_L + plot_w - 230
    legend_y = MARGIN_T + 14
    for i, (label, _, _) in enumerate(curves):
        color = PALETTE[i % len(PALETTE)]
        ly = legend_y + 18 * i
        parts.append(
            f'<line x1="{legend_x}" y1="{ly}" x2="{legend_x + 26}" y2="{ly}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{legend_x + 32}" y="{ly + 4}" font-size="12" '
            f'font-family="sans-serif">{escape(label)}</text>'
        )

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
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")
