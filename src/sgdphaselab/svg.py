"""Self-contained deterministic SVG plots: log-log loss curves and heatmaps.

Hand-rolled on purpose: byte-identical output for identical input is part
of the reproducibility contract, and the two chart types needed here are
small. Coordinates are formatted with "%.6g" so the bytes do not depend on
platform float printing quirks.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import ValidationError

__all__ = ["loglog_chart", "heatmap_chart"]

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf")
_GUIDE_COLOR = "#999999"

_WIDTH, _HEIGHT = 720, 540
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 20, 36, 52


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


class _LogAxes:
    def __init__(self, xs: np.ndarray, ys: np.ndarray):
        if np.any(xs <= 0) or np.any(ys <= 0):
            raise ValidationError("log axes need strictly positive values")
        self.x0, self.x1 = math.log10(xs.min()), math.log10(xs.max())
        self.y0, self.y1 = math.log10(ys.min()), math.log10(ys.max())
        if self.x1 - self.x0 < 1e-9:
            self.x1 = self.x0 + 1.0
        if self.y1 - self.y0 < 1e-9:
            self.y1 = self.y0 + 1.0

    def px(self, x: float) -> float:
        f = (math.log10(x) - self.x0) / (self.x1 - self.x0)
        return _MARGIN_L + f * (_WIDTH - _MARGIN_L - _MARGIN_R)

    def py(self, y: float) -> float:
        f = (math.log10(y) - self.y0) / (self.y1 - self.y0)
        return _HEIGHT - _MARGIN_B - f * (_HEIGHT - _MARGIN_T - _MARGIN_B)

    def decades_x(self):
        return range(math.ceil(self.x0), math.floor(self.x1) + 1)

    def decades_y(self):
        return range(math.ceil(self.y0), math.floor(self.y1) + 1)


def _header(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="monospace" font-size="12">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH // 2}" y="20" text-anchor="middle" font-size="14">{_esc(title)}</text>',
    ]


def _axis_labels(xlabel: str, ylabel: str) -> list[str]:
    return [
        f'<text x="{_WIDTH // 2}" y="{_HEIGHT - 12}" text-anchor="middle">{_esc(xlabel)}</text>',
        f'<text x="16" y="{_HEIGHT // 2}" text-anchor="middle" '
        f'transform="rotate(-90 16 {_HEIGHT // 2})">{_esc(ylabel)}</text>',
    ]


def loglog_chart(
    series: Sequence[tuple],
    guides: Sequence[tuple] = (),
    title: str = "",
    xlabel: str = "t",
    ylabel: str = "loss",
    markers: Sequence[tuple] = (),
) -> str:
    """Log-log line chart.

    ``series``: (label, x array, y array) triples; points with y <= 0 are an
    error (log axis). ``guides``: (slope, x_anchor, y_anchor, label) straight
    reference lines in log-log space. ``markers``: (label, x, y) point marks.
    """
    if not series:
        raise ValidationError("no series to plot")
    cleaned = []
    for label, xs, ys in series:
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.size == 0 or xs.size != ys.size:
            raise ValidationError(f"series {label!r} is empty or mismatched")
        cleaned.append((str(label), xs, ys))
    all_x = np.concatenate([s[1] for s in cleaned])
    all_y = np.concatenate([s[2] for s in cleaned])
    ax = _LogAxes(all_x, all_y)

    out = _header(title)
    # frame and decade grid
    out.append(
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{_WIDTH - _MARGIN_L - _MARGIN_R}" '
        f'height="{_HEIGHT - _MARGIN_T - _MARGIN_B}" fill="none" stroke="black"/>'
    )
    for d in ax.decades_x():
        x = ax.px(10.0**d)
        out.append(
            f'<line x1="{_fmt(x)}" y1="{_MARGIN_T}" x2="{_fmt(x)}" y2="{_HEIGHT - _MARGIN_B}" '
            f'stroke="#dddddd"/>'
        )
        out.append(
            f'<text x="{_fmt(x)}" y="{_HEIGHT - _MARGIN_B + 16}" text-anchor="middle">1e{d}</text>'
        )
    for d in ax.decades_y():
        y = ax.py(10.0**d)
        out.append(
            f'<line x1="{_MARGIN_L}" y1="{_fmt(y)}" x2="{_WIDTH - _MARGIN_R}" y2="{_fmt(y)}" '
            f'stroke="#dddddd"/>'
        )
        out.append(f'<text x="{_MARGIN_L - 6}" y="{_fmt(y + 4)}" text-anchor="end">1e{d}</text>')
    out += _axis_labels(xlabel, ylabel)

    for slope, x_anchor, y_anchor, label in guides:
        xa, xb = all_x[all_x > 0].min(), all_x.max()
        ya = y_anchor * (xa / x_anchor) ** slope
        yb = y_anchor * (xb / x_anchor) ** slope
        out.append(
            f'<line x1="{_fmt(ax.px(xa))}" y1="{_fmt(ax.py(ya))}" '
            f'x2="{_fmt(ax.px(xb))}" y2="{_fmt(ax.py(yb))}" '
            f'stroke="{_GUIDE_COLOR}" stroke-dasharray="6 4"/>'
        )
        out.append(
            f'<text x="{_fmt(ax.px(xb) - 4)}" y="{_fmt(ax.py(yb) - 6)}" text-anchor="end" '
            f'fill="{_GUIDE_COLOR}">{_esc(label)}</text>'
        )

    for i, (label, xs, ys) in enumerate(cleaned):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{_fmt(ax.px(x))},{_fmt(ax.py(y))}" for x, y in zip(xs, ys))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        out.append(
            f'<text x="{_WIDTH - _MARGIN_R - 8}" y="{_MARGIN_T + 16 + 14 * i}" text-anchor="end" '
            f'fill="{color}">{_esc(label)}</text>'
        )

    for label, x, y in markers:
        out.append(
            f'<circle cx="{_fmt(ax.px(x))}" cy="{_fmt(ax.py(y))}" r="4" fill="black"/>'
        )
        out.append(
            f'<text x="{_fmt(ax.px(x) + 6)}" y="{_fmt(ax.py(y) - 6)}">{_esc(label)}</text>'
        )

    out.append("</svg>")
    return "\n".join(out) + "\n"


def _color_for(frac: float) -> str:
    """Two-stop blue-to-red interpolation on [0, 1]."""
    frac = min(max(frac, 0.0), 1.0)
    lo = (33, 102, 172)
    hi = (178, 24, 43)
    rgb = tuple(round(a + frac * (b - a)) for a, b in zip(lo, hi))
    return f"#{rgb[0]:02x}{rgb[1]:02x}{rgb[2]:02x}"


def heatmap_chart(
    x_values: Sequence[float],
    y_values: Sequence[float],
    cells: np.ndarray,
    boundary: Sequence[tuple] = (),
    title: str = "",
    xlabel: str = "alpha",
    ylabel: str = "beta",
) -> str:
    """Colored-cell heatmap with an optional analytic boundary polyline.

    ``cells[i, j]`` colors the cell at (x_values[i], y_values[j]) on a log
    color scale; NaN and non-positive cells render dark gray, which is how
    diverged sweep points show up (all of them where no cell is finite).
    """
    x = np.asarray(x_values, dtype=float)
    y = np.asarray(y_values, dtype=float)
    cells = np.asarray(cells, dtype=float)
    if cells.shape != (x.size, y.size) or x.size == 0 or y.size == 0:
        raise ValidationError(f"cell grid {cells.shape} does not match axes ({x.size}, {y.size})")

    finite = cells[np.isfinite(cells)]
    finite = finite[finite > 0]
    vmin, vmax = (math.log10(finite.min()), math.log10(finite.max())) if finite.size else (0.0, 1.0)
    if vmax - vmin < 1e-12:
        vmax = vmin + 1.0

    def frac(v: float) -> float | None:
        if not math.isfinite(v) or v <= 0:
            return None
        return (math.log10(v) - vmin) / (vmax - vmin)

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B
    cw, ch = plot_w / x.size, plot_h / y.size

    def px(i: float) -> float:
        return _MARGIN_L + i * cw

    def py(j: float) -> float:
        return _HEIGHT - _MARGIN_B - (j + 1) * ch

    out = _header(title)
    for i in range(x.size):
        for j in range(y.size):
            f = frac(cells[i, j])
            color = "#404040" if f is None else _color_for(f)
            out.append(
                f'<rect x="{_fmt(px(i))}" y="{_fmt(py(j))}" width="{_fmt(cw + 0.5)}" '
                f'height="{_fmt(ch + 0.5)}" fill="{color}"/>'
            )
    # axis tick labels on a sparse subset
    for i in range(0, x.size, max(1, x.size // 8)):
        out.append(
            f'<text x="{_fmt(px(i + 0.5))}" y="{_HEIGHT - _MARGIN_B + 16}" '
            f'text-anchor="middle">{_fmt(x[i])}</text>'
        )
    for j in range(0, y.size, max(1, y.size // 8)):
        out.append(
            f'<text x="{_MARGIN_L - 6}" y="{_fmt(py(j) + ch / 2 + 4)}" '
            f'text-anchor="end">{_fmt(y[j])}</text>'
        )
    out += _axis_labels(xlabel, ylabel)

    if boundary:
        # boundary points live in data coordinates; map through the cell grid
        pts = " ".join(f"{_fmt(px(np.interp(bx, x, np.arange(x.size)) + 0.5))},"
                       f"{_fmt(py(np.interp(by, y, np.arange(y.size))) + ch / 2)}" for bx, by in boundary)
        out.append(f'<polyline points="{pts}" fill="none" stroke="black" stroke-width="2"/>')

    out.append(f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{_fmt(plot_w)}" height="{_fmt(plot_h)}" fill="none" stroke="black"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
