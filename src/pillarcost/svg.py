"""Deterministic SVG scatter plots of mAP versus GMAdd.

The output is plain text with no timestamps, random ids or environment
dependence: identical inputs produce byte-identical documents.
"""
from __future__ import annotations

import math
import re

from .analysis import AnalysisError, DesignPoint, fmt2, map_of, pareto_front

WIDTH = 800
HEIGHT = 600
MARGIN_L = 70
MARGIN_R = 25
MARGIN_T = 45
MARGIN_B = 55

_POINT_STYLE = 'fill="#4878a8" stroke="none"'
_FRONT_STYLE = 'fill="#d05030" stroke="#802010" stroke-width="2"'

# The characters XML 1.0 allows nowhere, escaped or not
_NOT_XML = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def _fmt(value: float) -> str:
    # fixed decimals keep coordinates stable across platforms
    return f"{value:.2f}"


def _tick_labels(ticks: list[float]) -> list[str]:
    """Two decimals when they tell the ticks apart in at most 10 characters;
    otherwise the fewest significant digits that do."""
    labels = [_fmt(tick) for tick in ticks]
    if len(set(labels)) == len(ticks) and all(len(label) <= 10 for label in labels):
        return labels
    for digits in range(1, 18):  # 17 digits tell any two floats apart
        labels = [f"{tick:.{digits}g}" for tick in ticks]
        if len(set(labels)) == len(ticks):
            break
    return labels


def _nice_ticks(lo: float, hi: float, count: int = 6) -> list[float]:
    raw = (hi - lo) / count
    step = 1.0
    while step < raw:
        step *= 10.0
    while step / 10.0 >= raw:
        step /= 10.0
    if step / 2.0 >= raw:
        step /= 2.0
    # each tick is an integer times the step: no error accumulates, so the
    # ticks need no rounding and stay distinct at any scale
    ticks = []
    index = int(lo / step)
    while (value := index * step) <= hi + step / 2:
        if value >= lo - step / 2:
            ticks.append(value)
        index += 1
    return ticks


def _axis(values: list[float]) -> tuple[float, float]:
    """The plotted range of ``values``: 8% wider on each side, or 1.0 when
    they are all equal.

    _nice_ticks steps by a sixth to ten sixths of the range, up to half a
    step past its end.  A range where such a step would not move a float at
    its ends, or whose last tick would pass the float range, raises an
    AnalysisError: its ticks would coincide or overflow.
    """
    lo, hi = min(values), max(values)
    pad = (hi - lo) * 0.08 or 1.0
    lo, hi = lo - pad, hi + pad
    if not (math.ulp(max(-lo, hi)) < (hi - lo) / 6 and hi + 2 * (hi - lo) < math.inf):
        raise AnalysisError(f"cannot plot an axis from {min(values):g} to {max(values):g}: "
                            "float coordinates cannot resolve it")
    return lo, hi


def render_scatter(points: list[DesignPoint], scope: str = "overall") -> str:
    """Render labeled design points, highlighting the Pareto front."""
    front_set = set(pareto_front(points, scope))
    coords = []
    for p in points:
        if _NOT_XML.search(p.name):
            raise AnalysisError(f"cannot plot {p.name!r}: XML 1.0 cannot hold its name")
        try:
            x = float(p.gmadds)
        except OverflowError:
            raise AnalysisError(f"cannot plot {p.name}: its GMAdd is past the float "
                                "range") from None
        coords.append((x, float(map_of(p, scope)), p.name))

    x_lo, x_hi = _axis([c[0] for c in coords])
    y_lo, y_hi = _axis([c[1] for c in coords])

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def sx(x: float) -> float:
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    title = f"mAP ({scope}) vs multiply-add operations"
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {WIDTH} {HEIGHT}" '
        f'width="{WIDTH}" height="{HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        f'<text x="{WIDTH // 2}" y="25" text-anchor="middle" '
        f'font-family="sans-serif" font-size="18">{title}</text>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#404040"/>',
    ]

    x_ticks = _nice_ticks(x_lo, x_hi)
    for tick, label in zip(x_ticks, _tick_labels(x_ticks)):
        px = sx(tick)
        lines.append(
            f'<line x1="{_fmt(px)}" y1="{MARGIN_T}" x2="{_fmt(px)}" '
            f'y2="{MARGIN_T + plot_h}" stroke="#d8d8d8"/>')
        lines.append(
            f'<text x="{_fmt(px)}" y="{MARGIN_T + plot_h + 20}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="12">'
            f'{label}</text>')
    y_ticks = _nice_ticks(y_lo, y_hi)
    for tick, label in zip(y_ticks, _tick_labels(y_ticks)):
        py = sy(tick)
        lines.append(
            f'<line x1="{MARGIN_L}" y1="{_fmt(py)}" x2="{MARGIN_L + plot_w}" '
            f'y2="{_fmt(py)}" stroke="#d8d8d8"/>')
        lines.append(
            f'<text x="{MARGIN_L - 8}" y="{_fmt(py + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12">{label}</text>')

    lines.append(
        f'<text x="{MARGIN_L + plot_w // 2}" y="{HEIGHT - 12}" '
        'text-anchor="middle" font-family="sans-serif" font-size="14">'
        'GMAdd (10^9 multiply-add operations)</text>')
    lines.append(
        f'<text x="18" y="{MARGIN_T + plot_h // 2}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14" '
        f'transform="rotate(-90 18 {MARGIN_T + plot_h // 2})">mAP [%]</text>')

    for x, y, name in sorted(coords, key=lambda c: (c[0], c[2])):
        style = _FRONT_STYLE if name in front_set else _POINT_STYLE
        # a parser reads a written CR as LF, but &#13; as CR
        label = (name.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
                 .replace("\r", "&#13;"))
        lines.append(
            f'<circle cx="{_fmt(sx(x))}" cy="{_fmt(sy(y))}" r="6" {style}/>')
        lines.append(
            f'<text x="{_fmt(sx(x) + 9)}" y="{_fmt(sy(y) - 7)}" '
            f'font-family="sans-serif" font-size="12">{label} '
            f'({fmt2(y)})</text>')

    lines.append("</svg>")
    return "\n".join(lines) + "\n"
