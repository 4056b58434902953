"""Hand-emitted SVG figures: growth fits, sweeps, collapse plots.

No plotting dependency; each figure is assembled from a handful of
primitive strings. Markers carry class="dot" and theoretical or fitted
curves class="theory" / class="fit", so documents are easy to check
structurally. All coordinates are formatted to fixed precision, making
the output byte-deterministic for equal input.
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import DomainError

_WIDTH = 640.0
_HEIGHT = 480.0
_LEFT, _RIGHT, _TOP, _BOTTOM = 72.0, 24.0, 40.0, 56.0

_PALETTE = (
    "#1f5fa8", "#c44e52", "#55a868", "#8172b2", "#ccb974",
    "#64b5cd", "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22",
)


def _f(value: float) -> str:
    return f"{value:.2f}"


class _Frame:
    """Maps data coordinates onto a pixel viewport, optionally log-log."""

    def __init__(self, x_range, y_range, x_log=False, y_log=False,
                 left=_LEFT, right=_RIGHT, width=_WIDTH):
        self.x_log, self.y_log = x_log, y_log
        self.x0, self.x1 = (math.log10(x_range[0]), math.log10(x_range[1])) \
            if x_log else x_range
        self.y0, self.y1 = (math.log10(y_range[0]), math.log10(y_range[1])) \
            if y_log else y_range
        if self.x1 <= self.x0 or self.y1 <= self.y0:
            raise DomainError("degenerate axis range")
        self.px0, self.px1 = left, width - right
        self.py0, self.py1 = _HEIGHT - _BOTTOM, _TOP

    def px(self, x: float) -> float:
        x = math.log10(x) if self.x_log else x
        t = (x - self.x0) / (self.x1 - self.x0)
        return self.px0 + t * (self.px1 - self.px0)

    def py(self, y: float) -> float:
        y = math.log10(y) if self.y_log else y
        t = (y - self.y0) / (self.y1 - self.y0)
        return self.py0 + t * (self.py1 - self.py0)


def _document(elements: Sequence[str], width=_WIDTH, height=_HEIGHT) -> str:
    body = "\n".join(elements)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">\n'
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>\n'
        f"{body}\n</svg>\n"
    )


def _log_ticks(lo: float, hi: float) -> list[float]:
    first = math.ceil(math.log10(lo) - 1e-9)
    last = math.floor(math.log10(hi) + 1e-9)
    return [10.0**k for k in range(first, last + 1)]


def _linear_ticks(lo: float, hi: float, count: int = 6) -> list[float]:
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def _tick_label(value: float, log: bool) -> str:
    if log:
        return f"1e{int(round(math.log10(value)))}"
    return f"{value:.2g}"


def _axes(frame: _Frame, x_label: str, y_label: str, title: str) -> list[str]:
    e = []
    e.append(
        f'<rect x="{_f(frame.px0)}" y="{_f(frame.py1)}" '
        f'width="{_f(frame.px1 - frame.px0)}" height="{_f(frame.py0 - frame.py1)}" '
        f'fill="none" stroke="#333" stroke-width="1"/>'
    )
    x_ticks = _log_ticks(10**frame.x0, 10**frame.x1) if frame.x_log \
        else _linear_ticks(frame.x0, frame.x1)
    y_ticks = _log_ticks(10**frame.y0, 10**frame.y1) if frame.y_log \
        else _linear_ticks(frame.y0, frame.y1)
    for tick in x_ticks:
        px = frame.px(tick)
        e.append(f'<line x1="{_f(px)}" y1="{_f(frame.py0)}" x2="{_f(px)}" '
                 f'y2="{_f(frame.py0 + 5)}" stroke="#333" stroke-width="1"/>')
        e.append(f'<text x="{_f(px)}" y="{_f(frame.py0 + 18)}" font-size="11" '
                 f'text-anchor="middle">{_tick_label(tick, frame.x_log)}</text>')
    for tick in y_ticks:
        py = frame.py(tick)
        e.append(f'<line x1="{_f(frame.px0 - 5)}" y1="{_f(py)}" x2="{_f(frame.px0)}" '
                 f'y2="{_f(py)}" stroke="#333" stroke-width="1"/>')
        e.append(f'<text x="{_f(frame.px0 - 8)}" y="{_f(py + 4)}" font-size="11" '
                 f'text-anchor="end">{_tick_label(tick, frame.y_log)}</text>')
    mid_x = (frame.px0 + frame.px1) / 2
    mid_y = (frame.py0 + frame.py1) / 2
    e.append(f'<text x="{_f(mid_x)}" y="{_f(_HEIGHT - 14)}" font-size="13" '
             f'text-anchor="middle">{x_label}</text>')
    e.append(f'<text x="16" y="{_f(mid_y)}" font-size="13" text-anchor="middle" '
             f'transform="rotate(-90 16 {_f(mid_y)})">{y_label}</text>')
    e.append(f'<text x="{_f(mid_x)}" y="24" font-size="14" '
             f'text-anchor="middle">{title}</text>')
    return e


def _dot(px: float, py: float, color: str, radius: float = 2.5) -> str:
    return (f'<circle class="dot" cx="{_f(px)}" cy="{_f(py)}" r="{radius:g}" '
            f'fill="{color}" fill-opacity="0.75"/>')


def _polyline(points: Sequence[tuple[float, float]], color: str,
              css_class: str, width: float = 1.8) -> str:
    coords = " ".join(f"{_f(px)},{_f(py)}" for px, py in points)
    return (f'<polyline class="{css_class}" points="{coords}" fill="none" '
            f'stroke="{color}" stroke-width="{width:g}"/>')


def _fit_line(frame: _Frame, intercept: float, slope: float) -> str:
    """The fitted line log10 y = intercept + slope * log10 x across a
    log-log frame."""
    line = []
    for t in range(51):
        lx = frame.x0 + (frame.x1 - frame.x0) * t / 50
        line.append((frame.px(10**lx), frame.py(10 ** (intercept + slope * lx))))
    return _polyline(line, "#c44e52", "fit")


def _padded_log_range(values: Sequence[float]) -> tuple[float, float]:
    lo, hi = min(values), max(values)
    if lo == hi:
        lo, hi = lo / 2, hi * 2
    return lo / 1.5, hi * 1.5


def growth_scatter_svg(pairs: Sequence[tuple[float, float]], slope: float,
                       intercept: float) -> str:
    """Log-log scatter of (P, F) days with the orthogonal-fit line."""
    if len(pairs) < 2:
        raise DomainError("need at least 2 points to draw a scatter")
    frame = _Frame(_padded_log_range([p for p, _ in pairs]),
                   _padded_log_range([f for _, f in pairs]),
                   x_log=True, y_log=True)
    elements = _axes(frame, "population P", "total activity F", "Daily growth")
    elements.append(_fit_line(frame, intercept, slope))
    for p, f in pairs:
        elements.append(_dot(frame.px(p), frame.py(f), _PALETTE[0]))
    return _document(elements)


def sweep_svg(cells) -> str:
    """gamma against 1/beta for every ok cell, with the theoretical curve.

    Exactly one polyline of class "theory" is emitted; failed cells are
    skipped. Dots are colored by lower cutoff C.
    """
    ok = [cell for cell in cells if cell.status == "ok"]
    gammas = [cell.gamma_fit for cell in ok] or [1.0]
    y_lo = min(0.9, min(gammas) - 0.05)
    y_hi = max(2.1, max(gammas) + 0.05)
    frame = _Frame((0.05, 1.02), (y_lo, y_hi))
    elements = _axes(frame, "1/beta", "growth exponent gamma",
                     "Growth exponent vs 1/beta")
    curve = []
    for i in range(101):
        inv = 0.05 + (1.0 - 0.05) * i / 100
        gamma = 2.0 * inv if inv > 0.5 else 1.0
        curve.append((frame.px(inv), frame.py(gamma)))
    elements.append(_polyline(curve, "#333333", "theory", width=2.2))
    c_colors: dict[float, str] = {}
    for cell in ok:
        color = c_colors.setdefault(cell.c, _PALETTE[len(c_colors) % len(_PALETTE)])
        elements.append(_dot(frame.px(cell.inverse_beta), frame.py(cell.gamma_fit),
                             color))
    return _document(elements)


def collapse_svg(snapshots, cloud: tuple, beta: float) -> str:
    """Raw daily histograms beside the rescaled pooled cloud and its fit.

    Left panel: n(f) vs f for up to 8 evenly chosen days (raw
    curves fan out with the daily cutoff). Right panel: the log-binned
    pooled cloud in (f/f_max, n) coordinates with the fitted power law,
    onto which all days collapse.
    """
    if len(snapshots) == 0:
        raise DomainError("need at least one day")
    stride = max(1, len(snapshots) // 8)
    chosen = list(snapshots)[::stride][:8]
    half = _WIDTH / 2
    levels = [lv for s in chosen for lv in s.levels.tolist()]
    counts = [ct for s in chosen for ct in s.counts.tolist()]
    left = _Frame(_padded_log_range(levels), _padded_log_range(counts),
                  x_log=True, y_log=True, right=18.0, width=half)
    elements = _axes(left, "activity f", "users n(f)", "Distribution collapse")
    for i, snapshot in enumerate(chosen):
        color = _PALETTE[i % len(_PALETTE)]
        for level, count in zip(snapshot.levels.tolist(), snapshot.counts.tolist()):
            elements.append(_dot(left.px(level), left.py(count), color, radius=2.0))

    log_centers, log_values = cloud
    xs = [10.0**c for c in log_centers]
    ys = [10.0**v for v in log_values]
    right = _Frame(_padded_log_range(xs), _padded_log_range(ys),
                   x_log=True, y_log=True, left=half + 58.0)
    elements += _axes(right, "relative activity f/f_max", "users n", "rescaled")
    mean_x = sum(log_centers) / len(log_centers)
    mean_y = sum(log_values) / len(log_values)
    elements.append(_fit_line(right, mean_y + beta * mean_x, -beta))
    for x, y in zip(xs, ys):
        elements.append(_dot(right.px(x), right.py(y), _PALETTE[0]))
    return _document(elements)
