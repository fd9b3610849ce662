"""Deterministic static SVG figures for the scenario kinds.

Pure string assembly with fixed-precision coordinates: the same inputs
always produce byte-identical files.  Floats appear only here, strictly
for drawing; nothing certified is computed from them.
"""

from __future__ import annotations

import math
from typing import Sequence

from .geometry import Event, FiniteOrder, TerminatedDiagram

WIDTH = 560.0
HEIGHT = 420.0
MARGIN = 48.0

_HEADER = (
    '<svg xmlns="http://www.w3.org/2000/svg" width="{w:g}" height="{h:g}" '
    'viewBox="0 0 {w:g} {h:g}">'
)


def _float(value) -> float:
    """value as a drawing coordinate.

    Every number a figure writes passes here, through _fmt, and so does
    every exact coordinate turned into a float for drawing.  A value, or
    a span of values, that no float holds is a ValueError (a usage error
    on the command line), raised before the figure is complete.
    """
    try:
        result = float(value)
    except OverflowError:
        result = math.inf
    if not math.isfinite(result):
        raise ValueError("figure coordinates do not fit in a float")
    return result


def _fmt(value: float) -> str:
    text = f"{_float(value):.3f}".rstrip("0").rstrip(".")
    return "0" if text == "-0" else text


class Figure:
    """Append-only SVG element buffer over a fixed-size canvas."""

    def __init__(self, title: str):
        self.parts: list[str] = [
            _HEADER.format(w=WIDTH, h=HEIGHT),
            f'<rect width="{WIDTH:g}" height="{HEIGHT:g}" fill="white"/>',
        ]
        if title:
            self.text(WIDTH / 2, MARGIN / 2, title, anchor="middle", size=14)

    def line(self, x1, y1, x2, y2, *, stroke="black", width=1.0, dash=""):
        extra = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{stroke}" stroke-width="{_fmt(width)}"{extra}/>'
        )

    def circle(self, cx, cy, r, *, fill="black", stroke="none", width=1.0, opacity=1.0):
        extra = "" if opacity == 1.0 else f' fill-opacity="{_fmt(opacity)}"'
        self.parts.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" fill="{fill}" '
            f'stroke="{stroke}" stroke-width="{_fmt(width)}"{extra}/>'
        )

    def polyline(self, pts: Sequence[tuple[float, float]], *, stroke="black", width=1.5):
        joined = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pts)
        self.parts.append(
            f'<polyline points="{joined}" fill="none" stroke="{stroke}" '
            f'stroke-width="{_fmt(width)}"/>'
        )

    def text(self, x, y, content, *, anchor="start", size=11):
        safe = (
            str(content)
            .replace("&", "&amp;")
            .replace("<", "&lt;")
            .replace(">", "&gt;")
        )
        self.parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-family="monospace" '
            f'font-size="{size}" text-anchor="{anchor}">{safe}</text>'
        )

    def render(self) -> str:
        return "\n".join((*self.parts, "</svg>")) + "\n"


# ----------------------------------------------------------------------
# coordinate mapping


class _Frame:
    """Affine map from data coordinates to the canvas, preserving aspect."""

    def __init__(self, xs: Sequence[float], ys: Sequence[float]):
        x_lo, x_hi = min(xs), max(xs)
        y_lo, y_hi = min(ys), max(ys)
        span = max(x_hi - x_lo, y_hi - y_lo, 1.0)
        pad = 0.15 * span
        self.x_lo, self.y_lo = x_lo - pad, y_lo - pad
        span += 2 * pad
        self.scale = min(WIDTH - 2 * MARGIN, HEIGHT - 2 * MARGIN) / span
        self.span = span
        self._dx = (WIDTH - 2 * MARGIN - self.scale * span) / 2
        self._dy = (HEIGHT - 2 * MARGIN - self.scale * span) / 2

    def to_px(self, x: float, y: float) -> tuple[float, float]:
        px = MARGIN + self._dx + self.scale * (x - self.x_lo)
        py = HEIGHT - MARGIN - self._dy - self.scale * (y - self.y_lo)
        return px, py


def _axes(fig: Figure, label_x: str, label_y: str) -> None:
    fig.line(MARGIN, HEIGHT - MARGIN, WIDTH - MARGIN, HEIGHT - MARGIN, width=1.2)
    fig.line(MARGIN, HEIGHT - MARGIN, MARGIN, MARGIN, width=1.2)
    fig.text(WIDTH - MARGIN, HEIGHT - MARGIN + 16, label_x, anchor="end")
    fig.text(MARGIN - 4, MARGIN - 8, label_y)


def axes_only(title: str = "empty scenario") -> str:
    fig = Figure(title)
    _axes(fig, "x", "t")
    return fig.render()


def _dot(fig: Figure, px: float, py: float, name: str, kind: str, tier: int = 0) -> None:
    """One SRV: blue for an input, red for an output, labelled; tier
    lifts the label above those of earlier SRVs at the same point."""
    fill = "#1f4e9c" if kind == "input" else "#b03a2e"
    fig.circle(px, py, 3.5, fill=fill)
    fig.text(px + 6, py - 4 - 12 * tier, name)


# ----------------------------------------------------------------------
# figure kinds


def cone_diagram(points: Sequence[tuple[str, Event, str]], title: str) -> str:
    """1+1 diagram: each event with its forward light cone edges.

    Events sharing coordinates get stacked labels so collapsed layouts
    stay readable.
    """
    if not points:
        return axes_only(title)
    coords = [(_float(e.x[0]), _float(e.t)) for _, e, _ in points]
    frame = _Frame([c[0] for c in coords], [c[1] for c in coords])
    fig = Figure(title)
    _axes(fig, "x", "t")
    reach = 0.35 * frame.span
    stack: dict[tuple[float, float], int] = {}
    for (name, _, kind), (x, t) in zip(points, coords):
        px, py = frame.to_px(x, t)
        qx, qy = frame.to_px(x + reach, t + reach)
        rx, ry = frame.to_px(x - reach, t + reach)
        fig.line(px, py, qx, qy, stroke="#bbbbbb")
        fig.line(px, py, rx, ry, stroke="#bbbbbb")
        tier = stack.get((x, t), 0)
        stack[(x, t)] = tier + 1
        _dot(fig, px, py, name, kind, tier)
    return fig.render()


def spatial_scatter(points: Sequence[tuple[str, Event, str]], title: str) -> str:
    """Spatial positions of the SRVs on one slice, first two coordinates."""
    if not points:
        return axes_only(title)
    coords = [(_float(e.x[0]), _float(e.x[1])) for _, e, _ in points]
    frame = _Frame([c[0] for c in coords], [c[1] for c in coords])
    fig = Figure(title)
    _axes(fig, "x1", "x2")
    for (name, _, kind), (x, y) in zip(points, coords):
        _dot(fig, *frame.to_px(x, y), name, kind)
    return fig.render()


def disc_timeslice(
    n: int, receivers: Sequence[tuple[float, float]], h: float, t: float, title: str
) -> str:
    """Reach discs at one time slice of the n-receiver jamming layout.

    Gray translucent discs of radius t around each receiver (their
    overlap darkens where all of them intersect), a blue disc of radius
    t - h around the jammer's spatial position, and the unit circle for
    reference.
    """
    extent = max(t + 1.0, 2.0)
    frame = _Frame([-extent, extent], [-extent, extent])
    fig = Figure(title)
    ox, oy = frame.to_px(0.0, 0.0)
    unit = frame.scale
    fig.circle(ox, oy, unit, fill="none", stroke="#999999", width=0.8)
    for cx, cy in receivers:
        px, py = frame.to_px(cx, cy)
        fig.circle(px, py, t * unit, fill="#888888", opacity=round(0.9 / n, 3))
    if t > h:
        fig.circle(ox, oy, (t - h) * unit, fill="#1f4e9c", opacity=0.35)
    for cx, cy in receivers:
        px, py = frame.to_px(cx, cy)
        fig.circle(px, py, 3.0, fill="black")
    fig.line(ox - 5, oy, ox + 5, oy, stroke="#1f4e9c", width=1.6)
    fig.line(ox, oy - 5, ox, oy + 5, stroke="#1f4e9c", width=1.6)
    fig.text(MARGIN, HEIGHT - MARGIN + 16, f"n={n} t={_fmt(t)} h={_fmt(h)}")
    return fig.render()


def terminated_figure(
    order: TerminatedDiagram, points: Sequence[tuple[str, Event, str]], title: str
) -> str:
    """Domain below a piecewise-linear terminal boundary, with events."""
    xs = [_float(x) for x, _ in order.vertices]
    ts = [_float(s) for _, s in order.vertices]
    for _, e, _ in points:
        xs.append(_float(e.x[0]))
        ts.append(_float(e.t))
    spread = max(xs) - min(xs) or 1.0
    lo, hi = _float(min(xs) - 0.25 * spread), _float(max(xs) + 0.25 * spread)
    frame = _Frame([lo, hi], ts + [min(ts) - 0.5 * spread])
    fig = Figure(title)
    _axes(fig, "x", "t")
    boundary = [(lo, _float(order.sigma(lo)))]
    boundary += [(_float(x), _float(s)) for x, s in order.vertices]
    boundary.append((hi, _float(order.sigma(hi))))
    fig.polyline([frame.to_px(x, t) for x, t in boundary], stroke="#b03a2e", width=2.2)
    for name, e, kind in points:
        _dot(fig, *frame.to_px(_float(e.x[0]), _float(e.t)), name, kind)
    return fig.render()


def hasse_diagram(order: FiniteOrder, title: str) -> str:
    """Layered diagram of the finite order's covering relation."""
    elements = order.elements
    if not elements:
        return axes_only(title)
    before = {
        e: {
            d
            for d in elements
            if d != e and order.strictly_precedes(Event.named(d), Event.named(e))
        }
        for e in elements
    }
    depth: dict = {}
    for e in sorted(elements, key=lambda e: (len(before[e]), repr(e))):
        depth[e] = 1 + max((depth[d] for d in before[e]), default=-1)
    layers: dict[int, list] = {}
    for e in elements:
        layers.setdefault(depth[e], []).append(e)
    n_layers = max(layers) + 1
    pos: dict = {}
    for level, members in sorted(layers.items()):
        members.sort(key=repr)
        y = HEIGHT - MARGIN - (HEIGHT - 2 * MARGIN) * (level + 0.5) / n_layers
        step = (WIDTH - 2 * MARGIN) / (len(members) + 1)
        for i, e in enumerate(members):
            pos[e] = (MARGIN + step * (i + 1), y)
    fig = Figure(title)
    for e in elements:
        # covering pairs only: drop any predecessor below another one
        covers = [
            d
            for d in sorted(before[e], key=repr)
            if not any(d in before[m] for m in before[e])
        ]
        for d in covers:
            fig.line(*pos[d], *pos[e], stroke="#888888")
    for e in elements:
        px, py = pos[e]
        fig.circle(px, py, 4.0, fill="#1f4e9c")
        fig.text(px + 7, py - 5, repr(e))
    return fig.render()
