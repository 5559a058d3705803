"""Deterministic SVG diagrams for fans and polygon pairs.

Pure string assembly from exact data.  Identical inputs always produce
byte identical output: no floats, no timestamps, no randomness.  Rational
coordinates are rounded to fixed three decimal places with exact Fraction
arithmetic before formatting.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .fan import Fan
from .newton import LaurentCurve, analyze, support

UNIT = 40  # pixels per lattice step
MARGIN = 1  # lattice units of padding around the bounding box


def _fmt(q) -> str:
    """Exact fixed point formatting, at most three decimals."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    scaled = round(q * 1000)
    sign = "-" if scaled < 0 else ""
    a = abs(scaled)
    text = f"{sign}{a // 1000}.{a % 1000:03d}".rstrip("0").rstrip(".")
    return text if text not in ("", "-") else "0"


class _Canvas:
    def __init__(self, min_x: int, min_y: int, max_x: int, max_y: int):
        self.min_x = min_x - MARGIN
        self.min_y = min_y - MARGIN
        self.max_x = max_x + MARGIN
        self.max_y = max_y + MARGIN
        self.width = (self.max_x - self.min_x) * UNIT
        self.height = (self.max_y - self.min_y) * UNIT
        self.parts: list[str] = []

    def px(self, x, y) -> tuple[Fraction, Fraction]:
        return (
            (Fraction(x) - self.min_x) * UNIT,
            (Fraction(self.max_y) - Fraction(y)) * UNIT,
        )

    def add(self, element: str) -> None:
        self.parts.append(element)

    def grid(self) -> None:
        for x in range(self.min_x, self.max_x + 1):
            for y in range(self.min_y, self.max_y + 1):
                cx, cy = self.px(x, y)
                self.add(
                    f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="1.5" fill="#c8c8c8"/>'
                )

    def finish(self) -> str:
        head = (
            f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'viewBox="0 0 {self.width} {self.height}" '
            f'width="{self.width}" height="{self.height}">\n'
        )
        body = "\n".join(self.parts)
        return head + body + "\n</svg>\n"


def _points_attr(canvas: _Canvas, points) -> str:
    coords = []
    for p in points:
        x, y = canvas.px(p.x, p.y)
        coords.append(f"{_fmt(x)},{_fmt(y)}")
    return " ".join(coords)


def render_fan_svg(fan: Fan) -> str:
    """Rays drawn as arrows from the origin, labeled by their coordinates."""
    xs = [n.x for n in fan.rays] + [0]
    ys = [n.y for n in fan.rays] + [0]
    canvas = _Canvas(min(xs), min(ys), max(xs), max(ys))
    canvas.add(
        '<defs><marker id="arrow" markerWidth="10" markerHeight="8" refX="8" '
        'refY="3" orient="auto"><path d="M0,0 L0,6 L9,3 z" fill="#1f4e79"/>'
        "</marker></defs>"
    )
    canvas.grid()
    ox, oy = canvas.px(0, 0)
    for n in fan.rays:
        tx, ty = canvas.px(n.x, n.y)
        canvas.add(
            f'<line x1="{_fmt(ox)}" y1="{_fmt(oy)}" x2="{_fmt(tx)}" y2="{_fmt(ty)}" '
            f'stroke="#1f4e79" stroke-width="2.5" marker-end="url(#arrow)"/>'
        )
    for n in fan.rays:
        tx, ty = canvas.px(n.x, n.y)
        canvas.add(
            f'<text x="{_fmt(tx + 6)}" y="{_fmt(ty - 6)}" font-family="monospace" '
            f'font-size="12" fill="#1f4e79">({n.x},{n.y})</text>'
        )
    canvas.add(
        f'<circle cx="{_fmt(ox)}" cy="{_fmt(oy)}" r="3.5" fill="#1f4e79"/>'
    )
    return canvas.finish()


def render_polygons_svg(fan: Fan, curve: LaurentCurve) -> str:
    """Newton polygon (filled), circumscribed polygon (thick outline),
    support points (dots) and labeled corner points mu_i."""
    analysis = analyze(fan, curve)
    poly = analysis.circumscribed()
    hull = analysis.hull
    pts = support(curve)

    xs = [m.x for m in pts]
    ys = [m.y for m in pts]
    for p in poly.mu:
        xs.extend([math.floor(p.x), math.ceil(p.x)])
        ys.extend([math.floor(p.y), math.ceil(p.y)])
    canvas = _Canvas(min(xs), min(ys), max(xs), max(ys))
    canvas.grid()

    # Newton polygon: filled at 20 percent opacity
    if hull.kind == "polygon":
        canvas.add(
            f'<polygon points="{_points_attr(canvas, hull.vertices)}" '
            f'fill="#2a6f97" fill-opacity="0.2" stroke="#2a6f97" stroke-width="1"/>'
        )
    elif hull.kind == "segment":
        a, b = hull.vertices
        ax, ay = canvas.px(a.x, a.y)
        bx, by = canvas.px(b.x, b.y)
        canvas.add(
            f'<line x1="{_fmt(ax)}" y1="{_fmt(ay)}" x2="{_fmt(bx)}" y2="{_fmt(by)}" '
            f'stroke="#2a6f97" stroke-width="1"/>'
        )

    # circumscribed polygon: thick outline through the distinct corners
    cycle = []
    for p in poly.mu:
        if not cycle or p != cycle[-1]:
            cycle.append(p)
    if len(cycle) > 1 and cycle[0] == cycle[-1]:
        cycle.pop()
    if len(cycle) >= 3:
        canvas.add(
            f'<polygon points="{_points_attr(canvas, cycle)}" '
            f'fill="none" stroke="#c1121f" stroke-width="3"/>'
        )
    elif len(cycle) == 2:
        (a, b) = cycle
        ax, ay = canvas.px(a.x, a.y)
        bx, by = canvas.px(b.x, b.y)
        canvas.add(
            f'<line x1="{_fmt(ax)}" y1="{_fmt(ay)}" x2="{_fmt(bx)}" y2="{_fmt(by)}" '
            f'stroke="#c1121f" stroke-width="3"/>'
        )

    # support points
    for m in pts:
        cx, cy = canvas.px(m.x, m.y)
        canvas.add(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="4.5" fill="#111111"/>')

    # corner markers and labels, grouping coincident corners
    by_point: dict[tuple, list[int]] = {}
    for i, p in enumerate(poly.mu):
        by_point.setdefault((p.x, p.y), []).append(i)
    for (x, y) in sorted(by_point):
        cx, cy = canvas.px(x, y)
        names = "=".join(f"mu{i}" for i in by_point[(x, y)])
        canvas.add(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="3" fill="#c1121f"/>'
        )
        canvas.add(
            f'<text x="{_fmt(cx + 8)}" y="{_fmt(cy - 8)}" font-family="monospace" '
            f'font-size="12" fill="#c1121f">{names}</text>'
        )
    return canvas.finish()
