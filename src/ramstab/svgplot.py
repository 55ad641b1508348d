"""Small SVG emitter for the polygon, its dual, and the transition functions.

Rendering is the one lossy surface of the package: exact rational
coordinates are evaluated to 12 significant digits for the polylines and
never read back.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence, Tuple

__all__ = ["render_level_report"]

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")

PANEL_W = 360.0
PANEL_H = 300.0
MARGIN = 42.0


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _plf_polyline(vertices, final_slope) -> List[Tuple[float, float]]:
    """The function through the origin with these vertices, drawn a quarter
    of its last x (at least 1) along its final ray."""
    x_last, y_last = vertices[-1]
    reach = max(Fraction(1), x_last // 4 + 1)
    points = [(0.0, 0.0)]
    points.extend((float(x), float(y)) for x, y in vertices)
    points.append((float(x_last + reach), float(y_last + final_slope * reach)))
    return points


def _polygon_polyline(polygon) -> List[Tuple[float, float]]:
    return [(float(x), float(y)) for x, y in polygon.vertices]


class _Panel:
    def __init__(self, title: str, points: Sequence[Tuple[float, float]], color: str):
        self.title = title
        self.points = list(points)
        self.color = color

    def render(self, ox: float, oy: float) -> List[str]:
        xs = [p[0] for p in self.points]
        ys = [p[1] for p in self.points]
        span_x = max(xs) - min(xs) or 1.0
        span_y = max(ys) - min(ys) or 1.0
        sx = (PANEL_W - 2 * MARGIN) / span_x
        sy = (PANEL_H - 2 * MARGIN) / span_y

        def to_svg(p):
            x = ox + MARGIN + (p[0] - min(xs)) * sx
            y = oy + PANEL_H - MARGIN - (p[1] - min(ys)) * sy
            return f"{_fmt(x)},{_fmt(y)}"

        path = " ".join(to_svg(p) for p in self.points)
        marks = "".join(
            f'<circle cx="{to_svg(p).split(",")[0]}" cy="{to_svg(p).split(",")[1]}" '
            f'r="3" fill="{self.color}"/>'
            for p in self.points
        )
        frame = (
            f'<rect x="{_fmt(ox + 4)}" y="{_fmt(oy + 4)}" width="{_fmt(PANEL_W - 8)}" '
            f'height="{_fmt(PANEL_H - 8)}" fill="none" stroke="#cccccc"/>'
        )
        label = (
            f'<text x="{_fmt(ox + 12)}" y="{_fmt(oy + 22)}" font-size="14" '
            f'font-family="monospace" fill="#333333">{self.title}</text>'
        )
        line = (
            f'<polyline points="{path}" fill="none" stroke="{self.color}" '
            f'stroke-width="1.6"/>'
        )
        return [frame, label, line, marks]


def render_level_report(polygon, dual, phi, tower, level: int) -> str:
    """Four labeled panels: the level polygon, its dual, phi_n, and the tower map.

    ``dual``, ``phi`` and ``tower`` are each a function through the origin,
    given as its vertex list and its final slope.
    """
    panels = [
        _Panel(f"newton polygon, level {level}", _polygon_polyline(polygon), _COLORS[0]),
        _Panel(f"copolygon, level {level}", _plf_polyline(*dual), _COLORS[1]),
        _Panel(f"transition phi_{level}", _plf_polyline(*phi), _COLORS[2]),
        _Panel(f"tower map, depth {level}", _plf_polyline(*tower), _COLORS[3]),
    ]
    width = 2 * PANEL_W
    height = 2 * PANEL_H
    body: List[str] = []
    for idx, panel in enumerate(panels):
        ox = (idx % 2) * PANEL_W
        oy = (idx // 2) * PANEL_H
        body.extend(panel.render(ox, oy))
    content = "\n".join(body)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_fmt(width)} {_fmt(height)}" '
        f'width="{_fmt(width)}" height="{_fmt(height)}">\n'
        f'<rect width="100%" height="100%" fill="#ffffff"/>\n{content}\n</svg>\n'
    )
