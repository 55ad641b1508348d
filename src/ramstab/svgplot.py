"""Small SVG emitter for the polygon, its dual, and the transition functions.

Rendering is the one lossy surface of the package: exact rational
coordinates are evaluated to 12 significant digits for the polylines and
never read back.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

__all__ = ["render_level_report"]

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")

PANEL_W = 360.0
PANEL_H = 300.0
MARGIN = 42.0


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _plf_polyline(xs, dx, ys, dy, slope) -> List[Tuple[float, float]]:
    """The function through the origin with the vertices (x/dx, y/dy) for
    x, y in ``xs``, ``ys``, drawn a quarter of its last x (at least 1)
    along its final ray, of slope a/b for (a, b) = ``slope``."""
    (a, b), x_last, y_last = slope, xs[-1], ys[-1]
    reach = max(1, x_last // (4 * dx) + 1)
    points = [(0.0, 0.0)]
    points.extend((x / dx, y / dy) for x, y in zip(xs, ys))
    points.append(((x_last + reach * dx) / dx, (y_last * b + a * reach * dy) / (dy * b)))
    return points


class _Panel:
    def __init__(self, title: str, points: Sequence[Tuple[float, float]], color: str):
        self.title = title
        self.points = list(points)
        self.color = color

    def render(self, ox: float, oy: float) -> List[str]:
        xs = [p[0] for p in self.points]
        ys = [p[1] for p in self.points]
        x0, y0 = min(xs), min(ys)
        span_x = max(xs) - x0 or 1.0
        span_y = max(ys) - y0 or 1.0
        sx = (PANEL_W - 2 * MARGIN) / span_x
        sy = (PANEL_H - 2 * MARGIN) / span_y

        coords = [
            (_fmt(ox + MARGIN + (x - x0) * sx), _fmt(oy + PANEL_H - MARGIN - (y - y0) * sy))
            for x, y in self.points
        ]
        path = " ".join(f"{x},{y}" for x, y in coords)
        marks = "".join(
            f'<circle cx="{x}" cy="{y}" r="3" fill="{self.color}"/>' for x, y in coords
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

    ``polygon`` is the level polygon on integers, (xs, ys, dy): its
    vertices (x, y/dy), with dy > 0.  ``dual``, ``phi`` and ``tower`` are
    each a function through the origin on integers, (xs, dx, ys, dy,
    (a, b)): its vertices (x/dx, y/dy), with dx, dy > 0, and its final
    slope a/b, with b > 0.
    """
    xs, ys, dy = polygon
    outline = [(float(x), y / dy) for x, y in zip(xs, ys)]
    panels = [
        _Panel(f"newton polygon, level {level}", outline, _COLORS[0]),
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
