"""Exact Newton polygons: lower convex hulls of valuation data and their duals.

The hull is taken over points (i, v(coefficient of x^i)); segment slopes are
then typically negative, and the valuation of a root attached to a segment is
the NEGATIVE of its slope.  That sign convention is fixed throughout the
package.  Vertex lists are strictly convex: collinear interior points are
never vertices.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple, Tuple

from .valuations import format_rational

__all__ = [
    "NewtonPolygon",
    "DegenerateHullError",
    "lower_hull",
    "slopes",
    "copolygon",
]


class DegenerateHullError(ValueError):
    """Raised when fewer than two points are given to hull."""


class NewtonPolygon(NamedTuple("NewtonPolygon", [("vertices", tuple)])):
    """Lower convex hull, stored as its strictly convex vertex list
    ``vertices``, a tuple of (x, y) pairs.

    x-coordinates are strictly increasing integers; heights are finite
    rationals; segment slopes are strictly increasing.
    """

    __slots__ = ()

    def __new__(cls, vertices):
        self = super().__new__(cls, tuple(vertices))
        verts = self.vertices
        if not verts:
            raise ValueError("a Newton polygon needs at least one vertex")
        xs = [x for x, _ in verts]
        if any(x < 0 for x in xs) or any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValueError("vertex x-coordinates must be nonnegative and strictly increasing")
        segs = _segment_slopes(verts)
        if any(b <= a for a, b in zip(segs, segs[1:])):
            raise ValueError("segment slopes must be strictly increasing (strict convexity)")
        return self

    def slopes(self) -> list[Fraction]:
        return slopes(self)

    def root_valuations(self) -> list[Fraction]:
        """Distinct root valuations encoded by the polygon: negated slopes, decreasing."""
        return [-s for s in slopes(self)]

    def to_json(self) -> list:
        return [[x, format_rational(y)] for x, y in self.vertices]


def _segment_slopes(verts) -> list[Fraction]:
    return [
        Fraction(y1 - y0, x1 - x0)
        for (x0, y0), (x1, y1) in zip(verts, verts[1:])
    ]


def lower_hull(points: Iterable) -> NewtonPolygon:
    """Lower convex hull of (x, y) points with integer x and rational y.

    The vertex list is strictly convex: a point lying on a hull segment but
    not at a genuine slope break is excluded.
    """
    points = sorted(points)
    if len({x for x, _ in points}) != len(points):
        raise ValueError("x-coordinates must be distinct")
    if len(points) < 2:
        raise DegenerateHullError(f"need at least two points to build a hull, got {len(points)}")
    hull: list[Tuple[int, Fraction]] = []
    for pt in points:
        while len(hull) >= 2:
            (ax, ay), (bx, by) = hull[-2], hull[-1]
            # pop b unless a -> b -> pt turns strictly downward-convex
            if (bx - ax) * (pt[1] - ay) - (by - ay) * (pt[0] - ax) <= 0:
                hull.pop()
            else:
                break
        hull.append(pt)
    return NewtonPolygon(tuple(hull))


def slopes(polygon: NewtonPolygon) -> list[Fraction]:
    """Segment slopes of the polygon, strictly increasing."""
    if len(polygon.vertices) < 2:
        raise ValueError("a single-vertex polygon has no slopes")
    return _segment_slopes(polygon.vertices)


def copolygon(polygon: NewtonPolygon) -> Tuple[tuple, Fraction]:
    """The dual piecewise-linear function of a Newton polygon, as its vertex
    list and its final slope.

    Each polygon segment of slope s contributes one vertex at x = -s; the
    dual's segment slopes are the polygon's vertex x-coordinates in
    decreasing order, so a V-vertex polygon dualizes to a (V-1)-vertex
    function.  The result is anchored at f(0) = 0; when the polygon's last
    vertex has height 0 (every polygon arising here is monic, so it does)
    this is exactly the lower envelope x -> min_i (y_i + x_i * x) over the
    polygon vertices (x_i, y_i), and in general it is that envelope with
    the last vertex height subtracted.

    Only the all-negative-slope case arises for the polygons built by this
    package; mixed-sign slopes would place dual vertices outside x > 0 and
    are rejected (experimental territory, see README).

    The dual is strictly concave by construction: its vertex x-coordinates
    are the polygon's negated slopes, strictly increasing, and its segment
    slopes are the polygon's distinct vertex x-coordinates, decreasing.  So
    every vertex is a genuine slope break and no check is needed.
    """
    verts = polygon.vertices
    if len(verts) < 2:
        raise ValueError("cannot dualize a polygon with fewer than two vertices")
    if verts[0][0] < 1:
        raise ValueError(
            "dual slopes are the polygon vertex x-coordinates, which must be >= 1"
        )
    segs = _segment_slopes(verts)
    if any(s >= 0 for s in segs):
        raise ValueError(
            "copolygon requires strictly negative polygon slopes; "
            f"got {[str(s) for s in segs]} (mixed-sign duals are not supported)"
        )
    v = len(verts)
    xs = [-s for s in reversed(segs)]  # strictly increasing, positive
    widths = [Fraction(verts[v - 1 - j][0]) for j in range(v)]  # slope after j-th vertex
    dual_vertices = []
    y = widths[0] * xs[0]
    dual_vertices.append((xs[0], y))
    for j in range(1, v - 1):
        y = y + widths[j] * (xs[j] - xs[j - 1])
        dual_vertices.append((xs[j], y))
    return tuple(dual_vertices), widths[-1]
