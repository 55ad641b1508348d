"""Exact Newton polygons: lower convex hulls of valuation data.

The hull is taken over points (i, v(coefficient of x^i)); segment slopes are
then typically negative, and the valuation of a root attached to a segment is
the NEGATIVE of its slope.  That sign convention is fixed throughout the
package.  Vertex lists are strictly convex: collinear interior points are
never vertices.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple, Tuple

__all__ = [
    "NewtonPolygon",
    "DegenerateHullError",
    "lower_hull",
    "slopes",
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
