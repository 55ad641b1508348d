"""Exact Newton polygons: lower convex hulls of valuation data.

The hull is taken over points (i, v(coefficient of x^i)); segment slopes are
then typically negative, and the valuation of a root attached to a segment is
the NEGATIVE of its slope.  That sign convention is fixed throughout the
package.  A polygon is its vertex tuple, and vertex tuples are strictly
convex: collinear interior points are never vertices.
"""

from __future__ import annotations

from typing import Iterable

__all__ = ["lower_hull"]


def lower_hull(points: Iterable) -> tuple:
    """Lower convex hull of (x, y) points with integer x and rational y, as
    its vertex tuple of (x, y) pairs.

    x-coordinates are strictly increasing and segment slopes strictly
    increasing: a point lying on a hull segment but not at a genuine slope
    break is excluded.
    """
    points = sorted(points)
    if len({x for x, _ in points}) != len(points):
        raise ValueError("x-coordinates must be distinct")
    if len(points) < 2:
        raise ValueError(f"need at least two points to build a hull, got {len(points)}")
    hull = []
    for pt in points:
        while len(hull) >= 2:
            (ax, ay), (bx, by) = hull[-2], hull[-1]
            # pop b unless a -> b -> pt turns strictly downward-convex
            if (bx - ax) * (pt[1] - ay) - (by - ay) * (pt[0] - ax) <= 0:
                hull.pop()
            else:
                break
        hull.append(pt)
    return tuple(hull)
