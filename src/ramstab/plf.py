"""Increasing concave piecewise-linear functions through the origin.

These are the transition functions of ramification theory: f(0) = 0, all
slopes positive and strictly decreasing left to right, the last segment
extending as an infinite ray.  A "vertex" is always a genuine slope break;
collinear breakpoints are merged away so vertex counts are meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Tuple

from .valuations import format_rational

__all__ = [
    "PLFunction",
    "identity_plf",
    "make_plf",
    "evaluate",
    "compose",
    "altitude",
]

Vertex = Tuple[Fraction, Fraction]


@dataclass(frozen=True)
class PLFunction:
    """A concave, strictly increasing piecewise-linear function with f(0) = 0.

    Stored as the slope of the first segment, the ordered list of genuine
    vertices, and the slope of the final ray.  The first vertex must lie on
    the initial segment through the origin, and the derived segment slopes
    must be positive and strictly decreasing.
    """

    initial_slope: Fraction
    vertices: Tuple[Vertex, ...]
    final_slope: Fraction

    def __post_init__(self):
        object.__setattr__(self, "initial_slope", Fraction(self.initial_slope))
        object.__setattr__(self, "final_slope", Fraction(self.final_slope))
        verts = tuple((Fraction(x), Fraction(y)) for x, y in self.vertices)
        object.__setattr__(self, "vertices", verts)
        if self.initial_slope <= 0 or self.final_slope <= 0:
            raise ValueError("slopes must be positive")
        if not verts:
            if self.initial_slope != self.final_slope:
                raise ValueError("vertex-free function must have a single slope")
            return
        xs = [x for x, _ in verts]
        if any(x <= 0 for x in xs) or any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValueError("vertex x-coordinates must be positive and strictly increasing")
        if verts[0][1] != self.initial_slope * verts[0][0]:
            raise ValueError("first vertex must lie on the initial segment through the origin")
        slopes = list(self.slopes())
        if any(s <= 0 for s in slopes):
            raise ValueError("all segment slopes must be positive")
        if any(b >= a for a, b in zip(slopes, slopes[1:])):
            raise ValueError("segment slopes must be strictly decreasing (strict concavity)")

    def slopes(self) -> list[Fraction]:
        """Segment slopes left to right, including the initial and final ones."""
        if not self.vertices:
            return [self.initial_slope]
        result = [self.initial_slope]
        for (x0, y0), (x1, y1) in zip(self.vertices, self.vertices[1:]):
            result.append(Fraction(y1 - y0, x1 - x0))
        result.append(self.final_slope)
        return result

    def evaluate(self, x) -> Fraction:
        return evaluate(self, x)

    def __call__(self, x) -> Fraction:
        return evaluate(self, x)

    def to_json(self) -> dict:
        return {
            "initial_slope": format_rational(self.initial_slope),
            "vertices": [[format_rational(x), format_rational(y)] for x, y in self.vertices],
            "final_slope": format_rational(self.final_slope),
        }


def identity_plf() -> PLFunction:
    return PLFunction(Fraction(1), (), Fraction(1))


def make_plf(initial_slope, vertices: Iterable, final_slope) -> PLFunction:
    """Build a PLFunction, merging away breakpoints where the slope does not change."""
    initial_slope = Fraction(initial_slope)
    final_slope = Fraction(final_slope)
    verts = [(Fraction(x), Fraction(y)) for x, y in vertices]
    while verts:
        slopes = _break_slopes(initial_slope, verts, final_slope)
        for idx, (before, after) in enumerate(zip(slopes, slopes[1:])):
            if before == after:
                del verts[idx]
                break
        else:
            break
    return PLFunction(initial_slope, tuple(verts), final_slope)


def _break_slopes(initial_slope, verts, final_slope):
    slopes = [initial_slope]
    for (x0, y0), (x1, y1) in zip(verts, verts[1:]):
        slopes.append(Fraction(y1 - y0, x1 - x0))
    slopes.append(final_slope)
    return slopes


def _segments(f: PLFunction):
    """Yield (x_start, y_start, slope, x_end) pieces; the last has x_end None."""
    slopes = f.slopes()
    if not f.vertices:
        yield (Fraction(0), Fraction(0), slopes[0], None)
        return
    points = [(Fraction(0), Fraction(0))] + list(f.vertices)
    for (x0, y0), (x1, _y1), slope in zip(points, points[1:], slopes):
        yield (x0, y0, slope, x1)
    x_last, y_last = f.vertices[-1]
    yield (x_last, y_last, slopes[-1], None)


def evaluate(f: PLFunction, x) -> Fraction:
    """Exact value of ``f`` at ``x >= 0``."""
    x = Fraction(x)
    if x < 0:
        raise ValueError(f"piecewise-linear functions are defined on x >= 0, got {x}")
    for x0, y0, slope, x1 in _segments(f):
        if x1 is None or x <= x1:
            return y0 + slope * (x - x0)
    raise AssertionError("unreachable")


def _preimage(f: PLFunction, y) -> Fraction:
    """The unique x >= 0 with f(x) = y; f is strictly increasing onto [0, inf)."""
    if y < 0:
        raise ValueError("preimage requested below the range")
    for x0, y0, slope, x1 in _segments(f):
        y1 = None if x1 is None else y0 + slope * (x1 - x0)
        if y1 is None or y <= y1:
            return x0 + (y - y0) / slope
    raise AssertionError("unreachable")


def compose(outer: PLFunction, inner: PLFunction) -> PLFunction:
    """Exact composition outer(inner(x)), again concave increasing through 0.

    Breakpoint candidates are inner's vertices together with the preimages
    under inner of outer's vertices; collinear candidates are merged.
    """
    xs = {x for x, _ in inner.vertices}
    xs.update(_preimage(inner, ox) for ox, _ in outer.vertices)
    verts = []
    for x in sorted(xs):
        if x > 0:
            verts.append((x, evaluate(outer, evaluate(inner, x))))
    return make_plf(
        outer.initial_slope * inner.initial_slope,
        verts,
        outer.final_slope * inner.final_slope,
    )


def altitude(f: PLFunction) -> Fraction:
    """Height of the rightmost vertex."""
    if not f.vertices:
        raise ValueError("a vertex-free function has no altitude")
    return f.vertices[-1][1]
