"""Transition functions of the branch tower and their composition.

The level-n transition function phi_n is read off the level-n polygon in
closed form: each polygon segment of slope s contributes a vertex at

    x = -e_ke * q^n * s  +  sgn(v(a_0)) * (d - 1) * v(a_0),

with slopes 1, p^{r_{V-1}}/q, ..., p^{r_1}/q = 1/q left to right and the
identity segment through the origin fixing the heights.  phi_n is the
identity up to its first vertex, and that vertex lies beyond every earlier
break, so the tower function Phi_n = Phi_{n-1} o phi_n is Phi_{n-1}
followed by the vertices of phi_n mapped through the final ray of
Phi_{n-1} (the composition rule for Herbrand functions, Serre, Local
Fields, IV 3).  The tower is therefore one vertex tuple, and level n is its
first (V-1)*n vertices.  Every claimed structural property (vertex count,
final slope, last vertex, altitude growth, and the identity-segment gap
that makes the closed form exact) is checked at every level, the deepest
function is validated in full once, and a violation aborts loudly rather
than returning a silently wrong function.

Ramification breaks are reported on the scale normalized by the base
subfield (v(E) = Z).
"""

from __future__ import annotations

import logging
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .branches import PolynomialValuationProfile
from .limitdata import LimitingRamificationData, level_polygon
from .plf import PLFunction, Vertex
from .valuations import format_rational

__all__ = [
    "TransitionFunction",
    "TowerFunction",
    "TowerInvariantError",
    "build_phi",
    "build_tower",
    "printable_depth",
    "breaks_and_subfields",
]

log = logging.getLogger(__name__)


class TowerInvariantError(RuntimeError):
    """A structural property of the tower failed; names the violated property."""

    def __init__(self, prop: str, detail: str):
        self.prop = prop
        super().__init__(f"tower invariant '{prop}' violated: {detail}")


@dataclass(frozen=True)
class TransitionFunction:
    """The one-level transition function: identity up to its first vertex,
    then one slope per polygon segment, ending at slope 1/q."""

    level: int
    q: int
    plf: PLFunction

    def __post_init__(self):
        slopes = self.plf.slopes()
        if slopes[0] != 1:
            raise ValueError(f"first slope must be 1, got {slopes[0]}")
        if slopes[-1] != Fraction(1, self.q):
            raise ValueError(f"last slope must be 1/{self.q}, got {slopes[-1]}")

    def first_vertex_x(self) -> Fraction:
        return self.plf.vertices[0][0]

    def last_vertex_x(self) -> Fraction:
        return self.plf.vertices[-1][0]

    def to_json(self) -> dict:
        return {"level": self.level, **self.plf.to_json()}


@dataclass(frozen=True)
class TowerFunction:
    """Transition function of the whole tower up to a level, with its breaks
    and the level's own transition function ``phi``.

    Every level of one tower shares the deepest level's function ``top``:
    this level is its first ``size`` vertices, continued by the ray of
    slope 1/q^level that leaves the last of them.
    """

    level: int
    phi: TransitionFunction
    top: PLFunction
    size: int

    @property
    def plf(self) -> PLFunction:
        return self.top.prefix(self.size)

    @property
    def breaks(self) -> Tuple[Fraction, ...]:
        return tuple(x for x, _ in self.top.vertices[: self.size])

    @property
    def altitude(self) -> Fraction:
        return self.top.vertices[self.size - 1][1]

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "breaks": [format_rational(b) for b in self.breaks],
            "altitude": format_rational(self.altitude),
            **self.plf.to_json(),
        }


def build_phi(
    profile: PolynomialValuationProfile,
    data: LimitingRamificationData,
    n: int,
    d: int,
    v_base,
) -> TransitionFunction:
    """Transition function for one level in the stable regime.

    Requires p not dividing d and a level whose polygon has the stable
    vertex structure; each polygon slope maps to one vertex by the closed
    form above, shallowest slope leftmost.
    """
    if abs(d) % profile.p == 0:
        raise ValueError(f"d = {d} is divisible by p = {profile.p}")
    if n < 1:
        raise ValueError("transition functions exist for levels n >= 1")
    vertices = _phi_vertices(profile, data, n, d, v_base)
    plf = PLFunction(Fraction(1), tuple(vertices), Fraction(1, profile.q))
    if len(plf.vertices) != data.V - 1:
        raise TowerInvariantError(
            "transition-vertex-count",
            f"phi_{n} has {len(plf.vertices)} vertices, expected {data.V - 1}",
        )
    return TransitionFunction(level=n, q=profile.q, plf=plf)


def _phi_vertices(
    profile: PolynomialValuationProfile,
    data: LimitingRamificationData,
    n: int,
    d: int,
    v_base,
) -> List[Vertex]:
    """The vertices of phi_n by the closed form of the module docstring."""
    q = profile.q
    polygon = level_polygon(profile, data, n)
    seg_slopes = polygon.slopes()  # strictly increasing, steepest first
    shift = (d - 1) * abs(v_base)
    xs = [-profile.e_ke * q**n * s + shift for s in reversed(seg_slopes)]
    if any(x <= 0 for x in xs):
        raise ValueError(
            f"level {n} vertex positions are not positive (shift {shift}); "
            "outside the supported regime"
        )
    # slope after the j-th vertex (ascending x) is p^{r_{V-j}}/q
    after = [Fraction(profile.p ** data.R[data.V - 1 - j], q) for j in range(1, data.V)]
    vertices = []
    y = xs[0]
    vertices.append((xs[0], y))
    for j in range(1, len(xs)):
        y = y + after[j - 1] * (xs[j] - xs[j - 1])
        vertices.append((xs[j], y))
    return vertices


def build_tower(
    profile: PolynomialValuationProfile,
    data: LimitingRamificationData,
    d: int,
    v_base,
    depth: int,
) -> List[TowerFunction]:
    """Compose transition functions up to ``depth``, validating every level.

    Each vertex (x, y) of phi_n is appended as (x, alt + (y - x_last) *
    final), where (x_last, alt) is the last vertex so far and ``final`` the
    final slope 1/q^(n-1).  The deepest function is validated once, in
    full; that covers every level, since the slopes of level n are a prefix
    of its slopes and level n's final slope 1/q^n is its next slope.

    Callers are expected to hold a certificate for the working base; the
    builder still re-checks the identity-segment gap and the structural
    properties, and aborts with the violated property on any failure.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    q = profile.q
    phis: List[TransitionFunction] = []
    vertices: List[Vertex] = []
    x_last, alt, final = Fraction(0), Fraction(0), Fraction(1)
    for n in range(1, depth + 1):
        phi = build_phi(profile, data, n, d, v_base)
        if phi.first_vertex_x() <= x_last:
            raise TowerInvariantError(
                "composition-gap",
                f"first vertex {phi.first_vertex_x()} of phi_{n} does not lie "
                f"strictly beyond the last vertex {x_last} of phi_{n - 1}",
            )
        vertices.extend((x, alt + (y - x_last) * final) for x, y in phi.plf.vertices)
        final *= phi.plf.final_slope
        _check_level(n, q, data, vertices, final, phi, alt)
        x_last, alt = vertices[-1]
        phis.append(phi)
        log.debug("tower level %d: %d breaks, altitude %s", n, len(vertices), alt)
    top = PLFunction(Fraction(1), tuple(vertices), final)
    return [
        TowerFunction(level=n, phi=phi, top=top, size=(data.V - 1) * n)
        for n, phi in enumerate(phis, start=1)
    ]


def _check_level(n, q, data, vertices, final, phi, prev_altitude) -> None:
    """The O(1) structural checks of level n, once its vertices are appended."""
    expected_vertices = (data.V - 1) * n
    if len(vertices) != expected_vertices:
        raise TowerInvariantError(
            "vertex-count",
            f"level {n} has {len(vertices)} vertices, expected {expected_vertices}",
        )
    if final != Fraction(1, q**n):
        raise TowerInvariantError(
            "final-slope", f"level {n} final slope {final}, expected 1/{q**n}"
        )
    x_last, altitude = vertices[-1]
    if x_last != phi.last_vertex_x():
        raise TowerInvariantError(
            "last-vertex",
            f"level {n} last vertex {x_last} is not the last "
            f"vertex {phi.last_vertex_x()} of its transition function",
        )
    if altitude <= prev_altitude:
        raise TowerInvariantError(
            "altitude-growth",
            f"altitude {altitude} at level {n} does not exceed {prev_altitude}",
        )


def printable_depth(
    profile: PolynomialValuationProfile,
    data: LimitingRamificationData,
    d: int,
    v_base,
) -> Optional[int]:
    """The deepest tower whose numbers all print within the interpreter's
    limit on the digits of an int; None when there is no such limit.

    Every coordinate c of phi_n is affine in q^n, c = a q^n + b, with a and
    b read off levels 1 and 2.  Let D be the common denominator of all a
    and b, and T bound D*|a| + D*|b| and D.  A break or phi coordinate at
    level k is then an integer of size at most T q^k over D; an altitude,
    a sum of k such differences scaled by 1/q^i, is an integer of size at
    most 2 k T q^k over D q^(k-1); a final slope is 1/q^k.  So every number
    printed for levels up to n has numerator and denominator below
    2 n T q^n, and the depth is printable while that bound has at most the
    allowed number of digits.
    """
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not digits:
        return None
    q = profile.q
    level1, level2 = (
        [c for vertex in _phi_vertices(profile, data, n, d, v_base) for c in vertex]
        for n in (1, 2)
    )
    a = [(c2 - c1) / (q * q - q) for c1, c2 in zip(level1, level2)]
    b = [c1 - ai * q for c1, ai in zip(level1, a)]
    D = math.lcm(*(c.denominator for c in a + b))
    T = max(D, *(abs(D * ai) + abs(D * bi) for ai, bi in zip(a, b)))
    # the largest n with n q^n < 10^digits / (2T), found bit by bit
    bound = -(-(10**digits) // (2 * T))
    powers = [q]  # q^(2^k)
    while powers[-1] < bound:
        powers.append(powers[-1] ** 2)
    n, q_n = 0, 1
    for k in reversed(range(len(powers))):
        if (n + (1 << k)) * q_n * powers[k] < bound:
            n += 1 << k
            q_n *= powers[k]
    return n


def breaks_and_subfields(
    tower: List[TowerFunction], data: LimitingRamificationData, reindex: int = 0
) -> dict:
    """Break sequence of the deepest level and the elementary-subfield table.

    The level-k subfield of the tower is the elementary subfield with index
    (V-1)*(k - reindex) + 1 in the break numbering of the working base;
    nonpositive indices denote the working ground field itself.  Break
    values beyond the computed depth are reported as None.
    """
    if not tower:
        raise ValueError("empty tower")
    deepest = tower[-1]
    breaks = deepest.breaks
    rows = []
    for k in range(reindex + deepest.level + 1):
        idx = (data.V - 1) * (k - reindex) + 1
        if idx <= 0:
            rows.append(
                {"level": k, "elementary_index": idx, "field": "ground", "break": None}
            )
            continue
        value = format_rational(breaks[idx - 1]) if idx <= len(breaks) else None
        rows.append(
            {
                "level": k,
                "elementary_index": idx,
                "field": f"elementary[{idx}]",
                "break": value,
            }
        )
    return {
        "breaks": [format_rational(b) for b in breaks],
        "subfields": rows,
        "break_scale": "base-subfield-normalized (v maps the base subfield onto the integers)",
    }
