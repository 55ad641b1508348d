"""Transition functions of the branch tower and their composition.

The level-n transition function phi_n is read off the level-n polygon in
closed form: each polygon segment of slope s contributes a vertex at

    x = -e_ke * q^n * s  +  sgn(v(a_0)) * (d - 1) * v(a_0),

with slopes 1, p^{r_{V-1}}/q, ..., p^{r_1}/q = 1/q left to right and the
identity segment through the origin fixing the heights.  Towers compose
these level by level; every claimed structural property (vertex count,
final slope, prefix agreement, altitude growth, and the identity-segment
gap that makes the composition exact) is validated at every level and a
violation aborts loudly rather than returning a silently wrong function.

Ramification breaks are reported on the scale normalized by the base
subfield (v(E) = Z).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

from .branches import PolynomialValuationProfile
from .limitdata import LimitingRamificationData, level_polygon
from .plf import PLFunction, altitude, compose
from .valuations import ensure_fraction, format_rational

__all__ = [
    "TransitionFunction",
    "TowerFunction",
    "TowerInvariantError",
    "build_phi",
    "build_tower",
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
    and the level's own transition function ``phi``."""

    level: int
    plf: PLFunction
    breaks: Tuple[Fraction, ...]
    altitude: Fraction
    phi: TransitionFunction

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
    v_base = ensure_fraction(v_base)
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
    plf = PLFunction(Fraction(1), tuple(vertices), Fraction(1, q))
    if len(plf.vertices) != data.V - 1:
        raise TowerInvariantError(
            "transition-vertex-count",
            f"phi_{n} has {len(plf.vertices)} vertices, expected {data.V - 1}",
        )
    return TransitionFunction(level=n, q=q, plf=plf)


def _validate_tower_level(
    tower: List[TowerFunction], candidate: PLFunction, phi: TransitionFunction, data
) -> TowerFunction:
    n = phi.level
    q = phi.q
    expected_vertices = (data.V - 1) * n
    if len(candidate.vertices) != expected_vertices:
        raise TowerInvariantError(
            "vertex-count",
            f"level {n} has {len(candidate.vertices)} vertices, expected {expected_vertices}",
        )
    if candidate.final_slope != Fraction(1, q**n):
        raise TowerInvariantError(
            "final-slope",
            f"level {n} final slope {candidate.final_slope}, expected 1/{q**n}",
        )
    if candidate.vertices[-1][0] != phi.last_vertex_x():
        raise TowerInvariantError(
            "last-vertex",
            f"level {n} last vertex {candidate.vertices[-1][0]} is not the last "
            f"vertex {phi.last_vertex_x()} of its transition function",
        )
    if tower:
        prev = tower[-1]
        k = len(prev.plf.vertices)
        if candidate.vertices[:k] != prev.plf.vertices or (
            candidate.initial_slope != prev.plf.initial_slope
        ):
            raise TowerInvariantError(
                "prefix",
                f"level {n} does not coincide with level {n - 1} left of its last vertex",
            )
        if altitude(candidate) <= prev.altitude:
            raise TowerInvariantError(
                "altitude-growth",
                f"altitude {altitude(candidate)} at level {n} does not exceed {prev.altitude}",
            )
    return TowerFunction(
        level=n,
        plf=candidate,
        breaks=tuple(x for x, _ in candidate.vertices),
        altitude=altitude(candidate),
        phi=phi,
    )


def build_tower(
    profile: PolynomialValuationProfile,
    data: LimitingRamificationData,
    d: int,
    v_base,
    depth: int,
) -> List[TowerFunction]:
    """Compose transition functions up to ``depth``, validating every level.

    Callers are expected to hold a certificate for the working base; the
    builder still re-checks the identity-segment gap and the structural
    properties, and aborts with the violated property on any failure.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    tower: List[TowerFunction] = []
    for n in range(1, depth + 1):
        phi = build_phi(profile, data, n, d, v_base)
        if tower:
            prev = tower[-1]
            if phi.first_vertex_x() <= prev.phi.last_vertex_x():
                raise TowerInvariantError(
                    "composition-gap",
                    f"first vertex {phi.first_vertex_x()} of phi_{n} does not lie "
                    f"strictly beyond the last vertex {prev.phi.last_vertex_x()} of phi_{n - 1}",
                )
            current = compose(prev.plf, phi.plf)
        else:
            current = phi.plf
        tower.append(_validate_tower_level(tower, current, phi, data))
        log.debug("tower level %d: %d breaks, altitude %s", n, len(tower[-1].breaks), tower[-1].altitude)
    return tower


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
