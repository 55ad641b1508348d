"""Transition functions of the branch tower and their composition.

The level-n transition function phi_n is read off the level-n polygon in
closed form: each polygon segment of slope s contributes a vertex at

    x = -e_ke * q^n * s  +  sgn(v(a_0)) * (d - 1) * v(a_0),

with slopes 1, p^{r_{V-1}}/q, ..., p^{r_1}/q = 1/q left to right and the
identity segment through the origin fixing the heights.  The segment of
the level-n polygon from (p^{r_k}, m_k + e_k*C/q^n) to the next vertex
has q^n * s = (q^n * dM + dE * C) / dP, so every x of phi_n is affine in
q^n, and so is every y, which follows from the x and the fixed slopes;
``level_model`` computes those coefficients once.

The tower is computed on integers.  ``LevelModel`` writes every
coefficient over one common denominator D, so each coordinate of phi_n is
an integer a q^n + b over D.  phi_n is the identity up to its first
vertex, and that vertex lies beyond every earlier break, so the tower
function Phi_n = Phi_{n-1} o phi_n is Phi_{n-1} followed by the vertices
of phi_n mapped through the final ray of Phi_{n-1}, of slope 1/q^(n-1)
(the composition rule for Herbrand functions, Serre, Local Fields, IV 3).
With x over D and y over D*q^(depth-1), that append is integer
multiply-adds.  The tower is therefore one record of numerators, level
n is its first (V-1)*n vertices, and a number is printed from its
numerator and denominator by one gcd and plotted as their quotient.

Each rule of a transition function is checked in one place.  A
``LevelModel`` takes the slopes of phi_n, not its heights, and rejects
them once per model unless they strictly decrease from 1 to above 1/q.
Three properties are checked at every level, each raising a named
``TowerInvariantError``: the x-coordinates of phi_n strictly increase
(``level-convexity``: the level-n polygon is strictly convex), the first
of them is positive (``vertex-positivity``), and it lies strictly beyond
the last vertex of phi_{n-1} (``composition-gap``: the identity-segment
gap that makes the closed form exact).  The rest of the tower follows:
its x are positive and increasing; its first vertex lies on the identity;
and its slopes 1, then s_j/q^(n-1) within level n, 1/q^(n-1) into the
first vertex of level n and 1/q^depth past the last, are positive and
strictly decreasing.  A violation aborts loudly rather than returning a
silently wrong function.

Ramification breaks are reported on the scale normalized by the base
subfield (v(E) = Z).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, NamedTuple, Optional, Tuple

from .branches import PolynomialValuationProfile
from .limitdata import LimitingRamificationData
from .valuations import Prefix, TowerInvariantError, digit_limit, format_ratio, logger, power_of_ten

__all__ = [
    "LevelModel",
    "Tower",
    "TowerInvariantError",
    "level_model",
    "build_tower",
    "printable_depth",
    "depth_past_limit",
    "tower_json",
    "breaks_and_subfields",
]

# LOG2_10_NUM / LOG2_10_DEN = 3.321928094 < log2(10)
LOG2_10_NUM, LOG2_10_DEN = 3321928094, 10**9


class LevelModel:
    """phi_n at every level n at once, on integers: its j-th vertex is
    (AX[j] * q^n + BX[j], AY[j] * q^n + BY[j]) / D.

    Built from the x rows (ax, bx) of the vertices, vertex j at
    x = ax * q^n + bx, and the slopes of phi_n into vertices 1, 2, ...:
    the first vertex lies on the identity, and each later y follows from
    the y before it and its slope.  Those slopes must strictly decrease
    from 1 to above phi_n's final slope 1/q, one per vertex after the
    first, or the model is not a transition function and is rejected.
    """

    __slots__ = ("q", "shift", "D", "AX", "BX", "AY", "BY")

    def __init__(
        self, q: int, shift: Fraction, xs: List[Tuple[Fraction, Fraction]], slopes: List[Fraction]
    ):
        if len(slopes) != len(xs) - 1:
            raise ValueError(
                "phi_n takes one slope per vertex after its first: "
                f"{len(xs)} vertices, {len(slopes)} slopes"
            )
        if any(b >= a for a, b in zip((1, *slopes), (*slopes, Fraction(1, q)))):
            raise ValueError("segment slopes must be strictly decreasing (strict concavity)")
        ys = [xs[0]]  # on the identity segment
        for (ax0, bx0), (ax, bx), slope in zip(xs, xs[1:], slopes):
            ay0, by0 = ys[-1]
            ys.append((ay0 + slope * (ax - ax0), by0 + slope * (bx - bx0)))
        columns = (*zip(*xs), *zip(*ys))  # ints and Fractions: both have a denominator
        self.q, self.shift = q, shift
        self.D = D = math.lcm(*(c.denominator for column in columns for c in column))
        self.AX, self.BX, self.AY, self.BY = (
            tuple(c.numerator * (D // c.denominator) for c in column) for column in columns
        )

    def numerators(self, n: int) -> Tuple[List[int], List[int]]:
        """The x and the y numerators over D of phi_n's vertices, once the
        two properties that do not hold by construction are checked."""
        if n < 1:
            raise ValueError("transition functions exist for levels n >= 1")
        q_n = self.q**n
        xs = [a * q_n + b for a, b in zip(self.AX, self.BX)]
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise TowerInvariantError(
                "level-convexity",
                f"level {n} is not in the stable regime: "
                "segment slopes must be strictly increasing (strict convexity)",
            )
        if xs[0] <= 0:
            raise TowerInvariantError(
                "vertex-positivity",
                f"level {n} vertex positions are not positive (shift {self.shift}); "
                "outside the supported regime",
            )
        return xs, [a * q_n + b for a, b in zip(self.AY, self.BY)]


class Tower(NamedTuple):
    """The tower to its depth, on integer numerators.

    ``xs`` and ``ys`` are the vertices of the deepest function, x over
    ``D`` and y over D*q^(depth-1); its initial slope is 1 and its final
    slope 1/q^depth.  Level n is its first ``size``*n vertices, continued
    by the ray of slope 1/q^n that leaves the last of them; those are the
    breaks of level n.  ``phi_ys`` holds the y over D of each phi_n in
    turn, ``size`` per level; phi_n has the x of level n's last ``size``
    vertices, initial slope 1 and final slope 1/q.
    """

    q: int
    D: int
    size: int  # V - 1, the vertices of one phi_n
    xs: Tuple[int, ...]
    ys: Tuple[int, ...]
    phi_ys: Tuple[int, ...]

    @property
    def depth(self) -> int:
        return len(self.xs) // self.size


def level_model(
    profile: PolynomialValuationProfile, data: LimitingRamificationData, d: int, v_base
) -> LevelModel:
    """The closed form of the module docstring with q^n left free.

    Requires p not dividing d.  Each polygon segment, shallowest first,
    gives the x row of one vertex; the slope into each later vertex is
    p^{r_{k+1}}/q for its segment k.
    """
    if abs(d) % profile.p == 0:
        raise ValueError(f"d = {d} is divisible by p = {profile.p}")
    if data.C is None:
        raise ValueError("limiting data has no error coefficient C")
    p, e_ke = profile.p, profile.e_ke
    shift = (d - 1) * abs(v_base)
    xs = []
    for k in reversed(range(data.V - 1)):
        width = p ** data.R[k + 1] - p ** data.R[k]
        ax = Fraction(-e_ke * (data.M[k + 1] - data.M[k]), width)
        bx = Fraction(-e_ke * (data.E[k + 1] - data.E[k]) * data.C, width) + shift
        xs.append((ax, bx))
    slopes = [Fraction(p**r_k, profile.q) for r_k in reversed(data.R[1:-1])]
    return LevelModel(profile.q, shift, xs, slopes)


def build_tower(model: LevelModel, depth: int) -> Tower:
    """Compose transition functions up to ``depth``, checking every level.

    Each vertex (x, y) of phi_n is appended as (x, alt + (y - x_last) /
    q^(n-1)), where (x_last, alt) is the last vertex so far.  On the
    numerators, x over D and y over D*q^(depth-1), that is
    alt + (y - x_last) * q^(depth-n).

    Callers are expected to hold a certificate for the working base; the
    builder still checks each level and the identity-segment gap, and
    aborts with the violated property on any failure.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    q, D = model.q, model.D
    Q = q ** (depth - 1)
    xs: List[int] = []  # over D
    ys: List[int] = []  # over D*Q
    phi_ys: List[int] = []  # each level's own y, over D
    x_last = alt = 0
    scale = Q  # q^(depth - n) at level n
    log = logger(__name__, "DEBUG")
    for n in range(1, depth + 1):
        level_xs, level_ys = model.numerators(n)
        if level_xs[0] <= x_last:
            raise TowerInvariantError(
                "composition-gap",
                f"first vertex {format_ratio(level_xs[0], D)} of phi_{n} does not lie "
                f"strictly beyond the last vertex {format_ratio(x_last, D)} of phi_{n - 1}",
            )
        xs.extend(level_xs)
        ys.extend(alt + (y - x_last) * scale for y in level_ys)
        phi_ys.extend(level_ys)
        x_last, alt = xs[-1], ys[-1]
        scale //= q
        if log:
            log.debug("tower level %d: %d breaks, altitude %s", n, len(xs), format_ratio(alt, D * Q))
    return Tower(q, D, len(model.AX), tuple(xs), tuple(ys), tuple(phi_ys))


def tower_json(tower: Tower, breaks: List[str]) -> dict:
    """The ``phi`` and ``Phi`` entries that ``hh`` prints for every level.

    ``breaks`` is the deepest level's break list as ``breaks_and_subfields``
    formats it, so each number is formatted once.  Level n of ``Phi`` is
    the first ``size``*n vertices of the deepest level, so its breaks and
    vertices are ``Prefix`` views of ``breaks`` and of the deepest level's
    formatted vertex list (a writer prints each list once and every level
    as a slice of that text), its altitude is an entry of that list, and
    its final slope is 1/q^n.  The x of every vertex of phi_n is the break
    that ``build_tower`` appended unchanged.
    """
    q, D, size = tower.q, tower.D, tower.size
    E = D * q ** (tower.depth - 1)
    vertices = [[x, format_ratio(y, E)] for x, y in zip(breaks, tower.ys)]
    phi_ys = [format_ratio(y, D) for y in tower.phi_ys]
    phi_final = f"1/{q}"  # 1/q^n is in lowest terms
    phis, levels = [], []
    for n in range(1, tower.depth + 1):
        start, end = size * (n - 1), size * n
        phis.append(
            {
                "level": n,
                "initial_slope": "1",
                "vertices": [[x, y] for x, y in zip(breaks[start:end], phi_ys[start:end])],
                "final_slope": phi_final,
            }
        )
        levels.append(
            {
                "level": n,
                "breaks": Prefix(breaks, end),
                "altitude": vertices[end - 1][1],
                "initial_slope": "1",
                "vertices": Prefix(vertices, end),
                "final_slope": f"1/{q**n}",
            }
        )
    return {"phi": phis, "Phi": levels}


def _numerator_bound(model: LevelModel) -> int:
    """T: at least D and D*|a| + D*|b| for every coordinate a q^n + b of
    phi_n, with D the model's common denominator."""
    pairs = zip(model.AX + model.AY, model.BX + model.BY)
    return max(model.D, *(abs(a) + abs(b) for a, b in pairs))


def printable_depth(model: LevelModel) -> Optional[int]:
    """The deepest tower whose numbers all print within the interpreter's
    limit on the digits of an int; None when there is no such limit.

    Every coordinate c of phi_n is affine in q^n, c = a q^n + b, an integer
    of size at most T q^k over D at level k (see ``_numerator_bound``).  An
    altitude, a sum of k such differences scaled by 1/q^i, is an integer of
    size at most 2 k T q^k over D q^(k-1); a final slope is 1/q^k.  So
    every number printed for levels up to n has numerator and denominator
    below 2 n T q^n, and the depth is printable while that bound has at
    most the allowed number of digits.
    """
    digits = digit_limit()
    if not digits:
        return None
    q = model.q
    # the largest n with n q^n < 10^digits / (2T), found bit by bit
    bound = -(-power_of_ten(digits) // (2 * _numerator_bound(model)))
    powers = [q]  # q^(2^k)
    while powers[-1] < bound:
        powers.append(powers[-1] ** 2)
    n, q_n = 0, 1
    for k in reversed(range(len(powers))):
        if (n + (1 << k)) * q_n * powers[k] < bound:
            n += 1 << k
            q_n *= powers[k]
    return n


def depth_past_limit(model: LevelModel, depth: int) -> Optional[int]:
    """``printable_depth(model)`` when ``depth`` is past it, else None.

    By the bound of ``printable_depth``, the tower prints to ``depth`` when
    2 T depth q^depth < 10^digits.  Bit lengths settle that without a
    power of q or of 10: it holds when bitlen(2 T depth) + depth bitlen(q)
    is at most digits * LOG2_10_NUM // LOG2_10_DEN, below digits * log2(10).
    Only a depth the screen does not accept runs the exact
    ``printable_depth``, which also gives the limit for the error.
    """
    digits = digit_limit()
    if not digits:
        return None
    bits = (2 * _numerator_bound(model) * depth).bit_length() + depth * model.q.bit_length()
    if bits <= digits * LOG2_10_NUM // LOG2_10_DEN:
        return None
    limit = printable_depth(model)
    return limit if depth > limit else None


def breaks_and_subfields(tower: Tower, reindex: int = 0) -> dict:
    """Break sequence of the deepest level and the elementary-subfield table.

    The level-k subfield of the tower is the elementary subfield with index
    (V-1)*(k - reindex) + 1 in the break numbering of the working base;
    nonpositive indices denote the working ground field itself.  Break
    values beyond the computed depth are reported as None.
    """
    breaks = [format_ratio(x, tower.D) for x in tower.xs]
    rows = []
    for k in range(reindex + tower.depth + 1):
        idx = tower.size * (k - reindex) + 1
        if idx <= 0:
            rows.append(
                {"level": k, "elementary_index": idx, "field": "ground", "break": None}
            )
            continue
        value = breaks[idx - 1] if idx <= len(breaks) else None
        rows.append(
            {
                "level": k,
                "elementary_index": idx,
                "field": f"elementary[{idx}]",
                "break": value,
            }
        )
    return {
        "breaks": breaks,
        "subfields": rows,
        "break_scale": "base-subfield-normalized (v maps the base subfield onto the integers)",
    }
