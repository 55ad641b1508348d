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

The tower is computed on integers, and so is its model: ``level_model``
writes every coefficient over one common denominator D, so each
coordinate of phi_n is an integer a q^n + b over D.  phi_n is the identity up to its first
vertex, and that vertex lies beyond every earlier break, so the tower
function Phi_n = Phi_{n-1} o phi_n is Phi_{n-1} followed by the vertices
of phi_n mapped through the final ray of Phi_{n-1}, of slope 1/q^(n-1)
(the composition rule for Herbrand functions, Serre, Local Fields, IV 3).
With x over D and y over D*q^(depth-1), that append is integer
multiply-adds.  The tower is therefore one record of numerators, level
n is its first (V-1)*n vertices, and a number is printed from its
numerator and denominator by one gcd and plotted as their quotient
(``cli`` prints each level of ``hh`` as a cut of the deepest level's text).
A depth past ``printable_depth``, where those numbers may not print, is
an ``InputError`` on ``depth`` before anything is built.

Each rule of a transition function is checked in one place.  A
``LevelModel`` takes the slopes of phi_n with its rows, and rejects them
once per model unless they strictly decrease from 1 to above 1/q.
Three properties must hold at every level, each named by a
``TowerInvariantError``: the x-coordinates of phi_n strictly increase
(``level-convexity``: the level-n polygon is strictly convex), the first
of them is positive (``vertex-positivity``), and it lies strictly beyond
the last vertex of phi_{n-1} (``composition-gap``: the identity-segment
gap that makes the closed form exact).  Together they say that the x of
the whole tower strictly increase from 0: level n's convexity is its own
pairs of x, its gap the pair across from level n-1, and its positivity
the gap from 0 at level 1, implied by the gaps deeper down.  Each pair is
affine in q^n, so ``first_failure`` names the first failing level and, in
the order above, property of the whole tower in closed form.  The rest
follows: the first vertex lies on the identity, and the slopes 1, then
s_j/q^(n-1) within level n, 1/q^(n-1) into the first vertex of level n
and 1/q^depth past the last, are positive and strictly decreasing.  A
violation aborts loudly rather than returning a silently wrong function.

Ramification breaks are reported on the scale normalized by the base
subfield (v(E) = Z).
"""

from __future__ import annotations

import math
from itertools import accumulate, repeat
from operator import mul, sub
from typing import NamedTuple, Optional, Sequence, Tuple

from .branches import PolynomialValuationProfile
from .limitdata import LimitingRamificationData
from .valuations import (
    InputError, TowerInvariantError, digit_limit, exponent_past_limit, format_ratio, logger,
    power_prints,
)

__all__ = [
    "LevelModel", "Tower", "TowerInvariantError", "level_model", "build_tower",
    "first_failure", "printable_depth",
]


class LevelModel:
    """phi_n at every level n at once, on integers: its j-th vertex is
    (AX[j] * q^n + BX[j], AY[j] * q^n + BY[j]) / D; ``shift`` is (d - 1)
    |v(a_0)| = a/b as (a, b) in lowest terms.

    ``slopes``, pairs (a, b) with b > 0, are those of phi_n into vertices
    1, 2, ..., from which the y rows follow, the first vertex on the
    identity.  They must strictly decrease from 1 to above phi_n's final
    slope 1/q, one per vertex after the first, or the model is not a
    transition function and is rejected.
    """

    __slots__ = ("q", "shift", "D", "AX", "BX", "AY", "BY")

    def __init__(
        self, q: int, shift: Tuple[int, int], slopes: Sequence[Tuple[int, int]], D: int,
        AX: Tuple[int, ...], BX: Tuple[int, ...], AY: Tuple[int, ...], BY: Tuple[int, ...],
    ):
        if len(slopes) != len(AX) - 1:
            raise ValueError(
                "phi_n takes one slope per vertex after its first: "
                f"{len(AX)} vertices, {len(slopes)} slopes"
            )
        chain = ((1, 1), *slopes, (1, q))
        if any(a1 * b0 >= a0 * b1 for (a0, b0), (a1, b1) in zip(chain, chain[1:])):
            raise ValueError("segment slopes must be strictly decreasing (strict concavity)")
        self.q, self.shift, self.D = q, shift, D
        self.AX, self.BX, self.AY, self.BY = AX, BX, AY, BY


class Tower(NamedTuple):
    """The tower to its depth, on integer numerators.

    ``xs`` and ``ys`` are the vertices of the deepest function, x over
    ``D`` and y over D*q^(depth-1); its initial slope is 1 and its final
    slope 1/q^depth.  Level n is its first ``size``*n vertices, continued
    by the ray of slope 1/q^n that leaves the last of them; those are the
    breaks of level n.  ``phi_ys`` holds the y over D of each phi_n in
    turn, ``size`` per level; phi_n has the x of level n's last ``size``
    vertices, initial slope 1 and final slope 1/q.  A tower built without
    heights has empty ``ys`` and ``phi_ys``.
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
    profile: PolynomialValuationProfile, data: LimitingRamificationData, d: int, v_base,
    C: Optional[Tuple[int, int]] = None,
) -> LevelModel:
    """The closed form of the module docstring with q^n left free.

    ``C``, the working base's error coefficient, is a pair (a, b) with b >
    0 (``data.C`` without one); p must not divide d.  Segment k, of width
    w, gives the x row of one vertex, shallowest first, and the slope
    p^{r_{k+1}}/q into each later one.  The rows are written over D0 = q W
    b s, for W the lcm of the widths and s the shift's denominator, and
    reduced by their gcd with D0: D is the lcm of their reduced denominators.
    """
    p, q, e_ke = profile.p, profile.q, profile.e_ke
    if abs(d) % p == 0:
        raise ValueError(f"d = {d} is divisible by p = {p}")
    if C is None:
        if data.C is None:
            raise ValueError("limiting data has no error coefficient C")
        C = data.C.numerator, data.C.denominator
    (c_num, c_den), s_num, s_den = C, (d - 1) * abs(v_base.numerator), v_base.denominator
    g = math.gcd(s_num, s_den)
    s_num, s_den = s_num // g, s_den // g
    powers, M, E = [p**r for r in data.R], data.M, data.E
    widths = [b - a for a, b in zip(powers, powers[1:])]
    W = math.lcm(*widths)
    D0, shift = q * W * c_den * s_den, s_num * q * W * c_den  # both over D0
    AX, BX = [], []
    for k in reversed(range(data.V - 1)):  # shallowest segment first
        u = q * (W // widths[k]) * s_den * e_ke
        AX.append((M[k] - M[k + 1]) * u * c_den)
        BX.append((E[k] - E[k + 1]) * u * c_num + shift)
    # each y after the first, on the identity, steps by its slope P/q times
    # the x step, which carries the factor q
    tops = powers[-2:0:-1]
    AY, BY = (
        [*accumulate([xs[0], *(P * ((x1 - x0) // q) for P, x0, x1 in zip(tops, xs, xs[1:]))])]
        for xs in (AX, BX)
    )
    g = math.gcd(D0, *AX, *BX, *AY, *BY)
    rows = (tuple(c // g for c in row) for row in (AX, BX, AY, BY))
    return LevelModel(q, (s_num, s_den), [(P, q) for P in tops], D0 // g, *rows)


def first_failure(model: LevelModel) -> Optional[Tuple[int, str]]:
    """The first level at which the tower fails a property of the module
    docstring, and that property, or None.  Each property is a form a q^n + b
    that must stay positive (a vertex gap, the first x, which past level 1
    fails only with the gap, and the gap from level n-1); one positive at
    level 1 stays positive if a >= 0, and else fails once (-a) q^n >= b.
    A tie at the least level names the first property in that order."""
    q, AX, BX = model.q, model.AX, model.BX
    forms = [  # (a, b, first level - 1, property), in the order ties are named
        *((a1 - a0, b1 - b0, 0, "level-convexity") for a0, a1, b0, b1 in zip(AX, AX[1:], BX, BX[1:])),
        (AX[0], BX[0], 0, "vertex-positivity"),
        (q * AX[0] - AX[-1], BX[0] - BX[-1], 1, "composition-gap"),  # in q^(n-1)
    ]
    found = []
    for order, (a, b, offset, prop) in enumerate(forms):
        if a < 0 or a * q + b <= 0:
            n, q_n = 1, q
            while a * q_n + b > 0:
                n, q_n = n + 1, q_n * q
            found.append((n + offset, order, prop))
    return min(found)[::2] if found else None


def build_tower(model: LevelModel, depth: int, heights: bool = True) -> Tower:
    """Compose transition functions up to ``depth``: every x, and every y
    only with ``heights`` or for the debug log of each level's altitude.

    Each vertex (x, y) of phi_n is appended as (x, alt + (y - x_last) /
    q^(n-1)), where (x_last, alt) is the last vertex of level n-1, or the
    origin: alt + (y - x_last) * q^(depth-n) on the numerators, x over D
    and y over D*q^(depth-1), one column (vertex j at every level) at once.

    A ``depth`` past ``printable_depth`` raises ``InputError`` on
    ``depth`` first.  Callers are expected to hold a certificate for the
    working base; a failure ``first_failure`` names within ``depth`` still
    aborts.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if not _prints_to(model, depth):
        raise InputError(
            "depth",
            f"{depth} is past {printable_depth(model)}, the deepest tower of this document "
            f"whose numbers print within {digit_limit()} digits",
        )
    q, D, size = model.q, model.D, len(model.AX)
    failure = first_failure(model)
    if failure is not None and failure[0] <= depth:
        n, prop = failure
        if n > 1 and logger(__name__, "DEBUG"):
            build_tower(model, n - 1)  # logs levels 1 ... n-1
        if prop == "level-convexity":
            why = f"level {n} is not in the stable regime: segment slopes must be strictly "
            why += "increasing (strict convexity)"
        elif prop == "vertex-positivity":
            why = f"level {n} vertex positions are not positive "
            why += f"(shift {format_ratio(*model.shift)}); outside the supported regime"
        else:
            first, last = (model.AX[j] * q**k + model.BX[j] for j, k in ((0, n), (-1, n - 1)))
            why = f"first vertex {format_ratio(first, D)} of phi_{n} does not lie strictly "
            why += f"beyond the last vertex {format_ratio(last, D)} of phi_{n - 1}"
        raise TowerInvariantError(prop, why)
    powers = list(accumulate(repeat(q, depth), mul, initial=1))  # q^0 ... q^depth
    q_n, scales = powers[1:], powers[-2::-1]  # q^n and q^(depth-n) of levels 1 ... depth
    xs = [0] * (size * depth)  # over D
    for j, (ax, bx) in enumerate(zip(model.AX, model.BX)):
        xs[j::size] = [ax * q_j + bx for q_j in q_n]
    log = logger(__name__, "DEBUG")
    if not (heights or log):
        return Tower(q, D, size, tuple(xs), (), ())
    phi_ys = xs.copy()  # phi_n's own y over D
    for j, (ay, by) in enumerate(zip(model.AY, model.BY)):
        phi_ys[j::size] = [ay * q_j + by for q_j in q_n]
    x_last = [0, *xs[size - 1 :: size]]  # of levels 0 ... depth
    alts = list(accumulate(map(mul, map(sub, phi_ys[size - 1 :: size], x_last), scales), initial=0))
    if log:
        for n in range(1, depth + 1):
            altitude = format_ratio(alts[n], D * scales[0])
            log.debug("tower level %d: %d breaks, altitude %s", n, size * n, altitude)
    ys = xs.copy()  # over D*q^(depth-1)
    for j in range(size):
        ys[j::size] = [alt + (y - x) * s for alt, y, x, s in zip(alts, phi_ys[j::size], x_last, scales)]
    return Tower(q, D, size, tuple(xs), tuple(ys), tuple(phi_ys))


def _numerator_bound(model: LevelModel) -> int:
    """T: at least D and D*|a| + D*|b| for every coordinate a q^n + b of
    phi_n, with D the model's common denominator."""
    pairs = zip(model.AX + model.AY, model.BX + model.BY)
    return max(model.D, *(abs(a) + abs(b) for a, b in pairs))


def _prints_to(model: LevelModel, depth: int) -> bool:
    """Whether 2 T depth q^depth prints, which by the bound of
    ``printable_depth`` every number of the tower to ``depth`` then does."""
    return power_prints(model.q, depth, 2 * _numerator_bound(model) * depth)


def printable_depth(model: LevelModel) -> Optional[int]:
    """The deepest tower whose numbers all print within the interpreter's
    limit on the digits of an int; None when there is no such limit.

    Every coordinate c of phi_n is affine in q^n, c = a q^n + b, an integer
    of size at most T q^k over D at level k (see ``_numerator_bound``).  An
    altitude, a sum of k such differences scaled by 1/q^i, is an integer of
    size at most 2 k T q^k over D q^(k-1); a final slope is 1/q^k.  So
    every number printed for levels up to n has numerator and denominator
    below 2 n T q^n, and the depth is printable while that bound prints,
    the test ``build_tower`` makes.  Found by bisection between depth 0,
    which prints, and ``exponent_past_limit(q)``, where q^n alone does not.
    """
    if not digit_limit():
        return None
    lo, hi = 0, exponent_past_limit(model.q)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _prints_to(model, mid) else (lo, mid)
    return lo
