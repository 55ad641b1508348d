"""Shared oracles and random generators for the test suite.

Every oracle here stays independent of the code path it checks: the hull
oracle tests chords pairwise, the factorial oracle counts prime powers in
factorials, the carry oracle walks base-p digits, the composition oracle
samples pointwise, the tower JSON oracle formats every level from that
level's own function, rebuilt by the checked ``PLFunction`` constructor,
the tower oracle folds the level model in ``Fraction`` arithmetic, the
branch oracle extends a record one fresh hull per step, the
main-and-error oracle scans every p^k with the carry walk, the certify
oracle builds every level's checks from scratch, the level-polygon
oracle checks the exact level-n heights for strict convexity with
``below_line``, the working-tower oracle re-bases a certified branch
by slicing its record and completing the tail for its own C, the
ordered-test oracle evaluates every x of the tower to a depth and finds
its first failing level by comparing them in turn, and the subfield-table
oracle builds the ``breaks`` and ``subfields`` entries as dicts, for
``json.dumps``.

``PLFunction``, with ``make_plf``, ``evaluate``, ``compose`` and
``altitude``, is the general algebra of concave piecewise-linear
functions.  The package uses closed forms instead: the tower is an append
and phi_n is the scaled dual of the level polygon, read off the level
model.  The algebra stays here as the oracle for both, with ``dual_plf``
the dual by its definition, as ``kummer_carries`` is for
``main_and_error``; ``predict_branch`` walks a branch through chosen step
candidates for the generators, ``below_line`` is the exact three-point
test, and ``root_valuations`` reads the negated segment slopes off a
vertex tuple, as ``lower_hull`` and ``level_polygon`` return it.
"""

import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Tuple

from ramstab.branches import (
    BranchDataError,
    BranchValuationRecord,
    PolynomialValuationProfile,
    _step_candidates,
    build_record,
    estimate_d,
)
from ramstab.certificates import CertificateCheck, StabilityCertificate
from ramstab.hasseherbrand import TowerInvariantError, level_model
from ramstab.limitdata import complete_record
from ramstab.polygons import lower_hull
from ramstab.valuations import _check_prime, format_rational

log = logging.getLogger(__name__)

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


def root_valuations(vertices) -> list[Fraction]:
    """The negated segment slopes of a vertex tuple, decreasing when the
    vertices are strictly convex."""
    return [Fraction(y0 - y1, x1 - x0) for (x0, y0), (x1, y1) in zip(vertices, vertices[1:])]


def dual_plf(vertices) -> PLFunction:
    """The dual of a polygon, given as its vertex tuple, by its definition:
    the lower envelope x -> min_i (h_i + w_i * x) over its vertices
    (w_i, h_i), less the last height so that it passes through the origin,
    with a vertex at x = u for each root valuation u.  A root valuation
    u <= 0 or a first vertex at w = 0 fails the ``PLFunction`` checks."""
    floor = vertices[-1][1]
    breaks = [
        (u, min(h - floor + w * u for w, h in vertices))
        for u in reversed(root_valuations(vertices))
    ]
    return PLFunction(vertices[-1][0], breaks, vertices[0][0])


def level_polygon(profile, data, n):
    """The exact level-n polygon as its vertex tuple (p^{r_i}, m_i + e_i*C/q^n),
    each interior vertex checked to lie strictly below its neighbours' chord.

    Valid in the stable regime; if the stated points are not strictly
    convex the level is not stable and construction fails loudly.
    """
    if data.C is None:
        raise ValueError("limiting data has no error coefficient C")
    if n < 0:
        raise ValueError("level must be nonnegative")
    error = Fraction(data.C, profile.q**n)
    points = tuple(
        (profile.p**r_i, Fraction(m_i) + e_i * error)
        for r_i, m_i, e_i in zip(data.R, data.M, data.E)
    )
    if not all(below_line(*triple) for triple in zip(points, points[1:], points[2:])):
        raise ValueError(
            f"level {n} is not in the stable regime: "
            "segment slopes must be strictly increasing (strict convexity)"
        )
    return points


def below_line(p, p_mid, p_end) -> bool:
    """True iff p_mid lies strictly below the line through p and p_end.

    Exact rational comparison, cross-multiplied; x-coordinates must be
    strictly increasing.
    """
    (x0, y0), (x1, y1), (x2, y2) = p, p_mid, p_end
    if not (x0 < x1 < x2):
        raise ValueError("x-coordinates must be strictly increasing")
    return (y1 - y0) * (x2 - x0) < (y2 - y0) * (x1 - x0)


def predict_branch(
    profile: PolynomialValuationProfile,
    v_alpha0,
    choices: Sequence[int] = (),
    depth: int = 1,
) -> BranchValuationRecord:
    """Extend a base valuation through ``depth`` steps of the polygon dynamics.

    Steps with a single candidate are forced; at a step with several
    candidates the next entry of ``choices`` selects one (index into the
    decreasing candidate list) and an out-of-range or missing choice fails
    loudly.  A base valuation of None (a zero base point) takes the step
    leaving zero first; branches that stay at zero longer are not
    predicted, so supply their leading None entries to ``build_record``.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    vals = [v_alpha0]
    queue = list(choices)
    for step in range(depth):
        candidates = _step_candidates(profile, vals[-1])
        if len(candidates) == 1:
            pick = candidates[0]
        else:
            if not queue:
                raise BranchDataError(
                    f"step {step} is ambiguous: candidates {[str(c) for c in candidates]}; "
                    "supply a slope choice"
                )
            idx = queue.pop(0)
            if not 0 <= idx < len(candidates):
                raise BranchDataError(
                    f"slope choice {idx} out of range at step {step}: "
                    f"{len(candidates)} candidates"
                )
            pick = candidates[idx]
        vals.append(pick)
    if queue:
        log.warning("unused slope choices: %s", queue)
    return build_record(profile, vals)


def kummer_carries(j: int, i: int, p: int) -> int:
    """Number of carries when adding ``i`` and ``j - i`` in base ``p``.

    This count, times the valuation of ``p``, is the valuation of the
    binomial coefficient C(j, i) (Kummer's theorem).
    """
    if not isinstance(j, int) or not isinstance(i, int):
        raise ValueError("arguments must be integers")
    if i < 0 or j < 0 or i > j:
        raise ValueError(f"need 0 <= i <= j, got i={i}, j={j}")
    if not _check_prime(p):
        raise ValueError(f"p={p} is not prime")
    a, b = i, j - i
    carries = 0
    carry = 0
    while a or b or carry:
        carry = 1 if a % p + b % p + carry >= p else 0
        carries += carry
        a //= p
        b //= p
    return carries


def legendre_factorial_table(limit, p):
    """v_p(n!) for n = 0..limit, built by accumulating v_p(n)."""
    table = [0] * (limit + 1)
    for n in range(1, limit + 1):
        v, m = 0, n
        while m % p == 0:
            v += 1
            m //= p
        table[n] = table[n - 1] + v
    return table


def brute_hull_vertex_set(points):
    """Strict lower-hull vertices by exhaustive chord tests.

    A point with extreme x-coordinate is a vertex; any other point is a
    vertex iff it lies strictly below every chord of two points that
    straddle it (collinear points are excluded by the strictness).
    """
    pts = sorted(points)
    verts = []
    for idx, (x, y) in enumerate(pts):
        if idx == 0 or idx == len(pts) - 1:
            verts.append((x, y))
            continue
        is_vertex = True
        for ax, ay in pts:
            if ax >= x:
                continue
            for bx, by in pts:
                if bx <= x:
                    continue
                chord = ay + Fraction(by - ay, bx - ax) * (x - ax)
                if y >= chord:
                    is_vertex = False
                    break
            if not is_vertex:
                break
        if is_vertex:
            verts.append((x, y))
    return verts


def random_fraction(rng, max_num=12, max_den=12, signed=False):
    num = rng.randint(1, max_num)
    if signed and rng.random() < 0.5:
        num = -num
    return Fraction(num, rng.randint(1, max_den))


def random_point_set(rng, min_points=3, max_points=9, min_x=0):
    count = rng.randint(min_points, max_points)
    xs = rng.sample(range(min_x, 24), count)
    return [(x, random_fraction(rng, signed=True)) for x in xs]


def random_plf(rng, max_breaks=4):
    """A random concave increasing piecewise-linear function with f(0) = 0."""
    breaks = rng.randint(0, max_breaks)
    slopes = set()
    while len(slopes) < breaks + 1:
        slopes.add(random_fraction(rng, max_num=9, max_den=9))
    slopes = sorted(slopes, reverse=True)
    vertices = []
    x = Fraction(0)
    y = Fraction(0)
    for k in range(breaks):
        gap = random_fraction(rng, max_num=9, max_den=4)
        x += gap
        y += slopes[k] * gap
        vertices.append((x, y))
    return PLFunction(slopes[0], tuple(vertices), slopes[-1])


def random_profile(rng, p=None, r=None):
    """A random valid coefficient-valuation profile."""
    p = p if p is not None else rng.choice((2, 3, 5))
    r = r if r is not None else rng.randint(1, 3)
    q = p**r
    density = 0.55 if q <= 9 else 0.25
    coeffs = {q: 0}
    for i in range(1, q):
        if rng.random() < density:
            coeffs[i] = rng.randint(1, 6)
    return PolynomialValuationProfile(
        p=p,
        r=r,
        v_p=rng.randint(1, 3),
        coeff_valuations=coeffs,
        e_ke=rng.choice((1, 1, 2)),
    )



def main_and_error_oracle(profile, sign):
    """((M_k, E_k) for k = 0..r) by one scan of the support per k: the
    minimum of kummer_carries(j, p^k) * v(p) + v(P_j) over j >= p^k, at the
    first (sign +1) or last (sign -1) minimizing index.  Limiting data
    before the one-pass closed form, kept as an oracle."""
    table = []
    for k in range(profile.r + 1):
        pk = profile.p**k
        best = best_j = None
        for j in sorted(profile.coeff_valuations):
            if j < pk:
                continue
            term = kummer_carries(j, pk, profile.p) * profile.v_p + profile.coeff_valuations[j]
            if best is None or term < best or (sign < 0 and term == best):
                best, best_j = term, j
        table.append((best, best_j - pk))
    return tuple(table)

def hull_step_candidates(profile, v):
    """Root valuations of P(x) - a given v(a) = v (None for a = 0), from a
    fresh lower hull of (0, v) and the coefficient points."""
    points = list(profile.coeff_valuations.items())
    if v is not None:
        points.append((0, v))
    return root_valuations(lower_hull(points)) if len(points) > 1 else []


def hull_stepped_extension(profile, valuations, length):
    """The valuations walked to ``length`` entries one hull per step, each
    step required to have a single candidate: record completion before
    the closed form, kept as an oracle."""
    vals = list(valuations)
    while len(vals) < length:
        candidates = hull_step_candidates(profile, vals[-1])
        if len(candidates) != 1:
            raise BranchDataError(f"step {len(vals) - 1} has {len(candidates)} candidates")
        vals.append(candidates[0])
    return vals


def ceiling_halving_level(profile, record):
    """The halving bound before the first-forced-level rule: 0 for a
    negative base, ceil(v(a_0)) for a positive one, and leading zeros plus
    the largest coefficient valuation for a branch based at zero."""
    v0 = record.valuations[0]
    if v0 is None:
        return record.leading_zeros + max(profile.coeff_valuations.values())
    return 0 if v0 < 0 else math.ceil(v0)


SAMPLE_PROFILE = PolynomialValuationProfile(
    p=3, r=2, v_p=2, coeff_valuations={1: 4, 3: 2, 4: 3, 6: 4, 7: 3, 9: 0}, e_ke=1
)

UNIFORMIZER_PROFILE = PolynomialValuationProfile(
    p=3, r=1, v_p=1, coeff_valuations={1: 2, 2: 1, 3: 0}, e_ke=1
)


def tower_vertices(tower):
    """The vertices of a ``Tower``'s deepest function and of every phi_n in
    turn, as ``Fraction`` pairs."""
    D = tower.D
    E = D * tower.q ** (tower.depth - 1)
    xs = [Fraction(x, D) for x in tower.xs]
    return (
        list(zip(xs, (Fraction(y, E) for y in tower.ys))),
        list(zip(xs, (Fraction(y, D) for y in tower.phi_ys))),
    )


def tower_levels(tower):
    """The (phi_n, Phi_n) pairs of a ``Tower``, level by level, each built
    by the checked ``PLFunction`` constructor from ``tower_vertices``:
    phi_n with slopes 1 and 1/q, Phi_n the first ``size``*n vertices of the
    deepest function with final slope 1/q^n."""
    q, size = tower.q, tower.size
    vertices, phi_vertices = tower_vertices(tower)
    return [
        (
            PLFunction(1, tuple(phi_vertices[size * (n - 1) : size * n]), Fraction(1, q)),
            PLFunction(1, tuple(vertices[: size * n]), Fraction(1, q**n)),
        )
        for n in range(1, tower.depth + 1)
    ]


def tower_json_oracle(tower):
    """The ``phi`` and ``Phi`` entries of ``hh``, each level formatted on
    its own: its breaks, its altitude and its whole function."""
    levels = tower_levels(tower)
    return {
        "phi": [{"level": n, **phi.to_json()} for n, (phi, _) in enumerate(levels, start=1)],
        "Phi": [
            {
                "level": n,
                "breaks": [format_rational(x) for x, _ in Phi.vertices],
                "altitude": format_rational(altitude(Phi)),
                **Phi.to_json(),
            }
            for n, (_, Phi) in enumerate(levels, start=1)
        ],
    }


def level_vertices(model, n):
    """phi_n's vertices as ``Fraction``s, the model's integer columns
    evaluated at q^n over D, after the two checks inside one level, with
    the invariants and messages ``build_tower`` raises for that level."""
    q_n, D = model.q**n, model.D
    xs = [Fraction(a * q_n + b, D) for a, b in zip(model.AX, model.BX)]
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise TowerInvariantError(
            "level-convexity",
            f"level {n} is not in the stable regime: "
            "segment slopes must be strictly increasing (strict convexity)",
        )
    if xs[0] <= 0:
        raise TowerInvariantError(
            "vertex-positivity",
            f"level {n} vertex positions are not positive (shift {model.shift}); "
            "outside the supported regime",
        )
    return [(x, Fraction(a * q_n + b, D)) for x, a, b in zip(xs, model.AY, model.BY)]


def ordered_first_failure(model, depth):
    """The first failing level of the tower to ``depth`` and its property,
    or None, by the ordered test: every x of levels 1 ... ``depth``,
    evaluated from the model, must strictly increase from 0.  The first
    level where they do not is then checked for convexity, positivity and
    the gap from level n-1, in that order."""
    q, size = model.q, len(model.AX)
    xs = [a * q**n + b for n in range(1, depth + 1) for a, b in zip(model.AX, model.BX)]
    rising = [x0 < x1 for x0, x1 in zip([0, *xs], xs)]
    if all(rising):
        return None
    n = rising.index(False) // size + 1
    level = xs[size * (n - 1) : size * n]
    if any(x1 <= x0 for x0, x1 in zip(level, level[1:])):
        return n, "level-convexity"
    return n, "vertex-positivity" if level[0] <= 0 else "composition-gap"


def breaks_and_subfields(tower, reindex=0):
    """Break sequence of the deepest level and the elementary-subfield table,
    as the dicts ``json.dumps`` prints for ``breaks`` and ``hh``.

    The level-k subfield of the tower is the elementary subfield with index
    (V-1)*(k - reindex) + 1 in the break numbering of the working base;
    nonpositive indices denote the working ground field itself.  Break
    values beyond the computed depth are reported as None.
    """
    breaks = [format_rational(Fraction(x, tower.D)) for x in tower.xs]
    rows = []
    for k in range(reindex + tower.depth + 1):
        idx = tower.size * (k - reindex) + 1
        if idx <= 0:
            rows.append({"level": k, "elementary_index": idx, "field": "ground", "break": None})
            continue
        value = breaks[idx - 1] if idx <= len(breaks) else None
        rows.append(
            {"level": k, "elementary_index": idx, "field": f"elementary[{idx}]", "break": value}
        )
    return {
        "breaks": breaks,
        "subfields": rows,
        "break_scale": "base-subfield-normalized (v maps the base subfield onto the integers)",
    }


def working_tower(profile, record, data, cert):
    """A certified branch's working base, built apart from the CLI: the
    completed ``record`` sliced at the certificate's reindex, its C from
    ``complete_record`` on that tail (not C / q^reindex), and its level
    model with the certificate's d.  Returns the working limiting data, the
    base valuation and the model."""
    m = cert.reindex
    tail = BranchValuationRecord(record.valuations[m:], record.d_estimates[m:])
    working_data = data._replace(C=complete_record(profile, tail)[2])
    v_base = tail.first_finite()
    return working_data, v_base, level_model(profile, working_data, cert.d_used, v_base)


def phi_oracle(model, n):
    """phi_n as a checked ``PLFunction``, from ``level_vertices``."""
    return PLFunction(1, tuple(level_vertices(model, n)), Fraction(1, model.q))


def tower_oracle(model, depth):
    """``build_tower`` as a ``Fraction`` fold, with the same checks and
    messages, returning what ``tower_levels`` returns.

    Each phi_n is evaluated by ``level_vertices`` and appended as
    (x, alt + (y - x_last) * final), where (x_last, alt) is the last vertex
    so far and ``final`` the final slope 1/q^(n-1); the deepest function is
    validated by ``PLFunction``.  Only then is every level built, so the
    first failure raised is the one ``build_tower`` raises.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    phis, vertices = [], []
    x_last, alt, final = Fraction(0), Fraction(0), Fraction(1)
    for n in range(1, depth + 1):
        phi = level_vertices(model, n)
        if phi[0][0] <= x_last:
            raise TowerInvariantError(
                "composition-gap",
                f"first vertex {phi[0][0]} of phi_{n} does not lie "
                f"strictly beyond the last vertex {x_last} of phi_{n - 1}",
            )
        vertices.extend((x, alt + (y - x_last) * final) for x, y in phi)
        final /= model.q
        x_last, alt = vertices[-1]
        phis.append(phi)
    PLFunction(1, tuple(vertices), final)
    size = len(model.AX)
    return [
        (
            PLFunction(1, tuple(phi), Fraction(1, model.q)),
            PLFunction(1, tuple(vertices[: size * n]), Fraction(1, model.q**n)),
        )
        for n, phi in enumerate(phis, start=1)
    ]


def stability_screen_oracle(profile, v, d_n):
    """``stability_screen`` as it was before the profile cached its
    constants: the threshold ``Fraction`` and the floor scan, per level."""
    p, q = profile.p, profile.q
    threshold = Fraction(1, q * q)
    floor = min((w for i, w in profile.coeff_valuations.items() if i < q), default=None)
    if floor is not None:
        below = ("<", str(floor), v < floor)
    else:
        below = ("==", str(v), True)
    return (
        ("valuation-threshold", str(abs(v)), "<=", str(threshold), abs(v) <= threshold),
        ("d-estimate-prime-to-p", str(p), "not-divides", str(abs(d_n)), abs(d_n) % p != 0),
        ("valuation-below-coefficients", str(v), *below),
    )


def composition_criterion_oracle(data, v_base, p, q):
    """The composition criterion of one base valuation, all of its terms
    built afresh: (passed, (check,)) with no level."""
    if data.V == 2:
        check = CertificateCheck(
            name="single-limiting-slope",
            level=None,
            lhs=str(data.V),
            op="==",
            rhs="2",
            passed=True,
        )
        return True, (check,)
    lhs = -Fraction(q) * Fraction(
        data.M[-1] - data.M[-2], p ** data.R[-1] - p ** data.R[-2]
    )
    rhs = -Fraction(data.M[1] - data.M[0], p ** data.R[1] - p ** data.R[0]) + Fraction(
        2, p - 1
    ) * abs(v_base)
    passed = lhs > rhs
    check = CertificateCheck(
        name="composition-criterion",
        level=None,
        lhs=str(lhs),
        op=">",
        rhs=str(rhs),
        passed=passed,
    )
    return passed, (check,)


def _at_level(checks, level):
    return tuple(
        CertificateCheck(c.name, level, c.lhs, c.op, c.rhs, c.passed) for c in checks
    )


def certify_oracle(profile, record, data, d=None):
    """``certify`` with every level's checks built from scratch: the
    composition criterion and the stability screen are evaluated per level
    and their checks copied to the level, so nothing is shared between
    levels."""
    p, q = profile.p, profile.q
    est, est_trusted = estimate_d(profile, record)
    if d is not None:
        d_used, d_trusted = d, True
    else:
        d_used, d_trusted = est, est_trusted
    checks = []

    tame = CertificateCheck(
        name="d-prime-to-p",
        level=None,
        lhs=str(p),
        op="not-divides",
        rhs=str(abs(d_used)),
        passed=abs(d_used) % p != 0,
    )
    checks.append(tame)
    if not tame.passed:
        return StabilityCertificate(
            kind="NotCertified",
            reindex=0,
            d_used=d_used,
            d_trusted=d_trusted,
            conditional_on_d=False,
            checks=tuple(checks),
            reason=f"p = {p} divides d = {d_used}; tameness fails",
        )

    # settled run: from level ``settled`` on, every d-estimate to the end is equal
    d_estimates = record.d_estimates
    settled = len(d_estimates)
    while settled and d_estimates[settled - 1] == d_estimates[-1]:
        settled -= 1
    for n, v in enumerate(record.valuations):
        if v is None:
            continue
        level_checks = []

        comp_ok, comp_checks = composition_criterion_oracle(data, v, p, q)
        level_checks.extend(_at_level(comp_checks, n))

        if n == 0 and v * profile.e_ke == 1:
            level_checks.append(
                CertificateCheck(
                    name="uniformizer-base",
                    level=0,
                    lhs=str(v * profile.e_ke),
                    op="==",
                    rhs="1",
                    passed=True,
                )
            )
            screen_ok = True
        else:
            d_n = d_estimates[n]
            run = len(d_estimates) - n if n >= settled else 0
            c_settled = CertificateCheck(
                name="d-estimate-settled",
                level=n,
                lhs=str(run),
                op=">=",
                rhs="2",
                passed=run >= 2,
            )
            c_threshold, c_tame_n, c_below = (
                CertificateCheck(name, n, lhs, op, rhs, passed)
                for name, lhs, op, rhs, passed in stability_screen_oracle(profile, v, d_n)
            )
            screen = (c_threshold, c_settled, c_tame_n, c_below)
            level_checks.extend(screen)
            screen_ok = all(c.passed for c in screen)

        checks.extend(level_checks)
        if comp_ok and screen_ok:
            kind = "TRS" if n == 0 else "PotentiallyTRS"
            return StabilityCertificate(
                kind=kind,
                reindex=n,
                d_used=d_used,
                d_trusted=d_trusted,
                conditional_on_d=not d_trusted,
                checks=tuple(checks),
            )

    return StabilityCertificate(
        kind="NotCertified",
        reindex=0,
        d_used=d_used,
        d_trusted=d_trusted,
        conditional_on_d=not d_trusted,
        checks=tuple(checks),
        reason="no recorded level passes both the composition criterion and the stability screen",
    )
