"""Whole towers from the polynomial: a ramification-polygon oracle.

Standard library only; it imports nothing from ``ramstab`` and shares no
code, model or closed form with it.

Let ``P(x) = sum c_j x^j`` have ``c_q = 1`` and integer valuations
``v(c_j) >= 1`` below ``q = p^r``, in the normalization ``v(E) = Z`` with
``v(p) = v_p``, and let the base ``alpha_0`` be a uniformizer of ``K_0``
(``v(alpha_0)·e_ke = 1``).  Then every layer ``K_n = K_{n-1}(alpha_n)``,
``P(alpha_n) = alpha_{n-1}``, is cut out by the Eisenstein polynomial
``f(x) = P(x) - alpha_{n-1}``, and its ramification polygon (Greve and
Pauli, "Ramification polygons, splitting fields, and Galois groups of
Eisenstein polynomials", IJNT 2012) is the Newton polygon of
``f(alpha·(x + 1))/x``.  With ``L = K_n`` normalized by ``v_L(alpha_n) = 1``
and ``e' = e_ke·q^(n-1)``, the coefficient of ``x^(i-1)``, ``i = 1 … q``,
has valuation

    w_i = min over j >= i in the support and q of
          (q·e'·v(c_j) + j + q·e'·v_p·ord_p C(j, i)).

Each term is ``≡ j (mod q)``, and the ``j`` are distinct in ``[1, q]``, so
the minimum is taken once and nothing cancels.  A segment of slope ``-s``
and length ``l`` gives ``l`` conjugates with ``v_L(σα − α) = 1 + s``.

The layer's transition function in the printed numbering (a break counts
``v(σπ − π)``, one more than Serre's ``i_G``) is

    phi(x) = (x + sum over σ ≠ 1 of min(i_σ, x))/q

(Serre, *Local Fields*, IV §3; Helou, "Non-Galois ramification theory of
local fields", 1991, for layers that are not Galois).  At reindex ``m`` the
printed ``Phi_n`` is ``phi_{m+1} ∘ … ∘ phi_{m+n}`` with both axes divided
by ``q^m``.

``python tests/ramification_oracle.py`` prints the tower of the
uniformizer fixture, whose level-``n`` break is ``(3^n + 1)/2``.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb


def _ord(n: int, p: int) -> int:
    """The exponent of ``p`` in the nonzero integer ``n``."""
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def _lower_hull(points: list) -> list:
    """The vertices of the lower convex hull of ``points``, sorted by x."""
    hull = []
    for point in sorted(points):
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (point[1] - y1) - (y2 - y1) * (point[0] - x1) > 0:
                break
            hull.pop()
        hull.append(point)
    return hull


def layer_distances(p: int, v_p: int, e_ke: int, q: int, coeffs: dict, level: int) -> list:
    """The distances ``v_L(σα − α)`` of layer ``level`` (``>= 1``) over its
    ground field, with their multiplicities: ``(distance, count)`` pairs in
    increasing order of distance, the counts summing to ``q - 1``.

    ``coeffs`` maps each index ``j`` of a nonzero coefficient, ``q``
    included, to ``v(c_j)`` in the units ``v(E) = Z``.
    """
    scale = q * e_ke * q ** (level - 1)  # q·e'
    w = [
        min(scale * coeffs[j] + j + scale * v_p * _ord(comb(j, i), p) for j in coeffs if j >= i)
        for i in range(1, q + 1)
    ]
    hull = _lower_hull([(i, w_i) for i, w_i in enumerate(w)])
    return [
        (1 + Fraction(y0 - y1, x1 - x0), x1 - x0)
        for (x0, y0), (x1, y1) in zip(hull, hull[1:])
    ][::-1]


def _phi_vertices(distances: list, q: int) -> list:
    """The vertices of ``phi(x) = (x + sum min(i_σ, x))/q``."""
    vertices = []
    for d, _count in distances:
        y = (d + sum(count * min(e, d) for e, count in distances)) / q
        vertices.append((d, y))
    return vertices


def _evaluate(vertices: list, final_slope: Fraction, x: Fraction) -> Fraction:
    """A piecewise-linear function through ``(0, 0)`` and ``vertices``, of
    initial slope 1 and final slope ``final_slope``, at ``x``."""
    x0, y0 = Fraction(0), Fraction(0)
    for x1, y1 in vertices:
        if x <= x1:
            return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
        x0, y0 = x1, y1
    return y0 + final_slope * (x - x0)


def tower(
    p: int, v_p: int, e_ke: int, q: int, coeffs: dict, depth: int, reindex: int
) -> list:
    """The vertex lists of the printed ``Phi_1 … Phi_depth`` at ``reindex``:
    a list of ``depth`` lists of ``(x, y)`` Fractions."""
    outer, slope, levels, scale = [], Fraction(1), [], q**reindex
    for level in range(reindex + 1, reindex + depth + 1):
        inner = _phi_vertices(layer_distances(p, v_p, e_ke, q, coeffs, level), q)
        inner_inverse = [(y, x) for x, y in inner]
        points = {x: _evaluate(outer, slope, y) for x, y in inner}
        for a, b in outer:  # where phi reaches each vertex of the levels above
            points[_evaluate(inner_inverse, Fraction(q), a)] = b
        outer, slope = sorted(points.items()), slope / q
        levels.append([(x / scale, y / scale) for x, y in outer])
    return levels


if __name__ == "__main__":
    for n, vertices in enumerate(tower(3, 1, 1, 3, {1: 2, 2: 1, 3: 0}, 5, 0), start=1):
        print(n, [(str(x), str(y)) for x, y in vertices])
