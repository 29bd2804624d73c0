"""Newton polygon of a moment differential operator, in exact rational
arithmetic.

Each operator term contributes the upper-left quadrant translated to
(j*s0 + alpha.s, ord_t(a) - j); the leading power contributes (M*s0, -M).
The polygon is the convex hull of the union of those quadrants.  Its boundary
is a horizontal ray, a chain of segments with strictly increasing positive
slopes k_1 < ... < k_p, and a vertical ray; 1/k_1 is the Gevrey order the
solution is expected to have.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction

from .operators import OperatorSpec

Point = tuple


@dataclass(frozen=True)
class NewtonPolygon:
    """Boundary data: generator points, hull corner vertices, finite slopes."""

    points: tuple
    vertices: tuple
    slopes: tuple

    @property
    def segments(self) -> tuple:
        """((v_i, v_{i+1}, slope_i), ...) for the finite-slope edges."""
        return tuple(
            (self.vertices[i], self.vertices[i + 1], self.slopes[i])
            for i in range(len(self.slopes))
        )


def generator_points(spec: OperatorSpec) -> list:
    """Quadrant corners for the operator, leading term first.

    Terms whose coefficient vanishes identically in the stored truncation
    carry no information and are dropped with a warning.
    """
    s0 = spec.m0.order
    s = spec.orders
    pts = [(Fraction(spec.M) * s0, Fraction(-spec.M))]
    for term in spec.terms:
        sigma = term.ord_t()
        if sigma is None:
            warnings.warn(
                f"term (j={term.j}, alpha={term.alpha}) has an identically zero "
                f"coefficient in truncation; dropped from the polygon"
            )
            continue
        x = Fraction(term.j) * s0 + sum((Fraction(a) * sk for a, sk in zip(term.alpha, s)),
                                        Fraction(0))
        y = Fraction(sigma - term.j)
        pts.append((x, y))
    return pts


def _cross(o: Point, a: Point, b: Point) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _pareto(points) -> list:
    """Drop points dominated by another (larger x, smaller-or-equal y).

    The survivors have strictly increasing x and strictly increasing y.
    """
    pts = sorted(set(points), key=lambda p: (p[0], -p[1]))
    keep = []
    best_y = None
    for p in reversed(pts):
        if best_y is None or p[1] < best_y:
            keep.append(p)
            best_y = p[1]
    keep.reverse()
    return keep


def build_polygon(spec: OperatorSpec) -> NewtonPolygon:
    """Boundary of the convex hull of the translated quadrants.

    Because every quadrant opens up-left, the hull corners are the lower-right
    convex chain of the non-dominated generator points.
    """
    pts = generator_points(spec)
    frontier = _pareto(pts)
    chain = []
    for p in frontier:
        while len(chain) >= 2 and _cross(chain[-2], chain[-1], p) <= 0:
            chain.pop()
        chain.append(p)
    slopes = tuple(
        (chain[i + 1][1] - chain[i][1]) / (chain[i + 1][0] - chain[i][0])
        for i in range(len(chain) - 1)
    )
    return NewtonPolygon(points=tuple(sorted(set(pts))), vertices=tuple(chain), slopes=slopes)


def inverse_k1(spec: OperatorSpec) -> Fraction:
    """Exact 1/k_1 = max{0, max over terms of (s0(j-M) + s.alpha)/q}.

    q = ord_t(a) - j + M must be >= 1 for every term; the formula agrees with
    1/min(poly.slopes) whenever a finite positive slope exists.
    """
    s0 = spec.m0.order
    s = spec.orders
    best = Fraction(0)
    for term in spec.terms:
        sigma = term.ord_t()
        if sigma is None:
            continue
        q = sigma - term.j + spec.M
        if q <= 0:
            raise ValueError(
                f"term (j={term.j}, alpha={term.alpha}) has q = {q} <= 0; "
                f"the unique-solution order condition fails"
            )
        ratio = (s0 * (term.j - spec.M)
                 + sum((Fraction(a) * sk for a, sk in zip(term.alpha, s)), Fraction(0))) / q
        best = max(best, ratio)
    return best
