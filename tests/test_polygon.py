import random
import warnings
from fractions import Fraction

import pytest

from mpde import (
    OperatorSpec,
    OperatorTerm,
    build_polygon,
    gamma_moment,
    generator_points,
    inverse_k1,
)
from helpers import bruteforce_hull_vertices, polygon_contains, random_operator_spec

G1 = gamma_moment(1)
GH = gamma_moment(Fraction(1, 2))


def heat_spec(s0=Fraction(1)):
    return OperatorSpec(M=1, m0=gamma_moment(s0), m=(G1,),
                        terms=(OperatorTerm(j=0, alpha=(2,), coeff=(Fraction(-1),)),))


def three_term_spec():
    # generator points (1,-1), (2,0), (3,2)
    return OperatorSpec(M=1, m0=G1, m=(G1,), terms=(
        OperatorTerm(j=0, alpha=(2,), coeff=(Fraction(1),)),
        OperatorTerm(j=0, alpha=(3,), coeff=(Fraction(0), Fraction(0), Fraction(1),)),
    ))


class TestBuildPolygon:
    def test_pure_ode_single_vertex(self):
        spec = OperatorSpec(M=2, m0=G1, m=(G1,), terms=())
        poly = build_polygon(spec)
        assert poly.vertices == ((Fraction(2), Fraction(-2)),)
        assert poly.slopes == ()

    def test_heat_polygon(self):
        poly = build_polygon(heat_spec())
        assert poly.vertices == ((Fraction(1), Fraction(-1)), (Fraction(2), Fraction(0)))
        assert poly.slopes == (Fraction(1),)

    def test_three_term_polygon(self):
        poly = build_polygon(three_term_spec())
        assert poly.vertices == (
            (Fraction(1), Fraction(-1)), (Fraction(2), Fraction(0)), (Fraction(3), Fraction(2)))
        assert poly.slopes == (Fraction(1), Fraction(2))
        assert bruteforce_hull_vertices(generator_points(three_term_spec())) == list(poly.vertices)

    def test_zero_coefficient_term_dropped_with_warning(self):
        spec = OperatorSpec(M=1, m0=G1, m=(G1,), terms=(
            OperatorTerm(j=0, alpha=(2,), coeff=(Fraction(0), Fraction(0))),
        ))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            poly = build_polygon(spec)
        assert any("identically zero" in str(w.message) for w in caught)
        assert poly.vertices == ((Fraction(1), Fraction(-1)),)

    def test_collinear_points_are_not_vertices(self):
        spec = OperatorSpec(M=1, m0=G1, m=(G1,), terms=(
            OperatorTerm(j=0, alpha=(2,), coeff=(Fraction(0), Fraction(1))),   # (2, 1)
            OperatorTerm(j=0, alpha=(3,), coeff=(Fraction(0), Fraction(0), Fraction(0), Fraction(1))),  # (3, 3)
        ))
        poly = build_polygon(spec)
        # (2,1) lies on the segment from (1,-1) to (3,3)
        assert poly.vertices == ((Fraction(1), Fraction(-1)), (Fraction(3), Fraction(3)))
        assert poly.slopes == (Fraction(2),)


class TestSlopesAndK1:
    def test_pure_ode_empty_slopes(self):
        spec = OperatorSpec(M=2, m0=G1, m=(G1,), terms=())
        assert list(build_polygon(spec).slopes) == []
        assert inverse_k1(spec) == 0

    def test_heat_k1(self):
        assert list(build_polygon(heat_spec()).slopes) == [Fraction(1)]
        assert inverse_k1(heat_spec()) == 1

    def test_fractional_time_k1(self):
        spec = heat_spec(s0=Fraction(1, 2))
        assert inverse_k1(spec) == Fraction(3, 2)

    def test_three_term_k1(self):
        assert inverse_k1(three_term_spec()) == 1

    def test_q_nonpositive_reported_with_term(self):
        spec = OperatorSpec(M=1, m0=G1, m=(G1,), terms=(
            OperatorTerm(j=2, alpha=(1,), coeff=(Fraction(1),)),
        ))
        with pytest.raises(ValueError, match=r"j=2.*alpha=\(1,\)"):
            inverse_k1(spec)


class TestPolygonContains:
    def test_vertices_on_boundary(self):
        poly = build_polygon(three_term_spec())
        for v in poly.vertices:
            assert polygon_contains(poly, v)

    def test_interior_and_exterior(self):
        poly = build_polygon(heat_spec())
        assert polygon_contains(poly, (Fraction(1), Fraction(5)))
        assert polygon_contains(poly, (Fraction(-3), Fraction(0)))
        assert not polygon_contains(poly, (Fraction(3), Fraction(0)))
        assert not polygon_contains(poly, (Fraction(2), Fraction(-1)))


class TestRandomizedConsistency:
    def test_formula_matches_polygon_and_oracle(self):
        rng = random.Random(20240811)
        for _ in range(30):
            spec = random_operator_spec(rng)
            poly = build_polygon(spec)
            slopes = list(poly.slopes)
            k1_inv = inverse_k1(spec)
            if slopes and k1_inv > 0:
                assert k1_inv == 1 / min(slopes)
            else:
                assert k1_inv == 0
            assert bruteforce_hull_vertices(generator_points(spec)) == list(poly.vertices)

    def test_interior_point_does_not_move_polygon_deterministic(self):
        base = heat_spec()
        extra = OperatorTerm(j=0, alpha=(1,),
                             coeff=(Fraction(0), Fraction(0), Fraction(0), Fraction(5)))
        poly = build_polygon(base)
        assert polygon_contains(poly, (Fraction(1), Fraction(3)))
        bigger = OperatorSpec(M=base.M, m0=base.m0, m=base.m, terms=base.terms + (extra,))
        poly2 = build_polygon(bigger)
        assert poly2.vertices == poly.vertices
        assert poly2.slopes == poly.slopes
        assert inverse_k1(bigger) == inverse_k1(base)

    def test_interior_point_does_not_move_polygon(self):
        rng = random.Random(7)
        hits = 0
        for _ in range(20):
            spec = random_operator_spec(rng, max_terms=4)
            poly = build_polygon(spec)
            vx, vy = poly.vertices[0]
            # a quadrant corner strictly inside: shift the lowest vertex up-left
            inside = (vx - 1, vy + 1)
            if not polygon_contains(poly, inside):
                continue
            sigma = max(0, int(inside[1]))
            j = sigma - int(inside[1])
            rest = inside[0] - j * spec.m0.order
            if j > spec.M - 1 or rest < 0 or rest.denominator != 1 or (j, (int(rest),) + (0,) * (spec.dim - 1)) in {(t.j, t.alpha) for t in spec.terms}:
                continue
            alpha = (int(rest),) + (0,) * (spec.dim - 1)
            if spec.orders[0] != 1:
                continue
            extra = OperatorTerm(j=j, alpha=alpha,
                                 coeff=tuple([Fraction(0)] * sigma + [Fraction(1)]))
            bigger = OperatorSpec(M=spec.M, m0=spec.m0, m=spec.m,
                                  terms=spec.terms + (extra,))
            poly2 = build_polygon(bigger)
            assert poly2.vertices == poly.vertices
            assert poly2.slopes == poly.slopes
            assert inverse_k1(bigger) == inverse_k1(spec)
            hits += 1
        assert hits >= 1
