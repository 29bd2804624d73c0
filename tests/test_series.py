import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, strategies as st
from mpmath import mpf

from mpde import (
    gamma_moment,
    generator_series,
    majorizes,
    make_series,
    moment_derivative_bound_probe,
    series_add,
    sup_bound,
    zero_series,
)
from mpde.series import coefficient_rows, indices_up_to

from helpers import (dilate_reference, evaluate_reference, formal_norm, majorant_reference,
                     majorant_series, series_equal, theta_series, truncate_series)


def dilate(f, constant, h):
    """constant * f(h*z) as a float series."""
    return make_series(f.dim, dilate_reference(f, constant, h), f.valid_degree, "float")


class TestMakeSeries:
    def test_constant(self):
        f = make_series(1, {0: 1}, 10)
        assert f.coefficient((0,)) == 1
        assert f.valid_degree == 10

    def test_two_variables(self):
        f = make_series(2, {(1, 0): 1, (0, 1): -1}, 4)
        assert f.coefficient((1, 0)) == 1
        assert f.coefficient((0, 1)) == -1

    def test_geometric_truncation_by_hand(self):
        f = make_series(1, {(l,): 1 for l in range(11)}, 10)
        assert all(f.coefficient((l,)) == 1 for l in range(11))

    def test_index_beyond_cap_rejected(self):
        with pytest.raises(ValueError):
            make_series(1, {(11,): 1}, 10)

    def test_mixed_mode_rejected(self):
        with pytest.raises(TypeError):
            make_series(1, {(0,): 1.5}, 4, mode="exact")

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            make_series(1, {(-1,): 1}, 4)


class TestGeneratorSeries:
    def test_geometric_ones(self):
        f = generator_series("geometric", 1, 5, ratio=1)
        assert [f.coefficient((l,)) for l in range(6)] == [1] * 6

    def test_polynomial(self):
        f = generator_series("polynomial", 1, 4, coeffs=[2, 0, 3])
        assert f.coefficient((0,)) == 2
        assert f.coefficient((1,)) == 0
        assert f.coefficient((2,)) == 3

    def test_gevrey_factorial(self):
        f = generator_series("gevrey_factorial", 1, 4, sigma=1)
        assert [f.coefficient((l,)) for l in range(5)] == [1, 1, 2, 6, 24]

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            generator_series("gevrey_factorial", 1, 4, sigma=-1)

    def test_geometric_multivariate_is_product_form(self):
        c = Fraction(1, 2)
        f = generator_series("geometric", 2, 4, ratio=c)
        for alpha in indices_up_to(2, 4):
            assert f.coefficient(alpha) == c ** sum(alpha)


class TestMajorant:
    def test_sign_flip(self):
        f = make_series(1, {(1,): 1, (2,): -1}, 4)
        assert majorant_reference(f) == {(1,): 1, (2,): 1}

    def test_nonnegative_fixed_point(self):
        f = generator_series("geometric", 1, 6, ratio=Fraction(1, 3))
        assert majorant_reference(f) == f.coeffs


class TestSupBound:
    def test_constant(self):
        assert sup_bound(make_series(1, {0: 1}, 3), Fraction(1, 2)) == 1

    def test_geometric_partial_sum_exact(self):
        f = generator_series("geometric", 1, 10, ratio=1)
        assert sup_bound(f, Fraction(1, 2)) == 2 - Fraction(1, 2) ** 10

    def test_two_variable_linear(self):
        f = make_series(2, {(1, 0): 1, (0, 1): -1}, 4)
        assert sup_bound(f, 1) == 2

    def test_respects_valid_degree(self):
        f = generator_series("geometric", 1, 10, ratio=1)
        g = truncate_series(f, 3)
        assert sup_bound(g, 1) == 4

    def test_dominates_sampled_values(self):
        rng = random.Random(7)
        f = make_series(1, {(l,): Fraction(rng.randint(-5, 5)) for l in range(9)}, 8)
        r = Fraction(3, 4)
        bound = mpf(sup_bound(f, r).numerator) / sup_bound(f, r).denominator
        for _ in range(50):
            theta = rng.random() * 2 * 3.14159
            z = mpmath.mpc(mpmath.cos(theta), mpmath.sin(theta)) * mpf(3) / 4 * rng.random()
            assert abs(evaluate_reference(f, [z])) <= bound + mpf("1e-50")

    def test_radius_positive(self):
        with pytest.raises(ValueError):
            sup_bound(make_series(1, {0: 1}, 2), 0)


class TestTheta:
    def test_zero_shift_gives_ones(self):
        th = theta_series(0, [1], 6)
        assert all(th.coefficient((l,)) == 1 for l in range(7))

    def test_unit_shift_with_s_one(self):
        th = theta_series(1, [1], 6)
        for l in range(7):
            assert abs(th.coefficient((l,)) - (1 + l)) < mpf("1e-60")

    def test_half_shift_value(self):
        th = theta_series(Fraction(1, 2), [1], 4)
        want = 15 * mpmath.sqrt(mpmath.pi) / 16    # Gamma(3.5)/Gamma(3)
        assert abs(th.coefficient((2,)) - want) < mpf("1e-60")

    def test_coefficient_at_origin_is_gamma(self):
        for a in (Fraction(1, 2), Fraction(1), Fraction(2)):
            th = theta_series(a, [1, Fraction(1, 2)], 3)
            want = mpmath.gamma(1 + mpf(a.numerator) / a.denominator)
            assert abs(th.coefficient((0, 0)) - want) < mpf("1e-60")

    def test_negative_shift_rejected(self):
        with pytest.raises(ValueError):
            theta_series(-1, [1], 3)

    def test_coefficients_at_least_one_for_shift_above_one(self):
        for a in (1, 2, Fraction(3, 2)):
            th = theta_series(a, [Fraction(1, 2), 1], 6)
            assert all(v >= 1 for v in th.coeffs.values())

    def test_coefficients_positive_always(self):
        th = theta_series(Fraction(1, 2), [1], 8)
        assert all(v > 0 for v in th.coeffs.values())

    def test_scaled(self):
        th = theta_series(0, [1], 4)
        g = dilate(th, 3, Fraction(1, 2))
        assert abs(g.coefficient((2,)) - mpf(3) / 4) < mpf("1e-60")


class TestFormalNorm:
    def test_constant_function(self):
        f = make_series(1, {0: 1}, 6)
        fn = formal_norm(f, [1], 4)
        assert fn.coefficient((0,)) == 1
        assert all(fn.coefficient((l,)) == 0 for l in range(1, 5))

    def test_linear_function(self):
        f = make_series(1, {(1,): 1}, 6)
        fn = formal_norm(f, [1], 3)
        assert fn.coefficient((1,)) == 1

    def test_geometric_all_ones(self):
        f = generator_series("geometric", 1, 12, ratio=1)
        fn = formal_norm(f, [1], 5)
        for l in range(6):
            assert abs(fn.coefficient((l,)) - 1) < mpf("1e-60")

    def test_cutoff_budget_enforced(self):
        f = make_series(1, {0: 1}, 3)
        with pytest.raises(ValueError):
            formal_norm(f, [1], 4)

    def test_evaluation_point(self):
        # f = z^2, s = 1, at z0 = 1/2: derivatives 2*z0, then 2
        f = make_series(1, {(2,): 1}, 6)
        fn = formal_norm(f, [1], 2, at=[Fraction(1, 2)])
        assert abs(fn.coefficient((0,)) - mpf(1) / 4) < mpf("1e-60")
        assert abs(fn.coefficient((1,)) - 1) < mpf("1e-60")
        assert abs(fn.coefficient((2,)) - 1) < mpf("1e-60")


class TestMajorizes:
    def test_majorant_always_majorizes(self):
        f = make_series(1, {(1,): -3, (2,): 5}, 4)
        assert majorizes(majorant_series(f), f)

    def test_strictly_smaller_fails(self):
        f = make_series(1, {(1,): 2}, 4)
        g = make_series(1, {(1,): 1}, 4)
        assert not majorizes(g, f)

    def test_alternating_vs_exponential(self):
        # sin-like 1/l! with alternating signs against exp-like 1/l!
        sin_like = make_series(1, {(l,): Fraction((-1) ** l, _fact(l)) for l in range(9)}, 8)
        exp_like = make_series(1, {(l,): Fraction(1, _fact(l)) for l in range(9)}, 8)
        assert majorizes(exp_like, sin_like)

    def test_negative_candidate_rejected(self):
        f = make_series(1, {(1,): 1}, 4)
        g = make_series(1, {(1,): -1}, 4)
        with pytest.raises(ValueError):
            majorizes(g, f)

    @given(st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=8))
    def test_majorant_property_hypothesis(self, values):
        f = make_series(1, {(l,): v for l, v in enumerate(values)}, 8)
        assert majorizes(majorant_series(f), f)


def _fact(n):
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


class TestThetaComparisonLemmas:
    def test_polynomial_norm_below_scaled_theta(self):
        # \|f\|_rho at points of D_r is coefficientwise below C * Theta^(0)(h rho)
        f = generator_series("polynomial", 1, 20, coeffs=[1, 2, 0, -3, 1])
        m = [gamma_moment(1)]
        r, rp = Fraction(1, 4), Fraction(1, 2)
        h = moment_derivative_bound_probe(f, m, r, rp, 6)
        c = sup_bound(f, rp)
        th = theta_series(0, [1], 6)
        for z0 in (0, Fraction(1, 8), Fraction(-1, 4)):
            fn = formal_norm(f, [1], 6, at=[z0])
            assert majorizes(dilate(th, c, h), fn)

    def test_derivative_shifts_theta_order(self):
        # if \|f\| << C Theta^(a)(h rho) then \|D^beta f\| << C h^|beta| Theta^(a+s.beta)(h rho)
        from mpde import moment_diff_z

        f = generator_series("geometric", 1, 24, ratio=Fraction(1, 2))
        s = [Fraction(1)]
        m = [gamma_moment(1)]
        cutoff, beta = 8, (2,)
        a = Fraction(1, 2)
        fn = formal_norm(f, s, cutoff)
        th_a = theta_series(a, s, cutoff)
        h = moment_derivative_bound_probe(f, m, Fraction(1, 4), Fraction(1, 2), cutoff)
        # choose C so the premise holds on the computed range
        c = mpf(0)
        for alpha, v in fn.coeffs.items():
            c = max(c, v / (h ** sum(alpha) * th_a.coefficient(alpha)))
        assert majorizes(dilate(th_a, c * (1 + mpf("1e-30")), h), fn)
        df = moment_diff_z(f, m, beta)
        fn_beta = formal_norm(df, s, cutoff - sum(beta))
        th_shift = theta_series(a + sum(beta), s, cutoff - sum(beta))
        bound = dilate(th_shift, c * h ** sum(beta) * (1 + mpf("1e-30")), h)
        assert majorizes(bound, fn_beta)


class TestCsvExport:
    def test_header_and_rows(self):
        f = make_series(2, {(1, 0): Fraction(1, 3), (0, 2): -2}, 4)
        rows = coefficient_rows(f)
        assert rows[0] == ["1", "0", "1/3", "0"]
        assert rows[1] == ["0", "2", "-2", "0"]

    def test_float_mode_full_precision(self):
        f = make_series(1, {(0,): mpf(1) / 3}, 2, mode="float")
        rows = coefficient_rows(f)
        assert rows[0][1].startswith("0.3333333333333333333333333")


class TestSeriesArithmetic:
    def test_add_takes_min_valid_degree(self):
        a = generator_series("geometric", 1, 10, ratio=1)
        b = truncate_series(generator_series("geometric", 1, 10, ratio=1), 4)
        c = series_add(a, b)
        assert c.valid_degree == 4
        assert c.coefficient((3,)) == 2
        assert c.coefficient((5,)) == 0

    def test_zero_series(self):
        z = zero_series(2, 5)
        assert not z.coeffs and z.valid_degree == 5

    def test_series_equal_float_tolerance(self):
        a = make_series(1, {0: mpf(1)}, 2, mode="float")
        b = make_series(1, {0: mpf(1) + mpmath.ldexp(1, -250)}, 2, mode="float")
        assert series_equal(a, b)
