import gc
import weakref
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from mpmath import mpf

from mpde import (
    combine,
    gamma_moment,
    regularity_constants,
    pipeline,
    tabulated_moment,
)
from mpde.moments import ExactValueUnavailable
from mpde.problemspec import parse_problem_file

from helpers import growth_envelope

HEAT = Path(__file__).resolve().parent.parent / "problems" / "heat.json"

G1 = gamma_moment(1)
GH = gamma_moment(Fraction(1, 2))


def close(a, b, tol="1e-60"):
    return abs(mpf(a) - mpf(b)) <= mpf(tol) * max(1, abs(mpf(b)))


class TestGammaMoment:
    def test_integer_order_is_factorial(self):
        assert G1.value_exact(3) == 6
        assert G1.value(3) == 6

    def test_order_zero_is_constant_one(self):
        g0 = gamma_moment(0)
        for n in (0, 1, 5, 17):
            assert g0.value_exact(n) == 1

    def test_half_order(self):
        # Gamma(1 + 1/2 * 2) = Gamma(2) = 1
        assert close(GH.value(2), 1)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            gamma_moment(Fraction(-1, 2))

    def test_half_order_has_no_exact_values(self):
        with pytest.raises(ExactValueUnavailable):
            GH.value_exact(1)


class TestMomentValue:
    def test_normalisation(self):
        assert G1.value(0) == 1

    def test_product_values(self):
        m = combine(G1, G1, "product")
        assert m.value_exact(2) == 4

    def test_quotient_values(self):
        m = combine(G1, GH, "quotient")
        # 2! / Gamma(2) = 2
        assert close(m.value(2), 2)


class TestCombine:
    def test_product_order_adds(self):
        assert combine(GH, GH, "product").order == 1

    def test_identity_quotient(self):
        q = combine(G1, G1, "quotient")
        assert q.order == 0
        for n in range(6):
            assert q.value_exact(n) == 1

    def test_structural_identity_quotient_is_exact_even_for_half_order(self):
        q = combine(GH, GH, "quotient")
        assert q.value_exact(3) == 1

    def test_quotient_of_three_halves_by_half(self):
        q = combine(gamma_moment(Fraction(3, 2)), GH, "quotient")
        assert q.order == 1
        # order-1 growth: envelope against n! stays within geometric bars
        a, big_a = growth_envelope(q, 60)
        assert 0 < a <= big_a < 10

    def test_quotient_negative_order_rejected(self):
        with pytest.raises(ValueError):
            combine(GH, G1, "quotient")

    def test_bad_op_rejected(self):
        with pytest.raises(ValueError):
            combine(G1, G1, "power")

    def test_associativity_of_product_pointwise(self):
        a, b, c = G1, GH, gamma_moment(2)
        left = combine(combine(a, b, "product"), c, "product")
        right = combine(a, combine(b, c, "product"), "product")
        for n in range(12):
            assert close(left.value(n), right.value(n))


class TestTabulated:
    def test_values_must_start_at_one(self):
        with pytest.raises(ValueError):
            tabulated_moment([2, 1, 1], order=1)

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            tabulated_moment([1, 0], order=1)

    def test_callable_table(self):
        m = tabulated_moment(lambda n: Fraction(2) ** n, order=0)
        assert m.value_exact(5) == 32

    def test_sequence_out_of_range(self):
        m = tabulated_moment([1, 2, 6], order=1)
        with pytest.raises(ValueError):
            m.value(3)

    def test_perturbed_gamma_is_usable(self):
        m = tabulated_moment(lambda n: mpmath.gamma(1 + n) * mpf("1.01") ** n, order=1)
        a, big_a = growth_envelope(m, 40)
        assert 1 <= a <= big_a <= mpf("1.02")


class TestRegularityConstants:
    def test_gamma1_ratio_is_exactly_n(self):
        a, big_a = regularity_constants(G1, 100)
        assert close(a, 1) and close(big_a, 1)

    @pytest.mark.parametrize("s", [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)])
    def test_constants_within_proof_bounds(self, s):
        a, big_a = regularity_constants(gamma_moment(s), 100)
        sf = mpf(s.numerator) / s.denominator
        lower = mpmath.exp(-sf - 1) * sf ** sf
        upper = (1 + 1 / sf) ** sf * mpmath.e * sf ** sf
        assert lower <= a <= big_a <= upper

    def test_half_order_long_range(self):
        a, big_a = regularity_constants(GH, 200)
        assert a > 0 and mpmath.isfinite(big_a)

    def test_order_zero_returns_plain_ratio_extrema(self):
        q = combine(G1, G1, "quotient")
        a, big_a = regularity_constants(q, 50)
        assert close(a, 1) and close(big_a, 1)

    def test_n_max_validated(self):
        with pytest.raises(ValueError):
            regularity_constants(G1, 0)


class TestGrowthEnvelope:
    def test_gamma_is_its_own_envelope(self):
        a, big_a = growth_envelope(G1, 80)
        assert close(a, 1) and close(big_a, 1)

    def test_product_of_halves_vs_order_one(self):
        m = combine(GH, GH, "product")
        a, big_a = growth_envelope(m, 80)
        # Gamma(1+n/2)^2 / n! is a geometric-like factor, strictly below 1
        assert 0 < a <= big_a <= 1

    def test_order_zero_constant_sequence(self):
        q = combine(G1, G1, "quotient")
        a, big_a = growth_envelope(q, 30)
        assert close(a, 1) and close(big_a, 1)


class TestInvariants:
    @pytest.mark.parametrize("m", [
        G1, GH, combine(G1, GH, "product"), combine(G1, GH, "quotient"),
        tabulated_moment([1, 3, 9], order=1),
    ])
    def test_normalisation_everywhere(self, m):
        assert close(m.value(0), 1)

    @pytest.mark.parametrize("s", [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)])
    def test_gamma_ratio_bounds_on_long_range(self, s):
        # consecutive-ratio envelope with the proof constants, n <= 500
        m = gamma_moment(s)
        sf = mpf(s.numerator) / s.denominator
        lo = mpmath.exp(-sf - 1) * sf ** sf
        hi = (1 + 1 / sf) ** sf * mpmath.e * sf ** sf
        for n in range(1, 501, 7):
            ratio = m.value(n) / m.value(n - 1) / mpmath.power(n, sf)
            assert lo <= ratio <= hi


def moment_kinds():
    """Fresh instances of every kind: gamma, product, quotient, tabulated."""
    return [
        gamma_moment(1),
        gamma_moment(2),
        combine(gamma_moment(1), gamma_moment(1), "product"),
        combine(gamma_moment(2), gamma_moment(1), "quotient"),
        tabulated_moment([Fraction(3) ** n for n in range(30)], order=0),
        tabulated_moment(lambda n: Fraction(n + 1) ** 2, order=0),
    ]


class TestTables:
    def test_no_moment_function_outlives_a_run(self):
        spec_file = parse_problem_file(HEAT, overrides={"n_max": 16})
        refs = [weakref.ref(spec_file.operator.m0), weakref.ref(spec_file.operator.m[0])]
        result = pipeline.run(spec_file)
        assert result.growth.verdict == "consistent"
        del spec_file, result
        gc.collect()
        assert [ref() for ref in refs] == [None, None]

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_extended_table_equals_fresh_table(self, mode):
        for grown, fresh in zip(moment_kinds(), moment_kinds()):
            short = grown.values(10, mode)
            assert grown.values(20, mode) == fresh.values(20, mode)
            assert short == fresh.values(20, mode)[:11]
            assert len(short) == 11

    def test_float_values_follow_the_precision(self):
        m = combine(GH, gamma_moment(Fraction(3, 2)), "product")
        with mpmath.workprec(128):
            low = m.value(7)
        high = m.value(7)
        assert high == combine(GH, gamma_moment(Fraction(3, 2)), "product").value(7)
        assert high != low
        assert mpmath.mp.prec == 256

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_shift_ratios_are_single_divisions(self, mode):
        for m in moment_kinds():
            for a in (1, 2):
                ratios = m.shift_ratios(a, 12, mode)
                assert len(ratios) == 13
                assert list(ratios) == [m.ratio(b + a, b, mode) for b in range(13)]
                assert m.shift_ratios(a, 5, mode) == ratios[:6]

    def test_equal_instances_share_nothing(self):
        a, b = gamma_moment(1), gamma_moment(1)
        a.values(8, "exact")
        assert a == b and hash(a) == hash(b)
        assert b.values(8, "exact") == a.values(8, "exact")

    def test_irrational_entry_raises_only_when_read(self):
        assert GH.value_exact(2) == 1
        with pytest.raises(ExactValueUnavailable):
            GH.values(2, "exact")
        with pytest.raises(ExactValueUnavailable):
            GH.shift_ratios(1, 0, "exact")

    def test_tabulated_table_stops_at_its_end(self):
        m = tabulated_moment([1, 2, 6], order=1)
        assert m.values(2, "exact") == (1, 2, 6)
        with pytest.raises(ValueError):
            m.values(3, "exact")
        assert m.value_exact(2) == 6
