import gc
import json
import math
import time
import weakref
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, strategies as st
from mpmath import mpf

from mpde import (
    combine,
    gamma_moment,
    regularity_constants,
    pipeline,
    tabulated_moment,
)
from mpde.moments import MAX_MOMENT_FACTORS, ExactValueUnavailable
from mpde.precision import float_tolerance, to_mpf
from mpde.problemspec import parse_problem_file

from helpers import growth_envelope, moment_value_reference

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


def values(m, n: int, mode: str) -> tuple:
    """(m(0), ..., m(n)) in the arithmetic of ``mode``."""
    read = m.value_exact if mode == "exact" else m.value
    return tuple(read(k) for k in range(n + 1))


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
            short = values(grown, 10, mode)
            assert values(grown, 20, mode) == values(fresh, 20, mode)
            assert short == values(fresh, 20, mode)[:11]
            assert len(short) == 11

    def test_float_values_follow_the_precision(self):
        m = combine(GH, gamma_moment(Fraction(3, 2)), "product")
        with mpmath.workprec(128):
            low = m.value(7)
        high = m.value(7)
        assert high == combine(GH, gamma_moment(Fraction(3, 2)), "product").value(7)
        assert high != low
        assert mpmath.mp.prec == 256

    def test_equal_instances_share_nothing(self):
        a, b = gamma_moment(1), gamma_moment(1)
        values(a, 8, "exact")
        assert a == b and hash(a) == hash(b)
        assert values(b, 8, "exact") == values(a, 8, "exact")

    def test_irrational_entry_raises_only_when_read(self):
        assert GH.value_exact(2) == 1
        with pytest.raises(ExactValueUnavailable):
            values(GH, 2, "exact")

    def test_tabulated_table_stops_at_its_end(self):
        m = tabulated_moment([1, 2, 6], order=1)
        assert values(m, 2, "exact") == (1, 2, 6)
        with pytest.raises(ValueError):
            values(m, 3, "exact")
        assert m.value_exact(2) == 6


def self_products(levels: int) -> tuple:
    """a_k = a_{k-1} * a_{k-1} and likewise b_k, from two distinct order-0
    gammas: equal trees of ``levels`` levels that share every subtree."""
    a, b = gamma_moment(0), gamma_moment(0)
    for _ in range(levels):
        a, b = combine(a, a, "product"), combine(b, b, "product")
    return a, b


class TestStructuralEquality:
    def test_shared_subtrees_compare_in_linear_time(self):
        a, b = self_products(20)
        start = time.perf_counter()
        ratio = combine(a, b, "quotient").ratio(3, 2, "exact")
        assert time.perf_counter() - start < 0.2
        assert ratio == 1

    def test_equal_trees_hash_alike(self):
        a, b = self_products(40)
        assert a == b and hash(a) == hash(b)
        c = combine(combine(a, a, "product"), a, "product")
        d = combine(combine(b, b, "product"), gamma_moment(1), "product")
        # order-0 gammas are Gamma(1) = 1, so every product of them is the
        # empty product, which gamma_moment(0) is too
        assert c != d and c == gamma_moment(0) and a != G1

    def test_forty_level_declarations(self, tmp_path):
        # a quotient of two 40-level self-products is 1, so heat with that
        # quotient times Gamma_1 as its space moment solves heat itself
        doc = json.loads(HEAT.read_text())
        moments = {"m0": doc["moments"]["m0"], "a0": {"kind": "gamma", "order": "0"},
                   "b0": {"kind": "gamma", "order": "0"}, "g1": {"kind": "gamma", "order": "1"}}
        for k in range(1, 41):
            for x in "ab":
                moments[f"{x}{k}"] = {"kind": "product", "factors": [f"{x}{k - 1}"] * 2}
        moments["q"] = {"kind": "quotient", "factors": ["a40", "b40"]}
        moments["s"] = {"kind": "product", "factors": ["q", "g1"]}
        doc["moments"], doc["operator"]["space_moments"] = moments, ["s"]
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(doc))
        spec_file = parse_problem_file(path, overrides={"n_max": 12})
        assert spec_file.operator.m[0].ratio(3, 2, "exact") == 3
        deep = pipeline.run(spec_file)
        heat = pipeline.run(parse_problem_file(HEAT, overrides={"n_max": 12}))
        assert deep.solution.u.coeffs == heat.solution.u.coeffs


class TestNormalForm:
    def test_combine_past_the_cap_raises(self):
        m = G1
        while sum(e for _, e in m.factors) * 2 <= MAX_MOMENT_FACTORS:
            m = combine(m, m, "product")
        assert m.factors == ((Fraction(1), MAX_MOMENT_FACTORS),)
        assert combine(m, m, "quotient") == gamma_moment(0)
        with pytest.raises(ValueError, match=f"at most {MAX_MOMENT_FACTORS}"):
            combine(m, G1, "product")

    def test_unavailable_message_stays_short(self):
        m = GH
        for _ in range(6):
            m = combine(m, m, "product")
        assert m.order == 32
        with pytest.raises(ExactValueUnavailable) as info:
            m.value_exact(1)
        assert len(str(info.value)) < 300


# the one table of the recipes: order 1, rational values up to m(12)
RECIPE_TABLE = tuple(Fraction(math.factorial(k), 2 ** k) for k in range(13))
RECIPE_TABLE_ORDER = 1
RECIPE_N = range(13)


def recipe_order(recipe) -> Fraction:
    kind = recipe[0]
    if kind == "gamma":
        return Fraction(recipe[1])
    if kind == "table":
        return Fraction(RECIPE_TABLE_ORDER)
    a, b = recipe_order(recipe[1]), recipe_order(recipe[2])
    return a + b if kind == "product" else a - b


def _oriented(node):
    """A quotient with its operands swapped where the quotient order would
    be negative."""
    kind, a, b = node
    if kind == "quotient" and recipe_order(a) < recipe_order(b):
        a, b = b, a
    return kind, a, b


def recipes(depth: int):
    """Moment recipes nested at most ``depth`` levels below the root."""
    leaf = st.one_of(
        st.sampled_from(["0", "1/2", "1", "3/2", "2"]).map(lambda s: ("gamma", Fraction(s))),
        st.just(("table", RECIPE_TABLE)))
    if depth == 0:
        return leaf
    sub = recipes(depth - 1)
    return st.one_of(leaf, st.tuples(st.sampled_from(["product", "quotient"]), sub, sub)
                     .map(_oriented))


def build(recipe):
    kind = recipe[0]
    if kind == "gamma":
        return gamma_moment(recipe[1])
    if kind == "table":
        return tabulated_moment(recipe[1], order=RECIPE_TABLE_ORDER)
    return combine(build(recipe[1]), build(recipe[2]), kind)


def leaves(recipe) -> int:
    return 1 if recipe[0] in ("gamma", "table") else leaves(recipe[1]) + leaves(recipe[2])


class TestNormalFormAgainstTree:
    """The normal form built by ``combine`` against the tree evaluated node
    by node."""

    @given(recipe=recipes(4))
    def test_values_match_the_tree(self, recipe):
        m = build(recipe)
        assert m.order == recipe_order(recipe)
        for n in RECIPE_N:
            ref, got = moment_value_reference(recipe, n, "float"), m.value(n)
            if leaves(recipe) <= 2:
                assert got == ref
            else:
                assert abs(got - ref) <= float_tolerance() * abs(ref)
            try:
                exact = m.value_exact(n)
            except ExactValueUnavailable:
                exact = None
            exact_ref = moment_value_reference(recipe, n, "exact")
            if exact_ref is not None:
                assert exact == exact_ref
            elif exact is not None:
                # cancelled factors may leave a rational value where the
                # tree passes through an irrational one
                assert abs(to_mpf(exact) - ref) <= float_tolerance() * ref

    @given(recipe=recipes(4))
    def test_self_quotient_is_the_identity(self, recipe):
        m = build(recipe)
        assert combine(m, m, "quotient") == gamma_moment(0)
