import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, strategies as st
from mpmath import mpf

from mpde import (
    OperatorSpec,
    OperatorTerm,
    apply_operator,
    borel_z,
    combine,
    gamma_moment,
    generator_series,
    make_series,
    moment_diff_z,
    series_scale,
)
from mpde.operators import ZKernel
from mpde.precision import arithmetic
from mpde.series import arithmetic_of, graded_count

from helpers import (apply_operator_reference, moment_diff_t, moment_diff_z_reference,
                     operator_pairs_view, rational_ratio_moments, series_equal, time_series,
                     zero_time_series)

G1 = gamma_moment(1)
GH = gamma_moment(Fraction(1, 2))
G32 = gamma_moment(Fraction(3, 2))


def scalar_ts(values, mode="exact", cap=0):
    return time_series([make_series(1, {(0,): v} if v != 0 else {}, cap, mode)
                        for v in values])


class TestMomentDiffT:
    def test_classical_derivative_of_one_plus_t(self):
        u = scalar_ts([1, 1])
        du = moment_diff_t(u, G1)
        assert du.n_max == 0
        assert du.coeffs[0].coefficient((0,)) == 1

    def test_classical_derivative_of_t_squared(self):
        u = scalar_ts([0, 0, 1])
        du = moment_diff_t(u, G1)
        assert du.coeffs[1].coefficient((0,)) == 2
        assert du.coeffs[0].coefficient((0,)) == 0

    def test_half_order_derivative_of_t(self):
        u = scalar_ts([0, 1], mode="float")
        du = moment_diff_t(u, GH)
        want = mpmath.sqrt(mpmath.pi) / 2    # Gamma(3/2)/Gamma(1)
        assert abs(du.coeffs[0].coefficient((0,)) - want) < mpf("1e-60")

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            moment_diff_t(scalar_ts([1]), G1)


class TestMomentDiffZ:
    def test_classical_second_derivative(self):
        f = make_series(1, {(2,): 1}, 4)
        g = moment_diff_z(f, [G1], (2,))
        assert g.coefficient((0,)) == 2
        assert g.valid_degree == 2

    def test_overdifferentiation_gives_zero(self):
        f = make_series(1, {(1,): 1}, 4)
        g = moment_diff_z(f, [G1], (2,))
        assert g.coefficient((0,)) == 0

    def test_budget_exhaustion_flagged(self):
        f = make_series(1, {(1,): 1}, 1)
        g = moment_diff_z(f, [G1], (2,))
        assert g.valid_degree < 0 and not g.coeffs

    def test_half_order_on_geometric(self):
        f = generator_series("geometric", 1, 10, "float", ratio=1)
        g = moment_diff_z(f, [GH], (1,))
        for l in range(8):
            want = mpmath.gamma(1 + mpf(l + 1) / 2) / mpmath.gamma(1 + mpf(l) / 2)
            assert abs(g.coefficient((l,)) - want) < mpf("1e-55")

    def test_matches_symbolic_differentiation(self):
        rng = random.Random(3)
        coeffs = [Fraction(rng.randint(-4, 4)) for _ in range(9)]
        f = make_series(1, {(l,): c for l, c in enumerate(coeffs)}, 8)
        g = moment_diff_z(f, [G1], (3,))
        # symbolic: coefficient l of f''' is (l+1)(l+2)(l+3) * c_{l+3}
        for l in range(6):
            assert g.coefficient((l,)) == (l + 1) * (l + 2) * (l + 3) * coeffs[l + 3]

    def test_composition_additivity(self):
        f = generator_series("geometric", 2, 8, "float", ratio=Fraction(1, 2))
        m = [G1, GH]
        one = moment_diff_z(moment_diff_z(f, m, (1, 0)), m, (0, 1))
        both = moment_diff_z(f, m, (1, 1))
        assert series_equal(one, both)
        two = moment_diff_z(moment_diff_z(f, m, (0, 1)), m, (1, 0))
        assert series_equal(two, both)

    def test_linearity(self):
        f = make_series(1, {(l,): l + 1 for l in range(5)}, 6)
        g = make_series(1, {(l,): Fraction(1, l + 1) for l in range(5)}, 6)
        from mpde import series_add, series_scale

        lhs = moment_diff_z(series_add(f, series_scale(g, 3)), [G1], (2,))
        rhs = series_add(moment_diff_z(f, [G1], (2,)),
                         series_scale(moment_diff_z(g, [G1], (2,)), 3))
        assert series_equal(lhs, rhs)


class TestBorel:
    def test_borel_z_identity_quotient(self):
        q = combine(G1, G1, "quotient")
        f = generator_series("geometric", 1, 6, ratio=Fraction(2, 3))
        assert series_equal(borel_z(f, [q]), f)

    def test_borel_z_flattens_factorials(self):
        f = make_series(1, {(l,): math.factorial(l) for l in range(7)}, 6)
        g = borel_z(f, [G1])
        assert series_equal(g, generator_series("geometric", 1, 6, ratio=1))

    def test_borel_z_on_cross_term(self):
        f = make_series(2, {(1, 1): 1}, 4)
        g = borel_z(f, [G1, G1])
        assert g.coefficient((1, 1)) == 1    # both m(1) = 1

    def test_borel_z_inverse_round_trip(self):
        m1 = combine(G1, G1, "product")
        q = combine(gamma_moment(2), m1, "quotient")
        f = generator_series("geometric", 1, 8, ratio=Fraction(1, 2))
        assert series_equal(borel_z(borel_z(f, [q]), [q], inverse=True), f)


class TestApplyOperator:
    def test_pure_time_derivative(self):
        # raw action on u_n = n!: output_n = u_{n+1} * m0(n+1)/m0(n) = (n+1)*(n+1)!
        spec = OperatorSpec(M=1, m0=G1, m=(G1,), terms=())
        u = scalar_ts([math.factorial(n) for n in range(8)])
        out = apply_operator(spec, u)
        for n in range(7):
            assert out.coeffs[n].coefficient((0,)) == (n + 1) * math.factorial(n + 1)

    def test_zero_input(self):
        spec = OperatorSpec(M=2, m0=G1, m=(G1,),
                            terms=(OperatorTerm(j=0, alpha=(1,), coeff=(Fraction(1),)),))
        u = zero_time_series(6, 1, 6)
        out = apply_operator(spec, u)
        assert all(not c.coeffs for c in out.coeffs)

    def test_heat_operator_by_hand(self):
        # P = D_t - D_z^2 applied to u = t * z^2: D_t u = z^2; D_z^2 u = 2t
        spec = OperatorSpec(M=1, m0=G1, m=(G1,),
                            terms=(OperatorTerm(j=0, alpha=(2,), coeff=(Fraction(-1),)),))
        u = time_series([
            make_series(1, {}, 4),
            make_series(1, {(2,): 1}, 4),
        ])
        out = apply_operator(spec, u)
        assert out.coeffs[0].coefficient((2,)) == 1
        assert out.coeffs[0].coefficient((0,)) == 0
        # n_max drops to 0 via the leading derivative

    def test_truncated_coefficient_limits_window(self):
        term = OperatorTerm(j=0, alpha=(0,), coeff=(Fraction(1), Fraction(1)), truncated=True)
        spec = OperatorSpec(M=1, m0=G1, m=(G1,), terms=(term,))
        u = scalar_ts([1, 1, 1, 1, 1])
        out = apply_operator(spec, u)
        assert out.n_max == 1    # truncation order of a caps the product

    def test_insufficient_t_order_rejected(self):
        spec = OperatorSpec(M=3, m0=G1, m=(G1,), terms=())
        with pytest.raises(ValueError):
            apply_operator(spec, scalar_ts([1, 1]))

    def test_absolute_envelope_dominates(self):
        spec = OperatorSpec(M=1, m0=G1, m=(G1,),
                            terms=(OperatorTerm(j=0, alpha=(1,), coeff=(Fraction(-2),)),))
        u = time_series([make_series(1, {(l,): (-1) ** l for l in range(5)}, 4)
                         for _ in range(4)])
        pairs = list(operator_pairs_view(spec, u))
        assert [plain for plain, _ in pairs] == list(apply_operator(spec, u).coeffs)
        for plain, envelope in pairs:
            for alpha, v in plain.coeffs.items():
                assert abs(v) <= envelope.coefficient(alpha)


def borel_t(u, m_prime):
    """The t-Borel transform: the n-th t-coefficient divided by m'(n)."""
    return time_series([series_scale(c, m_prime.ratio(0, n, u.mode))
                        for n, c in enumerate(u.coeffs)])


class TestCommutation:
    @given(st.lists(st.integers(min_value=-6, max_value=6), min_size=2, max_size=7))
    def test_commutation_formula_float(self, values):
        rng = random.Random(sum(abs(v) for v in values))
        m = rng.choice([GH, G1, G32])
        m_prime = rng.choice([GH, G1, G32])
        u = scalar_ts(values, mode="float")
        lhs = borel_t(moment_diff_t(u, m), m_prime)
        rhs = moment_diff_t(borel_t(u, m_prime), combine(m, m_prime, "product"))
        assert lhs.n_max == rhs.n_max
        for n in range(lhs.n_max + 1):
            assert series_equal(lhs.coeffs[n], rhs.coeffs[n])

    def test_commutation_formula_exact(self):
        u = scalar_ts([3, -1, 4, -1, 5, -9, 2])
        m, m_prime = G1, combine(G1, G1, "product")
        lhs = borel_t(moment_diff_t(u, m), m_prime)
        rhs = moment_diff_t(borel_t(u, m_prime), combine(m, m_prime, "product"))
        for n in range(lhs.n_max + 1):
            assert lhs.coeffs[n].coeffs == rhs.coeffs[n].coeffs


class TestOperatorSpecInvariants:
    def test_duplicate_terms_rejected(self):
        t = OperatorTerm(j=0, alpha=(1,), coeff=(Fraction(1),))
        with pytest.raises(ValueError):
            OperatorSpec(M=1, m0=G1, m=(G1,), terms=(t, t))

    def test_order_zero_time_moment_rejected(self):
        q = combine(G1, G1, "quotient")
        with pytest.raises(ValueError):
            OperatorSpec(M=1, m0=q, m=(G1,), terms=())

    def test_alpha_dimension_checked(self):
        with pytest.raises(ValueError):
            OperatorSpec(M=1, m0=G1, m=(G1,),
                         terms=(OperatorTerm(j=0, alpha=(1, 1), coeff=(Fraction(1),)),))

    def test_ord_t_float_threshold(self):
        # a coefficient is zero only when it equals 0, however small a float is
        tiny = mpmath.ldexp(1, -200)
        term = OperatorTerm(j=0, alpha=(0,), coeff=(tiny, mpf(1)))
        assert term.ord_t() == 0
        assert OperatorTerm(j=0, alpha=(0,), coeff=(mpf(0), 0.0, tiny)).ord_t() == 2


def kernel_moments(mode):
    """Moment functions of every kind, two with shift ratios that are not all
    integers; half orders only where values are floats."""
    kinds = [
        G1,
        combine(G1, gamma_moment(2), "product"),
        combine(gamma_moment(2), G1, "quotient"),
        combine(gamma_moment(3), gamma_moment(2), "quotient"),
        combine(gamma_moment(4), gamma_moment(2), "quotient"),
    ]
    if mode == "float":
        kinds += [GH, combine(G32, GH, "quotient"), combine(GH, GH, "product")]
    return kinds


def kernel_input(rng, dim, degree, mode):
    table = {}
    for _ in range(3 * degree):
        alpha = tuple(rng.randint(0, degree) for _ in range(dim))
        if sum(alpha) <= degree:
            table[alpha] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return make_series(dim, table, degree, mode)


class TestMomentDiffZOracle:
    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_table_kernel_equals_per_coefficient_ratios(self, mode, dim):
        rng = random.Random(dim * 10 + (mode == "exact"))
        kinds = kernel_moments(mode)
        for _ in range(12):
            m = [rng.choice(kinds) for _ in range(dim)]
            f = kernel_input(rng, dim, 9, mode)
            alpha = tuple(rng.randint(0, 3) for _ in range(dim))
            got = moment_diff_z(f, m, alpha)
            want = moment_diff_z_reference(f, m, alpha)
            assert got.coeffs == want.coeffs, (m, alpha)
            assert got.valid_degree == want.valid_degree

    def test_multi_axis_alpha_on_every_kind(self):
        for mode in ("exact", "float"):
            kinds = kernel_moments(mode)
            f = kernel_input(random.Random(7), 2, 12, mode)
            for m1 in kinds:
                for m2 in kinds:
                    for alpha in ((1, 1), (2, 1), (0, 3)):
                        got = moment_diff_z(f, [m1, m2], alpha)
                        assert got.coeffs == moment_diff_z_reference(f, [m1, m2], alpha).coeffs


class TestDiffAtRanks:
    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_equals_the_whole_vector_read_at_the_ranks(self, mode):
        # every moment kind on the first axis, in one and in two variables
        rng = random.Random(31)
        kinds = kernel_moments(mode)
        for first in kinds:
            for dim in (1, 2):
                kernel = ZKernel([first, *(rng.choice(kinds) for _ in range(dim - 1))])
                f = kernel_input(rng, dim, 9, mode)
                arith, vec = arithmetic_of(f), f.dense(graded_count(dim, 9))
                for alpha in {(0,) * dim, (1,) + (0,) * (dim - 1), (2,) * dim,
                              tuple(rng.randint(0, 3) for _ in range(dim))}:
                    whole, den, vd = kernel.diff(vec, f.den, 9, alpha, arith)
                    ranks = sorted(rng.sample(range(len(whole)), len(whole) // 3))
                    want = ([whole[r] for r in ranks], den, vd)
                    assert kernel.diff(vec, f.den, 9, alpha, arith, ranks) == want
                    # the elements that the ranks gather are all it reads
                    sources = kernel.gather(alpha, vd)
                    short = vec[:max((sources[r] for r in ranks), default=-1) + 1]
                    assert kernel.diff(short, f.den, 9, alpha, arith, ranks) == want


RATIONAL_M0, RATIONAL_M = rational_ratio_moments()


class TestRatioTables:
    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_a_larger_degree_rebuilds_the_table(self, mode):
        # ratio vectors read at degree 3, then at 9, equal a table built at
        # degree 9 at once, and a smaller degree reads that table as held
        arith = arithmetic(mode)
        for alpha in ((1, 0), (2, 1), (0, 3)):
            kernel = ZKernel(RATIONAL_M)
            kernel.ratios(alpha, 3, arith)
            large = kernel.ratios(alpha, 9, arith)
            assert large == ZKernel(RATIONAL_M).ratios(alpha, 9, arith)
            assert kernel.ratios(alpha, 5, arith) == large


class TestOperatorPairs:
    SPECS = [
        OperatorSpec(M=1, m0=G1, m=(G1,),
                     terms=(OperatorTerm(j=0, alpha=(2,), coeff=(Fraction(-1),)),)),
        OperatorSpec(M=2, m0=G1, m=(G1, combine(G1, G1, "product")), terms=(
            OperatorTerm(j=1, alpha=(1, 0), coeff=(Fraction(1, 2), Fraction(-3))),
            OperatorTerm(j=0, alpha=(1, 1), coeff=(Fraction(0), Fraction(0), Fraction(1))),
            OperatorTerm(j=3, alpha=(0, 1), coeff=(Fraction(0), Fraction(0), Fraction(2),
                                                   Fraction(-1)), truncated=True),
        )),
        # time and space shift ratios that are non-integer rationals
        OperatorSpec(M=2, m0=RATIONAL_M0, m=RATIONAL_M, terms=(
            OperatorTerm(j=1, alpha=(1, 0), coeff=(Fraction(1, 3), Fraction(-2, 5))),
            OperatorTerm(j=0, alpha=(1, 1), coeff=(Fraction(0), Fraction(3, 7))),
            OperatorTerm(j=2, alpha=(0, 2), coeff=(Fraction(0), Fraction(-1, 2))),
        )),
    ]

    @pytest.mark.parametrize("spec", SPECS, ids=["heat", "mixed", "rational"])
    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_pairs_equal_two_whole_applications(self, spec, mode):
        rng = random.Random(3)
        u = time_series([kernel_input(rng, spec.dim, 14, mode) for _ in range(9)])
        pairs = list(operator_pairs_view(spec, u))
        signed = apply_operator_reference(spec, u)
        envelope = apply_operator_reference(spec, u, absolute=True)
        assert len(pairs) == signed.n_max + 1 == envelope.n_max + 1
        for (value, env), want, want_env in zip(pairs, signed.coeffs, envelope.coeffs):
            assert value.coeffs == want.coeffs
            assert env.coeffs == want_env.coeffs
            assert value.valid_degree == want.valid_degree
            assert env.valid_degree == want.valid_degree
