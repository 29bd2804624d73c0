import dataclasses
import math
import random
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from mpde import (
    CauchyProblem,
    OperatorSpec,
    OperatorTerm,
    SolutionSeries,
    TimeSeries,
    apply_operator,
    borel_problem,
    combine,
    gamma_moment,
    generator_series,
    make_series,
    residual_max_relative,
    series_scale,
    solve_formal,
    solve_majorant,
    solve_via_borel,
    solver,
    validate,
    zero_series,
)
from mpde.operators import operator_numerators
from mpde.precision import float_tolerance, to_number
from mpde.problemspec import materialize_problem, parse_problem_file
from mpde.series import arithmetic_of, graded_rank, indices_up_to
from mpde.solver import REDUCE_BITS, degree_envelope, dependency_cone, space_borel_quotients
from helpers import (data_degrees, dependency_cone_reference, exact_values_read,
                     heat_solution_oracle, on_cone, random_data, random_operator_spec,
                     random_problem, rational_ratio_moments, residual_max_relative_two_pass,
                     series_equal, solve_formal_reference, time_series, zero_forcing,
                     zero_time_series)

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"

G1 = gamma_moment(1)
GH = gamma_moment(Fraction(1, 2))


def heat_problem(n_max, report_degree=0, mode="exact", s0=Fraction(1)):
    spec = OperatorSpec(M=1, m0=gamma_moment(s0), m=(G1,),
                        terms=(OperatorTerm(j=0, alpha=(2,), coeff=(Fraction(-1),)),))
    full = report_degree + 2 * n_max
    phi = generator_series("geometric", 1, full, mode, ratio=1)
    return CauchyProblem(spec=spec, initial=(phi,),
                         forcing=zero_forcing(spec, n_max, report_degree, mode))


def reading_ahead(*terms):
    """The problem of ``terms`` with M = 1 and exact geometric data."""
    spec = OperatorSpec(M=1, m0=G1, m=(G1,), terms=terms)
    phi = generator_series("geometric", 1, 10, ratio=1)
    return CauchyProblem(spec=spec, initial=(phi,), forcing=zero_forcing(spec, 4))


class TestValidate:
    def test_heat_passes_all(self):
        assert validate(heat_problem(6)) is None

    def test_j_equals_m_with_zero_order_fails(self):
        with pytest.raises(ValueError) as info:
            reading_ahead(OperatorTerm(j=1, alpha=(1,), coeff=(Fraction(1),)))
        assert str(info.value) == (
            "condition term_order violated at term j=1, alpha=(1,) (ord_t=0)")

    def test_low_j_with_zero_order_passes(self):
        spec = OperatorSpec(M=2, m0=G1, m=(G1,),
                            terms=(OperatorTerm(j=0, alpha=(1,), coeff=(Fraction(1),)),))
        phi = generator_series("geometric", 1, 10, ratio=1)
        prob = CauchyProblem(spec=spec, initial=(phi, phi), forcing=zero_forcing(spec, 4))
        assert validate(prob) is None

    @pytest.mark.parametrize("term, mode", [
        (OperatorTerm(j=1, alpha=(1,), coeff=(mpmath.mpf("1e-50"), mpmath.mpf(1))), "float"),
    ], ids=["float_below_threshold"])
    def test_stored_coefficient_below_order_fails(self, term, mode):
        # c_0 = 1e-50 is not 0, so ord_t = 0 < 1 fails the order bound: the
        # piece p = 0 would read u_n while computing it
        spec = OperatorSpec(M=1, m0=G1, m=(G1,), terms=(term,))
        phi = generator_series("geometric", 1, 10, mode, ratio=1)
        assert term.ord_t() == 0
        with pytest.raises(ValueError) as info:
            CauchyProblem(spec=spec, initial=(phi,), forcing=zero_forcing(spec, 4, mode=mode))
        assert str(info.value) == (
            "condition term_order violated at term j=1, alpha=(1,) (ord_t=0)")

    def test_solve_refuses_invalid_problem(self):
        # no invalid problem reaches a solve: replacing the operator of a
        # valid one validates again
        bad = OperatorSpec(M=1, m0=G1, m=(G1,),
                           terms=(OperatorTerm(j=1, alpha=(1,), coeff=(Fraction(1),)),))
        with pytest.raises(ValueError, match="^condition term_order violated at term j=1"):
            dataclasses.replace(heat_problem(4), spec=bad)

    def test_every_offender_in_one_message(self):
        # declared out of order, named in (j, alpha) order
        with pytest.raises(ValueError) as info:
            reading_ahead(OperatorTerm(j=2, alpha=(0,), coeff=(Fraction(0), Fraction(3))),
                          OperatorTerm(j=0, alpha=(1,), coeff=(Fraction(1),)),
                          OperatorTerm(j=1, alpha=(2,), coeff=(Fraction(2),)))
        assert str(info.value) == (
            "condition term_order violated at term j=1, alpha=(2,) (ord_t=0); "
            "j=2, alpha=(0,) (ord_t=1)")


class TestBorelProblem:
    def test_identity_when_already_gamma(self):
        prob = heat_problem(5)
        bp = borel_problem(prob)
        for a, b in zip(prob.initial, bp.initial):
            assert series_equal(a, b)
        assert bp.spec.m[0].order == 1

    def test_transform_scales_by_moment_over_gamma(self):
        # phi_l = m1(l) with m1 = Gamma1^2 (order 2): psi_l = m1(l)^2 / (2l)!
        m1 = combine(G1, G1, "product")
        spec = OperatorSpec(M=1, m0=G1, m=(m1,),
                            terms=(OperatorTerm(j=0, alpha=(1,), coeff=(Fraction(1),)),))
        cap = 8
        phi = make_series(1, {(l,): m1.value_exact(l) for l in range(cap + 1)}, cap)
        prob = CauchyProblem(spec=spec, initial=(phi,), forcing=zero_forcing(spec, 4))
        psi = borel_problem(prob).initial[0]
        for l in range(cap + 1):
            want = (Fraction(math.factorial(l)) ** 2) ** 2 / math.factorial(2 * l)
            assert psi.coefficient((l,)) == want

    def test_zero_forcing_stays_zero(self):
        prob = heat_problem(5)
        assert all(not c.coeffs for c in borel_problem(prob).forcing.coeffs)

    def test_short_table_reads_only_stored_degrees(self, monkeypatch):
        # phi is nonzero to degree 3 only, far below the valid degree 10:
        # psi_l = phi_l * m1(l) / l! reads the quotient l!/m1(l) where phi
        # is nonzero, no further, so its value table ends at degree 3
        quotients = []

        def record(spec):
            quotients.extend(space_borel_quotients(spec))
            return quotients

        monkeypatch.setattr(solver, "space_borel_quotients", record)
        m1 = combine(gamma_moment(3), gamma_moment(2), "quotient")
        spec = OperatorSpec(M=1, m0=G1, m=(m1,),
                            terms=(OperatorTerm(j=0, alpha=(1,), coeff=(Fraction(1),)),))
        phi = generator_series("polynomial", 1, 10, coeffs=[1, 0, 0, Fraction(1, 5)])
        prob = CauchyProblem(spec=spec, initial=(phi,), forcing=zero_forcing(spec, 5))
        bp = borel_problem(prob)
        # m1(3) = 9!/6! = 504
        assert bp.initial[0].coeffs == {(0,): 1, (3,): Fraction(504, 5 * 6)}
        assert bp.initial[0].valid_degree == 10
        assert all(not c.coeffs for c in bp.forcing.coeffs)
        assert exact_values_read(quotients[0]) == 4


class TestSolveFormal:
    def test_heat_against_differentiation_oracle(self):
        n_max = 20
        prob = heat_problem(n_max)
        sol = solve_formal(prob, n_max, 0)
        oracle = heat_solution_oracle(n_max, [1] * (2 * n_max + 1))
        for n in range(n_max + 1):
            assert sol.u.coeffs[n].coefficient((0,)) == oracle[n]
        # closed form (2n)!/n!
        assert oracle[5] == Fraction(math.factorial(10), math.factorial(5))

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_string_coefficient_solves_as_its_fraction(self, mode):
        def problem(coeff):
            spec = OperatorSpec(M=1, m0=G1, m=(G1,),
                                terms=(OperatorTerm(j=0, alpha=(2,), coeff=coeff),))
            phi = generator_series("geometric", 1, 16, mode, ratio=1)
            return CauchyProblem(spec=spec, initial=(phi,),
                                 forcing=zero_forcing(spec, 8, 0, mode))

        text, fraction = problem(("-1/2",)), problem((Fraction(-1, 2),))
        for solve in (solve_formal, solve_majorant):
            got, want = solve(text, 8, 0), solve(fraction, 8, 0)
            assert [c.coeffs for c in got.u.coeffs] == [c.coeffs for c in want.u.coeffs]

    def test_initial_coefficients(self):
        prob = heat_problem(4)
        sol = solve_formal(prob, 4, 0)
        assert sol.working.coeffs[0].coefficient((0,)) == 1    # u_0 = phi / m0(0)

    def test_forcing_only_cascade(self):
        spec = OperatorSpec(M=1, m0=G1, m=(G1,), terms=())
        phi = zero_series(1, 0)
        forcing = time_series([make_series(1, {(0,): 1}, 0) for _ in range(8)])
        prob = CauchyProblem(spec=spec, initial=(phi,), forcing=forcing)
        sol = solve_formal(prob, 8, 0)
        assert sol.u.coeffs[1].coefficient((0,)) == 1
        assert sol.u.coeffs[2].coefficient((0,)) == Fraction(1, 2)
        for n in range(1, 9):
            assert sol.u.coeffs[n].coefficient((0,)) == Fraction(1, n)

    def test_boundary_convention_adjudicated_by_residual(self):
        # the p-sum hits n-p-j = 0 at n = j + p with v_j built from initial
        # data; the factor there is m0(n-p)/m0(0), not zero, and dropping it
        # must break the residual
        spec = OperatorSpec(M=2, m0=G1, m=(G1,),
                            terms=(OperatorTerm(j=1, alpha=(1,),
                                                coeff=(Fraction(0), Fraction(1))),))
        n_max = 6
        phi = generator_series("geometric", 1, n_max, ratio=Fraction(1, 2))
        prob = CauchyProblem(spec=spec, initial=(phi, phi),
                             forcing=zero_forcing(spec, n_max))
        good = solve_formal(prob, n_max, 0)
        assert residual_max_relative(prob, good) == 0
        bad = solve_formal_reference(prob, n_max, drop_boundary=True)
        assert residual_max_relative(prob, bad) > 0

    def test_report_degree_uniform(self):
        prob = heat_problem(6, report_degree=3)
        sol = solve_formal(prob, 6, 3)
        assert all(c.valid_degree == 3 for c in sol.u.coeffs)
        assert sol.valid_degrees == tuple(3 + 2 * (6 - n) for n in range(7))


class TestSolveMajorant:
    # solve_majorant computes the dependency cone only; the full majorant
    # recurrence is the reference's, and TestDependencyCone ties the two
    def test_sign_stable_problem_is_fixed_point(self):
        # heat: the recurrence's effective coefficients -c are nonnegative, so
        # with nonnegative data the solution is its own majorant
        prob = heat_problem(8)
        sol = solve_formal(prob, 8, 0)
        full = solve_formal_reference(prob, 8, 0, majorant_mode=True)
        for n in range(9):
            assert sol.working.coeffs[n].coeffs == full.working.coeffs[n].coeffs
        maj = solve_majorant(prob, 8, 0)
        cone = dependency_cone_reference(prob.spec, 8, 0)
        assert [c.coeffs for c in maj.working.coeffs] == on_cone(sol, cone)

    def test_positive_coefficient_gives_alternating_solution(self):
        prob = heat_problem(8)
        spec = OperatorSpec(M=1, m0=G1, m=(G1,),
                            terms=(OperatorTerm(j=0, alpha=(2,), coeff=(Fraction(1),)),))
        prob = CauchyProblem(spec=spec, initial=prob.initial, forcing=prob.forcing)
        sol = solve_formal(prob, 8, 0)
        full = solve_formal_reference(prob, 8, 0, majorant_mode=True)
        for n in range(9):
            for alpha, v in sol.working.coeffs[n].coeffs.items():
                assert full.working.coeffs[n].coefficient(alpha) == abs(v)
                assert (v < 0) == (n % 2 == 1)
        maj = solve_majorant(prob, 8, 0)
        cone = dependency_cone_reference(spec, 8, 0)
        assert [c.coeffs for c in maj.working.coeffs] == on_cone(full, cone)

    def test_alternating_sign_symmetry(self):
        n_max = 8
        spec = heat_problem(n_max).spec
        full = 2 * n_max
        phi_neg = generator_series("geometric", 1, full, ratio=-1)
        prob_neg = CauchyProblem(spec=spec, initial=(phi_neg,),
                                 forcing=zero_forcing(spec, n_max))
        ref = solve_formal_reference(prob_neg, n_max, 0, majorant_mode=True)
        pos = solve_formal(heat_problem(n_max), n_max, 0)
        for n in range(n_max + 1):
            assert ref.working.coeffs[n].coeffs == pos.working.coeffs[n].coeffs
        maj = solve_majorant(prob_neg, n_max, 0)
        cone = dependency_cone_reference(spec, n_max, 0)
        assert [c.coeffs for c in maj.working.coeffs] == on_cone(pos, cone)

    def test_zero_data_zero_majorant(self):
        spec = heat_problem(4).spec
        phi = zero_series(1, 8)
        prob = CauchyProblem(spec=spec, initial=(phi,), forcing=zero_forcing(spec, 4))
        maj = solve_majorant(prob, 4, 0)
        assert all(not c.coeffs for c in maj.working.coeffs)

    def test_domination_randomized(self):
        from mpde import majorizes

        rng = random.Random(99)
        for _ in range(6):
            prob = random_problem(rng, exact=True, n_max=7)
            sol = solve_formal(prob, 7, 1)
            maj = solve_majorant(prob, 7, 1)
            for n in range(8):
                assert majorizes(maj.u.coeffs[n], sol.u.coeffs[n])


class TestResidual:
    def test_residual_vanishes_exact(self):
        prob = heat_problem(10)
        sol = solve_formal(prob, 10, 0)
        assert residual_max_relative(prob, sol) == 0

    def test_initial_conditions_hold(self):
        prob = heat_problem(6)
        sol = solve_formal(prob, 6, 0)
        for j, phi in enumerate(prob.initial):
            # phi_j = m0(j) * u_j
            assert phi == series_scale(sol.working.coeffs[j], prob.spec.m0.ratio(j, 0, "exact"))

    def test_perturbation_shows_up_at_predictable_spot(self):
        prob = heat_problem(8)
        sol = solve_formal(prob, 8, 0)
        bumped = list(sol.working.coeffs)
        c3 = dict(bumped[3].coeffs)
        c3[(2,)] = c3.get((2,), Fraction(0)) + 1
        bumped[3] = make_series(1, c3, bumped[3].valid_degree)
        sol2 = SolutionSeries(TimeSeries(tuple(bumped)), sol.report_degree)
        # the forcing is zero, so the residual is P(u)
        res = apply_operator(prob.spec, sol2.working)
        # P(delta) with delta = t^3 z^2: D_t -> 3 t^2 z^2; -D_z^2 -> -2 t^3
        assert res.coeffs[2].coefficient((2,)) == 3
        assert res.coeffs[3].coefficient((0,)) == -2

    def test_zero_problem_zero_residual(self):
        spec = heat_problem(4).spec
        prob = CauchyProblem(spec=spec, initial=(zero_series(1, 8),),
                             forcing=zero_forcing(spec, 4))
        sol = solve_formal(prob, 4, 0)
        assert residual_max_relative(prob, sol) == 0

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_forcing_valid_degree_caps_each_order(self, mode):
        """Each order is checked to its forcing's valid degree only, also when
        the forcing stores no value: a bump of u above it is not read."""
        spec = OperatorSpec(M=1, m0=G1, m=(G1,),
                            terms=(OperatorTerm(j=0, alpha=(1,), coeff=(Fraction(-1),)),))
        phi = generator_series("geometric", 1, 8, mode, ratio=Fraction(1, 2))
        prob = CauchyProblem(spec=spec, initial=(phi,), forcing=zero_forcing(spec, 8, 0, mode))
        bump = bumped(solve_formal(prob, 8, 0), 3, (4,), Fraction(1, 7))
        low = CauchyProblem(spec=spec, initial=(phi,), forcing=zero_time_series(7, 1, 2, mode))
        assert residual_max_relative(low, bump) == residual_max_relative_two_pass(low, bump)
        assert residual_max_relative(low, bump) < residual_max_relative(prob, bump)

    def test_randomized_residuals_exact(self):
        rng = random.Random(5150)
        for _ in range(5)        :
            prob = random_problem(rng, exact=True, n_max=7)
            sol = solve_formal(prob, 7, 1)
            assert residual_max_relative(prob, sol) == 0

    def test_randomized_residuals_float(self):
        rng = random.Random(60)
        tol = mpmath.ldexp(1, -(mpmath.mp.prec - 32))
        for _ in range(3):
            prob = random_problem(rng, exact=False, n_max=6)
            sol = solve_formal(prob, 6, 1)
            assert residual_max_relative(prob, sol) < tol


def oracle_problem(terms, M, m, mode, n_max, m0=G1, report_degree=0):
    """A problem over the given terms with geometric data and a time-geometric
    forcing, materialized for ``report_degree``."""
    terms = tuple(
        OperatorTerm(j=t.j, alpha=t.alpha, coeff=tuple(to_number(c, mode) for c in t.coeff))
        for t in terms)
    spec = OperatorSpec(M=M, m0=m0, m=m, terms=terms)
    full, f_full = data_degrees(spec, n_max, report_degree)
    initial = tuple(generator_series("geometric", spec.dim, full, mode,
                                     ratio=Fraction(1, j + 2) * (-1) ** j) for j in range(M))
    space = make_series(spec.dim, {(0,) * spec.dim: 1, (1,) + (0,) * (spec.dim - 1): -2},
                        f_full, mode)
    forcing = TimeSeries(tuple(make_series(spec.dim, {a: Fraction(1, 3) ** k * v
                                                      for a, v in space.coeffs.items()},
                                           f_full, mode)
                               for k in range(n_max - M + 1)))
    return CauchyProblem(spec=spec, initial=initial, forcing=forcing)


def bumped(sol, n, alpha, delta):
    """sol with delta added to its working coefficient (n, alpha)."""
    coeffs = list(sol.working.coeffs)
    c = dict(coeffs[n].coeffs)
    c[alpha] = c.get(alpha, 0) + delta
    coeffs[n] = make_series(coeffs[n].dim, c, coeffs[n].valid_degree, coeffs[n].mode)
    return SolutionSeries(TimeSeries(tuple(coeffs)), sol.report_degree)


RATIONAL_M0, RATIONAL_M = rational_ratio_moments()

ORACLE_CASES = {
    # product2d's operator: a term whose leading t-coefficients are 0
    "leading_zeros": (1, G1, (combine(G1, G1, "product"), G1), (
        OperatorTerm(j=0, alpha=(1, 0), coeff=(Fraction(1, 2),)),
        OperatorTerm(j=0, alpha=(1, 1), coeff=(0, 0, 1)),
    )),
    # M = 2 with a j = 1 term, and a j = 2 term
    "m2_j1": (2, G1, (G1,), (
        OperatorTerm(j=1, alpha=(1,), coeff=(Fraction(-1, 2), 3, -1)),
        OperatorTerm(j=2, alpha=(1,), coeff=(0, Fraction(2, 3))),
        OperatorTerm(j=0, alpha=(2,), coeff=(1, 1)),
    )),
    # a coefficient with eight t-powers: step n reads back to u_{n-8}
    "dense_coefficient": (1, G1, (G1,), (
        OperatorTerm(j=0, alpha=(2,), coeff=(-1, 2, 0, 1, -3, 1, 1, 2)),
        OperatorTerm(j=1, alpha=(0,), coeff=(0, 1)),
    )),
    # time and space moments whose shift ratios are non-integer rationals
    "rational_ratios": (2, RATIONAL_M0, RATIONAL_M, (
        OperatorTerm(j=1, alpha=(1, 0), coeff=(Fraction(1, 3), Fraction(-2, 5))),
        OperatorTerm(j=0, alpha=(1, 1), coeff=(0, Fraction(3, 7))),
        OperatorTerm(j=2, alpha=(0, 1), coeff=(0, Fraction(-1, 2))),
    )),
}


def sparse_problem(case, mode, n_max, report_degree=2):
    """An ORACLE_CASES operator with polynomial initial data of degree <= 2 and
    zero forcing: most of every graded layout holds zeros."""
    M, m0, m, terms = ORACLE_CASES[case]
    prob = oracle_problem(terms, M, m, mode, n_max, m0=m0, report_degree=report_degree)
    spec = prob.spec
    full = data_degrees(spec, n_max, report_degree)[0]
    if spec.dim == 1:
        tables = [{(0,): 1, (1,): -2, (2,): 3}, {(2,): Fraction(1, 2)}]
    else:
        tables = [{(0, 0): 1, (1, 0): -2, (1, 1): 3}, {(0, 2): Fraction(1, 2)}]
    initial = tuple(make_series(spec.dim, tables[j], full, mode) for j in range(M))
    return CauchyProblem(spec=spec, initial=initial,
                         forcing=zero_forcing(spec, n_max, report_degree, mode))


class TestResidualOracle:
    """The one-pass residual equals two whole applications of the operator."""

    @staticmethod
    def assert_flags_candidates(prob, n_max, report_degree, mode):
        """The residual of the solve, of the dropped-boundary recurrence and of a
        bumped solve equals the two-pass one; it is 0 for the exact solve and
        positive for the bumped one."""
        sol = solve_formal(prob, n_max, report_degree)
        wrong = solve_formal_reference(prob, n_max, report_degree, drop_boundary=True)
        bump = bumped(sol, 4, (1,) + (0,) * (prob.spec.dim - 1), to_number(Fraction(1, 7), mode))
        values = []
        for candidate in (sol, wrong, bump):
            got = residual_max_relative(prob, candidate)
            assert got == residual_max_relative_two_pass(prob, candidate)
            values.append(got)
        if mode == "exact":
            assert values[0] == 0
        assert values[2] > 0

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_streaming_equals_two_pass(self, case, mode):
        M, m0, m, terms = ORACLE_CASES[case]
        n_max = 8
        prob = oracle_problem(terms, M, m, mode, n_max, m0=m0)
        self.assert_flags_candidates(prob, n_max, 0, mode)

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_sparse_data(self, case, mode):
        self.assert_flags_candidates(sparse_problem(case, mode, 8), 8, 2, mode)

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_forcing_denominator_not_dividing(self, case):
        # the solution for the forcing 1 at t^2 against the forcing 102/101
        # there: no denominator of the operator pass holds 101, so the
        # residual rescales both the values and the envelope to the common
        # denominator, at the one t-order whose residual is not zero
        free = sparse_problem(case, "exact", 8)
        origin = (0,) * free.spec.dim

        def forced(value):
            f = list(free.forcing.coeffs)
            f[2] = make_series(free.spec.dim, {origin: value}, f[2].valid_degree)
            return CauchyProblem(spec=free.spec, initial=free.initial, forcing=time_series(f))

        sol = solve_formal(forced(Fraction(1)), 8, 2)
        prob = forced(Fraction(102, 101))
        got = residual_max_relative(prob, sol)
        assert got == residual_max_relative_two_pass(prob, sol) > 0

    def test_randomized_problems(self):
        rng = random.Random(2024)
        for exact in (True, False):
            for _ in range(4):
                prob = random_problem(rng, exact=exact, n_max=7)
                for sol in (solve_formal(prob, 7, 1),
                            solve_formal_reference(prob, 7, drop_boundary=True)):
                    assert residual_max_relative(prob, sol) == \
                        residual_max_relative_two_pass(prob, sol)


def assert_same_recurrence(got, want, cone, majorant=False):
    """got computes step n to the largest degree in cone[n] (a set of
    indices, as ``dependency_cone_reference`` gives), and its working
    coefficients are want's to that degree; for the majorant, exactly want's
    coefficients in cone[n] (each one equal, nothing outside stored)."""
    assert len(got.working.coeffs) == len(want.working.coeffs) == len(cone)
    wanted = on_cone(want, cone) if majorant else [c.coeffs for c in want.working.coeffs]
    for g, w, coeffs, indices in zip(got.working.coeffs, want.working.coeffs, wanted, cone):
        assert g.valid_degree == max(map(sum, indices)) <= w.valid_degree
        assert g.coeffs == {a: v for a, v in coeffs.items() if sum(a) <= g.valid_degree}
    assert [c.coeffs for c in got.u.coeffs] == [c.coeffs for c in want.u.coeffs]


class TestReferenceRecurrence:
    """The numerator recurrence equals the whole-series reference exactly
    (the majorant on its dependency cone)."""

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.parametrize("majorant_mode", [False, True], ids=["direct", "majorant"])
    def test_oracle_cases(self, case, mode, majorant_mode):
        M, m0, m, terms = ORACLE_CASES[case]
        prob = oracle_problem(terms, M, m, mode, 8, m0=m0)
        solve = solve_majorant if majorant_mode else solve_formal
        assert_same_recurrence(solve(prob, 8, 0),
                               solve_formal_reference(prob, 8, 0, majorant_mode=majorant_mode),
                               dependency_cone_reference(prob.spec, 8, 0), majorant_mode)

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_coefficient_is_zero_past_its_list(self, mode):
        # n_max 12 reads t^11 of a coefficient that lists t^0..t^7
        M, m0, m, terms = ORACLE_CASES["dense_coefficient"]
        prob = oracle_problem(terms, M, m, mode, 12, m0=m0)
        assert_same_recurrence(solve_formal(prob, 12, 0), solve_formal_reference(prob, 12, 0),
                               dependency_cone_reference(prob.spec, 12, 0))

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.parametrize("majorant_mode", [False, True], ids=["direct", "majorant"])
    def test_sparse_data(self, case, mode, majorant_mode):
        prob = sparse_problem(case, mode, 8)
        sol = (solve_majorant if majorant_mode else solve_formal)(prob, 8, 2)
        assert_same_recurrence(sol, solve_formal_reference(prob, 8, 2, majorant_mode=majorant_mode),
                               dependency_cone_reference(prob.spec, 8, 2), majorant_mode)
        # the graded layouts hold zeros, and neither working nor u stores one
        dim = prob.spec.dim
        assert any(len(c.coeffs) < math.comb(c.valid_degree + dim, dim)
                   for c in sol.working.coeffs)
        assert all(v != 0 for c in (*sol.working.coeffs, *sol.u.coeffs)
                   for v in c.coeffs.values())

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    def test_randomized_problems(self, exact):
        rng = random.Random(515 + exact)
        for _ in range(8):
            prob = random_problem(rng, exact=exact, n_max=7)
            for majorant_mode in (False, True):
                assert_same_recurrence(
                    (solve_majorant if majorant_mode else solve_formal)(prob, 7, 1),
                    solve_formal_reference(prob, 7, 1, majorant_mode=majorant_mode),
                    dependency_cone_reference(prob.spec, 7, 1), majorant_mode)


class TestPrecisionScope:
    def test_shared_kernel_keeps_each_precision(self):
        """One problem solved at 53, 256 and again 53 bits, each inside
        ``workprec``: every solve equals the reference at its precision, so
        the shared ``spec.z_kernel`` serves no ratio vector of another one,
        and the one-pass residual equals the two-pass one on data
        materialized at 256 bits, with a zero forcing and -1 coefficients."""
        spec = OperatorSpec(M=1, m0=GH, m=(GH,),
                            terms=(OperatorTerm(j=0, alpha=(2,), coeff=(Fraction(-1),)),))
        n_max = 8
        phi = generator_series("geometric", 1, 2 * n_max, "float", ratio=Fraction(1, 3))
        prob = CauchyProblem(spec=spec, initial=(phi,),
                             forcing=zero_forcing(spec, n_max, 0, "float"))
        cone = dependency_cone_reference(spec, n_max, 0)
        solved = []
        for prec in (53, 256, 53):
            with mpmath.workprec(prec):
                sol = solve_formal(prob, n_max, 0)
                assert_same_recurrence(sol, solve_formal_reference(prob, n_max, 0), cone)
                assert_same_recurrence(solve_majorant(prob, n_max, 0),
                                       solve_formal_reference(prob, n_max, 0, majorant_mode=True),
                                       cone, majorant=True)
                assert residual_max_relative(prob, sol) == \
                    residual_max_relative_two_pass(prob, sol)
                # the reference shares the kernel: every element is at prec
                assert all(x[3] <= prec for c in sol.working.coeffs for x in c.vec)
                solved.append([c.coeffs for c in sol.working.coeffs])
        assert mpmath.mp.prec == 256
        assert solved[0] == solved[2] != solved[1]


def cone_problems(mode):
    """(problem, n_max, report_degree): every ORACLE_CASES entry at report
    degree 2, and 8 random problems at report degree 1."""
    for case in sorted(ORACLE_CASES):
        M, m0, m, terms = ORACLE_CASES[case]
        yield oracle_problem(terms, M, m, mode, 8, m0=m0, report_degree=2), 8, 2
    rng = random.Random(1729 + (mode == "exact"))
    for _ in range(8):
        yield random_problem(rng, exact=mode == "exact", n_max=7), 7, 1


def cone_indices(spec, n_max, degree) -> list:
    """``dependency_cone`` with each step's graded ranks as a set of indices."""
    cone = dependency_cone(spec, n_max, degree)
    indices = list(indices_up_to(spec.dim, max(degree_envelope(spec, n_max, degree))))
    return [{indices[r] for r in ranks} for ranks in cone]


class TestDependencyCone:
    """The majorant is solved on the coefficients that reach a reported one."""

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_closed_under_the_recurrence(self, mode):
        # every (n - p, beta + alpha) the recurrence reads for a cone
        # coefficient of step n, enumerated like the reference recurrence
        for prob, n_max, degree in cone_problems(mode):
            spec = prob.spec
            cone = cone_indices(spec, n_max, degree)
            assert len(cone) == n_max + 1
            for n in range(spec.M, n_max + 1):
                for term in spec.terms:
                    for idx, c in enumerate(term.coeff):
                        k = n - (idx + spec.M - term.j)
                        if c == 0 or k > n or k < term.j:
                            continue
                        for beta in cone[n]:
                            assert tuple(b + a for b, a in zip(beta, term.alpha)) in cone[k]

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_contains_reported_set(self, mode):
        for prob, n_max, degree in cone_problems(mode):
            reported = set(indices_up_to(prob.spec.dim, degree))
            cone = cone_indices(prob.spec, n_max, degree)
            assert all(reported <= indices for indices in cone)

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_ranks_of_the_reference_walk(self, mode):
        # the graded ranks, sorted, of the walk on sets of index tuples
        for prob, n_max, degree in cone_problems(mode):
            want = dependency_cone_reference(prob.spec, n_max, degree)
            assert dependency_cone(prob.spec, n_max, degree) == \
                [sorted(map(graded_rank, indices)) for indices in want]

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_equals_reference_on_cone(self, mode):
        for prob, n_max, degree in cone_problems(mode):
            maj = solve_majorant(prob, n_max, degree)
            ref = solve_formal_reference(prob, n_max, degree, majorant_mode=True)
            assert_same_recurrence(maj, ref, dependency_cone_reference(prob.spec, n_max, degree),
                                   majorant=True)

    @pytest.mark.parametrize("name, stored", [
        ("product2d", 4410), ("heat", 20301), ("fractional", 20301), ("pure_ode", 201)])
    def test_shipped_cone_sizes(self, name, stored):
        # a deterministic work count: the direct solve computes 12,341
        # coefficients on product2d and 40,401 on heat and fractional
        spec_file = parse_problem_file(PROBLEMS / f"{name}.json")
        cfg = spec_file.run
        with mpmath.workprec(cfg.precision_bits):
            prob = materialize_problem(spec_file)
            maj = solve_majorant(prob, cfg.n_max, cfg.report_degree)
        assert sum(len(c.coeffs) for c in maj.working.coeffs) == stored
        cone = dependency_cone(prob.spec, cfg.n_max, cfg.report_degree)
        assert sum(map(len, cone)) == stored
        want = dependency_cone_reference(prob.spec, cfg.n_max, cfg.report_degree)
        assert cone == [sorted(map(graded_rank, indices)) for indices in want]
        # zeros off the cone, each vector ending at its last cone rank
        assert [len(c.vec) for c in maj.working.coeffs] == [ranks[-1] + 1 for ranks in cone]


@st.composite
def slow_term_problems(draw):
    """(problem, n_max, report_degree): a ``random_data`` problem whose
    ``random_operator_spec`` gains one or two drawn terms at t-shift p >= 2,
    the first with |alpha| one above every |alpha| of the spec: its
    |alpha|/p falls below the new largest |alpha|, so at step n_max - 1 the
    envelope sits below report_degree + max|alpha|."""
    exact = draw(st.booleans(), label="exact")
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    spec = random_operator_spec(rng, exact=exact, max_m=2, max_terms=3)
    seen = {(t.j, t.alpha) for t in spec.terms}
    top = max((sum(t.alpha) for t in spec.terms), default=0)
    terms = []
    for k in range(draw(st.integers(1, 2))):
        order = top + 1 if k == 0 else draw(st.integers(1, top + 1))
        head = draw(st.integers(0, order)) if spec.dim == 2 else order
        alpha = (head, order - head)[:spec.dim]
        j = draw(st.integers(0, spec.M))
        # p = idx + M - j >= 2, which also meets term_order (idx >= j - M + 1)
        idx = draw(st.integers(max(0, 2 - spec.M + j), 4))
        if (j, alpha) in seen:
            continue
        seen.add((j, alpha))
        coeff = [Fraction(0)] * idx + [Fraction(draw(st.sampled_from([-2, -1, 1, 3])))]
        terms.append(OperatorTerm(j=j, alpha=alpha, coeff=tuple(coeff)))
    spec = OperatorSpec(M=spec.M, m0=spec.m0, m=spec.m, terms=spec.terms + tuple(terms))
    return random_data(rng, spec, exact, n_max=6, report_degree=1), 6, 1


class TestDegreeEnvelope:
    """Both solves compute each step to the degree that a reported
    coefficient reads, and no further."""

    @given(case=slow_term_problems())
    def test_envelope_of_slow_terms(self, case):
        prob, n_max, degree = case
        spec = prob.spec
        envelope = degree_envelope(spec, n_max, degree)
        cone = dependency_cone_reference(spec, n_max, degree)
        assert envelope == [max(map(sum, indices)) for indices in cone]

        sol = solve_formal(prob, n_max, degree)
        assert list(sol.valid_degrees) == envelope
        assert list(solve_majorant(prob, n_max, degree).valid_degrees) == envelope
        ref = solve_formal_reference(prob, n_max, degree)
        assert [c.coeffs for c in sol.u.coeffs] == [c.coeffs for c in ref.u.coeffs]
        residual = residual_max_relative(prob, sol)
        if prob.mode == "exact":
            assert residual == 0
        else:
            assert residual <= mpmath.ldexp(1, 32 - mpmath.mp.prec)
        via = solve_via_borel(prob, n_max, degree)
        assert list(via.valid_degrees) == envelope
        assert all(map(series_equal, sol.u.coeffs, via.u.coeffs))

    # (ORACLE_CASES operator, step n whose datum g_n is one degree short):
    # leading_zeros is product2d's, whose envelope is report + n_max - n
    @pytest.mark.parametrize("case, n", [("leading_zeros", 0), ("m2_j1", 1),
                                         ("leading_zeros", 5), ("m2_j1", 8)])
    def test_datum_one_degree_short_rejected(self, case, n):
        M, m0, m, terms = ORACLE_CASES[case]
        prob = oracle_problem(terms, M, m, "exact", 8, m0=m0, report_degree=1)
        need = degree_envelope(prob.spec, 8, 1)[n]
        initial, forcing = list(prob.initial), list(prob.forcing.coeffs)
        data, k, name = ((initial, n, f"initial series {n}") if n < M
                         else (forcing, n - M, f"forcing coefficient {n - M}"))
        data[k] = data[k].truncated(need - 1)
        short = CauchyProblem(spec=prob.spec, initial=initial, forcing=TimeSeries(tuple(forcing)))
        for solve in (solve_formal, solve_majorant):
            with pytest.raises(ValueError) as info:
                solve(short, 8, 1)
            assert str(info.value) == (f"{name} is materialized to degree {need - 1}; "
                                       f"need {need} to report degree 1 at n_max 8")

    def test_product2d_data_end_at_the_envelope(self):
        prob = materialize_problem(parse_problem_file(PROBLEMS / "product2d.json"))
        (phi,) = prob.initial
        assert (phi.valid_degree, len(phi.vec)) == (40, 861)
        assert {f_k.valid_degree for f_k in prob.forcing.coeffs} == {39}


# the ORACLE_CASES operators whose moment ratios or coefficients are
# non-integer rationals, each with an n_max at which its direct solve
# reduces at least three times, so the steps span three reduction intervals
REDUCTION_CASES = {"rational_ratios": 18, "leading_zeros": 24}


class TestDeferredReduction:
    """Exact steps are stored over unreduced denominators and reduced only by
    the ``REDUCE_BITS`` rule: every stored step keeps its value, the
    reported ``u`` is in lowest terms, and the stored denominators stay
    bounded."""

    @staticmethod
    def problem(case, rng, n_max, report_degree):
        M, m0, m, terms = ORACLE_CASES[case]
        spec = OperatorSpec(M=M, m0=m0, m=m, terms=terms)
        return random_data(rng, spec, True, n_max, report_degree)

    @settings(max_examples=6)
    @given(case=st.sampled_from(sorted(REDUCTION_CASES)), seed=st.integers(0, 2 ** 32 - 1))
    def test_steps_equal_reference(self, case, seed):
        n_max = REDUCTION_CASES[case]
        prob = self.problem(case, random.Random(seed), n_max, 1)
        sol = solve_formal(prob, n_max, 1)
        assert sol.exact_bits["reduced_steps"] >= 3
        cone = dependency_cone_reference(prob.spec, n_max, 1)
        assert_same_recurrence(sol, solve_formal_reference(prob, n_max, 1), cone)
        assert_same_recurrence(solve_majorant(prob, n_max, 1),
                               solve_formal_reference(prob, n_max, 1, majorant_mode=True),
                               cone, majorant=True)

    @pytest.mark.parametrize("case", [*sorted(REDUCTION_CASES), "heat"])
    @pytest.mark.parametrize("majorant_mode", [False, True], ids=["direct", "majorant"])
    def test_reported_u_in_lowest_terms(self, case, majorant_mode):
        if case == "heat":
            prob, n_max = heat_problem(40, 2), 40
        else:
            n_max = REDUCTION_CASES[case]
            prob = self.problem(case, random.Random(3), n_max, 2)
        sol = (solve_majorant if majorant_mode else solve_formal)(prob, n_max, 2)
        # some stored step is not in lowest terms, and no reported one is
        assert any(math.gcd(c.den, *c.vec) != 1 for c in sol.working.coeffs)
        assert all(math.gcd(c.den, *c.vec) == 1 for c in sol.u.coeffs)

    def test_float_steps_have_denominator_one(self):
        sol = solve_formal(heat_problem(40, 1, "float"), 40, 1)
        assert sol.exact_bits is None
        assert all(c.den == 1 for c in sol.working.coeffs)

    def test_heat_denominators_stay_bounded(self):
        # heat's values are integers, so a reduced step has denominator 1
        # and every stored one has at most REDUCE_BITS + 1 bits; a solve
        # that never reduced would store n! at step n, 661 bits at n = 120
        sol = solve_formal(heat_problem(120), 120)
        bits = sol.exact_bits
        assert bits["denominator_max"] == max(c.den.bit_length() for c in sol.working.coeffs)
        assert bits["denominator_max"] <= REDUCE_BITS + 1
        assert bits["reduced_steps"] > 0


def shipped_problem(name):
    """(problem, run block) of a shipped problem file, materialized at its
    precision; solve it inside ``mpmath.workprec(cfg.precision_bits)``."""
    spec_file = parse_problem_file(PROBLEMS / f"{name}.json")
    with mpmath.workprec(spec_file.run.precision_bits):
        return materialize_problem(spec_file), spec_file.run


class TestResidualCoverage:
    """The residual reads every coefficient that the solve computed: the
    operator pass yields t-order n valid to the degree of u_{n+M}, so every
    working coefficient of every step n >= M is checked."""

    @staticmethod
    def assert_covers(prob, sol):
        spec = prob.spec
        arith = arithmetic_of(*sol.working.coeffs)
        degrees = [vd for *_, vd in operator_numerators(spec, sol.working, arith)]
        assert degrees and degrees == list(sol.valid_degrees[spec.M:spec.M + len(degrees)])

    @given(seed=st.integers(0, 2 ** 32 - 1), exact=st.booleans())
    def test_random_problems(self, seed, exact):
        prob = random_problem(random.Random(seed), exact=exact, n_max=7)
        self.assert_covers(prob, solve_formal(prob, 7, 1))

    @pytest.mark.parametrize("name", ["fractional", "heat", "product2d", "pure_ode"])
    def test_shipped_problems(self, name):
        prob, cfg = shipped_problem(name)
        with mpmath.workprec(cfg.precision_bits):
            self.assert_covers(prob, solve_formal(prob, cfg.n_max, cfg.report_degree))

    def test_product2d_top_degree_of_u1(self):
        # u_1 is computed to degree 39, and (u_1)_{(39, 0)} feeds the reported
        # u_40 through the term alpha = (1, 0); order 0 reads it through D_t u_1
        prob, cfg = shipped_problem("product2d")
        sol = solve_formal(prob, cfg.n_max, cfg.report_degree)
        assert sol.valid_degrees[1] == 39
        assert residual_max_relative(prob, sol) == 0
        assert residual_max_relative(prob, bumped(sol, 1, (39, 0), 1)) > 0


def as_float(problem):
    """The same problem with every data coefficient converted to float mode."""
    def convert(f):
        return make_series(f.dim, {a: to_number(v, "float") for a, v in f.coeffs.items()},
                           f.valid_degree, "float")

    return CauchyProblem(spec=problem.spec,
                         initial=tuple(convert(phi) for phi in problem.initial),
                         forcing=problem.forcing.map_z(convert))


class TestExactVsFloat:
    """Exact and float solves of one problem agree within float_tolerance()."""

    def assert_agree(self, prob, n_max, report_degree=0):
        exact = solve_formal(prob, n_max, report_degree)
        approx = solve_formal(as_float(prob), n_max, report_degree)
        tol = float_tolerance()
        for e, f in zip(exact.working.coeffs, approx.working.coeffs):
            assert e.valid_degree == f.valid_degree
            for alpha in e.coeffs.keys() | f.coeffs.keys():
                want = to_number(e.coefficient(alpha), "float")
                got = f.coefficient(alpha)
                assert abs(got - want) <= tol * abs(want), (alpha, got, want)

    def test_heat(self):
        self.assert_agree(heat_problem(30), 30)

    def test_product2d_operator(self):
        M, m0, m, terms = ORACLE_CASES["leading_zeros"]
        self.assert_agree(oracle_problem(terms, M, m, "exact", 12, m0=m0), 12)

    def test_rational_ratios(self):
        M, m0, m, terms = ORACLE_CASES["rational_ratios"]
        self.assert_agree(oracle_problem(terms, M, m, "exact", 10, m0=m0), 10)

    def test_randomized_problems(self):
        rng = random.Random(4242)
        for _ in range(8):
            self.assert_agree(random_problem(rng, exact=True, n_max=8), 8, 1)


class TestBorelRoundTrip:
    def test_exact_round_trip_product_moment(self):
        m1 = combine(G1, G1, "product")
        spec = OperatorSpec(M=1, m0=G1, m=(m1,),
                            terms=(OperatorTerm(j=0, alpha=(1,), coeff=(Fraction(1),)),))
        n_max = 10
        phi = generator_series("geometric", 1, n_max, ratio=1)
        prob = CauchyProblem(spec=spec, initial=(phi,), forcing=zero_forcing(spec, n_max))
        direct = solve_formal(prob, n_max, 0)
        via = solve_via_borel(prob, n_max, 0)
        for n in range(n_max + 1):
            assert direct.working.coeffs[n].coeffs == via.working.coeffs[n].coeffs

    def test_float_round_trip_half_order(self):
        mh = combine(GH, GH, "product")    # order 1, not Gamma_1
        spec = OperatorSpec(M=1, m0=G1, m=(mh,),
                            terms=(OperatorTerm(j=0, alpha=(1,), coeff=(Fraction(1),)),))
        n_max = 8
        phi = generator_series("geometric", 1, n_max, "float", ratio=Fraction(1, 2))
        prob = CauchyProblem(spec=spec, initial=(phi,),
                             forcing=zero_forcing(spec, n_max, mode="float"))
        direct = solve_formal(prob, n_max, 0)
        via = solve_via_borel(prob, n_max, 0)
        for n in range(n_max + 1):
            assert series_equal(direct.working.coeffs[n], via.working.coeffs[n])

    def test_linearity_of_solutions(self):
        n_max = 6
        spec = heat_problem(n_max).spec
        full = 2 * n_max
        phi_a = generator_series("geometric", 1, full, ratio=Fraction(1, 2))
        phi_b = generator_series("polynomial", 1, full, coeffs=[1, 0, 2])
        prob_a = CauchyProblem(spec=spec, initial=(phi_a,), forcing=zero_forcing(spec, n_max))
        prob_b = CauchyProblem(spec=spec, initial=(phi_b,), forcing=zero_forcing(spec, n_max))
        from mpde import series_add

        prob_ab = CauchyProblem(spec=spec, initial=(series_add(phi_a, phi_b),),
                                forcing=zero_forcing(spec, n_max))
        sa = solve_formal(prob_a, n_max, 0)
        sb = solve_formal(prob_b, n_max, 0)
        sab = solve_formal(prob_ab, n_max, 0)
        for n in range(n_max + 1):
            assert series_equal(series_add(sa.working.coeffs[n], sb.working.coeffs[n]),
                                sab.working.coeffs[n])


class TestFactorialLemmaExactSmall:
    def test_small_grid(self):
        for big_m in range(1, 5):
            for n in range(big_m, 60):
                lhs = Fraction(math.factorial(n - big_m), math.factorial(n))
                assert lhs <= Fraction(big_m, n) ** big_m
