import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, strategies as st
from mpmath import mpf

from mpde import (
    coefficient_bounds,
    decide_verdict,
    fit_gevrey_order,
    gamma_moment,
    generator_series,
    intermediate_bound_roots,
    log_bounds,
    make_growth_report,
    make_series,
    moment_derivative_bound_probe,
    verify_gevrey_bound,
    verify_inequality,
)
from mpde.analysis import BoundWitness, FitResult
from test_solver import heat_problem
from mpde.solver import solve_formal


class TestCoefficientBounds:
    def test_heat_degree_zero(self):
        prob = heat_problem(10)
        sol = solve_formal(prob, 10, 0)
        b = coefficient_bounds(sol.u, Fraction(1, 2))
        for n in range(11):
            assert b[n] == Fraction(math.factorial(2 * n), math.factorial(n))

    def test_zero_solution(self):
        from mpde import CauchyProblem, zero_series
        from helpers import zero_forcing

        spec = heat_problem(4).spec
        prob = CauchyProblem(spec=spec, initial=(zero_series(1, 8),),
                             forcing=zero_forcing(spec, 4))
        sol = solve_formal(prob, 4, 0)
        assert coefficient_bounds(sol.u, Fraction(1, 2)) == [0] * 5

    def test_delta_solution(self):
        from helpers import time_series

        ts = time_series([make_series(1, {(0,): 1}, 0)]
                         + [make_series(1, {}, 0) for _ in range(4)])
        assert coefficient_bounds(ts, Fraction(1, 3)) == [1, 0, 0, 0, 0]


class TestLogBounds:
    def test_zero_negative_fraction_mpf(self):
        logs = log_bounds([Fraction(0), mpf(-2), Fraction(3, 7), mpf("2.5")])
        assert logs[0] is None and logs[1] is None
        assert abs(logs[2] - mpmath.log(mpf(3) / 7)) < mpf("1e-30")
        assert logs[3] == mpmath.log(mpf("2.5"))


def exact_least_squares(rows: list, ys: list) -> list:
    """The least-squares solution of float data with three columns, in
    rationals: Cramer's rule on the normal equations X^T X c = X^T y."""
    x = [[Fraction(v) for v in row] for row in rows]
    y = [Fraction(v) for v in ys]
    a = [[sum(r[i] * r[j] for r in x) for j in range(3)] for i in range(3)]
    b = [sum(r[i] * v for r, v in zip(x, y)) for i in range(3)]

    def det(m):
        return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))

    d = det(a)
    return [float(det([row[:j] + [bj] + row[j + 1:] for row, bj in zip(a, b)]) / d)
            for j in range(3)]


class TestFitGevreyOrder:
    def test_factorial_sequence(self):
        b = [Fraction(math.factorial(n)) for n in range(201)]
        fit = fit_gevrey_order(log_bounds(b), (20, 200))
        assert fit.ok and abs(fit.s_hat - 1) < 0.02

    def test_pure_exponential(self):
        b = [Fraction(2) ** n for n in range(201)]
        fit = fit_gevrey_order(log_bounds(b), (20, 200))
        assert abs(fit.s_hat) < 0.02
        assert abs(fit.log_h - math.log(2)) < 0.01

    def test_heat_shape(self):
        b = [Fraction(math.factorial(2 * n), math.factorial(n)) for n in range(201)]
        fit = fit_gevrey_order(log_bounds(b), (20, 200))
        assert abs(fit.s_hat - 1) < 0.05

    @pytest.mark.parametrize("sigma", [0, Fraction(1, 2), 1, Fraction(3, 2), 2])
    def test_calibration_on_gamma_growth(self, sigma):
        sf = mpf(Fraction(sigma).numerator) / Fraction(sigma).denominator
        b = [mpmath.gamma(1 + sf * n) for n in range(201)]
        fit = fit_gevrey_order(log_bounds(b), (50, 200))
        assert abs(fit.s_hat - float(Fraction(sigma))) < 0.03

    def test_zero_entries_skipped_and_counted(self):
        b = [Fraction(math.factorial(n)) if n % 3 else Fraction(0) for n in range(80)]
        fit = fit_gevrey_order(log_bounds(b), (10, 70))
        assert fit.zero_count > 0 and fit.ok
        assert abs(fit.s_hat - 1) < 0.1

    def test_too_few_usable_points_flagged(self):
        b = [Fraction(0)] * 30
        b[12] = Fraction(5)
        fit = fit_gevrey_order(log_bounds(b), (10, 25))
        assert not fit.ok

    def test_short_window_rejected(self):
        with pytest.raises(ValueError):
            fit_gevrey_order(log_bounds([1] * 10), (2, 8))

    @given(params=st.tuples(st.floats(-10, 10), st.floats(-5, 5), st.floats(0, 3)),
           window=st.integers(0, 192).flatmap(
               lambda lo: st.tuples(st.just(lo), st.integers(lo + 7, 200))),
           gaps=st.sets(st.integers(0, 200)))
    def test_recovers_the_growth_law(self, params, window, gaps):
        log_c, log_h, s = params
        lo, hi = window
        gaps = sorted(n for n in gaps if lo <= n <= hi)[: hi - lo + 1 - 8]
        logb = [None if n in gaps else mpf(log_c) + n * mpf(log_h)
                + mpf(s) * mpmath.loggamma(n + 1) for n in range(201)]
        fit = fit_gevrey_order(logb, window)
        used = [n for n in range(lo, hi + 1) if n not in gaps]
        assert fit.ok and fit.n_used == len(used) and fit.zero_count == len(gaps)
        # rounding log b_n to floats moves even the exact least-squares solution
        # of the fitted data (log C by up to 3e-9 on 8 points near n = 200)
        exact = exact_least_squares([[1.0, float(n), math.lgamma(n + 1)] for n in used],
                                    [float(logb[n]) for n in used])
        for got, want, best in zip((fit.log_c, fit.log_h, fit.s_hat), params, exact):
            assert abs(got - want) <= 1e-9 + abs(best - want)


class TestVerifyGevreyBound:
    def test_factorial_at_order_one(self):
        b = [Fraction(math.factorial(n)) for n in range(121)]
        w = verify_gevrey_bound(log_bounds(b), 1)
        assert abs(w.H - 1) < mpf("1e-30")
        assert abs(w.C - 1) < mpf("1e-30")
        assert w.bounded

    def test_factorial_squared_unbounded_at_order_one(self):
        b = [Fraction(math.factorial(n)) ** 2 for n in range(121)]
        w = verify_gevrey_bound(log_bounds(b), 1)
        assert not w.bounded

    def test_heat_H_near_four(self):
        b = [Fraction(math.factorial(2 * n), math.factorial(n)) for n in range(201)]
        w = verify_gevrey_bound(log_bounds(b), 1, n_range=(1, 200))
        assert mpf("3.5") < w.H < mpf("4.0")
        assert w.bounded

    def test_bound_actually_bounds(self):
        b = [Fraction(math.factorial(2 * n), math.factorial(n)) for n in range(101)]
        w = verify_gevrey_bound(log_bounds(b), 1, n_range=(1, 100))
        for n in range(101):
            bound = w.C * w.H ** n * mpmath.gamma(n + 1)
            assert mpf(b[n].numerator) / b[n].denominator <= bound * (1 + mpf("1e-40"))

    def test_all_zero_sequence(self):
        w = verify_gevrey_bound(log_bounds([Fraction(0)] * 20), 1)
        assert w.H == 0 and w.C == 0 and w.bounded


class TestInequalitySuites:
    @pytest.mark.parametrize("lemma", [
        "theta_lemma", "factorial_lemma", "stirling", "gamma_ratio", "moment_regularity"])
    def test_small_grids_pass(self, lemma):
        grids = {
            "theta_lemma": [{"a": 1, "b": 0, "s": (1,), "alpha_cap": 10},
                            {"a": Fraction(1, 2), "b": Fraction(1, 2),
                             "s": (Fraction(1, 2),), "alpha_cap": 10}],
            "factorial_lemma": [{"M": 2, "n": n} for n in range(2, 40)],
            "stirling": [{"x": Fraction(1 + k, 1)} for k in range(30)],
            "gamma_ratio": [{"s": 1, "x": Fraction(k, 2)} for k in range(2, 40)],
            "moment_regularity": [{"s": Fraction(3, 2), "n": n} for n in range(1, 40)],
        }
        report = verify_inequality(lemma, grids[lemma])
        assert report.failed == 0
        assert report.passed > 0

    def test_factorial_example_value(self):
        report = verify_inequality("factorial_lemma", [{"M": 2, "n": 5}])
        rec = report.records[0]
        assert rec.status == "pass"
        assert abs(rec.lhs - mpf("0.05")) < mpf("1e-50")     # 3!/5!
        assert abs(rec.rhs - mpf("0.16")) < mpf("1e-50")     # (2/5)^2

    def test_hypothesis_markers(self):
        report = verify_inequality("factorial_lemma", [{"M": 4, "n": 2}])
        assert report.records[0].status == "hypothesis"
        assert report.skipped == 1
        report2 = verify_inequality("gamma_ratio", [{"s": 2, "x": 1}])
        assert report2.records[0].status == "hypothesis"

    def test_gamma_ratio_order_zero_trivial(self):
        report = verify_inequality("gamma_ratio", [{"s": 0, "x": 3}])
        assert report.records[0].status == "pass"

    def test_unknown_lemma_rejected(self):
        with pytest.raises(ValueError):
            verify_inequality("mystery")


class TestDerivativeBoundProbe:
    def test_constant_function_probes_zero(self):
        f = make_series(1, {0: 1}, 10)
        h = moment_derivative_bound_probe(f, [gamma_moment(1)],
                                          Fraction(1, 4), Fraction(1, 2), 6)
        assert h == 0

    def test_linear_function(self):
        f = make_series(1, {(1,): 1}, 10)
        h = moment_derivative_bound_probe(f, [gamma_moment(1)],
                                          Fraction(1, 4), Fraction(1, 2), 1)
        # single probe at alpha=1: sup|f'| = 1, sup|f| at 1/2 is 1/2 -> h = 2
        assert abs(h - 2) < mpf("1e-50")

    def test_geometric_matches_independent_computation(self):
        cap, degree = 8, 48
        f = generator_series("geometric", 1, degree, ratio=1)
        h = moment_derivative_bound_probe(f, [gamma_moment(1)],
                                          Fraction(1, 4), Fraction(1, 2), cap)
        # independent oracle: differentiate the coefficient list by hand
        coeffs = [1] * (degree + 1)
        denom = sum(mpf(1) / 2 ** l for l in range(degree + 1))
        best = mpf(0)
        c = coeffs[:]
        for a in range(1, cap + 1):
            c = [(l + 1) * c[l + 1] for l in range(len(c) - 1)]
            num = sum(abs(v) * mpf(1) / 4 ** l for l, v in enumerate(c))
            best = max(best, (num / (denom * mpmath.factorial(a))) ** (mpf(1) / a))
        assert abs(h - best) < mpf("1e-40")
        assert 1 < h < 4    # well inside the 1/(r'-r) Cauchy scale

    def test_budget_checked(self):
        f = make_series(1, {0: 1}, 3)
        with pytest.raises(ValueError):
            moment_derivative_bound_probe(f, [gamma_moment(1)], Fraction(1, 4),
                                          Fraction(1, 2), 5)

    def test_radius_ordering_checked(self):
        f = make_series(1, {0: 1}, 3)
        with pytest.raises(ValueError):
            moment_derivative_bound_probe(f, [gamma_moment(1)], Fraction(1, 2),
                                          Fraction(1, 4), 2)


class TestIntermediateRoots:
    def test_heat_shape_is_bounded(self):
        b = [Fraction(math.factorial(2 * n), math.factorial(n)) for n in range(201)]
        check = intermediate_bound_roots(log_bounds(b), 1, 1, 1, window=(50, 200))
        assert check.d == 2
        assert check.bounded
        for root in check.roots:
            assert abs(root - 1) < mpf("0.05")

    def test_exploding_sequence_detected(self):
        b = [Fraction(math.factorial(n)) ** 3 for n in range(101)]
        check = intermediate_bound_roots(log_bounds(b), 1, 1, 1, window=(20, 100))
        assert not check.bounded


class TestVerdict:
    def _fit(self, s_hat, stderr=0.001, ok=True):
        return FitResult(s_hat=s_hat, log_h=0.0, log_c=0.0, stderr=stderr, ok=ok,
                         n_used=100, zero_count=0, window=(50, 200))

    def _witness(self, bounded):
        return BoundWitness(order=Fraction(1), H=mpf(2), C=mpf(1), bounded=bounded)

    def test_consistent(self):
        assert decide_verdict(self._fit(1.04), self._witness(True), 1) == "consistent"

    def test_consistent_via_stderr(self):
        assert decide_verdict(self._fit(1.2, stderr=0.1), self._witness(False), 1) == "consistent"

    def test_inconsistent(self):
        assert decide_verdict(self._fit(1.6), self._witness(False), 1) == "inconsistent"

    def test_inconclusive_gap_but_bounded(self):
        assert decide_verdict(self._fit(1.2), self._witness(True), 1) == "inconclusive"

    def test_inconclusive_failed_fit(self):
        assert decide_verdict(self._fit(float("nan"), ok=False),
                              self._witness(True), 1) == "inconclusive"


class TestGrowthReport:
    def test_heat_end_to_end_small(self):
        prob = heat_problem(60)
        sol = solve_formal(prob, 60, 0)
        b = coefficient_bounds(sol.u, Fraction(1, 2))
        rep = make_growth_report(b, 1, 1, 1, (15, 60))
        assert rep.verdict == "consistent"
        assert rep.d == 2
        assert rep.witness.bounded and rep.intermediate.bounded
        assert abs(rep.fit.s_hat - 1) < 0.05
