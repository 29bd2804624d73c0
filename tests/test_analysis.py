import math
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
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
)
from mpde import analysis, pipeline
from mpde.analysis import H_FROM_N, BoundWitness, FitResult
from mpde.precision import to_mpf
from mpde.problemspec import parse_problem_file
from helpers import intermediate_bound_roots_reference, verify_gevrey_bound_reference
from test_acceptance import INEQUALITIES, factorial_lemma, gamma_ratio
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


# run precisions of the float-log oracle tests: below, at and above a double's
FLOAT_LOG_PRECISIONS = [16, 24, 53, 64, 113, 256, 1024]


def positive_ints():
    """Positive integers of up to 4,000 bits, every size about as likely."""
    return st.integers(0, 4000).flatmap(lambda bits: st.integers(1 << bits, (2 << bits) - 1))


def mpf_bounds():
    """Positive mpf values, rounded at one of the oracle precisions: not
    always the run precision."""
    return st.builds(lambda man, exp, prec: mpmath.mpf(mpmath.libmp.from_man_exp(
        man, exp, prec, "n")), positive_ints(), st.integers(-5000, 5000),
        st.sampled_from(FLOAT_LOG_PRECISIONS))


def counting_fallbacks(monkeypatch) -> list:
    """The bounds that ``log_bounds`` takes the run-precision log of."""
    taken = []

    def counted(value, _real=analysis._log_positive):
        taken.append(value)
        return _real(value)

    monkeypatch.setattr(analysis, "_log_positive", counted)
    return taken


class TestLogBounds:
    def test_zero_negative_fraction_mpf(self):
        logs = log_bounds([Fraction(0), mpf(-2), Fraction(3, 7), mpf("2.5")])
        assert logs[0] is None and logs[1] is None
        assert abs(logs[2] - mpmath.log(mpf(3) / 7)) < mpf("1e-30")
        assert logs[3] == mpmath.log(mpf("2.5"))
        assert logs.approx == [None, None, float(mpmath.log(mpf(3) / 7)),
                               float(mpmath.log(mpf("2.5")))]

    @settings(max_examples=300)
    @given(bound=st.one_of(st.builds(Fraction, positive_ints(), positive_ints()),
                           positive_ints(), mpf_bounds()),
           prec=st.sampled_from(FLOAT_LOG_PRECISIONS))
    def test_floats_are_the_run_precision_logs(self, bound, prec):
        # the oracle is the run-precision log itself, rounded to a double
        with mpmath.workprec(prec):
            logs = log_bounds([bound])
            want = analysis._log_positive(bound)
        assert logs.approx == [float(want)]
        assert logs[0] == want

    @pytest.mark.parametrize("prec", [256, 1024])
    @pytest.mark.parametrize("center", [0.75, -3.5, 41.3, 1234.5678])
    @pytest.mark.parametrize("offset", [-200, None, 200])
    def test_log_at_a_double_midpoint_falls_back(self, monkeypatch, prec, center, offset):
        # log b within 2^-200 of the midpoint between two doubles: no 128-bit
        # interval settles which one float(log b) is, so the run-precision
        # log decides
        mid = Fraction(center) + Fraction(math.ulp(center)) / 2
        with mpmath.workprec(1200):
            top = mpmath.exp(to_mpf(mid) + (0 if offset is None else mpf(2) ** -200 * offset))
        bound = Fraction(top.man) * Fraction(2) ** top.exp
        taken = counting_fallbacks(monkeypatch)
        with mpmath.workprec(prec):
            logs = log_bounds([bound])
            want = analysis._log_positive(bound)
        assert taken == [bound, bound]
        assert logs.approx == [float(want)] and logs[0] == want

    @given(bounds=st.lists(st.one_of(st.builds(Fraction, positive_ints(), positive_ints()),
                                     mpf_bounds()), min_size=1, max_size=5))
    def test_sixteen_bits_always_fall_back(self, bounds):
        # 2^-16 of rounding leaves no double settled, except log 1 = 0
        with pytest.MonkeyPatch.context() as monkeypatch:
            taken = counting_fallbacks(monkeypatch)
            with mpmath.workprec(16):
                logs = log_bounds(bounds)
        assert taken == [b for b in bounds if b != 1]
        with mpmath.workprec(16):
            assert logs.approx == [float(analysis._log_positive(b)) for b in bounds]

    def test_run_precision_logs_only_where_read(self, monkeypatch):
        b = [Fraction(math.factorial(2 * n), math.factorial(n)) for n in range(40)]
        taken = counting_fallbacks(monkeypatch)
        logs = log_bounds(b)
        assert taken == []
        assert logs[7] == logs[7] and taken == [b[7]]


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
    @pytest.mark.parametrize("lemma", list(INEQUALITIES))
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
        inequality = INEQUALITIES[lemma][0]
        for point in grids[lemma]:
            for lhs, rhs in inequality(**point):
                assert lhs <= rhs, point

    def test_factorial_example_value(self):
        # 3!/5! against (2/5)^2
        assert factorial_lemma(2, 5) == [(Fraction(1, 20), Fraction(4, 25))]

    def test_gamma_ratio_order_zero_trivial(self):
        for lhs, rhs in gamma_ratio(0, 3):
            assert lhs <= rhs


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
        assert abs(check.tail_max - 1) < mpf("0.05")
        assert abs(check.middle_max - 1) < mpf("0.05")

    def test_exploding_sequence_detected(self):
        b = [Fraction(math.factorial(n)) ** 3 for n in range(101)]
        check = intermediate_bound_roots(log_bounds(b), 1, 1, 1, window=(20, 100))
        assert not check.bounded


def _reversed_pair(rng, a, b, gap):
    """(log b_a, log b_b) whose roots differ by ``gap`` in log, b_a's larger,
    while the float roots float(log b_n)/n order them the other way."""
    for _ in range(1000):
        r = mpf(rng.uniform(-2, 2)) / 3
        la, lb = a * (r + gap), b * r
        if float(la) / a < float(lb) / b:
            return la, lb
    raise AssertionError("no reversed pair found")


class TestScreenedRootTests:
    """The float-screened root tests equal the run-precision oracles in
    ``helpers`` exactly: H, C, both bounded flags, tail_max and middle_max."""

    @staticmethod
    def assert_same(logb, s, window, M=1, s0=1, inv_k1=1):
        w = verify_gevrey_bound(logb, s, n_range=window)
        ref = verify_gevrey_bound_reference(logb, s, n_range=window)
        assert (w.H, w.C, w.bounded) == (ref.H, ref.C, ref.bounded)
        check = intermediate_bound_roots(logb, M, s0, inv_k1, window=window)
        oracle = intermediate_bound_roots_reference(logb, M, s0, inv_k1, window)
        assert check.d == oracle.d
        assert ((check.bounded, check.tail_max, check.middle_max)
                == (oracle.bounded, oracle.tail_max, oracle.middle_max))
        return w, check

    def test_random_gevrey_like(self):
        rng = random.Random(30)
        orders = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)]
        for _ in range(40):
            n_max = rng.randint(1, 200)
            log_c, log_h, s = mpf(rng.uniform(-5, 5)), mpf(rng.uniform(-3, 3)), rng.choice(orders)
            logb = [None if rng.random() < 0.1 else
                    log_c + n * log_h + to_mpf(s) * mpmath.loggamma(n + 1)
                    + mpf(rng.gauss(0, 1)) for n in range(n_max + 1)]
            lo = rng.randint(0, n_max)
            self.assert_same(logb, rng.choice(orders), (lo, rng.randint(lo, n_max)),
                             M=rng.randint(1, 3), s0=rng.choice(orders[1:]),
                             inv_k1=rng.choice(orders))

    @pytest.mark.parametrize("prec", [16, 24, 40, 53])
    def test_low_run_precision(self, prec):
        # roots 5/4 + eps_n with |eps_n| near 2^-prec: below float precision the
        # run precision's rounding, not the float screen's, decides the argmax
        rng = random.Random(prec)
        with mpmath.workprec(prec):
            for _ in range(20):
                s = rng.choice([Fraction(1, 2), Fraction(1), Fraction(3, 2)])
                eps = mpf(2) ** -(prec + rng.randint(-4, 4))
                logb = [n * (mpf(5) / 4 + mpf(rng.uniform(-1, 1)) * eps)
                        + to_mpf(s) * mpmath.loggamma(n + 1) for n in range(81)]
                self.assert_same(logb, s, (1, 80), M=rng.randint(1, 3), s0=s,
                                 inv_k1=rng.choice([0, 1]))

    def test_exact_ties(self):
        # heat's bounds (2n)!/n!: every intermediate root is 1 up to the run
        # precision's rounding, a tie in floats
        b = [Fraction(math.factorial(2 * n), math.factorial(n)) for n in range(201)]
        _, check = self.assert_same(log_bounds(b), 1, (50, 200))
        for top in (check.tail_max, check.middle_max):
            assert abs(top - 1) < mpf(2) ** -240
        # log b_n = 3n/4 exactly: every root at s = 0 is 3/4
        w, check = self.assert_same([mpf(3 * n) / 4 for n in range(61)], 0, (1, 60),
                                    M=1, s0=0, inv_k1=0)
        assert w.H == mpmath.exp(mpf(3) / 4) and w.C == 1
        assert check.tail_max == check.middle_max == mpmath.exp(mpf(3) / 4)

    def test_near_ties_reversed_in_floats(self):
        # at s = 0 and d = 0 both root tests read float(log b_n)/n; each third
        # of n = 5..10 ends in a pair whose float order is the wrong one
        rng = random.Random(7)
        gap = mpf(2) ** -120
        logb = [None] * 11
        logb[5], logb[6] = mpf(-3), mpf(-4)
        logb[7], logb[8] = _reversed_pair(rng, 7, 8, gap)
        logb[9], logb[10] = _reversed_pair(rng, 9, 10, gap)
        w, check = self.assert_same(logb, 0, (5, 10), M=1, s0=0, inv_k1=0)
        assert w.H in (mpmath.exp(logb[7] / 7), mpmath.exp(logb[9] / 9))
        assert check.tail_max == mpmath.exp(logb[9] / 9)
        assert check.middle_max == mpmath.exp(logb[7] / 7)

    @pytest.mark.parametrize("s", [Fraction(1), Fraction(3, 2)])
    def test_near_ties_below_float_resolution(self, s):
        # every root is 1.25 + eps_n with |eps_n| < 2^-100: the floats cannot
        # tell them apart, the run precision can
        rng = random.Random(11)
        sf = to_mpf(s)
        logb = [n * (mpf(5) / 4 + mpf(rng.uniform(-1, 1)) * mpf(2) ** -100)
                + sf * mpmath.loggamma(n + 1) for n in range(121)]
        self.assert_same(logb, s, (1, 120), M=1, s0=s, inv_k1=0)
        self.assert_same(logb, s, (20, 120), M=2, s0=s / 2, inv_k1=0)

    def test_none_entries(self):
        b = [Fraction(math.factorial(n)) if n % 3 else Fraction(0) for n in range(90)]
        self.assert_same(log_bounds(b), 1, (1, 89))
        w, check = self.assert_same([None] * 30, 1, (1, 29))
        assert w.H == 0 and w.C == 0 and w.bounded
        assert check.tail_max is None and check.middle_max is None

    @pytest.mark.parametrize("window", [(1, 3), (1, H_FROM_N - 1), (6, 6), (6, 7), (6, 8),
                                        (40, 40), (40, 42)])
    def test_few_points(self, window):
        b = [Fraction(math.factorial(2 * n), math.factorial(n) * 3 ** n) for n in range(50)]
        self.assert_same(log_bounds(b), 1, window)
        self.assert_same(log_bounds(b), Fraction(1, 2), window, M=2, s0=Fraction(1, 2),
                         inv_k1=Fraction(1, 3))

    def test_fewer_than_h_from_n_usable(self):
        logb = [mpf(n) if n < H_FROM_N - 1 else None for n in range(30)]
        w, _ = self.assert_same(logb, 1, (1, 29))
        assert w.H > 0

    @pytest.mark.parametrize("sign", [1, -1])
    def test_float_roots_overflow_and_underflow(self, sign):
        logb = [sign * 400 * n * mpmath.log(10) for n in range(121)]
        _, check = self.assert_same(logb, 1, (1, 120))
        # the float screen overflows (underflows), the maxima at run precision do not
        big = mpf(10) ** 300
        assert (check.tail_max > big) if sign > 0 else (0 < check.tail_max < 1 / big)


class TestGrowthCallCounts:
    """make_growth_report takes only the maxima at run precision: a log b_n
    only where a root-test screen keeps n, two ``mpmath.log`` calls for an
    exact bound and one for a float bound, and one more for log H."""

    @pytest.mark.parametrize("name, want", [
        # pure_ode keeps 3 n; heat's intermediate roots tie, so its screens keep 102
        ("pure_ode", {"log": 7, "loggamma": 5, "exp": 6}),
        ("heat", {"log": 205, "loggamma": 203, "exp": 6}),
        ("product2d", {"log": 9, "loggamma": 6, "exp": 6}),
        ("fractional", {"log": 4, "loggamma": 5, "exp": 6}),
    ])
    def test_shipped_bounds(self, monkeypatch, name, want):
        calls, inside = Counter(), []
        for fn in ("log", "loggamma", "exp"):
            def counted(*args, _fn=fn, _real=getattr(mpmath, fn)):
                calls[_fn] += bool(inside)
                return _real(*args)
            monkeypatch.setattr(mpmath, fn, counted)

        def growth(*args):
            inside.append(1)
            try:
                return make_growth_report(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(pipeline, "make_growth_report", growth)
        root = Path(__file__).resolve().parent.parent
        pipeline.run(parse_problem_file(root / "problems" / f"{name}.json"))
        assert dict(calls) == want


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
