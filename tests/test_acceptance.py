"""Acceptance suite: every shipped criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  The heavy problems (n_max = 200) are solved once in module-scoped
fixtures and shared.
"""

import math
import random
import time
from fractions import Fraction

import mpmath
import pytest
from mpmath import mpf

from mpde import (
    CauchyProblem,
    OperatorSpec,
    OperatorTerm,
    build_polygon,
    coefficient_bounds,
    combine,
    fit_gevrey_order,
    gamma_moment,
    generator_series,
    intermediate_bound_roots,
    inverse_k1,
    log_bounds,
    majorizes,
    make_growth_report,
    residual_max_relative,
    solve_formal,
    solve_majorant,
    solve_via_borel,
    make_series,
    validate,
)
from mpde.polygon import generator_points
from mpde.precision import to_mpf
from mpde.series import indices_up_to
from helpers import (
    ORDERS_ANY,
    bruteforce_hull_vertices,
    dependency_cone_reference,
    heat_solution_oracle,
    on_cone,
    random_operator_spec,
    random_problem,
    solve_formal_reference,
    time_series,
    zero_forcing,
)

G1 = gamma_moment(1)
GH = gamma_moment(Fraction(1, 2))
N_FULL = 200


def _ok(criterion: int, message: str):
    print(f"ACCEPTANCE {criterion}: PASS — {message}")


def _heat_spec(s0=Fraction(1)):
    return OperatorSpec(M=1, m0=gamma_moment(s0), m=(G1,),
                        terms=(OperatorTerm(j=0, alpha=(2,), coeff=(Fraction(-1),)),))


@pytest.fixture(scope="module")
def precision_module():
    old = mpmath.mp.prec
    mpmath.mp.prec = 256
    yield
    mpmath.mp.prec = old


@pytest.fixture(scope="module")
def heat_full(precision_module):
    spec = _heat_spec()
    phi = generator_series("geometric", 1, 2 * N_FULL, "exact", ratio=1)
    problem = CauchyProblem(spec=spec, initial=(phi,), forcing=zero_forcing(spec, N_FULL))
    start = time.monotonic()
    sol = solve_formal(problem, N_FULL, 0)
    bounds = coefficient_bounds(sol.u, Fraction(1, 2))
    report = make_growth_report(bounds, inverse_k1(spec), 1, 1, (50, 200))
    elapsed = time.monotonic() - start
    return problem, sol, bounds, report, elapsed


@pytest.fixture(scope="module")
def fractional_full(precision_module):
    spec = _heat_spec(s0=Fraction(1, 2))
    phi = generator_series("geometric", 1, 2 * N_FULL, "float", ratio=1)
    problem = CauchyProblem(spec=spec, initial=(phi,),
                            forcing=zero_forcing(spec, N_FULL, mode="float"))
    sol = solve_formal(problem, N_FULL, 0)
    bounds = coefficient_bounds(sol.u, Fraction(1, 2))
    report = make_growth_report(bounds, inverse_k1(spec), 1, Fraction(1, 2), (50, 200))
    return problem, sol, bounds, report


def test_criterion_1_heat_end_to_end(heat_full):
    problem, sol, bounds, report, elapsed = heat_full
    assert validate(problem).passed
    assert inverse_k1(problem.spec) == 1
    oracle = heat_solution_oracle(50, [1] * (2 * N_FULL + 1))
    for n in range(51):
        assert sol.u.coeffs[n].coefficient((0,)) == oracle[n]
        assert oracle[n] == Fraction(math.factorial(2 * n), math.factorial(n))
    assert 0.95 <= report.fit.s_hat <= 1.05
    assert report.verdict == "consistent"
    assert elapsed < 60
    _ok(1, f"u_n(0) = (2n)!/n! exactly for n <= 50; s_hat = {report.fit.s_hat:.4f}; "
           f"1/k1 = 1; solved+fitted in {elapsed:.1f}s")


def test_criterion_2_fractional_time(fractional_full):
    problem, sol, bounds, report = fractional_full
    assert inverse_k1(problem.spec) == Fraction(3, 2)
    assert 1.4 <= report.fit.s_hat <= 1.6
    _ok(2, f"1/k1 = 3/2 exactly; s_hat = {report.fit.s_hat:.4f} in [1.4, 1.6]")


def test_criterion_3_pure_ode_control(precision_module):
    spec = OperatorSpec(M=1, m0=G1, m=(G1,), terms=())
    phi = make_series(1, {(0,): 1}, 0)
    forcing = time_series([make_series(1, {(0,): 1}, 0) for _ in range(N_FULL)])
    problem = CauchyProblem(spec=spec, initial=(phi,), forcing=forcing)
    assert inverse_k1(spec) == 0
    assert list(build_polygon(spec).slopes) == []
    sol = solve_formal(problem, N_FULL, 0)
    bounds = coefficient_bounds(sol.u, Fraction(1, 2))
    fit = fit_gevrey_order(log_bounds(bounds), (50, 200))
    assert fit.ok and fit.s_hat <= 0.05
    _ok(3, f"1/k1 = 0; fitted order of the convergent solution = {fit.s_hat:.4f} <= 0.05")


def test_criterion_4_polygon_formula_equality(precision_module):
    rng = random.Random(20240809)
    for i in range(100):
        spec = random_operator_spec(rng)
        poly = build_polygon(spec)
        slopes = list(poly.slopes)
        k1_inv = inverse_k1(spec)
        if slopes and k1_inv > 0:
            assert k1_inv == 1 / min(slopes), f"spec {i}"
        else:
            assert k1_inv == 0, f"spec {i}"
        assert bruteforce_hull_vertices(generator_points(spec)) == list(poly.vertices), f"spec {i}"
    _ok(4, "1/min(slopes) = inverse_k1 exactly and hull oracle matched on 100 random specs")


def test_criterion_5_residual_oracle(heat_full, fractional_full):
    tol = mpmath.ldexp(1, -224)
    checked = 0

    heat_problem, heat_sol = heat_full[0], heat_full[1]
    assert residual_max_relative(heat_problem, heat_sol) == 0
    checked += 1
    frac_problem, frac_sol = fractional_full[0], fractional_full[1]
    frac_res = residual_max_relative(frac_problem, frac_sol)
    assert frac_res < tol
    checked += 1

    # the other shipped problems, at their shipped shapes
    from pathlib import Path
    from mpde.problemspec import materialize_problem, parse_problem_file

    problems_dir = Path(__file__).resolve().parent.parent / "problems"
    for name in ("pure_ode.json", "product2d.json"):
        spec_file = parse_problem_file(problems_dir / name)
        prob, run = materialize_problem(spec_file), spec_file.run
        sol = solve_formal(prob, run.n_max, run.report_degree)
        assert residual_max_relative(prob, sol) == 0, name
        checked += 1

    rng = random.Random(1234)
    for _ in range(12):
        prob = random_problem(rng, exact=True, n_max=8)
        sol = solve_formal(prob, 8, 1)
        assert residual_max_relative(prob, sol) == 0
        checked += 1
    for _ in range(6):
        prob = random_problem(rng, exact=False, n_max=7)
        sol = solve_formal(prob, 7, 1)
        assert residual_max_relative(prob, sol) < tol
        checked += 1
    assert checked >= 20
    _ok(5, f"residual identically 0 (exact) / < 2^-224 relative (float) on {checked} problems "
           f"(fractional max relative = {mpmath.nstr(frac_res, 3)})")


def test_criterion_6_borel_round_trip(precision_module):
    rng = random.Random(777)
    moment_pool = [G1, gamma_moment(2), combine(G1, G1, "product"),
                   combine(combine(G1, G1, "product"), G1, "product")]
    n_max = 8
    cases = 0
    for _ in range(8):
        dim = rng.choice([1, 2])
        big_m = rng.randint(1, 2)
        m = tuple(rng.choice(moment_pool) for _ in range(dim))
        terms = []
        for _ in range(rng.randint(1, 3)):
            j = rng.randint(0, big_m - 1)
            alpha = tuple(rng.randint(0, 2) for _ in range(dim))
            if any(t.j == j and t.alpha == alpha for t in terms):
                continue
            ord_t = rng.randint(max(0, j - big_m + 1), 2)
            coeff = tuple([Fraction(0)] * ord_t + [Fraction(rng.randint(-2, 2) or 1)])
            terms.append(OperatorTerm(j=j, alpha=alpha, coeff=coeff))
        spec = OperatorSpec(M=big_m, m0=G1, m=m, terms=tuple(terms))
        full = n_max * spec.max_alpha
        initial = tuple(
            generator_series("geometric", dim, full, ratio=Fraction(1, 2))
            for _ in range(big_m))
        prob = CauchyProblem(spec=spec, initial=initial, forcing=zero_forcing(spec, n_max))
        direct = solve_formal(prob, n_max, 0)
        via = solve_via_borel(prob, n_max, 0)
        for n in range(n_max + 1):
            assert direct.working.coeffs[n].coeffs == via.working.coeffs[n].coeffs
        cases += 1
    assert cases >= 5
    _ok(6, f"direct solve == inverse-z-Borel of transformed solve, exact, on {cases} problems")


def test_criterion_7_majorant_domination(heat_full, precision_module):
    heat_problem, heat_sol = heat_full[0], heat_full[1]
    maj = solve_majorant(heat_problem, 40, 0)
    small = solve_formal(heat_problem, 40, 0)
    for n in range(41):
        assert majorizes(maj.u.coeffs[n], small.u.coeffs[n])

    rng = random.Random(4242)
    cases = 1
    for _ in range(10):
        prob = random_problem(rng, exact=True, n_max=8)
        sol = solve_formal(prob, 8, 1)
        majo = solve_majorant(prob, 8, 1)
        # solve_majorant keeps the dependency cone of u only: the full majorant
        # recurrence dominates every working coefficient, and solve_majorant
        # is that recurrence on the cone
        full = solve_formal_reference(prob, 8, 1, majorant_mode=True)
        for n in range(9):
            assert majorizes(majo.u.coeffs[n], sol.u.coeffs[n])
            assert majorizes(full.working.coeffs[n], sol.working.coeffs[n])
        assert [c.coeffs for c in majo.working.coeffs] == \
            on_cone(full, dependency_cone_reference(prob.spec, 8, 1))
        cases += 1
    _ok(7, f"majorant solution dominates the formal solution on {cases} problems, all n")


# The inequalities behind the Gevrey estimate.  Each function gives, at one
# parameter point inside the lemma's hypotheses, the (lhs, rhs) pairs that
# must satisfy lhs <= rhs.

def theta_lemma(a, b, s, alpha_cap=30) -> list:
    """Gamma(1+x+b)/Gamma(1+x) <= e (e/(1+a+b))^a Gamma(1+x+a+b)/Gamma(1+x)
    at x = s.alpha for every |alpha| <= alpha_cap (a > 0, b >= 0)."""
    af, bf = to_mpf(a), to_mpf(b)
    scale = mpmath.e * mpmath.power(mpmath.e / (1 + af + bf), af)
    out = []
    for alpha in indices_up_to(len(s), alpha_cap):
        x = to_mpf(sum(Fraction(sj) * aj for sj, aj in zip(s, alpha)))
        g = mpmath.gamma(1 + x)
        out.append((mpmath.gamma(1 + x + bf) / g, scale * mpmath.gamma(1 + x + af + bf) / g))
    return out


def factorial_lemma(M, n) -> list:
    """(n-M)!/n! <= (M/n)^M for 1 <= M <= n, exactly."""
    return [(Fraction(1, math.prod(range(n - M + 1, n + 1))), Fraction(M, n) ** M)]


def stirling(x) -> list:
    """sqrt(2 pi) x^(x-1/2) e^-x <= Gamma(x) <= sqrt(2 pi) x^(x-1/2) e^(1-x)
    for x >= 1."""
    xf = to_mpf(x)
    base = mpmath.sqrt(2 * mpmath.pi) * mpmath.power(xf, xf - mpf(1) / 2)
    g = mpmath.gamma(xf)
    return [(base * mpmath.exp(-xf), g), (g, base * mpmath.exp(-xf + 1))]


def gamma_ratio(s, x) -> list:
    """e^(-s-1) (1+x)^s <= Gamma(1+x)/Gamma(1+x-s) <= e (1+x)^s for
    0 <= s <= x."""
    sf, xf = to_mpf(s), to_mpf(x)
    ratio = mpmath.gamma(1 + xf) / mpmath.gamma(1 + xf - sf)
    return [(mpmath.exp(-sf - 1) * mpmath.power(1 + xf, sf), ratio),
            (ratio, mpmath.e * mpmath.power(1 + xf, sf))]


def moment_regularity(s, n) -> list:
    """e^(-s-1) s^s n^s <= Gamma(1+sn)/Gamma(1+s(n-1)) <= (1+1/s)^s e s^s n^s
    for s > 0 and n >= 1."""
    sf = to_mpf(s)
    ratio = mpmath.gamma(1 + sf * n) / mpmath.gamma(1 + sf * (n - 1))
    ss_ns = mpmath.power(sf, sf) * mpmath.power(n, sf)
    return [(mpmath.exp(-sf - 1) * ss_ns, ratio),
            (ratio, mpmath.power(1 + 1 / sf, sf) * mpmath.e * ss_ns)]


# lemma name -> (inequality, default grid of parameter points)
INEQUALITIES = {
    "theta_lemma": (theta_lemma, [
        {"a": a, "b": b, "s": s}
        for a in (Fraction(1, 2), Fraction(1), Fraction(2))
        for b in (Fraction(0), Fraction(1, 2), Fraction(1))
        for s in ((Fraction(1, 2),), (Fraction(1),), (Fraction(3, 2),), (Fraction(2),),
                  (Fraction(1, 2), Fraction(1)))]),
    "factorial_lemma": (factorial_lemma,
                        [{"M": M, "n": n} for M in range(1, 7) for n in range(M, 501)]),
    "stirling": (stirling, [{"x": 1 + Fraction(199 * k, 399)} for k in range(400)]),
    "gamma_ratio": (gamma_ratio, [{"s": s, "x": s + (100 - s) * Fraction(k, 199)}
                                  for s in ORDERS_ANY for k in range(200)]),
    "moment_regularity": (moment_regularity,
                          [{"s": s, "n": n} for s in ORDERS_ANY for n in range(1, 501)]),
}


def test_criterion_8_inequality_suites(precision_module):
    for name, (inequality, grid) in INEQUALITIES.items():
        for point in grid:
            for lhs, rhs in inequality(**point):
                assert lhs <= rhs, f"{name} at {point}: {lhs} > {rhs}"
    _ok(8, "zero failures across " +
        ", ".join(f"{name} ({len(grid)} pts)" for name, (_, grid) in INEQUALITIES.items()))


def test_criterion_9_fit_calibration(precision_module):
    worst = 0.0
    for sigma in (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)):
        sf = mpf(sigma.numerator) / sigma.denominator
        b = [mpmath.gamma(1 + sf * n) for n in range(201)]
        fit = fit_gevrey_order(log_bounds(b), (50, 200))
        err = abs(fit.s_hat - float(sigma))
        assert err < 0.03, f"sigma={sigma}: s_hat={fit.s_hat}"
        worst = max(worst, err)
    _ok(9, f"synthetic Gamma(1+sigma*n) recovered within 0.03 (worst error {worst:.5f})")


def test_criterion_10_intermediate_bound_shape(heat_full, fractional_full):
    _, _, heat_bounds, heat_report, _ = heat_full
    check1 = intermediate_bound_roots(log_bounds(heat_bounds), 1, 1, 1, window=(50, 200))
    assert check1.d == 2 and check1.bounded
    assert check1.tail_max <= mpf("1.05") * check1.middle_max

    _, _, frac_bounds, frac_report = fractional_full
    check2 = intermediate_bound_roots(log_bounds(frac_bounds), 1, Fraction(1, 2),
                                      Fraction(3, 2), window=(50, 200))
    assert check2.d == 2 and check2.bounded
    assert check2.tail_max <= mpf("1.05") * check2.middle_max
    _ok(10, f"n-th roots of b_n n!^(M s0)/Gamma(1+dn) bounded: heat tail/middle = "
            f"{mpmath.nstr(check1.tail_max / check1.middle_max, 6)}, fractional = "
            f"{mpmath.nstr(check2.tail_max / check2.middle_max, 6)}")
