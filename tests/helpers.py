"""Shared test utilities: series builders, random problem generators and
independent oracles.

Everything here is deliberately independent of the code paths it checks:
the hull oracle separates points with explicit support directions, the
heat-solution oracle differentiates coefficient lists by hand, the
dropped-boundary recurrence is a wrong convention the residual must reject,
the z-derivative oracle looks up one moment ratio per coefficient, the
t-derivative ``moment_diff_t`` scales whole series, and the
two-pass residual applies the whole operator once signed and once to
absolute values, the dependency-cone walk runs on sets of index tuples,
the moment-value oracle evaluates a product/quotient tree recursively, and
the root-test oracles take every root at run precision, with no float
screen.
``truncate_series``, ``polygon_contains``, ``growth_envelope`` and the
formal-norm toolkit (``theta_series``, ``formal_norm``) are used by the
tests only.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from operator import add

import mpmath
from mpmath import mpf

from mpde import (
    CauchyProblem,
    MultiSeries,
    OperatorSpec,
    OperatorTerm,
    SolutionSeries,
    TimeSeries,
    combine,
    gamma_moment,
    generator_series,
    make_series,
    moment_diff_z,
    series_add,
    series_scale,
    zero_series,
)
from mpde.analysis import H_FROM_N, BoundWitness, RootCheck
from mpde.operators import ZKernel, operator_numerators
from mpde.precision import arithmetic, float_tolerance, table_key, to_mpf, to_number
from mpde.series import arithmetic_of, indices_up_to
from mpde.solver import degree_budget


def time_series(coeffs) -> TimeSeries:
    return TimeSeries(tuple(coeffs))


def zero_time_series(n_max: int, dim: int, degree: int, mode: str = "exact") -> TimeSeries:
    return TimeSeries(tuple(zero_series(dim, degree, mode) for _ in range(n_max + 1)))


def zero_forcing(spec: OperatorSpec, n_max: int, report_degree: int = 0,
                 mode: str = "exact") -> TimeSeries:
    """A zero forcing materialized to the degrees solve_formal will demand."""
    return zero_time_series(max(0, n_max - spec.M), spec.dim,
                            degree_budget(spec, n_max, report_degree, spec.M), mode)


def truncate_series(f: MultiSeries, degree: int) -> MultiSeries:
    """Restrict to |alpha| <= min(degree, valid_degree)."""
    vd = min(degree, f.valid_degree)
    coeffs = {a: v for a, v in f.coeffs.items() if sum(a) <= vd}
    return make_series(f.dim, coeffs, vd, f.mode)


def polygon_contains(poly, point) -> bool:
    """Whether a point lies inside or on the boundary of the hull region of
    a ``NewtonPolygon``."""
    x, y = Fraction(point[0]), Fraction(point[1])
    first, last = poly.vertices[0], poly.vertices[-1]
    if x > last[0] or y < first[1]:
        return False
    for (vx, vy), _, k in poly.segments:
        if y - vy < k * (x - vx):
            return False
    return True


def growth_envelope(m, n_max: int) -> tuple:
    """Empirical (a, A) with a^n*Gamma_s(n) <= m(n) <= A^n*Gamma_s(n) on 1..n_max
    for a ``MomentFunction`` m."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    s = to_mpf(m.order)
    lo, hi = None, None
    for n in range(1, n_max + 1):
        gs = mpmath.gamma(1 + s * n)
        root = mpmath.power(m.value(n) / gs, mpf(1) / n)
        lo = root if lo is None else min(lo, root)
        hi = root if hi is None else max(hi, root)
    return lo, hi


def series_equal(a: MultiSeries, b: MultiSeries) -> bool:
    """Coefficientwise equality on the shared valid range (float: tolerance)."""
    if a.dim != b.dim:
        return False
    vd = min(a.valid_degree, b.valid_degree)
    a_coeffs, b_coeffs = a.coeffs, b.coeffs
    for alpha in set(a_coeffs) | set(b_coeffs):
        if sum(alpha) > vd:
            continue
        va, vb = a_coeffs.get(alpha, 0), b_coeffs.get(alpha, 0)
        if a.mode == "exact" and b.mode == "exact":
            if va != vb:
                return False
        else:
            va, vb = to_number(va, "float"), to_number(vb, "float")
            if abs(va - vb) > float_tolerance() * max(abs(va), abs(vb), mpf(1)):
                return False
    return True


# Per-coefficient arithmetic on the ``coeffs`` dicts, in Fraction and mpf
# values: the oracle of the vector operations of ``mpde.series``.

def add_reference(a: MultiSeries, b: MultiSeries) -> tuple:
    """(coefficients, valid degree) of a + b."""
    vd = min(a.valid_degree, b.valid_degree)
    out, a_coeffs, b_coeffs = {}, a.coeffs, b.coeffs
    for alpha in set(a_coeffs) | set(b_coeffs):
        if sum(alpha) <= vd:
            v = a_coeffs.get(alpha, 0) + b_coeffs.get(alpha, 0)
            if v != 0:
                out[alpha] = v
    return out, vd


def scale_reference(f: MultiSeries, scalar) -> dict:
    scalar = to_number(scalar, f.mode)
    return {alpha: scalar * v for alpha, v in f.coeffs.items()} if scalar != 0 else {}


def majorant_reference(f: MultiSeries) -> dict:
    return {alpha: abs(v) for alpha, v in f.coeffs.items()}


def majorant_series(f: MultiSeries) -> MultiSeries:
    """``majorant_reference`` as a series of f's mode and valid degree."""
    return make_series(f.dim, majorant_reference(f), f.valid_degree, f.mode)


def sup_bound_reference(f: MultiSeries, r):
    exact = f.mode == "exact" and isinstance(r, (int, Fraction))
    r = Fraction(r) if exact else to_mpf(r)
    total = Fraction(0) if exact else mpf(0)
    for alpha, v in f.coeffs.items():
        total += abs(v if exact else to_number(v, "float")) * r ** sum(alpha)
    return total


def majorizes_reference(g: MultiSeries, f: MultiSeries) -> bool:
    vd = min(g.valid_degree, f.valid_degree)
    float_mode = "float" in (g.mode, f.mode)
    slack = float_tolerance() if float_mode else 0
    g_coeffs, f_coeffs = g.coeffs, f.coeffs
    for alpha in set(g_coeffs) | set(f_coeffs):
        if sum(alpha) > vd:
            continue
        fa, ga = abs(f_coeffs.get(alpha, 0)), g_coeffs.get(alpha, 0)
        if float_mode:
            fa, ga = to_number(fa, "float"), to_number(ga, "float")
            if fa > ga + slack * max(fa, ga, mpf(1)):
                return False
        elif fa > ga:
            return False
    return True


def borel_z_reference(f: MultiSeries, m_prime, inverse: bool = False) -> dict:
    out = {}
    for alpha, v in f.coeffs.items():
        for mj, aj in zip(m_prime, alpha):
            if aj:
                v = v * (mj.ratio(aj, 0, f.mode) if inverse else mj.ratio(0, aj, f.mode))
        if v != 0:
            out[alpha] = v
    return out


def evaluate_reference(f: MultiSeries, point):
    exact = f.mode == "exact" and all(isinstance(p, (int, Fraction)) for p in point)
    # the point may be complex
    pt = [Fraction(p) if exact else mpmath.mpmathify(p) for p in point]
    total = Fraction(0) if exact else mpf(0)
    for alpha, v in sorted(f.coeffs.items()):
        term = v if exact else to_number(v, "float")
        for p, a in zip(pt, alpha):
            if a:
                term = term * p ** a
        total += term
    return total


def dilate_reference(f: MultiSeries, constant, h) -> dict:
    c, hh = to_mpf(constant), to_mpf(h)
    out = {alpha: c * hh ** sum(alpha) * to_number(v, "float") for alpha, v in f.coeffs.items()}
    return {alpha: v for alpha, v in out.items() if v != 0}


def theta_series(a, s, cutoff: int) -> MultiSeries:
    """Theta^{(a)} truncated at |alpha| <= cutoff for the Gevrey vector s: the
    float scale series with coefficients Gamma(1+s.alpha+a)/Gamma(1+s.alpha)."""
    a = Fraction(a)
    if a < 0:
        raise ValueError(f"shift parameter must be >= 0, got {a}")
    af = to_mpf(a)
    coeffs = {}
    for alpha in indices_up_to(len(s), cutoff):
        x = to_mpf(sum(Fraction(sj) * aj for sj, aj in zip(s, alpha)))
        coeffs[alpha] = mpmath.gamma(1 + x + af) / mpmath.gamma(1 + x)
    return make_series(len(s), coeffs, cutoff, "float")


def formal_norm(f: MultiSeries, s, cutoff: int, at=None) -> MultiSeries:
    """Generating series (in rho) of normalized moment derivatives at a point.

    Coefficient at alpha is |D^alpha f(z0)| / Gamma(1 + s.alpha), where D is
    the Gamma_s moment derivative in each variable and z0 defaults to the
    origin.  Output is float-mode with nonnegative coefficients.
    """
    if cutoff > f.valid_degree:
        raise ValueError(
            f"cutoff {cutoff} exceeds the derivative budget (valid degree {f.valid_degree})")
    z0 = tuple(at) if at is not None else (0,) * f.dim
    ms = [gamma_moment(sj) for sj in s]
    coeffs = {}
    for alpha in indices_up_to(f.dim, cutoff):
        val = to_mpf(abs(evaluate_reference(moment_diff_z(f, ms, alpha), z0)))
        x = to_mpf(sum(Fraction(sj) * aj for sj, aj in zip(s, alpha)))
        coeffs[alpha] = val / mpmath.gamma(1 + x)
    return make_series(f.dim, coeffs, cutoff, "float")


def rational_ratio_moments():
    """(m0, (m1, m2)): gamma products whose shift ratios m(b+a)/m(b) are
    rationals with denominators other than 1, for the lcm path of the
    exact kernels: m0 = m1 = Gamma(1+3n)/Gamma(1+2n) of order 1, with
    m(3)/m(2) = 84/5, and m2 = Gamma(1+4n)/Gamma(1+2n) of order 2.  Fails
    unless a time-moment step ratio and a ratio vector of the z-kernel
    have denominators other than 1."""
    m0 = combine(gamma_moment(3), gamma_moment(2), "quotient")
    m1 = combine(gamma_moment(3), gamma_moment(2), "quotient")
    m2 = combine(gamma_moment(4), gamma_moment(2), "quotient")
    assert any(m0.ratio(k, k - 1, "exact").denominator != 1 for k in range(1, 9))
    kernel, exact = ZKernel((m1, m2)), arithmetic("exact")
    assert any(kernel.ratios(alpha, 8, exact)[0] != 1 for alpha in ((1, 0), (0, 1)))
    return m0, (m1, m2)


def exact_values_read(m) -> int:
    """How many exact values of ``m`` were computed: m(0), ..., m(k - 1)."""
    return len(m._tables.get(table_key("exact"), ()))


ORDERS_ANY = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)]
ORDERS_EXACT = [Fraction(1), Fraction(2)]


def moment_value_reference(recipe, n: int, mode: str):
    """m(n) of a moment recipe, evaluated node by node: ``("gamma", s)`` is
    Gamma(1 + s*n), and ``("product" | "quotient", a, b)`` combines the
    values of a and b.  In exact mode an irrational value anywhere in the
    tree gives None."""
    exact = mode == "exact"
    kind = recipe[0]
    if kind == "gamma":
        s = Fraction(recipe[1])
        if exact:
            sn = s * n
            return Fraction(math.factorial(sn.numerator)) if sn.denominator == 1 else None
        return mpmath.gamma(1 + to_mpf(s) * n)
    a, b = (moment_value_reference(r, n, mode) for r in recipe[1:])
    if a is None or b is None:
        return None
    return a * b if kind == "product" else a / b


def random_operator_spec(rng: random.Random, exact: bool = False, max_m: int = 3,
                         max_terms: int = 5, dims=(1, 2)) -> OperatorSpec:
    """A valid random operator (q >= 1 for every term, ord_t <= 4)."""
    orders = ORDERS_EXACT if exact else ORDERS_ANY
    dim = rng.choice(list(dims))
    big_m = rng.randint(1, max_m)
    m0 = gamma_moment(rng.choice(orders))
    m = tuple(gamma_moment(rng.choice(orders)) for _ in range(dim))
    terms = []
    seen = set()
    for _ in range(rng.randint(0, max_terms)):
        j = rng.randint(0, big_m + 1)
        alpha = tuple(rng.randint(0, 2) for _ in range(dim))
        if (j, alpha) in seen:
            continue
        seen.add((j, alpha))
        ord_t = rng.randint(max(0, j - big_m + 1), 4)
        coeff = [Fraction(0)] * ord_t
        coeff.append(Fraction(rng.randint(1, 3) * rng.choice([-1, 1])))
        for _ in range(rng.randint(0, 2)):
            coeff.append(Fraction(rng.randint(-2, 2)))
        terms.append(OperatorTerm(j=j, alpha=alpha, coeff=tuple(coeff)))
    return OperatorSpec(M=big_m, m0=m0, m=m, terms=tuple(terms))


def random_problem(rng: random.Random, exact: bool = True, n_max: int = 8,
                   report_degree: int = 1, max_m: int = 2,
                   max_terms: int = 3):
    """A random solvable Cauchy problem with a sufficient degree budget."""
    spec = random_operator_spec(rng, exact=exact, max_m=max_m, max_terms=max_terms)
    return random_data(rng, spec, exact, n_max, report_degree)


def random_data(rng: random.Random, spec: OperatorSpec, exact: bool = True, n_max: int = 8,
                report_degree: int = 1) -> CauchyProblem:
    """The Cauchy problem of ``spec`` with random initial data and forcing,
    materialized to the degree budget."""
    mode = "exact" if exact else "float"
    dim = spec.dim
    full = degree_budget(spec, n_max, report_degree)
    initial = []
    for _ in range(spec.M):
        choice = rng.choice(["geometric", "sparse", "zero"])
        if choice == "geometric":
            ratio = Fraction(rng.randint(-2, 2), rng.choice([1, 2]))
            initial.append(generator_series("geometric", dim, full, mode, ratio=ratio))
        elif choice == "sparse":
            table = {}
            for _ in range(rng.randint(1, 4)):
                alpha = tuple(rng.randint(0, min(3, full)) for _ in range(dim))
                if sum(alpha) <= full:
                    table[alpha] = Fraction(rng.randint(-3, 3))
            initial.append(make_series(dim, table, full, mode))
        else:
            initial.append(zero_series(dim, full, mode))
    n_top = max(0, n_max - spec.M)
    fdeg = degree_budget(spec, n_max, report_degree, spec.M)
    fcoeffs = []
    for _ in range(n_top + 1):
        alpha = tuple(rng.randint(0, 1) for _ in range(dim))
        if rng.random() < 0.5 or sum(alpha) > fdeg:
            fcoeffs.append(zero_series(dim, fdeg, mode))
        else:
            table = {alpha: Fraction(rng.randint(-2, 2))}
            fcoeffs.append(make_series(dim, table, fdeg, mode))
    problem = CauchyProblem(spec=spec, initial=tuple(initial),
                            forcing=TimeSeries(tuple(fcoeffs)))
    return problem


def bruteforce_hull_vertices(points):
    """Hull corners of the union of upper-left quadrants, by direction probing.

    For every support direction k (strictly between consecutive pairwise
    slopes, plus one below and one above all of them) the unique maximizer of
    k*x - y over the generator points is a corner; the union over directions
    is the full corner set.
    """
    pts = sorted(set((Fraction(x), Fraction(y)) for x, y in points))
    if len(pts) == 1:
        return list(pts)
    slopes = set()
    for i in range(len(pts)):
        for k in range(i + 1, len(pts)):
            (x1, y1), (x2, y2) = pts[i], pts[k]
            if x1 != x2:
                slopes.add((y2 - y1) / (x2 - x1))
    pos = sorted(s for s in slopes if s > 0)
    if not pos:
        dirs = [Fraction(1)]
    else:
        dirs = [pos[0] / 2]
        dirs += [(a + b) / 2 for a, b in zip(pos, pos[1:])]
        dirs.append(pos[-1] + 1)
    verts = set()
    for k in dirs:
        best, arg, tie = None, None, False
        for p in pts:
            val = k * p[0] - p[1]
            if best is None or val > best:
                best, arg, tie = val, p, False
            elif val == best:
                tie = True
        assert not tie, f"direction {k} is not separating"
        verts.add(arg)
    return sorted(verts)


def heat_solution_oracle(n_terms: int, phi_coeffs):
    """u_n(0) for the heat problem by repeated differentiation of phi.

    u_n = (d/dz)^{2n} phi / n!; works directly on the coefficient list, with
    no series or operator machinery involved.
    """
    c = [Fraction(v) for v in phi_coeffs]
    fact = 1
    out = []
    for n in range(n_terms + 1):
        if n > 0:
            c = [(l + 1) * c[l + 1] for l in range(len(c) - 1)]
            c = [(l + 1) * c[l + 1] for l in range(len(c) - 1)]
            fact *= n
        out.append(c[0] / fact if c else Fraction(0))
    return out


def solve_formal_reference(problem: CauchyProblem, n_max: int, report_degree: int = 0,
                           majorant_mode: bool = False,
                           drop_boundary: bool = False) -> SolutionSeries:
    """The coefficient recurrence as a chain of whole-series operations.

    Each step adds sign * c * m0(k)/m0(k-j) * D_z^alpha u_k to g_n with
    series_scale/series_add, one term and one p at a time, with the
    per-coefficient z-derivative oracle, then scales by m0(n-M)/m0(n).
    majorant_mode takes absolute values of the data and coefficients and adds
    instead of subtracting.  drop_boundary is the wrong convention the
    residual must reject: the p-sum also skips the boundary index
    n-p-j = 0, whose factor is m0(n-p)/m0(0), not zero.
    """
    spec, mode = problem.spec, problem.mode
    m0 = spec.m0
    sign = 1 if majorant_mode else -1
    data = majorant_series if majorant_mode else (lambda f: f)
    u = [series_scale(data(problem.initial[j]), m0.ratio(0, j, mode))
         for j in range(min(spec.M, n_max + 1))]
    for n in range(spec.M, n_max + 1):
        acc = data(problem.forcing.coeffs[n - spec.M])
        for term in spec.terms:
            for idx, c in enumerate(term.coeff):
                k = n - (idx + spec.M - term.j)
                if c == 0 or k > n or k - term.j < (1 if drop_boundary else 0):
                    continue
                c = abs(c) if majorant_mode else c
                dz = moment_diff_z_reference(u[k], spec.m, term.alpha)
                acc = series_add(acc, series_scale(dz, sign * (c * m0.ratio(k, k - term.j, mode))))
        u.append(series_scale(acc, m0.ratio(n - spec.M, n, mode)))
    return SolutionSeries(TimeSeries(tuple(u)), report_degree)


def dependency_cone_reference(spec: OperatorSpec, n_max: int, report_degree: int) -> list:
    """For each k in 0..n_max, the set of z-indices of u_k that some reported
    coefficient (|beta| <= report_degree, any n) reads through the recurrence,
    walked on sets of index tuples: step n reads (u_{n-p})_{beta+alpha} for
    every term (j, alpha), every nonzero t-coefficient a_{j,alpha} at shift
    p = idx + M - j with p <= n - j, and every beta in cone[n]."""
    reported = set(indices_up_to(spec.dim, report_degree))
    cone = [set(reported) for _ in range(n_max + 1)]
    pieces = [(term.j, term.alpha,
               [idx + spec.M - term.j for idx, c in enumerate(term.coeff) if c != 0])
              for term in spec.terms]
    for n in range(n_max, spec.M - 1, -1):
        for j, alpha, shifts in pieces:
            shifted = {tuple(map(add, beta, alpha)) for beta in cone[n]}
            for p in shifts:
                if 0 <= p <= n - j:
                    cone[n - p] |= shifted
    return cone


def on_cone(sol: SolutionSeries, cone) -> list:
    """The working coefficients of ``sol`` whose index lies in cone[n] (a
    set of indices, as ``dependency_cone_reference`` gives), one dict per u_n."""
    return [{alpha: v for alpha, v in c.coeffs.items() if alpha in cone[n]}
            for n, c in enumerate(sol.working.coeffs)]


def moment_diff_z_reference(f, m, alpha):
    """D_z^alpha with one ``MomentFunction.ratio`` lookup per coefficient and axis."""
    alpha = tuple(alpha)
    total = sum(alpha)
    if total == 0:
        return f
    new_valid = f.valid_degree - total
    if new_valid < 0:
        return zero_series(f.dim, -1, f.mode)
    coeffs = {}
    for src, v in f.coeffs.items():
        beta = tuple(s - a for s, a in zip(src, alpha))
        if any(b < 0 for b in beta) or sum(beta) > new_valid:
            continue
        factor = v
        for mj, bj, aj in zip(m, beta, alpha):
            if aj:
                factor = factor * mj.ratio(bj + aj, bj, f.mode)
        if factor != 0:
            coeffs[beta] = factor
    return make_series(f.dim, coeffs, new_valid, f.mode)


def moment_diff_t(u: TimeSeries, m0) -> TimeSeries:
    """One t-moment derivative on raw coefficients, (D_t u)_n = u_{n+1} *
    m0(n+1)/m0(n); the t-truncation order drops by one."""
    if u.n_max < 1:
        raise ValueError("time series too short to differentiate")
    return TimeSeries(tuple(series_scale(u.coeffs[n + 1], m0.ratio(n + 1, n, u.mode))
                            for n in range(u.n_max)))


def _coeff_product(scalars, w):
    """Cauchy product of a scalar polynomial with a TimeSeries, to w's
    n_max, as a list of series: None at a t-order that no nonzero
    coefficient power reaches, where the product adds nothing."""
    out = []
    for n in range(w.n_max + 1):
        acc = None
        for p, a in enumerate(scalars):
            if p > n:
                break
            if a == 0:
                continue
            piece = series_scale(w.coeffs[n - p], a)
            acc = piece if acc is None else series_add(acc, piece)
        out.append(acc)
    return out


def apply_operator_reference(spec, u, absolute=False):
    """The operator applied with every D_t^j u materialized as a whole series.

    With absolute=True the coefficients of u and of the a_{j,alpha} are
    replaced by their absolute values first, which gives the magnitude
    envelope of the signed application.
    """
    work = u.map_z(majorant_series) if absolute else u
    diffs = {0: work}
    for k in range(1, max([spec.M] + [t.j for t in spec.terms]) + 1):
        diffs[k] = moment_diff_t(diffs[k - 1], spec.m0)
    contributions = [list(diffs[spec.M].coeffs)]
    for term in spec.terms:
        zpart = diffs[term.j].map_z(
            lambda c: moment_diff_z_reference(c, spec.m, term.alpha))
        scalars = [abs(a) for a in term.coeff] if absolute else list(term.coeff)
        contributions.append(_coeff_product(scalars, zpart))
    out = []
    for n in range(min(map(len, contributions))):
        acc = contributions[0][n]
        for c in contributions[1:]:
            if c[n] is not None:
                acc = series_add(acc, c[n])
        out.append(acc)
    return TimeSeries(tuple(out))


def operator_pairs_view(spec, u):
    """(P(u)_n, envelope_n) per t-order as series: ``operator_numerators``,
    the kernel the residual runs, with its output turned into series and
    its envelope evaluated at every rank."""
    arith = arithmetic_of(*u.coeffs)
    for values, env, den, vd in operator_numerators(spec, u, arith):
        env = env(list(range(len(values))))
        yield tuple(MultiSeries(u.dim, arith, vec, den, vd) for vec in (values, env))


def residual_max_relative_two_pass(problem, sol):
    """max |P(u) - f| / (|P|(|u|) + |f|) from two whole applications of P."""
    app = apply_operator_reference(problem.spec, sol.working)
    envelope = apply_operator_reference(problem.spec, sol.working, absolute=True)
    worst = mpf(0)
    for n in range(min(app.n_max, problem.forcing.n_max) + 1):
        res_n = series_add(app.coeffs[n], series_scale(problem.forcing.coeffs[n], -1))
        env_n = series_add(envelope.coeffs[n], majorant_series(problem.forcing.coeffs[n]))
        vd = min(res_n.valid_degree, env_n.valid_degree)
        env_coeffs = env_n.coeffs
        for alpha, v in res_n.coeffs.items():
            if sum(alpha) > vd:
                continue
            denom = env_coeffs.get(alpha, 0)
            if denom == 0:
                if v != 0:
                    return mpf("inf")
                continue
            worst = max(worst, to_mpf(abs(v)) / to_mpf(denom))
    return worst


def _thirds_reference(roots) -> tuple:
    """(bounded, tail_max, middle_max) via the last-third vs middle-third rule."""
    k = len(roots)
    if k < 3:
        return True, None, None
    tail_max = max(roots[2 * k // 3:])
    middle_max = max(roots[k // 3: 2 * k // 3])
    return tail_max <= mpf("1.05") * middle_max, tail_max, middle_max


def verify_gevrey_bound_reference(logb, s, n_range=None) -> BoundWitness:
    """``analysis.verify_gevrey_bound`` with every root and every C term
    taken at run precision, then the max of the roots themselves."""
    s = Fraction(s)
    sf = to_mpf(s)
    lo, hi = ((1, len(logb) - 1) if n_range is None
              else (max(1, n_range[0]), min(n_range[1], len(logb) - 1)))
    lg = [mpmath.loggamma(n + 1) for n in range(hi + 1)]
    roots, ns = [], []
    for n in range(lo, hi + 1):
        if logb[n] is not None:
            roots.append(mpmath.exp((logb[n] - sf * lg[n]) / n))
            ns.append(n)
    if not roots:
        return BoundWitness(order=s, H=mpf(0), C=mpf(0), bounded=True)
    H = max([r for n, r in zip(ns, roots) if n >= H_FROM_N] or roots)
    logH = mpmath.log(H)
    C = mpf(0)
    for n in range(hi + 1):
        if logb[n] is not None:
            C = max(C, mpmath.exp(logb[n] - n * logH - sf * lg[n]))
    return BoundWitness(order=s, H=H, C=C, bounded=_thirds_reference(roots)[0])


def intermediate_bound_roots_reference(logb, M, s0, inv_k1, window) -> RootCheck:
    """``analysis.intermediate_bound_roots`` with every root taken at run
    precision."""
    d = M * Fraction(s0) + Fraction(inv_k1)
    df, ms0 = to_mpf(d), to_mpf(M * Fraction(s0))
    lo, hi = max(1, window[0]), min(window[1], len(logb) - 1)
    roots = []
    for n in range(lo, hi + 1):
        if logb[n] is not None:
            val = logb[n] + ms0 * mpmath.loggamma(n + 1) - mpmath.loggamma(1 + df * n)
            roots.append(mpmath.exp(val / n))
    bounded, tail_max, middle_max = _thirds_reference(roots)
    return RootCheck(d=d, bounded=bounded, tail_max=tail_max, middle_max=middle_max)
