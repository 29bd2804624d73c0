"""Cauchy problems for moment PDEs: validation, the order-0 Borel change of
variables in z, and the coefficient recurrence that produces the unique
formal solution.

Writing u(t,z) = sum u_n(z) t^n with raw coefficients, the equation pins
down, for n >= M,

    u_n = (m0(n-M)/m0(n)) * [ g_n - sum_{(j,alpha)} sum_{p=q..n-j}
          c_{j,alpha,p} * (m0(n-p)/m0(n-p-j)) * D_z^alpha u_{n-p} ],

where g_n = f_{n-M}, the c_{j,alpha,p} are the t-coefficients of
t^{M-j} a_{j,alpha}(t), and q = ord_t(a) - j + M.  The inner sum runs while
n-p-j >= 0: the boundary index n-p-j = 0 contributes m0(n-p)/m0(0) = m0(n-p),
which is exactly what term-by-term differentiation of t^{n-p} gives.  The
residual check in the test suite adjudicates this convention against a
recurrence that drops the boundary term (tests/helpers.py).  Every u_n is
a ``series.MultiSeries``, kept as the elements of one arithmetic.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Iterator, Optional

import mpmath
from mpmath import mpf

from .moments import combine, gamma_moment, regularity_constants
from .precision import to_number
from .series import _reduced, arithmetic_of, graded_count
from .operators import OperatorSpec, TimeSeries, borel_z, operator_numerators


class ValidationFailure(ValueError):
    """Raised when solving is attempted on a problem that fails validation."""

    def __init__(self, report: "ValidationReport"):
        self.report = report
        failed = ", ".join(c.name for c in report.checks if not c.passed)
        super().__init__(f"problem fails validation: {failed}")


@dataclass(frozen=True)
class ConditionCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


@dataclass(frozen=True)
class CauchyProblem:
    """Operator + initial data phi_j (j < M) + forcing f, one arithmetic mode."""

    spec: OperatorSpec
    initial: tuple
    forcing: TimeSeries

    def __post_init__(self):
        object.__setattr__(self, "initial", tuple(self.initial))
        if len(self.initial) != self.spec.M:
            raise ValueError(
                f"need {self.spec.M} initial series, got {len(self.initial)}"
            )
        dims = {phi.dim for phi in self.initial} | {self.forcing.dim}
        if dims != {self.spec.dim}:
            raise ValueError(f"data dimensions {dims} do not match operator dimension {self.spec.dim}")
        modes = {phi.mode for phi in self.initial} | {self.forcing.mode}
        if len(modes) != 1:
            raise ValueError(f"mixed arithmetic modes in problem data: {modes}")

    @property
    def mode(self) -> str:
        return self.initial[0].mode

    @cached_property
    def validation(self) -> "ValidationReport":
        """``validate(self)``, computed at the first read and kept; the report
        reflects the mpmath precision at that first read."""
        return validate(self)


@dataclass(frozen=True)
class SolutionSeries:
    """Solution coefficients of the recurrence: ``working`` holds every step
    u_n as the recurrence computed it, to its degree in ``degree_envelope``,
    the largest degree that a reported coefficient reads; the residual check
    reads every step n >= M to that degree.  For a majorant ``working``
    holds only the dependency cone: each vector is zero off the cone and
    ends at its last cone rank.  The cone holds every index up to
    ``report_degree``.
    """

    working: TimeSeries
    report_degree: int

    @cached_property
    def u(self) -> TimeSeries:
        """Every u_n truncated to the uniform report degree."""
        return self.working.map_z(lambda u_n: u_n.truncated(self.report_degree))

    @property
    def n_max(self) -> int:
        return self.working.n_max

    @property
    def valid_degrees(self) -> tuple:
        return tuple(c.valid_degree for c in self.working.coeffs)


# the time moment's regularity constants are estimated on n <= REGULARITY_N
REGULARITY_N = 50


def validate(problem: CauchyProblem) -> ValidationReport:
    """Check the solvability conditions; report-only, never raises.

    Conditions: term_order (ord_t(a) >= max{0, j-M+1}, i.e. q >= 1, and no
    exactly nonzero stored coefficient below that index, since the
    recurrence reads every one of them), time_moment_regular (m0(0)=1 plus
    empirical regularity constants), positive_orders.
    """
    spec = problem.spec
    checks = []

    offenders = []
    for term in spec.terms:
        least = max(0, term.j - spec.M + 1)
        sigma = term.ord_t()
        first = next((p for p, c in enumerate(term.coeff) if c != 0), None)
        if sigma is not None and sigma < least:
            offenders.append(f"j={term.j}, alpha={term.alpha} (ord_t={sigma})")
        elif first is not None and first < least:
            offenders.append(f"j={term.j}, alpha={term.alpha} "
                             f"(first nonzero stored coefficient at t^{first})")
    checks.append(ConditionCheck(
        "term_order",
        not offenders,
        "all terms satisfy ord_t(a) >= max{0, j-M+1}" if not offenders
        else "violated at term " + "; ".join(offenders),
    ))

    m0_ok = spec.m0.value(0) == 1
    detail = "m0(0) = 1"
    if m0_ok and spec.m0.order > 0:
        a, big_a = regularity_constants(spec.m0, REGULARITY_N)
        m0_ok = a > 0 and mpmath.isfinite(big_a)
        detail = (f"m0(0) = 1; ratio envelope on n <= {REGULARITY_N}: "
                  f"[{mpmath.nstr(a, 8)}, {mpmath.nstr(big_a, 8)}]")
    checks.append(ConditionCheck("time_moment_regular", m0_ok, detail))

    orders_ok = spec.m0.order > 0 and all(o > 0 for o in spec.orders)
    checks.append(ConditionCheck(
        "positive_orders", orders_ok,
        f"s0 = {spec.m0.order}, s = {tuple(str(o) for o in spec.orders)}",
    ))

    return ValidationReport(tuple(checks))


def degree_budget(spec: OperatorSpec, n_max: int, report_degree: int, n: int = 0) -> int:
    """The z-degree to which data read at step n must be materialized:
    report_degree + (n_max - n) * max|alpha|, so that u_{n_max} still reaches
    report_degree after every D_z^alpha the later steps apply.  It is the
    materialization contract of the problem data and an upper bound on the
    ``degree_envelope`` that the solves compute to."""
    return report_degree + max(0, n_max - n) * spec.max_alpha


def space_borel_quotients(spec: OperatorSpec) -> list:
    """The order-0 moment functions Gamma_{s_j}/m_j used by the z-transform."""
    return [combine(gamma_moment(mj.order), mj, "quotient") for mj in spec.m]


def borel_problem(problem: CauchyProblem) -> CauchyProblem:
    """Transform to the equivalent problem whose z-moments are Gamma_{s_j}.

    Data are pushed through the order-0 Borel transform in z; the operator
    keeps its coefficients and time moment function.
    """
    spec = problem.spec
    quotients = space_borel_quotients(spec)
    new_spec = OperatorSpec(
        M=spec.M,
        m0=spec.m0,
        m=tuple(gamma_moment(mj.order) for mj in spec.m),
        terms=spec.terms,
    )
    initial = tuple(borel_z(phi, quotients) for phi in problem.initial)
    forcing = borel_z(problem.forcing, quotients)
    return CauchyProblem(spec=new_spec, initial=initial, forcing=forcing)


def _shifted_coefficients(term, M: int, n_max: int) -> dict:
    """c_{j,alpha,p}: t-coefficients of t^{M-j} a_{j,alpha}(t), p = q..n_max."""
    out = {}
    for idx, value in enumerate(term.coeff):
        p = idx + M - term.j
        if 0 <= p <= n_max and value != 0:
            out[p] = value
    return out


def _term_pieces(spec: OperatorSpec, n_max: int) -> tuple:
    """(j, alpha, c_{j,alpha,p} by p) for every term, in the terms' order."""
    return tuple((t.j, t.alpha, _shifted_coefficients(t, spec.M, n_max)) for t in spec.terms)


def _envelope_walk(M: int, pieces: tuple, n_max: int, report_degree: int) -> list:
    """``degree_envelope`` from the pieces of ``_term_pieces``."""
    envelope = [report_degree] * (n_max + 1)
    for n in range(n_max, M - 1, -1):
        for j, alpha, cs in pieces:
            for p in cs:
                if p <= n - j:
                    envelope[n - p] = max(envelope[n - p], envelope[n] + sum(alpha))
    return envelope


def _cone_walk(spec: OperatorSpec, pieces: tuple, envelope: list, report_degree: int) -> list:
    """``dependency_cone`` from the pieces of ``_term_pieces`` and their envelope."""
    kernel = spec.z_kernel
    top = max(envelope[spec.M:], default=report_degree)
    cone = [set(range(graded_count(spec.dim, report_degree))) for _ in envelope]
    gathers = [(j, kernel.gather(alpha, top), cs) for j, alpha, cs in pieces]
    for n in range(len(envelope) - 1, spec.M - 1, -1):
        for j, sources, cs in gathers:
            shifted = set(map(sources.__getitem__, cone[n]))
            for p in cs:
                if p <= n - j:
                    cone[n - p] |= shifted
    return [sorted(ranks) for ranks in cone]


def degree_envelope(spec: OperatorSpec, n_max: int, report_degree: int) -> list:
    """For each k in 0..n_max, the largest z-degree of u_k that some reported
    coefficient (|beta| <= report_degree, any n) reads through the recurrence.

    Step n reads u_{n-p} to degree e[n] + |alpha| for every term (j, alpha)
    and every nonzero c_{j,alpha,p} with p <= n - j, so one walk from n_max
    down to M gives every e[k]: it is the largest |beta| in
    ``dependency_cone(...)[k]`` and at most
    ``degree_budget(spec, n_max, report_degree, k)``.  Both solves compute
    step k to degree e[k] and no further.
    """
    return _envelope_walk(spec.M, _term_pieces(spec, n_max), n_max, report_degree)


def dependency_cone(spec: OperatorSpec, n_max: int, report_degree: int) -> list:
    """For each k in 0..n_max, the sorted graded ranks of the z-indices of
    u_k that some reported coefficient (|beta| <= report_degree, any n)
    reads through the recurrence.

    Step n reads (D_z^alpha u_{n-p})_beta = const * (u_{n-p})_{beta+alpha} for
    every term (j, alpha) and every nonzero c_{j,alpha,p} with p <= n - j, so
    the walk from n_max down to M maps cone[n] through the gather map of
    alpha into cone[n - p].  It relies on validate's term_order: every shift
    p is at least 1, so step n's cone stays within ``degree_envelope(...)[n]``
    and one gather map per alpha, to the largest envelope of the steps
    n >= M, covers every step.  (The envelope need not peak at step M: a
    term with j > M reads no step below j.)
    """
    pieces = _term_pieces(spec, n_max)
    return _cone_walk(spec, pieces, _envelope_walk(spec.M, pieces, n_max, report_degree),
                      report_degree)


def solve_formal(problem: CauchyProblem, n_max: int, report_degree: int = 0) -> SolutionSeries:
    """Run the coefficient recurrence up to t^n_max.

    Initial data and forcing must be materialized to ``degree_budget`` so
    that every reported coefficient is provable; ``u`` carries valid_degree
    = report_degree.  Step n is computed to degree
    ``degree_envelope(...)[n]`` only, the largest degree of u_n that a
    reported coefficient reads, and ``working`` is every step to that
    degree.  Every u_n is a ``MultiSeries`` in the arithmetic that holds the
    data and the operator's coefficients: each step sums g_n and its pieces
    c * D_z^alpha u_k (``ZKernel.diff``) as integers over one common
    denominator (or as floats), and no coefficient is decoded.
    """
    steps = _steps(problem, _plan(problem, n_max, report_degree))
    return SolutionSeries(TimeSeries(tuple(steps)), report_degree)


def solve_majorant(problem: CauchyProblem, n_max: int, report_degree: int = 0) -> SolutionSeries:
    """The nonnegative dominating sequence: the recurrence of ``solve_formal``
    on the absolute values of the data and coefficients, adding where it
    subtracts.  Each step is summed at the ranks of the ``dependency_cone``
    only, gathering from the stored u_k, so each kept coefficient equals the
    full majorant recurrence's (same pieces in the same order), and ``u`` is
    the full majorant's."""
    plan = _plan(problem, n_max, report_degree)
    cone = _cone_walk(problem.spec, plan.pieces, plan.envelope, report_degree)
    return SolutionSeries(TimeSeries(tuple(_steps(problem, plan, cone))), report_degree)


# what one solve reads, built once per solve by ``_plan``: the data's
# arithmetic, the ``_term_pieces``, the ``degree_envelope`` and the largest
# shift p, ``span``: step n reads u_k for k >= n - span only
_Plan = namedtuple("_Plan", "arith pieces envelope span")


def _plan(problem: CauchyProblem, n_max: int, report_degree: int) -> _Plan:
    """The plan of a solve to t^n_max, after the checks that the problem
    is valid and its data and coefficients reach as far as the solve reads."""
    if not problem.validation.passed:
        raise ValidationFailure(problem.validation)

    spec = problem.spec
    arith = arithmetic_of(*problem.initial, *problem.forcing.coeffs)
    needed = degree_budget(spec, n_max, report_degree)

    for j, phi in enumerate(problem.initial):
        if phi.valid_degree < needed:
            raise ValueError(
                f"initial series {j} is materialized to degree {phi.valid_degree}; "
                f"need {needed} (= report {report_degree} + {n_max}*{spec.max_alpha}) "
                f"to report degree {report_degree} at n_max {n_max}"
            )
    if problem.forcing.n_max < n_max - spec.M:
        raise ValueError(
            f"forcing is truncated at t^{problem.forcing.n_max}; "
            f"need t^{n_max - spec.M} for n_max {n_max}"
        )
    for k in range(n_max - spec.M + 1):
        fk = problem.forcing.coeffs[k]
        need = degree_budget(spec, n_max, report_degree, k + spec.M)
        if fk.valid_degree < need:
            raise ValueError(
                f"forcing coefficient {k} is materialized to degree "
                f"{fk.valid_degree}; need {need}"
            )

    pieces = _term_pieces(spec, n_max)
    for term, (_, _, cs) in zip(spec.terms, pieces):
        if term.truncation_order is not None and term.truncation_order < n_max - spec.M:
            raise ValueError(
                f"coefficient of term (j={term.j}, alpha={term.alpha}) is "
                f"truncated at t^{term.truncation_order}; need t^{n_max - spec.M} "
                f"for n_max {n_max}"
            )
        for c in cs.values():
            to_number(c, arith.mode)   # a TypeError naming any coefficient the mode cannot hold
    return _Plan(arith, pieces, _envelope_walk(spec.M, pieces, n_max, report_degree),
                 max((p for _, _, cs in pieces for p in cs), default=0))


def _steps(problem: CauchyProblem, plan: _Plan, cone: Optional[list] = None) -> Iterator:
    """u_0, ..., u_{n_max} of ``solve_formal`` in turn, or with the
    ``dependency_cone``, of ``solve_majorant``: a majorant step holds
    |values| at its cone ranks and zeros off them, up to its last cone rank.
    It keeps only the steps that later ones read, the last ``span``."""
    spec, arith, envelope, M = problem.spec, plan.arith, plan.envelope, problem.spec.M
    kernel, dim, mode, m0 = spec.z_kernel, spec.dim, arith.mode, spec.m0
    majorant = cone is not None
    # the majorant adds |c| where the solution subtracts c
    pieces = [(j, alpha, {p: abs(c) if majorant else -c for p, c in cs.items()})
              for j, alpha, cs in plan.pieces]
    window, diff_cache = {}, {}

    def dz(n: int, k: int, alpha: tuple) -> tuple:
        """D_z^alpha u_k as (vec, denominator): at the cone ranks of step n
        for the majorant, else all of it, kept while later steps read it."""
        u_k = window[k]
        if majorant:
            return kernel.diff(u_k.vec, u_k.den, u_k.valid_degree, alpha, arith, cone[n])[:2]
        row = diff_cache.setdefault(k, {})
        if alpha not in row:
            row[alpha] = kernel.diff(u_k.vec, u_k.den, u_k.valid_degree, alpha, arith)[:2]
        return row[alpha]

    for n in range(len(envelope)):
        # u_n = m0(0)/m0(n) * phi_n for n < M, where no piece has p <= n - j, and
        # u_n = m0(n-M)/m0(n) * (g_n - sum of c * m0(k)/m0(k-j) * D_z^alpha u_k),
        # every piece as integers over one common denominator
        g_n = problem.initial[n] if n < M else problem.forcing.coeffs[n - M]
        vd = min(g_n.valid_degree, envelope[n])
        reads = []
        for j, alpha, cs in pieces:
            for p, c in cs.items():
                if p <= n - j:
                    k = n - p
                    vd = min(vd, kernel.degree(window[k].valid_degree, alpha))
                    scalar, s_den = arith.scalar(c * m0.ratio(k, k - j, mode))
                    d, d_den = dz(n, k, alpha)
                    reads.append((scalar, s_den * d_den, d))
        count = graded_count(dim, vd)
        g_vec, g_den = g_n.dense(count), g_n.den
        den = math.lcm(g_den, *(piece_den for _, piece_den, _ in reads))
        # a forcing coefficient that stores no value is not added
        acc = None
        if g_vec.count(arith.zero) != len(g_vec) or not reads:
            acc = arith.abs(map(g_vec.__getitem__, cone[n])) if majorant else g_vec
            if den != g_den:
                acc = arith.scale(den // g_den, acc)
        for scalar, piece_den, d in reads:
            if piece_den != den:
                scalar = scalar * (den // piece_den)
            acc = (arith.scale(scalar, islice(d, count)) if acc is None
                   else arith.add_scaled(acc, scalar, d))
        scalar, s_den = arith.scalar(m0.ratio(max(n - M, 0), n, mode))
        acc = arith.scale(scalar, acc)
        if majorant:    # the zeros off the cone fill in after the scaling
            values, acc = acc, [arith.zero] * (cone[n][-1] + 1)
            for r, x in zip(cone[n], values):
                acc[r] = x
        window[n] = _reduced(dim, arith, acc, den * s_den, vd)
        yield window[n]
        window.pop(n - plan.span, None)
        diff_cache.pop(n - plan.span, None)


def solve_via_borel(problem: CauchyProblem, n_max: int, report_degree: int = 0) -> SolutionSeries:
    """Solve the z-Borel-transformed problem, then map back."""
    bsol = solve_formal(borel_problem(problem), n_max, report_degree)
    quotients = space_borel_quotients(problem.spec)
    return SolutionSeries(borel_z(bsol.working, quotients, inverse=True), report_degree)


def residual_max_relative(problem: CauchyProblem, sol: SolutionSeries) -> mpf:
    """max |residual coefficient| / (coefficientwise magnitude envelope).

    The envelope adds |piece| for every piece of P(u) and |f|, so it bounds
    the sum of magnitudes of everything that cancelled; a zero envelope
    forces an exactly zero residual.  It is evaluated only at the ranks
    where the residual is nonzero, and a forcing coefficient that stores no
    value is neither subtracted nor added into it.  Each t-order is reduced
    before the next one is computed.  Returns an mpf (0 for an identically
    zero residual; +inf if a zero envelope meets a nonzero residual, which
    indicates a genuine defect; NaN at the first NaN quotient, which no bound
    accepts).
    """
    forcing, u = problem.forcing, sol.working
    arith = arithmetic_of(*u.coeffs, *forcing.coeffs)
    zero = arith.zero
    worst = mpf(0)
    for n, (values, envelope, den, vd) in enumerate(operator_numerators(problem.spec, u,
                                                                         arith)):
        if n > forcing.n_max:
            break
        f_n = forcing.coeffs[n]
        count = graded_count(f_n.dim, min(vd, f_n.valid_degree))
        values, f_nums, f_den = values[:count], f_n.dense(count), f_n.den
        # a forcing coefficient that stores no value is not subtracted or added
        forced = f_nums.count(zero) != len(f_nums)
        common = math.lcm(den, f_den)
        if common != den:
            values = arith.scale(common // den, values)
        residual = values
        if forced:
            if common != f_den:
                f_nums = arith.scale(common // f_den, f_nums)
            residual = arith.sub(values, f_nums)
        if residual.count(zero) == len(residual):
            continue    # an identically zero order needs no envelope
        ranks = [r for r, x in enumerate(residual) if x != zero]
        env = envelope(ranks)
        if common != den:
            env = arith.scale(common // den, env)
        if forced:
            env = arith.add_abs(env, map(f_nums.__getitem__, ranks))
        for r, denom in zip(ranks, env):
            if denom == zero:
                return mpf("inf")
            q = arith.quotient(residual[r], denom, common, worst)
            if not q <= worst:
                if mpmath.isnan(q):
                    return q
                worst = q
    return worst
