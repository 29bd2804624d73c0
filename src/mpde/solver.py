"""Cauchy problems for moment PDEs, valid by construction, the order-0 Borel
change of variables in z, and the coefficient recurrence that produces the
unique formal solution.

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

from .moments import combine, gamma_moment
from .precision import to_number
from .series import MultiSeries, _reduced, arithmetic_of, graded_count
from .operators import OperatorSpec, TimeSeries, borel_z, operator_numerators


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
        validate(self)

    @property
    def mode(self) -> str:
        return self.initial[0].mode


@dataclass(frozen=True)
class SolutionSeries:
    """Solution coefficients of the recurrence: ``working`` holds every step
    u_n as the recurrence computed it, to its degree in ``degree_envelope``,
    the largest degree that a reported coefficient reads; the residual check
    reads every step n >= M to that degree.  An exact step is integer
    numerators over a common denominator that need not be the least one
    (see ``REDUCE_BITS``).  For a majorant ``working`` holds only the
    dependency cone: each vector is zero off the cone and ends at its last
    cone rank.  The cone holds every index up to ``report_degree``.
    ``exact_bits`` is the bit-growth diagnostic of ``solve_formal`` in exact
    mode and None otherwise.
    """

    working: TimeSeries
    report_degree: int
    exact_bits: Optional[dict] = None

    @cached_property
    def u(self) -> TimeSeries:
        """Every u_n truncated to the uniform report degree, in lowest terms."""
        def reported(u_n):
            u_n = u_n.truncated(self.report_degree)
            return _reduced(u_n.dim, u_n.arithmetic, u_n.vec, u_n.den, u_n.valid_degree)
        return self.working.map_z(reported)

    @property
    def n_max(self) -> int:
        return self.working.n_max

    @property
    def valid_degrees(self) -> tuple:
        return tuple(c.valid_degree for c in self.working.coeffs)


# An exact step is stored over the unreduced common denominator of its sum
# and reduced to lowest terms only once that denominator has grown by more
# than REDUCE_BITS bits past the last reduced step's (at the start, past 0
# bits): the content gcd and the floordiv per element then run on 18 of
# heat's 201 steps, while the numerators carry at most REDUCE_BITS extra
# bits, which the stored steps pay for in memory.  Float denominators are 1,
# so float steps are never reduced.
REDUCE_BITS = 64


def validate(problem: CauchyProblem) -> None:
    """Raise a ValueError naming, in (j, alpha) order, every term with
    ord_t(a) < max{0, j-M+1}, i.e. q <= 0: the recurrence reads every
    nonzero stored coefficient, and one below that index would read u_n
    while computing it.  ``CauchyProblem`` runs it on construction, so every
    problem is solvable.  Moment orders need no condition: ``OperatorSpec``
    rejects every order <= 0.
    """
    spec = problem.spec
    offenders = [f"j={term.j}, alpha={term.alpha} (ord_t={term.ord_t()})"
                 for term in spec.terms if term.ord_t() < max(0, term.j - spec.M + 1)]
    if offenders:
        raise ValueError("condition term_order violated at term " + "; ".join(offenders))


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
    ``dependency_cone(...)[k]``.  It is the one degree contract of the
    data: a solve reads the initial series phi_k (k < M) and the forcing
    coefficient f_{k-M} (k >= M) to degree e[k], checks that they reach it,
    and computes step k to degree e[k] and no further.
    """
    return _envelope_walk(spec.M, _term_pieces(spec, n_max), n_max, report_degree)


def dependency_cone(spec: OperatorSpec, n_max: int, report_degree: int) -> list:
    """For each k in 0..n_max, the sorted graded ranks of the z-indices of
    u_k that some reported coefficient (|beta| <= report_degree, any n)
    reads through the recurrence.

    Step n reads (D_z^alpha u_{n-p})_beta = const * (u_{n-p})_{beta+alpha} for
    every term (j, alpha) and every nonzero c_{j,alpha,p} with p <= n - j, so
    the walk from n_max down to M maps cone[n] through the gather map of
    alpha into cone[n - p].  It relies on ``validate``, which the operator
    of every ``CauchyProblem`` passes: every shift p is at least 1, so step
    n's cone stays within ``degree_envelope(...)[n]`` and one gather map per
    alpha, to the largest envelope of the steps n >= M, covers every step.
    (The envelope need not peak at step M: a term with j > M reads no step
    below j.)
    """
    pieces = _term_pieces(spec, n_max)
    return _cone_walk(spec, pieces, _envelope_walk(spec.M, pieces, n_max, report_degree),
                      report_degree)


def solve_formal(problem: CauchyProblem, n_max: int, report_degree: int = 0) -> SolutionSeries:
    """Run the coefficient recurrence up to t^n_max.

    Each datum g_n (phi_n for n < M, f_{n-M} after) must be materialized
    to ``degree_envelope(...)[n]``, the largest degree of u_n that a
    reported coefficient reads, so that every reported coefficient is
    provable; ``u`` carries valid_degree = report_degree.  Step n is
    computed to that degree only, and ``working`` is every step to it.
    Every u_n is a ``MultiSeries`` in the arithmetic that holds the
    data and the operator's coefficients: each step sums g_n and its pieces
    c * D_z^alpha u_k (``ZKernel.diff``) as integers over one common
    denominator (or as floats), and no coefficient is decoded.  An exact
    step keeps that denominator until ``REDUCE_BITS`` says to reduce it.

    In exact mode ``exact_bits`` reports the bit growth: ``numerator_max``,
    the largest numerator's bits in the steps the rule reduced, taken before
    they were reduced, and in the last step; ``denominator_max``, the
    largest stored denominator's bits; ``reduced_steps``, the number of
    steps reduced.
    """
    plan = _plan(problem, n_max, report_degree)
    bits = {}
    steps = tuple(_steps(problem, plan, bits=bits))
    if plan.arith.mode == "exact":
        bits["numerator_max"] = max(bits["numerator_max"], _numerator_bits(steps[-1].vec))
        bits["denominator_max"] = max(u_n.den.bit_length() for u_n in steps)
    else:
        bits = None
    return SolutionSeries(TimeSeries(steps), report_degree, bits)


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
    """The plan of a solve to t^n_max, after the checks that each datum g_n
    the solve reads reaches ``degree_envelope(...)[n]`` and that the mode
    holds every coefficient (the problem itself is valid by construction)."""
    spec, M = problem.spec, problem.spec.M
    arith = arithmetic_of(*problem.initial, *problem.forcing.coeffs)
    if problem.forcing.n_max < n_max - M:
        raise ValueError(
            f"forcing is truncated at t^{problem.forcing.n_max}; "
            f"need t^{n_max - M} for n_max {n_max}"
        )
    pieces = _term_pieces(spec, n_max)
    envelope = _envelope_walk(M, pieces, n_max, report_degree)
    for n, need in enumerate(envelope):
        g_n = problem.initial[n] if n < M else problem.forcing.coeffs[n - M]
        if g_n.valid_degree < need:
            name = f"initial series {n}" if n < M else f"forcing coefficient {n - M}"
            raise ValueError(
                f"{name} is materialized to degree {g_n.valid_degree}; need {need} "
                f"to report degree {report_degree} at n_max {n_max}"
            )
    for _, _, cs in pieces:
        for c in cs.values():
            to_number(c, arith.mode)   # a TypeError naming any coefficient the mode cannot hold
    return _Plan(arith, pieces, envelope, max((p for _, _, cs in pieces for p in cs), default=0))


def _numerator_bits(vec: list) -> int:
    """The bits of the largest |numerator| of an exact vector, by two
    C-level passes."""
    return max(max(vec, default=0), -min(vec, default=0)).bit_length()


def _steps(problem: CauchyProblem, plan: _Plan, cone: Optional[list] = None,
           bits: Optional[dict] = None) -> Iterator:
    """u_0, ..., u_{n_max} of ``solve_formal`` in turn, or with the
    ``dependency_cone``, of ``solve_majorant``: a majorant step holds
    |values| at its cone ranks and zeros off them, up to its last cone rank.
    Each step is over its unreduced common denominator, reduced by the rule
    of ``REDUCE_BITS``; ``bits``, if given, receives ``numerator_max`` and
    ``reduced_steps`` of ``SolutionSeries.exact_bits``.  It keeps only the
    steps that later ones read, the last ``span``."""
    spec, arith, envelope, M = problem.spec, plan.arith, plan.envelope, problem.spec.M
    kernel, dim, mode, m0 = spec.z_kernel, spec.dim, arith.mode, spec.m0
    majorant = cone is not None
    # the majorant adds |c| where the solution subtracts c
    pieces = [(j, alpha, {p: abs(c) if majorant else -c for p, c in cs.items()})
              for j, alpha, cs in plan.pieces]
    window, diff_cache = {}, {}
    bits = {} if bits is None else bits
    bits.update(numerator_max=0, reduced_steps=0)
    limit = REDUCE_BITS

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
        vd = envelope[n]
        reads = []
        for j, alpha, cs in pieces:
            for p, c in cs.items():
                if p <= n - j:
                    k = n - p
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
        den *= s_den
        if den.bit_length() > limit:
            bits["numerator_max"] = max(bits["numerator_max"], _numerator_bits(acc))
            bits["reduced_steps"] += 1
            window[n] = _reduced(dim, arith, acc, den, vd)
            limit = window[n].den.bit_length() + REDUCE_BITS
        else:
            window[n] = MultiSeries(dim, arith, acc, den, vd)
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
