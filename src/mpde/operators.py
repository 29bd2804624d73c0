"""Moment differentiation, moment Borel transforms, and operator application.

A time series holds raw t-coefficients u_n (never pre-divided by m(n)).  On
raw coefficients the t-moment derivative acts as

    (D_t u)_n = u_{n+1} * m0(n+1) / m0(n),

which is the standard definition rewritten for the raw representation; the
z-moment derivative shifts indices by alpha and multiplies by the analogous
ratio in each variable.  Borel transforms divide coefficients by moment
values.  Everything here is pure and mode-preserving.

The z-derivative has one kernel, ``ZKernel.diff``, on the kernel form of
``series`` (a dense list over the graded layout): a gather through one
precomputed map per alpha, then one multiply per axis by a ratio vector.
``KernelTimeSeries`` is a time series in that form; the recurrence keeps its
solution in it, and ``operator_numerators`` applies the operator to it.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import islice, repeat
from operator import add, mul
from typing import Callable, Iterator, Optional, Sequence

from .moments import MomentFunction, arithmetic
from .precision import nonzero_threshold, to_number
from .series import Grading, MultiSeries, from_kernel, series_scale, to_kernel, to_numerators


@dataclass(frozen=True)
class TimeSeries:
    """Truncated series in t whose coefficients are z-series."""

    coeffs: tuple

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("time series needs at least one coefficient")
        dims = {c.dim for c in self.coeffs}
        modes = {c.mode for c in self.coeffs}
        if len(dims) != 1 or len(modes) != 1:
            raise ValueError("all t-coefficients must share dimension and mode")

    @property
    def n_max(self) -> int:
        return len(self.coeffs) - 1

    @property
    def dim(self) -> int:
        return self.coeffs[0].dim

    @property
    def mode(self) -> str:
        return self.coeffs[0].mode

    def map_z(self, fn: Callable[[MultiSeries], MultiSeries]) -> "TimeSeries":
        return TimeSeries(tuple(fn(c) for c in self.coeffs))


@dataclass(frozen=True, eq=False)
class KernelTimeSeries:
    """A time series whose t-coefficients are in the kernel form of
    ``series``: ``steps[n]`` is (vec, den, valid degree) of the n-th one.

    vec holds the first ``grading.count(valid degree)`` graded indices, or,
    when ``ranks`` is set, the indices of the graded ranks ``ranks[n]``
    (increasing), as the majorant's dependency cone does.
    """

    grading: Grading
    mode: str
    steps: tuple
    ranks: Optional[tuple] = None

    @classmethod
    def of(cls, u: TimeSeries, grading: Grading) -> "KernelTimeSeries":
        return cls(grading, u.mode, tuple((*to_kernel(c, grading, c.valid_degree), c.valid_degree)
                                          for c in u.coeffs))

    @property
    def valid_degrees(self) -> tuple:
        return tuple(vd for _, _, vd in self.steps)

    def series(self, n: int, degree: Optional[int] = None) -> MultiSeries:
        """The n-th t-coefficient as a series, truncated to ``degree``."""
        vec, den, vd = self.steps[n]
        if degree is not None:
            vd = min(vd, degree)
        ranks = range(len(vec)) if self.ranks is None else self.ranks[n]
        end = bisect_left(ranks, self.grading.count(vd))
        return from_kernel(vec[:end], den, vd, self.grading, self.mode, ranks[:end])

    def time_series(self, degree: Optional[int] = None) -> TimeSeries:
        return TimeSeries(tuple(self.series(n, degree) for n in range(len(self.steps))))


@dataclass(frozen=True)
class OperatorTerm:
    """One summand a_{j,alpha}(t) * D_t^j * D_z^alpha of the operator.

    coeff is the t-coefficient tuple of a_{j,alpha}; ``truncated`` marks a
    series known only to its stored length (polynomials are exact and impose
    no truncation on products).  ord_override forces the t-order when the
    stored prefix is not trusted to reveal it.
    """

    j: int
    alpha: tuple
    coeff: tuple
    truncated: bool = False
    ord_override: Optional[int] = None

    def __post_init__(self):
        if self.j < 0:
            raise ValueError(f"time-derivative power must be >= 0, got {self.j}")
        if any(a < 0 for a in self.alpha):
            raise ValueError(f"negative entry in alpha {self.alpha}")
        object.__setattr__(self, "alpha", tuple(int(a) for a in self.alpha))
        object.__setattr__(self, "coeff", tuple(self.coeff))

    def ord_t(self) -> Optional[int]:
        """Index of the first nonzero t-coefficient; None if all vanish.

        Float coefficients count as zero below 2^-(prec/2) in modulus.
        """
        if self.ord_override is not None:
            return self.ord_override
        thresh = nonzero_threshold()
        for p, c in enumerate(self.coeff):
            if isinstance(c, (int, Fraction)):
                if c != 0:
                    return p
            elif abs(c) > thresh:
                return p
        return None

    @property
    def truncation_order(self) -> Optional[int]:
        """Largest trustworthy t-power of the coefficient (None = exact polynomial)."""
        return len(self.coeff) - 1 if self.truncated else None


@dataclass(frozen=True)
class OperatorSpec:
    """The operator D_t^M + sum a_{j,alpha}(t) D_t^j D_z^alpha.

    The leading term (M, 0) with unit coefficient is implicit.  Orders of all
    moment functions must be positive; duplicate (j, alpha) pairs are
    rejected.  Terms are kept in canonical (j, alpha) order.
    """

    M: int
    m0: MomentFunction
    m: tuple
    terms: tuple = ()

    def __post_init__(self):
        if self.M < 1:
            raise ValueError(f"leading power M must be >= 1, got {self.M}")
        if not self.m0.order > 0:
            raise ValueError(f"time moment function must have positive order, got {self.m0.order}")
        object.__setattr__(self, "m", tuple(self.m))
        if not self.m:
            raise ValueError("need at least one space moment function")
        for k, mk in enumerate(self.m):
            if not mk.order > 0:
                raise ValueError(f"space moment function {k + 1} must have positive order")
        terms = tuple(sorted(self.terms, key=lambda t: (t.j, t.alpha)))
        object.__setattr__(self, "terms", terms)
        seen = set()
        for t in terms:
            if len(t.alpha) != len(self.m):
                raise ValueError(
                    f"term alpha {t.alpha} does not match dimension {len(self.m)}"
                )
            if (t.j, t.alpha) in seen:
                raise ValueError(f"duplicate term (j={t.j}, alpha={t.alpha})")
            seen.add((t.j, t.alpha))

    @property
    def dim(self) -> int:
        return len(self.m)

    @property
    def orders(self) -> tuple:
        return tuple(mk.order for mk in self.m)

    @property
    def max_alpha(self) -> int:
        """Largest |alpha| over the terms (degree consumed per recurrence step)."""
        return max((sum(t.alpha) for t in self.terms), default=0)

    @cached_property
    def z_kernel(self) -> "ZKernel":
        """The z-derivative kernel of the space moments, whose gather maps
        and ratio vectors the solve, the majorant and the residual share."""
        return ZKernel(self.m)


def moment_diff_t(u: TimeSeries, m0: MomentFunction) -> TimeSeries:
    """One t-moment derivative; the t-truncation order drops by one."""
    if u.n_max < 1:
        raise ValueError("time series too short to differentiate")
    out = []
    for n in range(u.n_max):
        out.append(series_scale(u.coeffs[n + 1], m0.ratio(n + 1, n, u.mode)))
    return TimeSeries(tuple(out))


class ZKernel:
    """D_z^alpha on kernel-form series, for one tuple of space moments.

    The coefficient of beta + alpha moves to beta and is multiplied, for
    each axis j with alpha_j > 0 in axis order, by m_j(beta_j + alpha_j) /
    m_j(beta_j).  Per alpha the kernel keeps the gather map (the rank of
    beta + alpha for each beta in graded order) and, per arithmetic, one
    ratio vector per axis over the same order, exact ratios as integers over
    their common denominator.  Both are built on the first read and extended
    only to the largest degree read since, so no moment value is evaluated
    that the derivatives do not use.
    """

    def __init__(self, m: Sequence[MomentFunction]):
        self.m = tuple(m)
        self.grading = Grading(len(self.m))
        self._gathers = {}   # alpha -> [rank(beta + alpha) for beta in graded order]
        self._ratios = {}    # (arithmetic, alpha) -> (degree, den, one vector per axis)

    def gather(self, alpha: tuple, degree: int) -> list:
        """The gather map of alpha, covering at least |beta| <= degree."""
        ranks = self._gathers.setdefault(alpha, [])
        need = self.grading.count(degree)
        if len(ranks) < need:
            self.grading.extend(degree + sum(alpha))
            indices, rank = self.grading.indices, self.grading.rank
            ranks.extend(rank[tuple(map(add, indices[r], alpha))]
                         for r in range(len(ranks), need))
        return ranks

    def ratios(self, alpha: tuple, degree: int, mode: str) -> tuple:
        """(den, vectors): the ratio vectors of alpha in the arithmetic of
        ``mode``, covering at least |beta| <= degree."""
        key = (arithmetic(mode), alpha)
        table = self._ratios.get(key)
        if table is None or table[0] < degree:
            self.grading.extend(degree)
            betas = self.grading.indices[: self.grading.count(degree)]
            den, vectors = 1, []
            for j, (mj, aj) in enumerate(zip(self.m, alpha)):
                if aj:
                    nums, ratio_den = to_numerators(mj.shift_ratios(aj, degree, mode), mode)
                    vectors.append([nums[beta[j]] for beta in betas])
                    den *= ratio_den
            table = self._ratios[key] = (degree, den, vectors)
        return table[1], table[2]

    @staticmethod
    def degree(valid_degree: int, alpha: tuple) -> int:
        """The valid degree of D_z^alpha of a series valid to valid_degree
        (-1 once the budget is exhausted)."""
        return max(valid_degree - sum(alpha), -1) if sum(alpha) else valid_degree

    def diff(self, vec: list, den: int, valid_degree: int, alpha: tuple, mode: str) -> tuple:
        """D_z^alpha of the kernel-form series vec/den, as (vec, den, valid degree)."""
        if not sum(alpha):
            return vec, den, valid_degree
        new_valid = self.degree(valid_degree, alpha)
        if new_valid < 0:
            return [], 1, -1
        count = self.grading.count(new_valid)
        out = list(map(vec.__getitem__, islice(self.gather(alpha, new_valid), count)))
        ratio_den, vectors = self.ratios(alpha, new_valid, mode)
        for ratios in vectors:
            out = list(map(mul, out, ratios))
        return out, den * ratio_den, new_valid


def moment_diff_z(f: MultiSeries, m: Sequence[MomentFunction], alpha: Sequence[int]) -> MultiSeries:
    """The mixed z-moment derivative D^alpha; valid degree drops by |alpha|."""
    alpha = tuple(int(a) for a in alpha)
    if len(m) != f.dim or len(alpha) != f.dim:
        raise ValueError(
            f"need {f.dim} moment functions and alpha entries, got {len(m)} and {len(alpha)}"
        )
    if sum(alpha) == 0:
        return f
    kernel = ZKernel(m)
    vec, den = to_kernel(f, kernel.grading, f.valid_degree)
    vec, den, valid = kernel.diff(vec, den, f.valid_degree, alpha, f.mode)
    return from_kernel(vec, den, valid, kernel.grading, f.mode)


def borel_t(u: TimeSeries, m_prime: MomentFunction) -> TimeSeries:
    """Divide the n-th t-coefficient by m'(n)."""
    out = []
    for n, c in enumerate(u.coeffs):
        out.append(series_scale(c, m_prime.ratio(0, n, u.mode)))
    return TimeSeries(tuple(out))


def borel_z(f, m_prime: Sequence[MomentFunction], inverse: bool = False):
    """Divide the alpha coefficient by prod_j m'_j(alpha_j) (multiply if inverse).

    Accepts a MultiSeries or a TimeSeries (applied to every t-coefficient).
    """
    if isinstance(f, TimeSeries):
        return f.map_z(lambda c: borel_z(c, m_prime, inverse))
    if len(m_prime) != f.dim:
        raise ValueError(f"need {f.dim} moment functions, got {len(m_prime)}")
    coeffs = {}
    for alpha, v in f.coeffs.items():
        factor = v
        for mj, aj in zip(m_prime, alpha):
            if aj:
                factor = (factor * mj.ratio(aj, 0, f.mode) if inverse
                          else factor * mj.ratio(0, aj, f.mode))
        if factor != 0:
            coeffs[alpha] = factor
    return MultiSeries(dim=f.dim, mode=f.mode, coeffs=coeffs, valid_degree=f.valid_degree)


def operator_numerators(spec: OperatorSpec, u: KernelTimeSeries) -> Iterator[tuple]:
    """P(u)_n, the n-th t-coefficient of the operator applied to u, and its
    magnitude envelope, for n = 0, 1, ... in turn.

    The envelope adds |piece| for every piece a_p * D_z^alpha D_t^j u that
    P(u)_n sums (and |D_t^M u|), so it bounds the magnitude of what
    cancelled.  Yields (values, envelope, denominator, valid degree) per
    t-order, both in kernel form over the one denominator and exactly as long
    as the valid degree; they may hold zeros.  Sums run in a fixed order: the
    D_t chain, the sum over p within each term, then the sum across terms.
    Only the D_t and D_z results that later orders still read are kept.
    """
    if u.ranks is not None:
        raise ValueError("the operator reads series over the whole graded layout")
    n_max = len(u.steps) - 1
    if n_max < spec.M:
        raise ValueError(f"need n_max >= M = {spec.M}, got {n_max}")
    if max([spec.M] + [t.j for t in spec.terms]) > n_max:
        raise ValueError("time series too short to differentiate")
    mode, kernel = u.mode, spec.z_kernel
    ratios = spec.m0.shift_ratios(1, n_max - 1, mode)
    d_t_memo, d_z_memo = defaultdict(dict), defaultdict(dict)

    def d_t(j: int, k: int) -> tuple:
        """(D_t^j u)_k = m0(k+1)/m0(k) * (D_t^{j-1} u)_{k+1}, as
        (vec, denominator, valid degree)."""
        memo = d_t_memo[j]
        if k not in memo:
            if j == 0:
                memo[k] = u.steps[k]
            else:
                vec, den, valid = d_t(j - 1, k + 1)
                (r,), r_den = to_numerators((ratios[k],), mode)
                memo[k] = (list(map(mul, repeat(r), vec)), den * r_den, valid)
        return memo[k]

    n_out = n_max - spec.M
    terms = []
    for term in spec.terms:
        n_term = n_max - term.j
        if term.truncation_order is not None:
            n_term = min(n_term, term.truncation_order)
        n_out = min(n_out, n_term)
        scalars = []
        for p, a in enumerate(term.coeff):
            if a != 0:
                (a,), a_den = to_numerators((to_number(a, mode),), mode)
                scalars.append((p, a, a_den))
        terms.append(scalars)
    # order n reads t-indices >= n - span only
    span = max((scalars[-1][0] for scalars in terms if scalars), default=0)

    def d_z(i: int, k: int) -> tuple:
        """D_z^alpha (D_t^j u)_k for the i-th term, in the form of d_t."""
        memo = d_z_memo[i]
        if k not in memo:
            term = spec.terms[i]
            memo[k] = kernel.diff(*d_t(term.j, k), term.alpha, mode)
        return memo[k]

    for n in range(n_out + 1):
        lead, lead_den, vd = d_t(spec.M, n)
        parts = []
        for i, scalars in enumerate(terms):
            part, term_vd = [], None
            for p, a, a_den in scalars:
                if p > n:
                    break
                w, w_den, w_vd = d_z(i, n - p)
                term_vd = w_vd if term_vd is None else min(term_vd, w_vd)
                part.append((a, a_den * w_den, w))
            if term_vd is None:
                # no coefficient power p <= n: the term adds zero, valid where
                # every D_z^alpha D_t^j u_k, k <= n, is
                term_vd = min(d_z(i, k)[2] for k in range(n + 1))
            vd = min(vd, term_vd)
            parts.append(part)
        count = kernel.grading.count(vd)
        den = math.lcm(lead_den, *(d for part in parts for _, d, _ in part))
        total = lead[:count]
        if den != lead_den:
            total = list(map(mul, total, repeat(den // lead_den)))
        total_env = list(map(abs, total))
        for part in parts:
            acc = acc_env = None
            for a, d, w in part:
                if d != den:
                    a = a * (den // d)
                pieces = list(map(mul, repeat(a, count), w))
                if acc is None:
                    acc, acc_env = pieces, list(map(abs, pieces))
                else:
                    acc = list(map(add, acc, pieces))
                    acc_env = list(map(add, acc_env, map(abs, pieces)))
            if acc is not None:
                total = list(map(add, total, acc))
                total_env = list(map(add, total_env, acc_env))
        yield total, total_env, den, vd
        for memo in (*d_t_memo.values(), *d_z_memo.values()):
            memo.pop(n - span, None)


def apply_operator(spec: OperatorSpec, u: TimeSeries) -> TimeSeries:
    """Apply the full operator to u."""
    grading = spec.z_kernel.grading
    return TimeSeries(tuple(from_kernel(values, den, valid, grading, u.mode)
                            for values, _, den, valid in
                            operator_numerators(spec, KernelTimeSeries.of(u, grading))))
