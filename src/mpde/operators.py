"""Moment differentiation in z, the moment Borel transform in z, and
operator application.

A time series holds raw t-coefficients u_n (never pre-divided by m(n)).  On
raw coefficients the t-moment derivative acts as

    (D_t u)_n = u_{n+1} * m0(n+1) / m0(n),

which is the standard definition rewritten for the raw representation; the
z-moment derivative shifts indices by alpha and multiplies by the analogous
ratio in each variable.  The Borel transform divides coefficients by moment
values.  Everything here is pure and mode-preserving.

The z-derivative has one kernel, ``ZKernel.diff``, on the element vector of
a ``series.MultiSeries`` (a dense list of the elements of one
``precision.Arithmetic`` over the graded layout): a gather through one
precomputed map per alpha, then one multiply per axis by a ratio vector.
``operator_numerators`` applies the operator to a ``TimeSeries`` of such
series, and the recurrence, the residual and ``apply_operator`` share it.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial, reduce
from itertools import islice
from operator import add
from typing import Callable, Iterator, Optional, Sequence

from .moments import MomentFunction
from .precision import Arithmetic, nonzero_threshold, to_number
from .series import MultiSeries, _reduced, arithmetic_of, graded_count, indices_up_to


@dataclass(frozen=True)
class TimeSeries:
    """Truncated series in t whose coefficients are z-series."""

    coeffs: tuple

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("time series needs at least one coefficient")
        dims = {c.dim for c in self.coeffs}
        modes = {c.arithmetic.mode for c in self.coeffs}
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


@dataclass(frozen=True)
class OperatorTerm:
    """One summand a_{j,alpha}(t) * D_t^j * D_z^alpha of the operator.

    coeff is the t-coefficient tuple of a_{j,alpha}; ``truncated`` marks a
    series known only to its stored length (polynomials are exact and impose
    no truncation on products).
    """

    j: int
    alpha: tuple
    coeff: tuple
    truncated: bool = False

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


class ZKernel:
    """D_z^alpha on the element vectors of series, for one tuple of moments.

    The coefficient of beta + alpha moves to beta and is multiplied, for
    each axis j with alpha_j > 0 in axis order, by m_j(beta_j + alpha_j) /
    m_j(beta_j).  Per alpha the kernel keeps the gather map (the rank of
    beta + alpha for each beta in graded order) and, per arithmetic, one
    ratio vector per axis over the same order, encoded in that arithmetic
    (exact ratios as integers over their common denominator).  Both are
    built on the first read and extended only to the largest degree read
    since, so no moment value is evaluated that the derivatives do not use.
    """

    def __init__(self, m: Sequence[MomentFunction]):
        self.m = tuple(m)
        self.dim = len(self.m)
        self._gathers = {}   # alpha -> [rank(beta + alpha) for beta in graded order]
        self._ratios = {}    # (Arithmetic, alpha) -> (degree, den, one vector per axis)

    def gather(self, alpha: tuple, degree: int) -> list:
        """The gather map of alpha, covering at least |beta| <= degree."""
        ranks = self._gathers.setdefault(alpha, [])
        need = graded_count(self.dim, degree)
        if len(ranks) < need:
            # one dict lookup per entry: graded_rank costs about 30 of them
            rank = {beta: r for r, beta in enumerate(indices_up_to(self.dim, degree + sum(alpha)))}
            ranks.extend(rank[tuple(map(add, beta, alpha))]
                         for beta in islice(rank, len(ranks), need))
        return ranks

    def ratios(self, alpha: tuple, degree: int, arith: Arithmetic) -> tuple:
        """(den, vectors): the ratio vectors of alpha in ``arith``, covering
        at least |beta| <= degree."""
        key = (arith, alpha)
        table = self._ratios.get(key)
        if table is None or table[0] < degree:
            betas = list(indices_up_to(self.dim, degree))
            den, vectors = 1, []
            for j, (mj, aj) in enumerate(zip(self.m, alpha)):
                if aj:
                    nums, ratio_den = arith.encode(
                        [mj.ratio(b + aj, b, arith.mode) for b in range(degree + 1)])
                    vectors.append([nums[beta[j]] for beta in betas])
                    den *= ratio_den
            table = self._ratios[key] = (degree, den, vectors)
        return table[1], table[2]

    @staticmethod
    def degree(valid_degree: int, alpha: tuple) -> int:
        """The valid degree of D_z^alpha of a series valid to valid_degree
        (-1 once the budget is exhausted)."""
        return max(valid_degree - sum(alpha), -1) if sum(alpha) else valid_degree

    def diff(self, vec: list, den: int, valid_degree: int, alpha: tuple,
             arith: Arithmetic, ranks: Optional[list] = None) -> tuple:
        """D_z^alpha of the series vec/den (vec dense to valid_degree), as
        (vec, den, valid degree).  With ``ranks``, graded ranks below the
        count of the new valid degree, the vector holds only the elements at
        those ranks, each computed as the whole vector computes it, and vec
        needs to hold only the elements that they gather."""
        if not sum(alpha):
            return (vec if ranks is None else [vec[r] for r in ranks]), den, valid_degree
        new_valid = self.degree(valid_degree, alpha)
        if new_valid < 0:
            return [], 1, -1
        sources = self.gather(alpha, new_valid)
        ratio_den, vectors = self.ratios(alpha, new_valid, arith)
        if ranks is None:
            out = list(map(vec.__getitem__, islice(sources, graded_count(self.dim, new_valid))))
        else:
            out = [vec[sources[r]] for r in ranks]
            vectors = [map(ratios.__getitem__, ranks) for ratios in vectors]
        for ratios in vectors:
            out = arith.mul(out, ratios)
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
    arith = arithmetic_of(f)
    vec = f.dense(graded_count(f.dim, f.valid_degree))
    return MultiSeries(f.dim, arith, *ZKernel(m).diff(vec, f.den, f.valid_degree, alpha, arith))


def borel_z(f, m_prime: Sequence[MomentFunction], inverse: bool = False):
    """Divide the alpha coefficient by prod_j m'_j(alpha_j) (multiply if inverse).

    Accepts a MultiSeries or a TimeSeries (applied to every t-coefficient).
    """
    if isinstance(f, TimeSeries):
        return f.map_z(lambda c: borel_z(c, m_prime, inverse))
    if len(m_prime) != f.dim:
        raise ValueError(f"need {f.dim} moment functions, got {len(m_prime)}")
    arith, mode = arithmetic_of(f), f.mode
    vec, den, zero = f.vec, f.den, arith.zero
    # the moments are read at the degrees of the nonzero entries only
    held = [alpha if x != zero else None
            for alpha, x in zip(indices_up_to(f.dim, f.valid_degree), vec)]
    for j, mj in enumerate(m_prime):
        degrees = sorted({alpha[j] for alpha in held if alpha})
        nums, ratio_den = arith.encode([
            (mj.ratio(a, 0, mode) if inverse else mj.ratio(0, a, mode)) if a
            else to_number(1, mode) for a in degrees])
        factor = dict(zip(degrees, nums))
        vec = arith.mul(vec, [factor[alpha[j]] if alpha else zero for alpha in held])
        den *= ratio_den
    return _reduced(f.dim, arith, vec, den, f.valid_degree)


def operator_numerators(spec: OperatorSpec, u: TimeSeries, arith: Arithmetic) -> Iterator[tuple]:
    """P(u)_n, the n-th t-coefficient of the operator applied to u, and its
    magnitude envelope, for n = 0, 1, ... in turn.

    The envelope adds |piece| for every piece a_p * D_z^alpha D_t^j u that
    P(u)_n sums (and |D_t^M u|), so it bounds the magnitude of what
    cancelled.  Yields (values, envelope, denominator, valid degree) per
    t-order.  ``values`` is a vector of elements of ``arith`` (the
    arithmetic of u's mode, see ``series.arithmetic_of``; a coefficient it
    cannot hold is a ``TypeError``) over the denominator, exactly as long as the
    valid degree; it may hold zeros.  ``envelope`` is a function of a list of
    graded ranks below that length: it returns the envelope's elements at
    those ranks, over the same denominator, each computed with the same
    operations in the same order as at every other rank, so a caller pays
    only for the ranks it reads.  The valid degree is the smallest over the
    pieces summed; a term with no coefficient power p <= n adds nothing and
    caps nothing, so on a ``solve_formal`` result order n is valid to the
    degree of u_{n+M}.  Sums run in a fixed order: the D_t chain, the sum
    over p within each term, then the sum across terms.  Only the D_t and
    D_z results that later orders still read are kept.
    """
    n_max = u.n_max
    if n_max < spec.M:
        raise ValueError(f"need n_max >= M = {spec.M}, got {n_max}")
    if max([spec.M] + [t.j for t in spec.terms]) > n_max:
        raise ValueError("time series too short to differentiate")
    kernel = spec.z_kernel
    d_t_memo, d_z_memo = defaultdict(dict), defaultdict(dict)

    def d_t(j: int, k: int) -> tuple:
        """(D_t^j u)_k = m0(k+1)/m0(k) * (D_t^{j-1} u)_{k+1}, as
        (vec, denominator, valid degree)."""
        memo = d_t_memo[j]
        if k not in memo:
            if j == 0:
                c = u.coeffs[k]
                memo[k] = (c.dense(graded_count(c.dim, c.valid_degree)), c.den, c.valid_degree)
            else:
                vec, den, valid = d_t(j - 1, k + 1)
                r, r_den = arith.scalar(spec.m0.ratio(k + 1, k, arith.mode))
                memo[k] = (arith.scale(r, vec), den * r_den, valid)
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
                scalars.append((p, *arith.scalar(a)))
        terms.append(scalars)
    # order n reads t-indices >= n - span only
    span = max((scalars[-1][0] for scalars in terms if scalars), default=0)

    def d_z(i: int, k: int) -> tuple:
        """D_z^alpha (D_t^j u)_k for the i-th term, in the form of d_t."""
        memo = d_z_memo[i]
        if k not in memo:
            term = spec.terms[i]
            memo[k] = kernel.diff(*d_t(term.j, k), term.alpha, arith)
        return memo[k]

    for n in range(n_out + 1):
        lead, lead_den, vd = d_t(spec.M, n)
        parts = []
        for i, scalars in enumerate(terms):
            part = []
            for p, a, a_den in scalars:
                if p > n:
                    break
                w, w_den, w_vd = d_z(i, n - p)
                vd = min(vd, w_vd)
                part.append((a, a_den * w_den, w))
            parts.append(part)
        count = graded_count(u.dim, vd)
        den = math.lcm(lead_den, *(d for part in parts for _, d, _ in part))
        lead = lead[:count]
        if den != lead_den:
            lead = arith.scale(den // lead_den, lead)
        total, summed = lead, []
        for part in parts:
            pieces = [arith.scale(a if d == den else a * (den // d), islice(w, count))
                      for a, d, w in part]
            if pieces:
                total = arith.add(total, reduce(arith.add, pieces))
                summed.append(pieces)
        yield total, partial(_envelope, arith, lead, summed), den, vd
        for memo in (*d_t_memo.values(), *d_z_memo.values()):
            memo.pop(n - span, None)


def _envelope(arith: Arithmetic, lead: list, summed: list, ranks: list) -> list:
    """The magnitude envelope of one t-order of ``operator_numerators`` at the
    graded ranks ``ranks``: |lead| plus, term by term, the sum of |piece|."""
    env = arith.abs(map(lead.__getitem__, ranks))
    for pieces in summed:
        acc = arith.abs(map(pieces[0].__getitem__, ranks))
        for piece in pieces[1:]:
            acc = arith.add_abs(acc, map(piece.__getitem__, ranks))
        env = arith.add(env, acc)
    return env


def apply_operator(spec: OperatorSpec, u: TimeSeries) -> TimeSeries:
    """Apply the full operator to u."""
    arith = arithmetic_of(*u.coeffs)
    return TimeSeries(tuple(MultiSeries(u.dim, arith, values, den, valid)
                            for values, _, den, valid in operator_numerators(spec, u, arith)))
