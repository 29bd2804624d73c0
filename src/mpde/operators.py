"""Moment differentiation, moment Borel transforms, and operator application.

A time series holds raw t-coefficients u_n (never pre-divided by m(n)).  On
raw coefficients the t-moment derivative acts as

    (D_t u)_n = u_{n+1} * m0(n+1) / m0(n),

which is the standard definition rewritten for the raw representation; the
z-moment derivative shifts indices by alpha and multiplies by the analogous
ratio in each variable.  Borel transforms divide coefficients by moment
values.  Everything here is pure and mode-preserving.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .moments import MomentFunction
from .precision import nonzero_threshold
from .series import (
    MultiSeries,
    majorant,
    series_add,
    series_scale,
    zero_series,
)


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

    def coefficient(self, n: int) -> MultiSeries:
        return self.coeffs[n]

    def map_z(self, fn: Callable[[MultiSeries], MultiSeries]) -> "TimeSeries":
        return TimeSeries(tuple(fn(c) for c in self.coeffs))


def time_series(coeffs: Sequence[MultiSeries]) -> TimeSeries:
    return TimeSeries(tuple(coeffs))


def zero_time_series(n_max: int, dim: int, degree_cap: int, mode: str = "exact") -> TimeSeries:
    return TimeSeries(tuple(zero_series(dim, degree_cap, mode) for _ in range(n_max + 1)))


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


def moment_diff_t(u: TimeSeries, m0: MomentFunction) -> TimeSeries:
    """One t-moment derivative; the t-truncation order drops by one."""
    if u.n_max < 1:
        raise ValueError("time series too short to differentiate")
    out = []
    for n in range(u.n_max):
        out.append(series_scale(u.coeffs[n + 1], m0.ratio(n + 1, n, u.mode)))
    return TimeSeries(tuple(out))


def moment_diff_z(f: MultiSeries, m: Sequence[MomentFunction], alpha: Sequence[int]) -> MultiSeries:
    """The mixed z-moment derivative D^alpha; valid degree drops by |alpha|."""
    alpha = tuple(int(a) for a in alpha)
    if len(m) != f.dim or len(alpha) != f.dim:
        raise ValueError(
            f"need {f.dim} moment functions and alpha entries, got {len(m)} and {len(alpha)}"
        )
    total = sum(alpha)
    if total == 0:
        return f
    new_valid = f.valid_degree - total
    if new_valid < 0:
        return MultiSeries(dim=f.dim, degree_cap=f.degree_cap, mode=f.mode,
                           coeffs={}, valid_degree=-1)
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
    return MultiSeries(dim=f.dim, degree_cap=f.degree_cap, mode=f.mode,
                       coeffs=coeffs, valid_degree=new_valid)


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
    return MultiSeries(dim=f.dim, degree_cap=f.degree_cap, mode=f.mode,
                       coeffs=coeffs, valid_degree=f.valid_degree)


def _coeff_product(scalars: Sequence, truncation: Optional[int], w: TimeSeries,
                   mode: str) -> TimeSeries:
    """Truncated Cauchy product of a scalar t-series with a TimeSeries."""
    out_n_max = w.n_max if truncation is None else min(w.n_max, truncation)
    if out_n_max < 0:
        raise ValueError("empty product window")
    out = []
    for n in range(out_n_max + 1):
        acc = None
        for p, a in enumerate(scalars):
            if p > n:
                break
            if a == 0:
                continue
            piece = series_scale(w.coeffs[n - p], a)
            acc = piece if acc is None else series_add(acc, piece)
        if acc is None:
            acc = zero_series(w.dim, w.coeffs[n].degree_cap, mode,
                              min(c.valid_degree for c in w.coeffs[: n + 1]))
        out.append(acc)
    return TimeSeries(tuple(out))


def apply_operator(spec: OperatorSpec, u: TimeSeries, absolute: bool = False) -> TimeSeries:
    """Apply the full operator to u.

    With absolute=True every coefficient (of u and of the a_{j,alpha}) is
    replaced by its absolute value and contributions add up; the result is a
    coefficientwise upper envelope used to scale residuals.
    """
    if u.n_max < spec.M:
        raise ValueError(f"need n_max >= M = {spec.M}, got {u.n_max}")
    work = u.map_z(majorant) if absolute else u

    diffs = {0: work}
    for k in range(1, max([spec.M] + [t.j for t in spec.terms]) + 1):
        diffs[k] = moment_diff_t(diffs[k - 1], spec.m0)

    contributions = [diffs[spec.M]]
    for term in spec.terms:
        base = diffs[term.j]
        if base.n_max < 0:
            raise ValueError(f"term j={term.j} exhausts the t-truncation")
        zpart = base.map_z(lambda c: moment_diff_z(c, spec.m, term.alpha))
        scalars = [abs(a) for a in term.coeff] if absolute else list(term.coeff)
        contributions.append(_coeff_product(scalars, term.truncation_order, zpart, u.mode))

    n_out = min(c.n_max for c in contributions)
    out = []
    for n in range(n_out + 1):
        acc = contributions[0].coeffs[n]
        for c in contributions[1:]:
            acc = series_add(acc, c.coeffs[n])
        out.append(acc)
    return TimeSeries(tuple(out))
