"""Growth-rate evidence: coefficient bound sequences, Gevrey-order fitting,
bound-constant extraction, and the moment-derivative bound probe.

The growth checks read ``log_bounds(b)`` (log b_n at run precision, None
where b_n = 0), made once per sequence.  The two root tests report only
maxima, so they screen every root in floats (``float(log b_n)`` and
``math.lgamma``) and take at run precision only the logs that can be the
largest, then one ``mpmath.exp`` per reported value; one table of log n!,
floats plus the run-precision values the candidates ask for, serves both
per report.  The fit inverts the growth law b_n ~ C * H^n * Gamma(1 + s*n)
by least squares on log b_n against [1, n, logGamma(n+1)]; using logGamma as the
third column absorbs Stirling's lower-order terms into the model instead of
the residual.  Three columns and a few hundred rows at most: the fit is a
modified Gram-Schmidt QR in plain floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Optional, Sequence

import mpmath
from mpmath import mpf

from .moments import MomentFunction
from .precision import to_mpf
from .series import MultiSeries, indices_up_to, sup_bound
from .operators import TimeSeries, moment_diff_z

# the first n whose root enters the witness H of verify_gevrey_bound
H_FROM_N = 5


@dataclass(frozen=True)
class FitResult:
    s_hat: float
    log_h: float
    log_c: float
    stderr: float
    ok: bool
    n_used: int
    zero_count: int
    window: tuple
    note: str = ""


@dataclass(frozen=True)
class BoundWitness:
    order: Fraction
    H: mpf
    C: mpf
    bounded: bool


@dataclass(frozen=True)
class RootCheck:
    """The intermediate root test: ``tail_max`` and ``middle_max`` are the
    largest roots of the last and middle thirds at run precision (None with
    fewer than 3 roots)."""

    d: Fraction
    bounded: bool
    tail_max: Optional[mpf]
    middle_max: Optional[mpf]


@dataclass(frozen=True)
class GrowthReport:
    bounds: tuple
    fit: FitResult
    witness: BoundWitness
    inverse_k1: Fraction
    d: Fraction
    intermediate: RootCheck
    verdict: str


def coefficient_bounds(u: TimeSeries, r) -> list:
    """b_n = sum |u_{n,alpha}| r^{|alpha|} over the stored degrees of each u_n."""
    return [sup_bound(c, r) for c in u.coeffs]


def _log_positive(value) -> Optional[mpf]:
    if value <= 0:
        return None
    if isinstance(value, Fraction):
        return mpmath.log(to_mpf(value.numerator)) - mpmath.log(to_mpf(value.denominator))
    return mpmath.log(to_mpf(value))


def log_bounds(b: Sequence) -> list:
    """log b_n for each bound, or None where b_n <= 0."""
    return [_log_positive(v) for v in b]


def fit_gevrey_order(logb: Sequence, window: tuple) -> FitResult:
    """Least-squares fit of log b_n = log C + n log H + s logGamma(n+1).

    Zero entries (None in ``logb``) inside the window are skipped and counted; a
    window shorter than 8 is an error, and fewer than 8 usable points yields
    ok=False rather than a number that means nothing (8 distinct n keep the
    columns independent, as logGamma(n+1) is strictly convex).  The solve is
    modified Gram-Schmidt on [1, n, logGamma(n+1), y] (Bjorck, BIT 7, 1967):
    R's last column is Q^T y, what is left of y the residual, and 1/r_22^2
    the last diagonal entry of (X^T X)^-1 = R^-1 R^-T.
    """
    lo, hi = int(window[0]), int(window[1])
    if hi - lo + 1 < 8:
        raise ValueError(f"fit window [{lo}, {hi}] is shorter than 8 points")
    if hi > len(logb) - 1:
        raise ValueError(f"window end {hi} exceeds the bound sequence (n_max {len(logb) - 1})")
    used = [n for n in range(lo, hi + 1) if logb[n] is not None]
    zero_count = hi - lo + 1 - len(used)
    if len(used) < 8:
        return FitResult(float("nan"), float("nan"), float("nan"), float("inf"),
                         ok=False, n_used=len(used), zero_count=zero_count,
                         window=(lo, hi), note="fewer than 8 usable points")
    cols = [[1.0] * len(used), [float(n) for n in used],
            [math.lgamma(n + 1) for n in used], [float(logb[n]) for n in used]]
    r = [[0.0] * 4 for _ in range(3)]
    for k in range(3):
        r[k][k] = math.hypot(*cols[k])
        q = [v / r[k][k] for v in cols[k]]
        for j in range(k + 1, 4):
            r[k][j] = math.fsum(map(mul, q, cols[j]))
            cols[j] = [v - r[k][j] * w for v, w in zip(cols[j], q)]
    s_hat = r[2][3] / r[2][2]
    log_h = (r[1][3] - r[1][2] * s_hat) / r[1][1]
    log_c = (r[0][3] - r[0][1] * log_h - r[0][2] * s_hat) / r[0][0]
    sigma = math.hypot(*cols[3]) / math.sqrt(len(used) - 3)
    return FitResult(s_hat=s_hat, log_h=log_h, log_c=log_c, stderr=sigma / r[2][2],
                     ok=True, n_used=len(used), zero_count=zero_count, window=(lo, hi))


def _peak(ns: Sequence, approx: Sequence, exact):
    """max(exact(n) for n in ns), with ``exact`` evaluated only where it can peak.

    ``approx[i]`` holds the float terms whose sum estimates exact(ns[i]).  Each
    term is within 16 ulps of max(1, |term|) of its exact value (the rounding
    of float(log b_n), math.lgamma's few ulps and those of its rounded
    argument, one product and one quotient), and the sum of at most three
    terms adds 2 ulps of their size.  So every float sum is within
    2^-46 * size of the exact sum, where size is the largest sum of |terms|
    over ``ns``, at least 1.  ``exact`` rounds at the run precision p, which
    moves it by at most 2^(8-p) * size.  The screen keeps each n whose float
    sum lies within max(2^-30, 2^(10-p)) * size of the largest, more than
    twice both errors together, so it always keeps the argmax of ``exact``;
    a sum that is not finite is kept too.
    """
    sums = [sum(terms) for terms in approx]
    size = max([1.0] + [sum(map(abs, terms)) for terms in approx])
    floor = max(sums) - 2.0 ** max(-30, 10 - mpmath.mp.prec) * size
    return max(exact(n) for n, v in zip(ns, sums) if not v < floor)


def _third_peaks(ns: Sequence, approx: Sequence, exact) -> tuple:
    """(bounded, tail_max, middle_max) of the roots exp(exact(n)): the largest
    root of the last third of ``ns`` stays within 5% of the middle third's."""
    k = len(ns)
    if k < 3:
        return True, None, None
    middle, tail = slice(k // 3, 2 * k // 3), slice(2 * k // 3, k)
    tail_max = mpmath.exp(_peak(ns[tail], approx[tail], exact))
    middle_max = mpmath.exp(_peak(ns[middle], approx[middle], exact))
    return tail_max <= mpf("1.05") * middle_max, tail_max, middle_max


class _LogFactorials:
    """log n! for n = 0..hi: ``approx[n]`` is the float ``math.lgamma(n + 1)``,
    and ``exact(n)`` is mpmath.loggamma(n + 1) at the run precision, computed
    the first time a root test asks for it."""

    def __init__(self, hi: int):
        self.approx = [math.lgamma(n + 1) for n in range(hi + 1)]
        self._exact = {}

    def exact(self, n: int) -> mpf:
        if n not in self._exact:
            self._exact[n] = mpmath.loggamma(n + 1)
        return self._exact[n]


def verify_gevrey_bound(logb: Sequence, s, n_range: Optional[tuple] = None,
                        lg: Optional[_LogFactorials] = None) -> BoundWitness:
    """Extract empirical (C, H) for b_n <= C H^n (n!)^s and test boundedness.

    H is the max of (b_n/(n!)^s)^{1/n} ignoring n < H_FROM_N (tiny n distort
    the root test; the constant C absorbs the head).  bounded means the root
    sequence does not climb: its last-third max stays within 5% of its
    middle-third max.  Each max is screened in floats and taken over the
    logs at run precision, with one ``mpmath.exp``: exp is monotone, so this
    is the max of the roots themselves.  ``lg`` is the table that
    ``make_growth_report`` shares between the root tests, made here when not
    given.
    """
    s = Fraction(s)
    if s < 0:
        raise ValueError(f"Gevrey order must be >= 0, got {s}")
    sf, s_float = to_mpf(s), float(s)
    lo, hi = ((1, len(logb) - 1) if n_range is None
              else (max(1, n_range[0]), min(n_range[1], len(logb) - 1)))
    if lg is None:
        lg = _LogFactorials(hi)
    all_ns = [n for n in range(hi + 1) if logb[n] is not None]
    ns = [n for n in all_ns if n >= lo]
    if not ns:
        return BoundWitness(order=s, H=mpf(0), C=mpf(0), bounded=True)
    lbf = {n: float(logb[n]) for n in all_ns}
    root_terms = [(lbf[n] / n, -s_float * lg.approx[n] / n) for n in ns]

    def root(n):
        return (logb[n] - sf * lg.exact(n)) / n

    h = next((i for i, n in enumerate(ns) if n >= H_FROM_N), 0)
    H = mpmath.exp(_peak(ns[h:], root_terms[h:], root))
    logH = mpmath.log(H)
    logH_float = float(logH)
    C = mpmath.exp(_peak(
        all_ns, [(lbf[n], -n * logH_float, -s_float * lg.approx[n]) for n in all_ns],
        lambda n: logb[n] - n * logH - sf * lg.exact(n)))
    return BoundWitness(order=s, H=H, C=C, bounded=_third_peaks(ns, root_terms, root)[0])


def intermediate_bound_roots(logb: Sequence, M: int, s0, inv_k1, window: tuple,
                             lg: Optional[_LogFactorials] = None) -> RootCheck:
    """Root test for b_n * n!^{M s0} / Gamma(1 + d n) with d = M s0 + 1/k1.

    A bounded root sequence is the raw numerical shape of the norm bound the
    induction produces before the final Gevrey estimate is read off at rho=0.
    The roots are screened in floats, with math.lgamma(1 + d n); tail_max
    and middle_max are the exp of the thirds' largest logs at run
    precision.  ``lg`` is the table that ``make_growth_report``
    shares between the root tests, made here when not given.
    """
    s0 = Fraction(s0)
    inv_k1 = Fraction(inv_k1)
    d = M * s0 + inv_k1
    df, d_float = to_mpf(d), float(d)
    ms0, ms0_float = to_mpf(M * s0), float(M * s0)
    lo, hi = max(1, window[0]), min(window[1], len(logb) - 1)
    if lg is None:
        lg = _LogFactorials(hi)
    ns = [n for n in range(lo, hi + 1) if logb[n] is not None]
    approx = [(float(logb[n]) / n, ms0_float * lg.approx[n] / n,
               -math.lgamma(1 + d_float * n) / n) for n in ns]
    bounded, tail_max, middle_max = _third_peaks(
        ns, approx, lambda n: (logb[n] + ms0 * lg.exact(n) - mpmath.loggamma(1 + df * n)) / n)
    return RootCheck(d=d, bounded=bounded, tail_max=tail_max, middle_max=middle_max)


def moment_derivative_bound_probe(f: MultiSeries, m: Sequence[MomentFunction],
                                  r, r_prime, alpha_cap: int) -> mpf:
    """Empirical h with sup|D^alpha f|_r <= sup|f|_{r'} h^{|alpha|} Gamma(1+s.alpha).

    Returns the max over 1 <= |alpha| <= alpha_cap of the per-alpha witness
    root; 0 when every probed derivative vanishes.
    """
    if not (0 < to_mpf(r) < to_mpf(r_prime)):
        raise ValueError(f"need 0 < r < r', got r={r}, r'={r_prime}")
    if alpha_cap > f.valid_degree:
        raise ValueError(
            f"alpha_cap {alpha_cap} exceeds the materialized degree {f.valid_degree}"
        )
    denom_sup = to_mpf(sup_bound(f, r_prime))
    if denom_sup == 0:
        return mpf(0)
    orders = [mj.order for mj in m]
    best = mpf(0)
    for alpha in indices_up_to(f.dim, alpha_cap):
        total = sum(alpha)
        if total == 0:
            continue
        df = moment_diff_z(f, m, alpha)
        num = to_mpf(sup_bound(df, r))
        if num == 0:
            continue
        x = to_mpf(sum(sj * aj for sj, aj in zip(orders, alpha)))
        val = mpmath.power(num / (denom_sup * mpmath.gamma(1 + x)), mpf(1) / total)
        best = max(best, val)
    return best


def decide_verdict(fit: FitResult, witness: BoundWitness, inv_k1) -> str:
    """consistent / inconsistent / inconclusive, by fixed thresholds.

    consistent: |s_hat - 1/k1| <= max(0.1, 3*stderr); inconsistent: the gap
    exceeds 0.25 AND the root test at s = 1/k1 explodes; everything else is
    inconclusive (desk-scale n cannot separate nearby orders reliably).
    """
    k = float(Fraction(inv_k1))
    if fit.ok:
        gap = abs(fit.s_hat - k)
        if gap <= max(0.1, 3 * fit.stderr):
            return "consistent"
        if gap > 0.25 and not witness.bounded:
            return "inconsistent"
    return "inconclusive"


def make_growth_report(bounds: Sequence, inverse_k1, M: int, s0,
                       window: tuple) -> GrowthReport:
    """Assemble the full growth verdict for one solved problem."""
    inverse_k1 = Fraction(inverse_k1)
    s0 = Fraction(s0)
    logb = log_bounds(bounds)
    lg = _LogFactorials(min(window[1], len(logb) - 1))
    fit = fit_gevrey_order(logb, window)
    witness = verify_gevrey_bound(logb, inverse_k1, n_range=window, lg=lg)
    inter = intermediate_bound_roots(logb, M, s0, inverse_k1, window=window, lg=lg)
    verdict = decide_verdict(fit, witness, inverse_k1)
    return GrowthReport(bounds=tuple(bounds), fit=fit,
                        witness=witness, inverse_k1=inverse_k1,
                        d=M * s0 + inverse_k1, intermediate=inter, verdict=verdict)
