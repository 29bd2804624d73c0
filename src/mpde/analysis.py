"""Growth-rate evidence: coefficient bound sequences, Gevrey-order fitting,
bound-constant extraction, and the moment-derivative bound probe.

The growth checks read ``log_bounds(b)`` (log b_n, None where b_n = 0), made
once per sequence, and the two root tests share one ``log_factorials`` table
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
    d: Fraction
    bounded: bool
    tail_max: Optional[mpf]
    middle_max: Optional[mpf]
    roots: tuple


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


def _thirds(roots: Sequence) -> tuple:
    """(bounded, tail_max, middle_max) via the last-third vs middle-third rule."""
    k = len(roots)
    if k < 3:
        return True, None, None
    middle = roots[k // 3: 2 * k // 3]
    tail = roots[2 * k // 3:]
    tail_max = max(tail)
    middle_max = max(middle)
    return tail_max <= mpf("1.05") * middle_max, tail_max, middle_max


def log_factorials(hi: int) -> list:
    """[log n! for n = 0..hi], as ``mpmath.loggamma(n + 1)``."""
    return [mpmath.loggamma(n + 1) for n in range(hi + 1)]


def verify_gevrey_bound(logb: Sequence, s, n_range: Optional[tuple] = None,
                        lg: Optional[Sequence] = None) -> BoundWitness:
    """Extract empirical (C, H) for b_n <= C H^n (n!)^s and test boundedness.

    H is the max of (b_n/(n!)^s)^{1/n} ignoring n < H_FROM_N (tiny n distort
    the root test; the constant C absorbs the head).  bounded means the root
    sequence does not climb: its last-third max stays within 5% of its
    middle-third max.  ``lg`` is ``log_factorials`` to at least the range's
    end, computed here when not given.
    """
    s = Fraction(s)
    if s < 0:
        raise ValueError(f"Gevrey order must be >= 0, got {s}")
    sf = to_mpf(s)
    lo, hi = ((1, len(logb) - 1) if n_range is None
              else (max(1, n_range[0]), min(n_range[1], len(logb) - 1)))
    if lg is None:
        lg = log_factorials(hi)
    roots = []
    ns = []
    for n in range(lo, hi + 1):
        if logb[n] is None:
            continue
        roots.append(mpmath.exp((logb[n] - sf * lg[n]) / n))
        ns.append(n)
    if not roots:
        return BoundWitness(order=s, H=mpf(0), C=mpf(0), bounded=True)
    tail_roots = [r for n, r in zip(ns, roots) if n >= H_FROM_N] or roots
    H = max(tail_roots)
    logH = mpmath.log(H)
    C = mpf(0)
    for n in range(0, hi + 1):
        if logb[n] is None:
            continue
        C = max(C, mpmath.exp(logb[n] - n * logH - sf * lg[n]))
    return BoundWitness(order=s, H=H, C=C, bounded=_thirds(roots)[0])


def intermediate_bound_roots(logb: Sequence, M: int, s0, inv_k1, window: tuple,
                             lg: Optional[Sequence] = None) -> RootCheck:
    """Root test for b_n * n!^{M s0} / Gamma(1 + d n) with d = M s0 + 1/k1.

    A bounded root sequence is the raw numerical shape of the norm bound the
    induction produces before the final Gevrey estimate is read off at rho=0.
    ``lg`` is ``log_factorials`` to at least the window's end, computed here
    when not given.
    """
    s0 = Fraction(s0)
    inv_k1 = Fraction(inv_k1)
    d = M * s0 + inv_k1
    df = to_mpf(d)
    ms0 = to_mpf(M * s0)
    lo, hi = max(1, window[0]), min(window[1], len(logb) - 1)
    if lg is None:
        lg = log_factorials(hi)
    roots = []
    for n in range(lo, hi + 1):
        if logb[n] is None:
            continue
        val = logb[n] + ms0 * lg[n] - mpmath.loggamma(1 + df * n)
        roots.append(mpmath.exp(val / n))
    bounded, tail_max, middle_max = _thirds(roots)
    return RootCheck(d=d, bounded=bounded, tail_max=tail_max,
                     middle_max=middle_max, roots=tuple(roots))


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
    lg = log_factorials(min(window[1], len(logb) - 1))
    fit = fit_gevrey_order(logb, window)
    witness = verify_gevrey_bound(logb, inverse_k1, n_range=window, lg=lg)
    inter = intermediate_bound_roots(logb, M, s0, inverse_k1, window=window, lg=lg)
    verdict = decide_verdict(fit, witness, inverse_k1)
    return GrowthReport(bounds=tuple(bounds), fit=fit,
                        witness=witness, inverse_k1=inverse_k1,
                        d=M * s0 + inverse_k1, intermediate=inter, verdict=verdict)
