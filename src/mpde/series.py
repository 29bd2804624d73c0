"""Truncated formal power series in N complex variables.

Coefficients live in one of two arithmetic modes: ``exact`` (Fraction) or
``float`` (mpmath real/complex at the global precision).  Series are
immutable; every operation returns a new series.  ``valid_degree`` is the only
degree a series carries: the largest total degree whose coefficients are
still trustworthy after truncation-lossy operations (differentiation shortens
it); coefficients above it are dropped.

The hot kernels (the z-derivative, the coefficient recurrence and the operator
pass) work on one layout, the kernel form: a series valid to degree ``vd`` is
a dense list over ``indices_up_to(dim, vd)`` in that graded order, where the
indices of every lower degree are a prefix, together with one denominator and
``vd``.  The list holds the elements of one ``precision.Arithmetic``: integer
numerators over the denominator in exact mode, raw ``mpmath.libmp`` tuples
for real float data and mpmath numbers for complex float data, both with
denominator 1.  ``Grading`` owns the layout (enumeration, rank, count by
degree); ``to_kernel`` and ``from_kernel`` convert a ``MultiSeries``, which
stays the only public coefficient type, to and from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

import mpmath
from mpmath import mpc, mpf

from .precision import Arithmetic, float_tolerance, to_mpf, to_number

Index = tuple


def indices_up_to(dim: int, degree: int) -> Iterable[Index]:
    """All multi-indices alpha with |alpha| <= degree, graded-lex order."""
    if degree < 0:
        return
    for total in range(degree + 1):
        for alpha in _compositions(total, dim):
            yield alpha


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


class Grading:
    """The layout of kernel-form series of one dimension: the multi-indices
    in the order of ``indices_up_to``, enumerated on demand.

    ``indices[r]`` is the index of rank r and ``rank`` inverts it;
    ``count(d)`` indices have |alpha| <= d, and they are the first ones.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.indices = []
        self.rank = {}
        self.degree = -1

    def count(self, degree: int) -> int:
        return math.comb(degree + self.dim, self.dim) if degree >= 0 else 0

    def extend(self, degree: int) -> None:
        """Enumerate every index with |alpha| <= degree."""
        for total in range(self.degree + 1, degree + 1):
            for alpha in _compositions(total, self.dim):
                self.rank[alpha] = len(self.indices)
                self.indices.append(alpha)
        self.degree = max(self.degree, degree)


@dataclass(frozen=True, eq=True)
class MultiSeries:
    dim: int
    mode: str
    coeffs: dict = field(default_factory=dict)
    valid_degree: int = 0

    def coefficient(self, alpha: Index):
        return self.coeffs.get(tuple(alpha), _zero(self.mode))

    def __repr__(self):
        return (
            f"MultiSeries(dim={self.dim}, valid={self.valid_degree}, "
            f"terms={len(self.coeffs)}, mode={self.mode!r})"
        )


def _zero(mode: str):
    return Fraction(0) if mode == "exact" else mpf(0)


def make_series(dim: int, coefficients: Mapping, degree: int, mode: str = "exact") -> MultiSeries:
    """Build a series valid to ``degree`` from an index -> value mapping.

    Indices must fit the degree; values are coerced into the requested mode
    (mixing modes is an error by construction).
    """
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    coeffs = {}
    for alpha, value in coefficients.items():
        alpha = (alpha,) if isinstance(alpha, int) else tuple(int(a) for a in alpha)
        if len(alpha) != dim:
            raise ValueError(f"index {alpha} does not have {dim} entries")
        if any(a < 0 for a in alpha):
            raise ValueError(f"negative exponent in index {alpha}")
        if sum(alpha) > degree:
            raise ValueError(f"index {alpha} exceeds degree {degree}")
        value = to_number(value, mode)
        if value != 0:
            coeffs[alpha] = value
    return MultiSeries(dim=dim, mode=mode, coeffs=coeffs, valid_degree=degree)


def zero_series(dim: int, degree: int, mode: str = "exact") -> MultiSeries:
    return MultiSeries(dim=dim, mode=mode, coeffs={}, valid_degree=degree)


def generator_series(kind: str, dim: int, degree: int, mode: str = "exact",
                     *, ratio=None, coeffs: Optional[Sequence] = None, sigma=None) -> MultiSeries:
    """Stock test-data series.

    geometric(ratio): coefficient ratio^{|alpha|} at every index, i.e. the
    product of univariate geometric series 1/(1 - ratio*z_j).
    polynomial(coeffs): univariate, coefficient list by degree.
    gevrey_factorial(sigma): (l!)^sigma along each coordinate axis; the
    univariate case is the usual divergent model series.
    """
    if kind == "geometric":
        if ratio is None:
            raise ValueError("geometric generator needs ratio=")
        c = to_number(ratio, mode)
        table = {alpha: c ** sum(alpha) for alpha in indices_up_to(dim, degree)}
        return make_series(dim, table, degree, mode)
    if kind == "polynomial":
        if coeffs is None:
            raise ValueError("polynomial generator needs coeffs=")
        if dim != 1:
            raise ValueError("polynomial generator is univariate; use make_series for dim > 1")
        if len(coeffs) - 1 > degree:
            raise ValueError("polynomial longer than the degree")
        return make_series(1, {(l,): v for l, v in enumerate(coeffs)}, degree, mode)
    if kind == "gevrey_factorial":
        sigma = Fraction(sigma)
        if sigma < 0:
            raise ValueError(f"gevrey_factorial exponent must be >= 0, got {sigma}")
        table = {}
        for axis in range(dim):
            for l in range(degree + 1):
                alpha = tuple(l if j == axis else 0 for j in range(dim))
                fact = Fraction(math.factorial(l))
                if mode == "exact":
                    if sigma.denominator != 1:
                        raise ValueError("fractional sigma needs float mode")
                    table[alpha] = fact ** sigma.numerator
                else:
                    table[alpha] = mpmath.power(to_mpf(fact), to_mpf(sigma))
        return make_series(dim, table, degree, mode)
    raise ValueError(f"unknown generator kind {kind!r}")


def to_kernel(f: MultiSeries, grading: Grading, degree: int, arith: Arithmetic) -> tuple:
    """(vec, den): the coefficients of f with |alpha| <= degree in the kernel
    form of ``arith``, over the first ``grading.count(degree)`` indices (zeros
    where f stores none)."""
    grading.extend(degree)
    rank = grading.rank
    items = [(rank[alpha], v) for alpha, v in f.coeffs.items() if sum(alpha) <= degree]
    values, den = arith.encode([v for _, v in items])
    vec = [arith.zero] * grading.count(degree)
    for (r, _), v in zip(items, values):
        vec[r] = v
    return vec, den


def from_kernel(vec: Sequence, den: int, valid_degree: int, grading: Grading, arith: Arithmetic,
                ranks: Optional[Sequence] = None) -> MultiSeries:
    """The series vec/den valid to ``valid_degree``, zeros dropped; entry i
    sits at graded rank ``ranks[i]`` (default i)."""
    indices, zero, decode = grading.indices, arith.zero, arith.decode
    if ranks is None:
        ranks = range(len(vec))
    coeffs = {indices[r]: decode(v, den) for r, v in zip(ranks, vec) if v != zero}
    return MultiSeries(dim=grading.dim, mode=arith.mode, coeffs=coeffs, valid_degree=valid_degree)


def series_add(a: MultiSeries, b: MultiSeries) -> MultiSeries:
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if a.mode != b.mode:
        raise ValueError(f"arithmetic mode mismatch: {a.mode} vs {b.mode}")
    vd = min(a.valid_degree, b.valid_degree)
    coeffs = {}
    for alpha in set(a.coeffs) | set(b.coeffs):
        if sum(alpha) > vd:
            continue
        v = a.coeffs.get(alpha, 0) + b.coeffs.get(alpha, 0)
        if v != 0:
            coeffs[alpha] = v
    return MultiSeries(dim=a.dim, mode=a.mode, coeffs=coeffs, valid_degree=vd)


def series_scale(f: MultiSeries, scalar) -> MultiSeries:
    scalar = to_number(scalar, f.mode)
    if scalar == 0:
        return zero_series(f.dim, f.valid_degree, f.mode)
    coeffs = {alpha: scalar * v for alpha, v in f.coeffs.items()}
    return MultiSeries(dim=f.dim, mode=f.mode, coeffs=coeffs, valid_degree=f.valid_degree)


def evaluate(f: MultiSeries, point: Sequence) -> object:
    """Value of the truncated polynomial at a point (stored coefficients only)."""
    if len(point) != f.dim:
        raise ValueError(f"point has {len(point)} entries, series has dim {f.dim}")
    if f.mode == "exact" and all(isinstance(p, (int, Fraction)) for p in point):
        pt = [Fraction(p) for p in point]
        total = Fraction(0)
    else:
        pt = [to_number(p, "float") for p in point]
        total = mpf(0)
    for alpha, v in sorted(f.coeffs.items()):
        term = v if isinstance(total, Fraction) else to_number(v, "float")
        for p, a in zip(pt, alpha):
            if a:
                term = term * p ** a
        total += term
    return total


def majorant(f: MultiSeries) -> MultiSeries:
    """Coefficientwise absolute value (complex moduli become mpf)."""
    coeffs = {alpha: abs(v) for alpha, v in f.coeffs.items()}
    return MultiSeries(dim=f.dim, mode=f.mode, coeffs=coeffs, valid_degree=f.valid_degree)


def sup_bound(f: MultiSeries, r):
    """Sum |f_alpha| r^{|alpha|} over stored coefficients up to valid_degree.

    Upper-bounds the sup of the truncated series over the closed polydisc of
    radius r; exact when coefficients and r are rational.
    """
    if isinstance(r, (int, Fraction)):
        r = Fraction(r)
    else:
        r = to_mpf(r)
    if not r > 0:
        raise ValueError(f"radius must be positive, got {r}")
    exact = f.mode == "exact" and isinstance(r, Fraction)
    if exact:
        total = Fraction(0)
    else:
        r, total = to_mpf(r), mpf(0)
    for alpha, v in f.coeffs.items():
        if sum(alpha) <= f.valid_degree:
            total += abs(v if exact else to_number(v, "float")) * r ** sum(alpha)
    return total


def majorizes(g: MultiSeries, f: MultiSeries) -> bool:
    """True iff |f_alpha| <= g_alpha on the shared valid range.

    g must have nonnegative real coefficients.  In float mode the comparison
    carries the standard relative slack so that equal-up-to-rounding
    sequences still dominate themselves.
    """
    if g.dim != f.dim:
        raise ValueError(f"dimension mismatch: {g.dim} vs {f.dim}")
    for alpha, v in g.coeffs.items():
        if isinstance(v, mpc) or isinstance(v, complex):
            raise ValueError(f"majorant coefficients must be real, got {v} at {alpha}")
        if v < 0:
            raise ValueError(f"majorant coefficients must be >= 0, got {v} at {alpha}")
    vd = min(g.valid_degree, f.valid_degree)
    float_mode = g.mode == "float" or f.mode == "float"
    slack = float_tolerance() if float_mode else 0
    for alpha in set(g.coeffs) | set(f.coeffs):
        if sum(alpha) > vd:
            continue
        fa = abs(f.coeffs.get(alpha, 0))
        ga = g.coeffs.get(alpha, 0)
        if float_mode:
            fa, ga = to_number(fa, "float"), to_number(ga, "float")
            if fa > ga + slack * max(fa, ga, mpf(1)):
                return False
        else:
            if fa > ga:
                return False
    return True


def dilate(f: MultiSeries, constant, h) -> MultiSeries:
    """constant * f(h*z) as a float series: C * h^{|alpha|} * f_alpha."""
    c = to_mpf(constant)
    hh = to_mpf(h)
    coeffs = {alpha: c * hh ** sum(alpha) * v for alpha, v in f.coeffs.items()}
    return MultiSeries(dim=f.dim, mode="float", coeffs=coeffs, valid_degree=f.valid_degree)


def theta_series(a, s: Sequence, cutoff: int) -> MultiSeries:
    """Theta^{(a)} truncated at |alpha| <= cutoff for the Gevrey vector s: the
    float scale series with coefficients Gamma(1+s.alpha+a)/Gamma(1+s.alpha)."""
    a = Fraction(a)
    if a < 0:
        raise ValueError(f"shift parameter must be >= 0, got {a}")
    s = tuple(Fraction(x) for x in s)
    dim = len(s)
    af = to_mpf(a)
    coeffs = {}
    for alpha in indices_up_to(dim, cutoff):
        x = to_mpf(sum(sj * aj for sj, aj in zip(s, alpha)))
        coeffs[alpha] = mpmath.gamma(1 + x + af) / mpmath.gamma(1 + x)
    return MultiSeries(dim=dim, mode="float", coeffs=coeffs, valid_degree=cutoff)


def formal_norm(f: MultiSeries, s: Sequence, cutoff: int, at: Optional[Sequence] = None) -> MultiSeries:
    """Generating series (in rho) of normalized moment derivatives at a point.

    Coefficient at alpha is |D^alpha f(z0)| / Gamma(1 + s.alpha), where D is
    the Gamma_s moment derivative in each variable and z0 defaults to the
    origin.  Output is float-mode with nonnegative coefficients.
    """
    from .operators import moment_diff_z
    from .moments import gamma_moment

    s = tuple(Fraction(x) for x in s)
    if len(s) != f.dim:
        raise ValueError(f"Gevrey vector has {len(s)} entries, series has dim {f.dim}")
    if cutoff > f.valid_degree:
        raise ValueError(
            f"cutoff {cutoff} exceeds the derivative budget (valid degree {f.valid_degree})"
        )
    z0 = tuple(at) if at is not None else (0,) * f.dim
    ms = [gamma_moment(sj) for sj in s]
    coeffs = {}
    for alpha in indices_up_to(f.dim, cutoff):
        g = moment_diff_z(f, ms, alpha)
        val = abs(to_number(evaluate(g, z0), "float"))
        x = to_mpf(sum(sj * aj for sj, aj in zip(s, alpha)))
        c = val / mpmath.gamma(1 + x)
        if c != 0:
            coeffs[alpha] = c
    return MultiSeries(dim=f.dim, mode="float", coeffs=coeffs, valid_degree=cutoff)


def coefficient_rows(f: MultiSeries) -> list[list[str]]:
    """CSV rows (without header): alpha_1..alpha_N, re, im, sorted by degree."""
    rows = []
    for alpha in sorted(f.coeffs, key=lambda a: (sum(a), a)):
        v = f.coeffs[alpha]
        rows.append([str(a) for a in alpha] + list(_format_value(v)))
    return rows


def _format_value(v) -> tuple[str, str]:
    if isinstance(v, Fraction):
        return str(v), "0"
    if isinstance(v, mpc):
        digits = mpmath.mp.dps + 2
        return mpmath.nstr(v.real, digits), mpmath.nstr(v.imag, digits)
    return mpmath.nstr(to_number(v, "float"), mpmath.mp.dps + 2), "0"
