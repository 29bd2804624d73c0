"""Truncated formal power series in N complex variables.

Coefficients are exact (Fraction) or real float (mpf).  Series are
immutable; every operation returns a new series, float operations at the
current precision.  ``valid_degree`` is the only degree a series carries:
the largest total degree whose coefficients are still trustworthy after
truncation-lossy operations (differentiation shortens it); coefficients
above it are dropped.

A ``MultiSeries`` valid to degree ``vd`` holds its coefficients in the one
form that the hot kernels (the z-derivative, the coefficient recurrence and
the operator pass) and the functions below work on: a list ``vec`` of the
elements of one ``precision.Arithmetic`` over the graded order of
``indices_up_to(dim, vd)``, where the indices of every lower degree are a
prefix, and one denominator ``den``.  Exact elements are integer numerators
over ``den``, a common denominator that need not be the least: the
constructors and ``series_scale`` give lowest terms, while a sum, a
truncation and a step of the recurrence (stored over its unreduced
denominator until ``solver.REDUCE_BITS`` says to reduce) need not.  Values
never depend on it.  Float elements are raw
``mpmath.libmp`` tuples, with ``den`` 1.
``vec`` may end early, the entries after its end being zero, so sparse data
stay small; zeros may also sit between values, as in the majorant, which
fills every rank outside its dependency cone with zero.  ``coeffs``, the
index -> value dict with zeros dropped, is decoded from ``vec`` at every
read and not kept, so a series holds its values in one form only.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, repeat
from typing import Iterable, Mapping, Optional, Sequence

import mpmath
from mpmath import mpf
from mpmath.libmp import fzero, mpf_abs, mpf_add, mpf_mul, mpf_pow_int, round_nearest

from .precision import Arithmetic, arithmetic, float_tolerance, to_mpf, to_number

Index = tuple


def indices_up_to(dim: int, degree: int) -> Iterable[Index]:
    """All multi-indices alpha with |alpha| <= degree, graded-lex order."""
    if degree < 0:
        return
    for total in range(degree + 1):
        for alpha in _compositions(total, dim):
            yield alpha


def _compositions(total: int, parts: int):
    """The indices alpha in ``parts`` variables with |alpha| = total, in the
    order of ``indices_up_to``."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def graded_count(dim: int, degree: int) -> int:
    """The number of indices alpha in dim variables with |alpha| <= degree."""
    return math.comb(degree + dim, dim) if degree >= 0 else 0


def graded_rank(alpha: Index) -> int:
    """The position of alpha in ``indices_up_to(len(alpha), d)``, any
    d >= |alpha|, by the combinatorial number system: the indices of lower
    degree, then per axis the indices of degree |alpha| that agree with alpha
    before that axis and hold less on it."""
    dim, rest = len(alpha), sum(alpha)
    rank = graded_count(dim, rest - 1)
    for parts, a in zip(range(dim - 1, 0, -1), alpha):
        rank += math.comb(rest + parts, parts) - math.comb(rest - a + parts, parts)
        rest -= a
    return rank


@dataclass(eq=False)
class MultiSeries:
    """A truncated series in the layout of the module docstring.

    No operation changes a series once built (the dataclass is not frozen
    only because its hot constructor is then cheaper).  ``vec`` holds no
    entry above ``valid_degree``.  Two series are equal when their
    dimension, mode, valid degree and values are.
    """

    dim: int
    arithmetic: Arithmetic
    vec: list
    den: int = 1
    valid_degree: int = 0

    @property
    def mode(self) -> str:
        return self.arithmetic.mode

    @property
    def coeffs(self) -> dict:
        """index -> value, zeros dropped, in graded order; decoded at every
        read and not kept."""
        decode, zero, den = self.arithmetic.decode, self.arithmetic.zero, self.den
        return {alpha: decode(x, den)
                for alpha, x in zip(indices_up_to(self.dim, self.valid_degree), self.vec)
                if x != zero}

    def coefficient(self, alpha: Index):
        alpha, x = tuple(alpha), self.arithmetic.zero
        if len(alpha) == self.dim and min(alpha) >= 0 and sum(alpha) <= self.valid_degree:
            r = graded_rank(alpha)
            if r < len(self.vec):
                x = self.vec[r]
        if x == self.arithmetic.zero:
            return Fraction(0) if self.mode == "exact" else mpf(0)
        return self.arithmetic.decode(x, self.den)

    def dense(self, count: int) -> list:
        """The elements of the graded ranks below ``count`` (<= the count of
        the valid degree): zeros where the series stores none, and ``vec``
        itself when it is that."""
        vec = self.vec
        if len(vec) != count:
            vec = vec[:count] + [self.arithmetic.zero] * (count - len(vec))
        return vec

    def truncated(self, degree: int) -> "MultiSeries":
        """The series restricted to |alpha| <= min(degree, valid_degree)."""
        vd = min(degree, self.valid_degree)
        return MultiSeries(self.dim, self.arithmetic, self.vec[:graded_count(self.dim, vd)],
                           self.den, vd)

    def __eq__(self, other):
        if not isinstance(other, MultiSeries):
            return NotImplemented
        return ((self.dim, self.mode, self.valid_degree, self.coeffs)
                == (other.dim, other.mode, other.valid_degree, other.coeffs))

    def __repr__(self):
        return (f"MultiSeries(dim={self.dim}, valid={self.valid_degree}, "
                f"stored={len(self.vec)}, arithmetic={self.arithmetic.name!r})")


def _reduced(dim: int, arith: Arithmetic, vec: list, den: int, valid_degree: int) -> MultiSeries:
    """The series vec/den, exact values over their least common denominator."""
    if den != 1:
        common = math.gcd(den, *vec)
        if common != 1:
            vec = list(map(operator.floordiv, vec, repeat(common)))
            den //= common
    return MultiSeries(dim, arith, vec, den, valid_degree)


def arithmetic_of(*series: MultiSeries) -> Arithmetic:
    """The arithmetic, at the current precision, of the one mode of the
    series; it holds their elements, raw tuples of another precision too."""
    modes = {f.arithmetic.mode for f in series}
    if len(modes) != 1:
        raise ValueError(f"arithmetic mode mismatch: {' vs '.join(sorted(modes))}")
    return arithmetic(modes.pop())


def make_series(dim: int, coefficients: Mapping, degree: int, mode: str = "exact") -> MultiSeries:
    """Build a series valid to ``degree`` from an index -> value mapping.

    Indices must fit the degree; values are coerced into the requested mode
    (mixing modes is an error by construction).
    """
    table = {}
    for alpha, value in coefficients.items():
        alpha = (alpha,) if isinstance(alpha, int) else tuple(int(a) for a in alpha)
        if len(alpha) != dim:
            raise ValueError(f"index {alpha} does not have {dim} entries")
        if any(a < 0 for a in alpha):
            raise ValueError(f"negative exponent in index {alpha}")
        if sum(alpha) > degree:
            raise ValueError(f"index {alpha} exceeds degree {degree}")
        table[graded_rank(alpha)] = to_number(value, mode)
    return _encoded(dim, table, degree, mode)


def _encoded(dim: int, table: Mapping, degree: int, mode: str) -> MultiSeries:
    """The series valid to ``degree`` with the value table[r] at graded rank r."""
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    table = {r: v for r, v in table.items() if v != 0}
    arith = arithmetic(mode)
    elements, den = arith.encode(list(table.values()))
    vec = [arith.zero] * (max(table, default=-1) + 1)
    for r, x in zip(table, elements):
        vec[r] = x
    return MultiSeries(dim, arith, vec, den, degree)


def zero_series(dim: int, degree: int, mode: str = "exact") -> MultiSeries:
    return MultiSeries(dim, arithmetic(mode), [], 1, degree)


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
        powers = [c ** d for d in range(degree + 1)]
        return _encoded(dim, dict(enumerate(powers[sum(alpha)]
                                            for alpha in indices_up_to(dim, degree))), degree, mode)
    if kind == "polynomial":
        if coeffs is None:
            raise ValueError("polynomial generator needs coeffs=")
        if dim != 1:
            raise ValueError(f"a polynomial series is univariate, got {dim} variables")
        if len(coeffs) - 1 > degree:
            raise ValueError(f"polynomial of degree {len(coeffs) - 1} exceeds the degree {degree}")
        return make_series(1, {(l,): v for l, v in enumerate(coeffs)}, degree, mode)
    if kind == "gevrey_factorial":
        sigma = Fraction(sigma)
        if sigma < 0:
            raise ValueError(f"gevrey_factorial sigma must be >= 0, got {sigma}")
        if mode == "exact" and sigma.denominator != 1:
            raise ValueError(f"gevrey_factorial sigma {sigma} is fractional: use float mode")
        table = {}
        for axis in range(dim):
            for l in range(degree + 1):
                alpha = tuple(l if j == axis else 0 for j in range(dim))
                fact = Fraction(math.factorial(l))
                if mode == "exact":
                    table[alpha] = fact ** sigma.numerator
                else:
                    table[alpha] = mpmath.power(to_mpf(fact), to_mpf(sigma))
        return make_series(dim, table, degree, mode)
    raise ValueError(f"unknown generator kind {kind!r}")


def series_add(a: MultiSeries, b: MultiSeries) -> MultiSeries:
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    arith = arithmetic_of(a, b)
    vd = min(a.valid_degree, b.valid_degree)
    count = graded_count(a.dim, vd)
    den = math.lcm(a.den, b.den)
    xs, ys = a.dense(count), b.dense(count)
    if a.den != den:
        xs = arith.scale(den // a.den, xs)
    if b.den != den:
        ys = arith.scale(den // b.den, ys)
    return MultiSeries(a.dim, arith, arith.add(xs, ys), den, vd)


def series_scale(f: MultiSeries, scalar) -> MultiSeries:
    """scalar * f, exact values over their least common denominator."""
    arith = arithmetic_of(f)
    c, c_den = arith.scalar(scalar)
    return _reduced(f.dim, arith, arith.scale(c, f.vec), f.den * c_den, f.valid_degree)


def _degrees(dim: int):
    """The total degree of each graded rank, in rank order, without end."""
    d = 0
    while True:
        yield from repeat(d, math.comb(d + dim - 1, dim - 1))
        d += 1


def sup_bound(f: MultiSeries, r):
    """Sum |f_alpha| r^{|alpha|} over stored coefficients up to valid_degree,
    in graded order.

    Upper-bounds the sup of the truncated series over the closed polydisc of
    radius r; exact when coefficients and r are rational.  It reads the
    elements: an exact series and r = p/q give one Fraction, the sum of
    |x_alpha| p^|alpha| q^(D - |alpha|) over den q^D, D the degree of the
    last stored element; otherwise each nonzero value, as an mpf, is taken
    absolute, times r^|alpha| and added, rounding as mpf operations do.
    """
    r = Fraction(r) if isinstance(r, (int, Fraction)) else to_mpf(r)
    if not r > 0:
        raise ValueError(f"radius must be positive, got {r}")
    vec, dim = f.vec, f.dim
    if f.mode == "exact" and isinstance(r, Fraction):
        p, q = r.numerator, r.denominator
        if dim == 1:
            sums = map(abs, vec)
        else:   # |x| summed per degree, up to the last stored element's
            sums, lo = [], 0
            while lo < len(vec):
                hi = graded_count(dim, len(sums))
                sums.append(sum(map(abs, vec[lo:hi])))
                lo = hi
        total, power, top = 0, 1, -1
        for top, s in enumerate(sums):
            total = total * q + s * power
            power *= p
        return Fraction(total, f.den * q ** top) if top >= 0 else Fraction(0)
    prec, zero = mpmath.mp.prec, f.arithmetic.zero
    r, powers, total = to_mpf(r)._mpf_, {}, fzero
    for d, x in zip(_degrees(dim), vec):
        if x == zero:
            continue
        if f.mode == "exact":
            x = to_mpf(Fraction(x, f.den))._mpf_
        if d not in powers:
            powers[d] = mpf_pow_int(r, d, prec, round_nearest)
        term = mpf_mul(mpf_abs(x, prec, round_nearest), powers[d], prec, round_nearest)
        total = mpf_add(total, term, prec, round_nearest)
    return mpmath.mp.make_mpf(total)


def majorizes(g: MultiSeries, f: MultiSeries) -> bool:
    """True iff |f_alpha| <= g_alpha on the shared valid range.

    g must have nonnegative coefficients, which is checked on its elements.
    In float mode the comparison carries the standard relative slack so that
    equal-up-to-rounding sequences still dominate themselves, and a NaN on
    either side fails it.
    """
    if g.dim != f.dim:
        raise ValueError(f"dimension mismatch: {g.dim} vs {f.dim}")
    # an exact element (over den > 0) is negative below 0, a real one by its sign bit
    exact = g.mode == "exact"
    if (min(g.vec, default=0) < 0) if exact else any(x[0] for x in g.vec):
        bad = next(r for r, x in enumerate(g.vec) if (x < 0 if exact else x[0]))
        alpha = next(islice(indices_up_to(g.dim, g.valid_degree), bad, None))
        v = g.arithmetic.decode(g.vec[bad], g.den)
        raise ValueError(f"majorant coefficients must be >= 0, got {v} at {alpha}")
    vd = min(g.valid_degree, f.valid_degree)
    count = graded_count(g.dim, vd)
    gs, fs = g.dense(count), f.dense(count)
    if g.mode == "exact" and f.mode == "exact":
        return all(abs(x) * g.den <= y * f.den for x, y in zip(fs, gs))
    slack = float_tolerance()
    g_decode, f_decode = g.arithmetic.decode, f.arithmetic.decode
    for x, y in zip(fs, gs):
        fa = to_mpf(abs(f_decode(x, f.den)))
        ga = to_mpf(g_decode(y, g.den))
        if not fa <= ga + slack * max(fa, ga, mpf(1)):
            return False
    return True


def coefficient_rows(f: MultiSeries) -> list[list[str]]:
    """CSV rows (without header): alpha_1..alpha_N, re, im, sorted by degree."""
    return [[str(a) for a in alpha] + list(_format_value(v)) for alpha, v in f.coeffs.items()]


def _format_value(v) -> tuple[str, str]:
    """(re, im) of a coefficient; every coefficient is real, so im is "0"."""
    if isinstance(v, Fraction):
        return str(v), "0"
    return mpmath.nstr(v, mpmath.mp.dps + 2), "0"
