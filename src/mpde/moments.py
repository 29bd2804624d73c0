"""Moment functions: positive sequences n -> m(n) with m(0) = 1 and a declared
growth order s, generalizing n -> Gamma(1 + s*n).

A moment function of order s grows like Gamma(1+sn) up to a geometric factor;
products and quotients combine orders additively.  Every moment function is
held in one normal form, a product of integer powers of gamma atoms: an
atom is an order s > 0, meaning n -> Gamma(1 + s*n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from operator import mul

import mpmath
from mpmath import mpf

from .precision import table_key, to_mpf

# the most factors, counted with multiplicity, that a moment function may have
MAX_MOMENT_FACTORS = 64


class ExactValueUnavailable(ValueError):
    """Raised when a moment value is irrational and exact arithmetic was requested."""


@dataclass(frozen=True)
class MomentFunction:
    """An evaluable positive sequence with a declared order.

    ``factors`` is a tuple of (s, exponent) pairs sorted by s, with a
    ``Fraction`` s > 0 for the atom Gamma(1 + s*n) and a nonzero integer
    exponent; m(n) is the product of the atoms' values raised to their
    exponents, and the empty product is 1.

    Values are kept in tables on the instance, one per arithmetic (exact, or
    float at one mpmath precision), computed once and extended on demand;
    nothing is cached across instances.
    """

    order: Fraction
    factors: tuple = ()
    # table_key -> [m(0), m(1), ...]
    _tables: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def value(self, n: int) -> mpf:
        """m(n) as an arbitrary-precision float (current global precision)."""
        return self._entry(int(n), "float")

    def value_exact(self, n: int) -> Fraction:
        """m(n) as an exact rational; raises ExactValueUnavailable otherwise."""
        return self._entry(int(n), "exact")

    def ratio(self, a: int, b: int, mode: str):
        """m(a)/m(b) in the arithmetic of ``mode`` (exact or float)."""
        return self._entry(int(a), mode) / self._entry(int(b), mode)

    def _entry(self, n: int, mode: str):
        if n < 0:
            raise ValueError(f"moment functions are defined on n >= 0, got {n}")
        v = self._column(n, mode)[n]
        if v is None:
            raise ExactValueUnavailable(f"m({n}) of {self!r} is not rational; use float mode")
        return v

    def _column(self, n: int, mode: str) -> list:
        """The value table of ``mode``, extended to hold m(n); None marks an
        irrational value in exact mode, where Gamma(1 + s*k) = (s*k)! needs
        an integer s*k.  Each entry is the product of the positive powers,
        divided once by the product of the others."""
        exact = mode == "exact"
        col = self._tables.setdefault(table_key(mode), [])
        new = range(len(col), n + 1)
        if not new:
            return col
        if exact:
            one = Fraction(1)
            columns = [([Fraction(math.factorial(sk.numerator)) if (sk := s * k).denominator == 1
                         else None for k in new], e) for s, e in self.factors]
        else:
            one = mpf(1)
            columns = [([mpmath.gamma(1 + to_mpf(s) * k) for k in new], e)
                       for s, e in self.factors]
        for i in range(len(new)):
            if any(c[i] is None for c, _ in columns):
                col.append(None)
                continue
            ups = [c[i] for c, e in columns for _ in range(e)]
            downs = [c[i] for c, e in columns for _ in range(-e)]
            up = reduce(mul, ups) if ups else one
            col.append(up / reduce(mul, downs) if downs else up)
        return col


def gamma_moment(s) -> MomentFunction:
    """The moment function n -> Gamma(1 + s*n) of order s >= 0."""
    s = Fraction(s)
    if s < 0:
        raise ValueError(f"gamma moment order must be >= 0, got {s}")
    return MomentFunction(s, ((s, 1),) if s else ())


def combine(m1: MomentFunction, m2: MomentFunction, op: str) -> MomentFunction:
    """Pointwise product or quotient; orders add or subtract and exponents
    add or subtract, so m/m is the empty product, 1.

    Quotients require s1 >= s2 so the resulting order is nonnegative, and
    the result may have at most ``MAX_MOMENT_FACTORS`` factors counted with
    multiplicity.
    """
    if op not in ("product", "quotient"):
        raise ValueError(f"unknown combine op {op!r} (want 'product' or 'quotient')")
    sign = 1 if op == "product" else -1
    if sign < 0 and m1.order < m2.order:
        raise ValueError(f"quotient order would be negative ({m1.order} - {m2.order})")
    exponents = dict(m1.factors)
    for s, e in m2.factors:
        exponents[s] = exponents.get(s, 0) + sign * e
    factors = tuple(sorted((s, e) for s, e in exponents.items() if e))
    size = sum(abs(e) for _, e in factors)
    if size > MAX_MOMENT_FACTORS:
        raise ValueError(f"moment function would be a product of {size} factors; "
                         f"at most {MAX_MOMENT_FACTORS} are allowed")
    return MomentFunction(m1.order + sign * m2.order, factors)
