"""Moment functions: positive sequences n -> m(n) with m(0) = 1 and a declared
growth order s, generalizing n -> Gamma(1 + s*n).

A moment function of order s grows like Gamma(1+sn) up to a geometric factor;
products and quotients combine orders additively.  Every moment function is
held in one normal form, a product of integer powers of atoms: an atom is a
gamma order s, meaning n -> Gamma(1 + s*n), or a user table from
``tabulated_moment``, which lets tests inject arbitrary (valid) sequences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from operator import mul
from typing import Callable, Sequence, Union

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

    ``factors`` is a tuple of (atom, exponent) pairs with nonzero integer
    exponents, gamma atoms (a ``Fraction`` s > 0 for Gamma(1 + s*n)) first
    by s, then table atoms (a tuple of values or a callable n -> value) in
    the order they were first combined; m(n) is the product of the atoms'
    values raised to their exponents, and the empty product is 1.

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
        irrational value in exact mode.  Each entry is the product of the
        positive powers, divided once by the product of the others."""
        exact = mode == "exact"
        col = self._tables.setdefault(table_key(mode), [])
        new = range(len(col), n + 1)
        if not new:
            return col
        one = Fraction(1) if exact else mpf(1)
        columns = [(_atom_values(atom, new, exact), e) for atom, e in self.factors]
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
    for atom, e in m2.factors:
        exponents[atom] = exponents.get(atom, 0) + sign * e
    factors = tuple(sorted(((atom, e) for atom, e in exponents.items() if e),
                           key=lambda f: (0, f[0]) if isinstance(f[0], Fraction) else (1, 0)))
    size = sum(abs(e) for _, e in factors)
    if size > MAX_MOMENT_FACTORS:
        raise ValueError(f"moment function would be a product of {size} factors; "
                         f"at most {MAX_MOMENT_FACTORS} are allowed")
    return MomentFunction(m1.order + sign * m2.order, factors)


def tabulated_moment(values: Union[Sequence, Callable], order) -> MomentFunction:
    """Wrap explicit values (a sequence, or a callable n -> value).

    The normalisation m(0) = 1 and positivity are enforced; sequences are
    checked up front, callables at evaluation time.
    """
    order = Fraction(order)
    if callable(values):
        table = values
        v0 = values(0)
    else:
        table = tuple(values)
        if not table:
            raise ValueError("tabulated moment function needs at least m(0)")
        for n, v in enumerate(table):
            if not v > 0:
                raise ValueError(f"moment values must be positive, got m({n}) = {v}")
        v0 = table[0]
    if not (v0 == 1 if isinstance(v0, (int, Fraction)) else to_mpf(v0) == 1):
        raise ValueError(f"moment function must satisfy m(0) = 1, got {v0}")
    return MomentFunction(order, ((table, 1),))


def _atom_values(atom, new: range, exact: bool) -> list:
    """The atom's values at each n of ``new``; None marks an irrational
    value in exact mode."""
    if isinstance(atom, Fraction):
        if exact:
            return [Fraction(math.factorial(sn.numerator)) if (sn := atom * k).denominator == 1
                    else None for k in new]
        s = to_mpf(atom)
        return [mpmath.gamma(1 + s * k) for k in new]
    if not callable(atom) and new[-1] >= len(atom):
        raise ValueError(f"tabulated moment function has {len(atom)} values, "
                         f"asked for m({new[-1]})")
    values = [atom(k) for k in new] if callable(atom) else atom[new.start:new.stop]
    for k, v in zip(new, values):
        if not v > 0:
            raise ValueError(f"moment values must be positive, got m({k}) = {v}")
    if exact:
        return [Fraction(v) if isinstance(v, (int, Fraction)) else None for v in values]
    return [to_mpf(v) for v in values]


def regularity_constants(m: MomentFunction, n_max: int) -> tuple[mpf, mpf]:
    """Empirical (a, A) with a*n^s <= m(n)/m(n-1) <= A*n^s on 1..n_max.

    For order 0 the n^s factor is identically 1, so the plain consecutive
    ratio extrema are returned (the regularity notion itself needs s > 0).
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    s = to_mpf(m.order)
    lo, hi = None, None
    for n in range(1, n_max + 1):
        ratio = m.ratio(n, n - 1, "float")
        if m.order > 0:
            ratio = ratio / mpmath.power(n, s)
        lo = ratio if lo is None else min(lo, ratio)
        hi = ratio if hi is None else max(hi, ratio)
    return lo, hi
