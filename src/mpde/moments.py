"""Moment functions: positive sequences n -> m(n) with m(0) = 1 and a declared
growth order s, generalizing n -> Gamma(1 + s*n).

A moment function of order s grows like Gamma(1+sn) up to a geometric factor;
products and quotients combine orders additively.  The ``gamma`` kind is the
classical family; ``tabulated`` lets tests inject arbitrary (valid) sequences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

import mpmath
from mpmath import mpf

from .precision import table_key, to_mpf


class ExactValueUnavailable(ValueError):
    """Raised when a moment value is irrational and exact arithmetic was requested."""


@dataclass(frozen=True)
class MomentFunction:
    """An evaluable positive sequence with a declared order.

    kind is one of gamma|product|quotient|tabulated.  gamma evaluates to
    Gamma(1 + order*n); product/quotient compose two children pointwise;
    tabulated wraps user-supplied values.

    Values and shift ratios are kept in tables on the instance, one per
    arithmetic (exact, or float at one mpmath precision), computed once and
    extended on demand; nothing is cached across instances.
    """

    kind: str
    order: Fraction
    left: Optional["MomentFunction"] = None
    right: Optional["MomentFunction"] = None
    table: Union[tuple, Callable, None] = None
    # (table_key, None) -> [m(0), m(1), ...]; (table_key, a) -> [m(a)/m(0), ...]
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

    def values(self, n: int, mode: str) -> tuple:
        """(m(0), ..., m(n)) in the arithmetic of ``mode``."""
        return tuple(self._entry(k, mode) for k in range(n + 1))

    def shift_ratios(self, a: int, n: int, mode: str) -> tuple:
        """(r_0, ..., r_n) with r_b = m(b+a)/m(b), each one division."""
        ratios = self._tables.setdefault((table_key(mode), a), [])
        for b in range(len(ratios), n + 1):
            ratios.append(self._entry(b + a, mode) / self._entry(b, mode))
        return tuple(ratios[: n + 1])

    def _entry(self, n: int, mode: str):
        if n < 0:
            raise ValueError(f"moment functions are defined on n >= 0, got {n}")
        v = self._column(n, mode)[n]
        if v is None:
            raise ExactValueUnavailable(f"m({n}) of {self!r} is not rational; use float mode")
        return v

    def _column(self, n: int, mode: str) -> list:
        """The value table of ``mode``, extended to hold m(n); None marks an
        irrational value in exact mode."""
        exact = mode == "exact"
        col = self._tables.setdefault((table_key(mode), None), [])
        new = range(len(col), n + 1)
        if not new:
            return col
        if self.kind == "gamma":
            if exact:
                for k in new:
                    sn = self.order * k
                    col.append(Fraction(math.factorial(sn.numerator))
                               if sn.denominator == 1 else None)
            else:
                s = to_mpf(self.order)
                col.extend(mpmath.gamma(1 + s * k) for k in new)
        elif self.kind == "quotient" and self.left == self.right:
            col.extend((Fraction(1) if exact else mpf(1)) for _ in new)
        elif self.kind in ("product", "quotient"):
            left, right = self.left._column(n, mode), self.right._column(n, mode)
            product = self.kind == "product"
            for k in new:
                a, b = left[k], right[k]
                col.append(None if a is None or b is None else a * b if product else a / b)
        else:
            for k in new:
                v = _table_value(self, k, exact)
                if exact:
                    v = Fraction(v) if isinstance(v, (int, Fraction)) else None
                col.append(v)
        return col

    def __repr__(self):
        if self.kind == "gamma":
            return f"gamma_moment({self.order})"
        if self.kind in ("product", "quotient"):
            return f"{self.kind}({self.left!r}, {self.right!r})"
        return f"tabulated_moment(order={self.order})"


def gamma_moment(s) -> MomentFunction:
    """The moment function n -> Gamma(1 + s*n) of order s >= 0."""
    s = Fraction(s)
    if s < 0:
        raise ValueError(f"gamma moment order must be >= 0, got {s}")
    return MomentFunction(kind="gamma", order=s)


def combine(m1: MomentFunction, m2: MomentFunction, op: str) -> MomentFunction:
    """Pointwise product or quotient; orders add or subtract.

    Quotients require s1 >= s2 so the resulting order is nonnegative.
    """
    if op == "product":
        return MomentFunction(kind="product", order=m1.order + m2.order, left=m1, right=m2)
    if op == "quotient":
        if m1.order < m2.order:
            raise ValueError(
                f"quotient order would be negative ({m1.order} - {m2.order})"
            )
        return MomentFunction(kind="quotient", order=m1.order - m2.order, left=m1, right=m2)
    raise ValueError(f"unknown combine op {op!r} (want 'product' or 'quotient')")


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
    if not _is_one(v0):
        raise ValueError(f"moment function must satisfy m(0) = 1, got {v0}")
    return MomentFunction(kind="tabulated", order=order, table=table)


def _table_value(m: MomentFunction, n: int, exact: bool):
    if callable(m.table):
        v = m.table(n)
    else:
        if n >= len(m.table):
            raise ValueError(
                f"tabulated moment function has {len(m.table)} values, asked for m({n})"
            )
        v = m.table[n]
    if not v > 0:
        raise ValueError(f"moment values must be positive, got m({n}) = {v}")
    return v if exact else to_mpf(v)


def _is_one(v) -> bool:
    if isinstance(v, (int, Fraction)):
        return v == 1
    return to_mpf(v) == 1


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
        ratio = m.value(n) / m.value(n - 1)
        if m.order > 0:
            ratio = ratio / mpmath.power(n, s)
        lo = ratio if lo is None else min(lo, ratio)
        hi = ratio if hi is None else max(hi, ratio)
    return lo, hi
