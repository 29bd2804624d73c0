"""Arbitrary-precision arithmetic helpers shared by every module.

All big-float computation goes through mpmath at the precision of its
global context.  ``pipeline.run`` scopes that precision to one run with
``mpmath.workprec`` and restores it afterwards; tests pin it in a fixture.
Every coefficient is exact or real: exact-mode coefficients are
``fractions.Fraction`` values, float-mode ones real ``mpf`` numbers.

Every ``series.MultiSeries`` holds its coefficients as the elements of one
``Arithmetic`` of its mode: it encodes coefficients as elements, holds the
vector operations on elements and decodes them back.  Exact elements are
integer numerators over a common denominator, with Python's integer
operators.  Exact mode never touches the float context.

Float elements are raw ``mpmath.libmp`` tuples (sign, mantissa,
exponent, bit count), and the real arithmetic works at the precision that is
current when it is built.  Its invariant: every element it returns equals,
bit for bit, what the ``mpf`` objects compute at that precision with
round-to-nearest, operands materialized above that precision included.  It
does only the work that can change a bit:

- a multiply or an add combines the two mantissas as integers and rounds
  the result to nearest-even inline, with ``int.bit_length``, stripping
  trailing zero bits as libmp does;
- libmp (``mpf_mul``, ``mpf_add``, ``mpf_sub``) takes over for a zero, inf
  or nan operand, and for an add whose exponents lie more than 100 bits
  apart, where libmp may stand a one-bit perturbation in for the smaller
  operand;
- a scale by exactly 1 or -1 returns each element (or its sign flip), and
  ``abs`` clears each sign, without rounding; both only for an element whose
  bit count is at most the precision, since data materialized above it must
  still be rounded (by ``mul`` or ``mpf_abs``);
- ``sub`` flips the subtrahend's sign and adds, rounding once, as
  ``mpf_sub`` does;
- ``quotient`` divides only when the quotient can exceed its bound: it
  compares |x| with bound*y on the integer mantissas first, for nonzero
  finite operands at the precision.  Rounding to nearest is monotone and
  keeps a value at the precision, so a quotient at most the bound rounds
  to at most the bound.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from typing import Callable

import mpmath
from mpmath import mpf
from mpmath.libmp import (fnone, fone, fzero, mpf_abs, mpf_add, mpf_div, mpf_mul, mpf_sub,
                          round_nearest)

# mantissa bits of a run whose problem file and command line set none
DEFAULT_PRECISION_BITS = 256


def to_mpf(x) -> mpf:
    """Convert ints, floats, Fractions and decimal strings to mpf.

    Fractions are converted as numerator/denominator so that huge exact
    values (e.g. 400!) round only once, at the final division.
    """
    if isinstance(x, mpf):
        return x
    if isinstance(x, Fraction):
        return mpmath.mpf(x.numerator) / mpmath.mpf(x.denominator)
    if isinstance(x, (int, float, str)):
        return mpmath.mpf(x)
    raise TypeError(f"{x!r} is not a real number ({type(x).__name__})")


def to_number(x, mode: str):
    """Coerce a scalar into the arithmetic of the given mode.

    exact mode accepts ints, Fractions and 'p/q' strings; float mode
    additionally accepts floats and mpf numbers.  A bool or any other value
    is a ``TypeError``, which names a non-bool value: every coefficient is
    exact or real.  A string with a zero denominator is a ``ValueError``
    that names it.
    """
    if isinstance(x, bool):
        raise TypeError("bool is not a coefficient")
    try:
        if mode == "exact":
            if isinstance(x, Fraction):
                return x
            if isinstance(x, (int, str)):
                return Fraction(x)
            raise TypeError(f"exact mode cannot hold the {type(x).__name__} coefficient {x!r}")
        if mode == "float":
            return to_mpf(x)
    except ZeroDivisionError:
        raise ValueError(f"the coefficient {x!r} has a zero denominator") from None
    raise ValueError(f"unknown arithmetic mode {mode!r}")


def table_key(mode: str):
    """Table key of the values of a mode: exact, or float at the current precision."""
    return "exact" if mode == "exact" else mpmath.mp.prec


@dataclass(frozen=True)
class Arithmetic:
    """The arithmetic of a series' elements: how a coefficient is held as
    an element, and the operations on elements.

    ``name`` is exact or real and ``key`` the ``table_key`` of its
    values; two arithmetics are equal when both are.  ``encode(values)``
    gives (elements, denominator), ``decode(x, den)`` the value x/den, and
    ``zero`` is the element of 0, which every zero element equals.  The
    vector operations take iterables, return lists and stop at the shortest
    input: ``mul``, ``add`` and ``sub`` elementwise, ``scale(c, xs)`` the
    element c times each, ``abs``, and in one pass ``add_scaled(xs, c, ys)``,
    xs + c*ys, and ``add_abs(xs, ys)``, xs + |ys|.  ``quotient(x, y, den,
    bound)`` is |x|/y as an mpf for elements x and y over den, or ``bound``
    itself when the arithmetic can tell without dividing that the quotient
    rounds to at most ``bound``, an mpf.  Float elements have
    denominator 1.  Each operation rounds like the one on mpf (or Python)
    numbers; the real arithmetic gets there by the shortcuts of the module
    docstring, which never change a bit.
    """

    name: str
    key: object
    zero: object = field(compare=False)
    encode: Callable = field(compare=False)
    decode: Callable = field(compare=False)
    mul: Callable = field(compare=False)
    scale: Callable = field(compare=False)
    add: Callable = field(compare=False)
    sub: Callable = field(compare=False)
    abs: Callable = field(compare=False)
    add_scaled: Callable = field(compare=False)
    add_abs: Callable = field(compare=False)
    quotient: Callable = field(compare=False)

    @property
    def mode(self) -> str:
        return "exact" if self.name == "exact" else "float"

    def scalar(self, x) -> tuple:
        """(element, denominator) of the scalar x, coerced into the mode."""
        (x,), den = self.encode((to_number(x, self.mode),))
        return x, den


def _exact_encode(values) -> tuple:
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _exact_scale(c, xs) -> list:
    """c*x for each x: a copy for c = 1 and a negation for c = -1."""
    if c == 1 or c == -1:
        return list(xs if c == 1 else map(operator.neg, xs))
    return list(map(operator.mul, repeat(c), xs))


def _exact_add_scaled(xs, c, ys) -> list:
    """x + c*y for each pair: a sum for c = 1 and a difference for c = -1."""
    if c == 1 or c == -1:
        return list(map(operator.add if c == 1 else operator.sub, xs, ys))
    return list(map(operator.add, xs, map(operator.mul, repeat(c), ys)))


EXACT = Arithmetic(
    "exact", "exact", zero=0, encode=_exact_encode, decode=Fraction,
    mul=lambda xs, ys: list(map(operator.mul, xs, ys)),
    scale=_exact_scale,
    add=lambda xs, ys: list(map(operator.add, xs, ys)),
    sub=lambda xs, ys: list(map(operator.sub, xs, ys)),
    abs=lambda xs: list(map(abs, xs)),
    add_scaled=_exact_add_scaled,
    add_abs=lambda xs, ys: list(map(operator.add, xs, map(abs, ys))),
    # the reduced Fractions, as to_mpf rounds numerator and denominator apart
    quotient=lambda x, y, den, bound: (to_mpf(Fraction(abs(x), den))
                                       / to_mpf(Fraction(y, den))))


# one immutable arithmetic per precision, shared by every series at it
@lru_cache(maxsize=None)
def _real(prec: int) -> Arithmetic:
    make_mpf = mpmath.mp.make_mpf
    rnd = round_nearest

    def mul(x, y):
        """x*y rounded at prec; libmp for a zero, inf or nan operand."""
        man = x[1] * y[1]
        if not man:
            return mpf_mul(x, y, prec, rnd)
        exp = x[2] + y[2]
        n = man.bit_length() - prec
        if n > 0:
            t = man >> (n - 1)
            if t & 1 and (t & 2 or man & ((1 << (n - 1)) - 1)):
                man = (t >> 1) + 1
            else:
                man = t >> 1
            exp += n
            if not man & 1:
                z = (man & -man).bit_length() - 1
                man >>= z
                exp += z
        return x[0] ^ y[0], man, exp, man.bit_length()

    def add(x, y, flip=0):
        """x + y, or x - y for flip 1, rounded at prec; libmp for a zero, inf
        or nan operand and for exponents more than 100 bits apart."""
        xm, ym, offset = x[1], y[1], x[2] - y[2]
        if not (xm and ym) or not -100 <= offset <= 100:
            return mpf_sub(x, y, prec, rnd) if flip else mpf_add(x, y, prec, rnd)
        if offset >= 0:
            xm <<= offset
            exp = y[2]
        else:
            ym <<= -offset
            exp = x[2]
        sign = x[0]
        if sign == y[0] ^ flip:
            man = xm + ym
        else:
            man = xm - ym
            if man < 0:
                sign, man = sign ^ 1, -man
            elif not man:
                return fzero
        n = man.bit_length() - prec
        if n > 0:
            t = man >> (n - 1)
            if t & 1 and (t & 2 or man & ((1 << (n - 1)) - 1)):
                man = (t >> 1) + 1
            else:
                man = t >> 1
            exp += n
        if not man & 1:
            z = (man & -man).bit_length() - 1
            man >>= z
            exp += z
        return sign, man, exp, man.bit_length()

    def scaled(c, xs):
        """c*x for each x, lazily: a scale by exactly 1 or -1 keeps or flips
        each x already at prec and rounds only the others."""
        if c == fone:
            return (x if x[3] <= prec else mul(c, x) for x in xs)
        if c == fnone:
            return ((x[0] ^ 1, x[1], x[2], x[3]) if 0 < x[3] <= prec else mul(c, x)
                    for x in xs)
        return map(mul, repeat(c), xs)

    def quotient(x, y, den, bound):
        """|x|/y rounded at prec, or ``bound`` when |x| <= bound*y: decided on
        the mantissas when x, y and the bound are nonzero, finite and at
        prec, and y and the bound are positive."""
        w = bound._mpf_
        if x[1] and y[1] and w[1] and not (y[0] or w[0]) and x[3] <= prec \
                and y[3] <= prec and w[3] <= prec:
            # |x| lies in [2^(top-1), 2^top) and bound*y in [2^(low-2), 2^low)
            exp = w[2] + y[2]
            top, low = x[2] + x[3], exp + w[3] + y[3]
            if top <= low - 2:
                return bound
            if top <= low:
                shift = x[2] - exp
                man = w[1] * y[1]
                if (x[1] << shift <= man) if shift >= 0 else (x[1] <= man << -shift):
                    return bound
        return make_mpf(mpf_div(mpf_abs(x, prec, rnd), y, prec, rnd))

    def absolute(xs):
        """|x| for each x, lazily: the sign cleared for each x already at prec."""
        return (((0,) + x[1:] if x[0] else x) if x[3] <= prec else mpf_abs(x, prec, rnd)
                for x in xs)

    return Arithmetic(
        "real", prec, zero=fzero,
        encode=lambda values: ([v._mpf_ for v in values], 1),
        decode=lambda x, den: make_mpf(x),
        quotient=quotient,
        mul=lambda xs, ys: list(map(mul, xs, ys)),
        scale=lambda c, xs: list(scaled(c, xs)),
        add=lambda xs, ys: list(map(add, xs, ys)),
        sub=lambda xs, ys: list(map(add, xs, ys, repeat(1))),
        abs=lambda xs: list(absolute(xs)),
        add_scaled=lambda xs, c, ys: list(map(add, xs, scaled(c, ys))),
        add_abs=lambda xs, ys: list(map(add, xs, absolute(ys))))


def arithmetic(mode: str) -> Arithmetic:
    """The arithmetic of ``mode``: exact, or real float at the current
    precision."""
    if mode == "exact":
        return EXACT
    if mode != "float":
        raise ValueError(f"unknown arithmetic mode {mode!r}")
    return _real(mpmath.mp.prec)


def float_tolerance() -> mpf:
    """Relative slack for float-mode coefficient comparison: 2^-(prec-16)."""
    return mpmath.ldexp(1, -(mpmath.mp.prec - 16))
