"""Arbitrary-precision arithmetic helpers shared by every module.

All big-float computation goes through mpmath at the precision of its
global context.  ``pipeline.run`` scopes that precision to one run with
``mpmath.workprec`` and restores it afterwards; tests pin it in a fixture.
Exact-mode coefficients are ``fractions.Fraction`` values, float-mode ones
mpmath numbers.

Every ``series.MultiSeries`` holds its coefficients as the elements of one
``Arithmetic``, derived from the mode and the data: it encodes coefficients
as elements, holds the vector operations on elements and decodes them back.
Exact elements are integer numerators over a common denominator.  Float
elements are raw ``mpmath.libmp`` tuples when every value is real, each
operation the correctly rounded one that ``mpf`` makes, at the precision read
when the arithmetic is built; they are mpmath numbers when some value is
complex.  Exact mode never touches the float context.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from typing import Callable, Iterable

import mpmath
from mpmath import mpc, mpf
from mpmath.libmp import fzero, mpf_abs, mpf_add, mpf_div, mpf_mul, mpf_sub, round_nearest

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
    raise TypeError(f"cannot convert {type(x).__name__} to mpf")


def to_number(x, mode: str):
    """Coerce a scalar into the arithmetic of the given mode.

    exact mode accepts ints, Fractions and 'p/q' strings; float mode
    additionally accepts floats and mpmath numbers (complex included).
    """
    if mode == "exact":
        if isinstance(x, bool):
            raise TypeError("bool is not a coefficient")
        if isinstance(x, Fraction):
            return x
        if isinstance(x, (int, str)):
            return Fraction(x)
        raise TypeError(f"exact mode cannot hold {type(x).__name__} coefficients")
    if mode == "float":
        if isinstance(x, mpc):
            return x
        if isinstance(x, complex):
            return mpc(x.real, x.imag)
        return to_mpf(x)
    raise ValueError(f"unknown arithmetic mode {mode!r}")


def table_key(mode: str):
    """Table key of the values of a mode: exact, or float at the current precision."""
    return "exact" if mode == "exact" else mpmath.mp.prec


@dataclass(frozen=True)
class Arithmetic:
    """The arithmetic of a series' elements: how a coefficient is held as
    an element, and the operations on elements.

    ``name`` is exact, real or complex and ``key`` the ``table_key`` of its
    values; two arithmetics are equal when both are.  ``encode(values)``
    gives (elements, denominator), ``decode(x, den)`` the value x/den, and
    ``zero`` is the element of 0, which every zero element equals.  The
    vector operations take iterables, return lists and stop at the shortest
    input: ``mul``, ``add`` and ``sub`` elementwise, ``scale(c, xs)`` the
    element c times each, ``abs``, and in one pass ``add_scaled(xs, c, ys)``,
    xs + c*ys, and ``add_abs(xs, ys)``, xs + |ys|.  ``quotient(x, y, den)``
    is |x|/y as an mpf for elements x and y over den.  Float elements have
    denominator 1.
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


def _vector_ops(mul, add, sub, abs_, *args) -> dict:
    """The vector operations over elementwise ones, which take ``args`` (for
    raw tuples the precision and the rounding) after their operands."""
    return dict(
        mul=lambda xs, ys: list(map(mul, xs, ys, *args)),
        scale=lambda c, xs: list(map(mul, repeat(c), xs, *args)),
        add=lambda xs, ys: list(map(add, xs, ys, *args)),
        sub=lambda xs, ys: list(map(sub, xs, ys, *args)),
        abs=lambda xs: list(map(abs_, xs, *args)),
        add_scaled=lambda xs, c, ys: list(map(add, xs, map(mul, repeat(c), ys, *args), *args)),
        add_abs=lambda xs, ys: list(map(add, xs, map(abs_, ys, *args), *args)),
    )


# exact integers and complex mpmath numbers share the operators of Python numbers
_OBJECT_OPS = _vector_ops(operator.mul, operator.add, operator.sub, abs)

EXACT = Arithmetic(
    "exact", "exact", zero=0, encode=_exact_encode, decode=Fraction,
    # the reduced Fractions, as to_mpf rounds numerator and denominator apart
    quotient=lambda x, y, den: to_mpf(Fraction(abs(x), den)) / to_mpf(Fraction(y, den)),
    **_OBJECT_OPS)


def _complex(prec: int) -> Arithmetic:
    return Arithmetic(
        "complex", prec, zero=0, encode=lambda values: (values, 1), decode=lambda x, den: x,
        quotient=lambda x, y, den: to_mpf(abs(x)) / to_mpf(y), **_OBJECT_OPS)


def _real(prec: int) -> Arithmetic:
    make_mpf = mpmath.mp.make_mpf
    return Arithmetic(
        "real", prec, zero=fzero,
        encode=lambda values: ([v._mpf_ for v in values], 1),
        decode=lambda x, den: make_mpf(x),
        quotient=lambda x, y, den: make_mpf(
            mpf_div(mpf_abs(x, prec, round_nearest), y, prec, round_nearest)),
        **_vector_ops(mpf_mul, mpf_add, mpf_sub, mpf_abs, repeat(prec), repeat(round_nearest)))


def arithmetic(mode: str, values: Iterable = (), held: Iterable[Arithmetic] = ()) -> Arithmetic:
    """The arithmetic of ``mode`` at the current precision that holds
    the given values and the elements of the ``held`` arithmetics (of the
    same mode): exact; or float, complex when some value or held arithmetic
    is complex and real otherwise.  A held arithmetic that is already the
    one is returned as it is."""
    if mode == "exact":
        return EXACT
    if mode != "float":
        raise ValueError(f"unknown arithmetic mode {mode!r}")
    held, prec = tuple(held), mpmath.mp.prec
    name = "complex" if (any(a.name == "complex" for a in held)
                         or any(isinstance(v, (mpc, complex)) for v in values)) else "real"
    for a in held:
        if a.name == name and a.key == prec:
            return a
    return _complex(prec) if name == "complex" else _real(prec)


def float_tolerance() -> mpf:
    """Relative slack for float-mode coefficient comparison: 2^-(prec-16)."""
    return mpmath.ldexp(1, -(mpmath.mp.prec - 16))


def nonzero_threshold() -> mpf:
    """Modulus below which a float-mode coefficient counts as zero: 2^-(prec/2)."""
    return mpmath.ldexp(1, -(mpmath.mp.prec // 2))
