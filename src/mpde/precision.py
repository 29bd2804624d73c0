"""Arbitrary-precision arithmetic helpers shared by every module.

All big-float computation goes through mpmath at the precision of its
global context.  ``pipeline.run`` scopes that precision to one run with
``mpmath.workprec`` and restores it afterwards; tests pin it in a fixture.
Exact-mode series hold ``fractions.Fraction`` coefficients; the hot kernels
compute on integer numerators over a common denominator, the kernel form of
``series`` (``to_kernel``/``from_kernel``).  Exact mode never touches the
float context.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath
from mpmath import mpc, mpf

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


def float_tolerance() -> mpf:
    """Relative slack for float-mode coefficient comparison: 2^-(prec-16)."""
    return mpmath.ldexp(1, -(mpmath.mp.prec - 16))


def nonzero_threshold() -> mpf:
    """Modulus below which a float-mode coefficient counts as zero: 2^-(prec/2)."""
    return mpmath.ldexp(1, -(mpmath.mp.prec // 2))
