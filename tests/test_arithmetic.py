"""The kernel arithmetics: real float mode on raw ``mpmath.libmp`` tuples
computes, bit for bit, what the mpf objects compute.  Every coefficient is
exact or real: any other value ends in one ``TypeError`` naming it, and a
string with a zero denominator in one ``ValueError`` naming it."""

import re
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mpc
from mpmath.libmp import fzero

from mpde import (CauchyProblem, OperatorSpec, OperatorTerm, gamma_moment, make_series,
                  series_scale, solve_formal, zero_series)
from mpde.precision import EXACT, arithmetic, to_number

from helpers import zero_forcing

PRECISIONS = (53, 113, 256)

def tie(prec: int, high: int, odd: bool, neg: bool) -> int:
    """A mantissa exactly half-way between two of ``prec`` bits, the lower
    one odd or even."""
    kept = (1 << (prec - 1)) | (high % (1 << (prec - 2))) << 1 | odd
    return (-1) ** neg * (kept << 1 | 1)


# (mantissa, exponent, precision the value is rounded to): zeros, short and
# long mantissas of either sign, 2^k - 1 (which rounds up to a power of two)
# and exact half-way ties at a run precision, at the run's precision and at
# another one
ties = st.builds(tie, st.sampled_from(PRECISIONS), st.integers(0, 2 ** 64), st.booleans(),
                 st.booleans())
mantissas = st.one_of(
    st.just(0),
    st.integers(-2 ** 20, 2 ** 20),
    st.builds(lambda bits, low, neg: (-1) ** neg * ((1 << bits) | low),
              st.integers(0, 400), st.integers(0, 2 ** 64), st.booleans()),
    st.builds(lambda bits, neg: (-1) ** neg * ((1 << bits) - 1), st.integers(1, 520),
              st.booleans()),
    ties,
)
precisions = st.sampled_from(PRECISIONS + (512,))
values = st.tuples(mantissas, st.integers(-300, 300), precisions)
# a scalar may be exactly 1 or -1, at any precision
scalars = st.one_of(values, st.tuples(st.sampled_from([1, -1]), st.just(0), precisions))
# operand pairs: independent ones; x and -x, which cancel exactly; a tie
# split into two exact summands; and odd mantissas 100 or 101 bits apart
operand_pairs = st.one_of(
    st.tuples(values, values),
    values.map(lambda v: (v, (-v[0], *v[1:]))),
    st.builds(lambda t, small: ((t - small, 0, 512), (small, 0, 512)), ties,
              st.integers(1, 2 ** 20)),
    st.builds(lambda a, b, exp, gap: ((a | 1, exp, 512), (b | 1, exp + gap, 512)),
              st.integers(-2 ** 60, 2 ** 60), st.integers(-2 ** 60, 2 ** 60),
              st.integers(-300, 300), st.sampled_from([-101, -100, 100, 101])),
)


def to_mpf(value):
    man, exp, prec = value
    with mpmath.workprec(prec):
        return mpmath.ldexp(mpmath.mpf(man), exp)


def bits(xs) -> list:
    return [x._mpf_ for x in xs]


@settings(max_examples=300)
@given(prec=st.sampled_from(PRECISIONS), pairs=st.lists(operand_pairs, min_size=1, max_size=6),
       c=scalars)
def test_real_ops_equal_mpf_objects(prec, pairs, c):
    xs = [to_mpf(x) for x, _ in pairs]
    ys = [to_mpf(y) for _, y in pairs]
    c = to_mpf(c)
    with mpmath.workprec(prec):
        arith = arithmetic("float")
        assert arith.name == "real" and arith.key == prec
        ex, den = arith.encode(xs)
        ey, _ = arith.encode(ys)
        assert den == 1
        (ec,), _ = arith.encode([c])
        assert arith.mul(ex, ey) == bits(x * y for x, y in zip(xs, ys))
        assert arith.scale(ec, ex) == bits(c * x for x in xs)
        assert arith.add(ex, ey) == bits(x + y for x, y in zip(xs, ys))
        assert arith.sub(ex, ey) == bits(x - y for x, y in zip(xs, ys))
        assert arith.abs(ex) == bits(abs(x) for x in xs)
        assert arith.add_scaled(ex, ec, ey) == bits(x + c * y for x, y in zip(xs, ys))
        assert arith.add_abs(ex, ey) == bits(x + abs(y) for x, y in zip(xs, ys))
        for x, y, a, b in zip(ex, ey, xs, ys):
            if b:
                assert (arith.quotient(x, arith.abs([y])[0], 1, mpmath.mpf(0))._mpf_
                        == (abs(a) / abs(b))._mpf_)
        assert bits(arith.decode(x, den) for x in ex) == bits(xs)
        # x + (-x) and x - x cancel to exactly the zero element (x at the precision)
        at_prec = [+x for x in xs]
        negated, _ = arith.encode([-x for x in at_prec])
        assert arith.add(arith.encode(at_prec)[0], negated) == [fzero] * len(xs)
        assert arith.sub(ex, ex) == [fzero] * len(xs)
        assert arith.scale(arith.zero, ex) == [fzero] * len(xs)


@settings(max_examples=300)
@given(prec=st.sampled_from(PRECISIONS), pair=operand_pairs, c=values)
def test_real_quotient_divides_only_above_its_bound(prec, pair, c):
    # the quotient returns its bound only when |x|/y rounds to at most the
    # bound, and the bits of |x|/y otherwise; just above the rounded
    # quotient, the bound is returned without dividing
    a, b = to_mpf(pair[0]), abs(to_mpf(pair[1]))
    if not b:
        return
    with mpmath.workprec(prec):
        arith = arithmetic("float")
        (x, y), _ = arith.encode([a, b])
        want = abs(a) / b
        step = mpmath.ldexp(1, 2 - prec)
        for bound in (mpmath.mpf(0), want, want * (1 - step), want * (1 + step), +to_mpf(c)):
            q = arith.quotient(x, y, 1, bound)
            if q is bound:
                assert want <= bound
            else:
                assert q._mpf_ == want._mpf_
        at_prec = a._mpf_[3] <= prec and b._mpf_[3] <= prec
        if a and at_prec:
            bound = want * (1 + step)
            assert arith.quotient(x, y, 1, bound) is bound


def test_zero_element_is_mpf_zero():
    arith = arithmetic("float")
    assert arith.zero == mpmath.mpf(0)._mpf_ == fzero
    assert arith.decode(arith.zero, 1) == 0


def test_arithmetic_is_derived_from_the_data():
    assert arithmetic("exact") is EXACT
    assert arithmetic("float").name == "real" and arithmetic("float") is arithmetic("float")
    with mpmath.workprec(53):
        at_53 = arithmetic("float")
        assert arithmetic("float") == at_53
    assert at_53.key == 53 and arithmetic("float") != at_53
    with pytest.raises(ValueError):
        arithmetic("interval")


integers = st.integers(-2 ** 70, 2 ** 70)


@given(pairs=st.lists(st.tuples(integers, integers), max_size=6),
       c=st.one_of(st.sampled_from([1, -1, 0]), integers))
def test_exact_scaling_equals_integer_arithmetic(pairs, c):
    # a scale by exactly 1 or -1 copies, negates, adds or subtracts
    xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
    scaled = EXACT.scale(c, xs)
    assert scaled == [c * x for x in xs] and scaled is not xs
    assert EXACT.scale(c, iter(xs)) == scaled
    summed = EXACT.add_scaled(xs, c, ys)
    assert summed == [x + c * y for x, y in zip(xs, ys)] and summed is not xs


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_bool_is_not_a_coefficient(mode):
    with pytest.raises(TypeError, match="bool is not a coefficient"):
        make_series(1, {(0,): True}, 2, mode)


@pytest.mark.parametrize("value", [mpc(1, 2), complex(0, 1)], ids=["mpc", "complex"])
def test_complex_value_is_one_type_error_naming_it(value):
    # a series value, a scalar and an operator coefficient through the solve
    # each end in the conversion, not in a kernel
    named = re.escape(repr(value))
    g1 = gamma_moment(1)
    spec = OperatorSpec(M=1, m0=g1, m=(g1,),
                        terms=(OperatorTerm(j=0, alpha=(1,), coeff=(value,)),))
    for mode in ("exact", "float"):
        with pytest.raises(TypeError, match=named):
            make_series(1, {(1,): value}, 2, mode)
        with pytest.raises(TypeError, match=named):
            series_scale(make_series(1, {(1,): 1}, 2, mode), value)
        prob = CauchyProblem(spec=spec, initial=(zero_series(1, 4, mode),),
                             forcing=zero_forcing(spec, 4, 0, mode))
        with pytest.raises(TypeError, match=named):
            solve_formal(prob, 4, 0)


# each call that reads a coefficient string
ZERO_DENOMINATOR_READS = {
    "to_number_exact": lambda: to_number("1/0", "exact"),
    "to_number_float": lambda: to_number("1/0", "float"),
    "operator_term": lambda: OperatorTerm(j=0, alpha=(1,), coeff=("1/0",)),
    "make_series": lambda: make_series(1, {(0,): "1/0"}, 0),
}


@pytest.mark.parametrize("read", ZERO_DENOMINATOR_READS.values(),
                         ids=ZERO_DENOMINATOR_READS.keys())
def test_zero_denominator_string_is_one_value_error_naming_it(read):
    with pytest.raises(ValueError, match=re.escape("'1/0'")):
        read()
