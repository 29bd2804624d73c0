"""The vector operations of ``mpde.series`` against per-coefficient
arithmetic on the ``coeffs`` dicts (``tests/helpers.py``): exact, real float
and complex float series in 1-3 variables, of unequal valid degrees, over
denominators that are not the least, with zeros, short vectors and vectors
padded with zeros, as the majorant stores them.  Float results agree bit
for bit."""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mpc, mpf

from mpde import (borel_z, dilate, evaluate, gamma_moment, majorant, majorizes, make_series,
                  series_add, series_scale, sup_bound)
from mpde.series import MultiSeries, graded_count, graded_rank, indices_up_to

from helpers import (add_reference, borel_z_reference, dilate_reference, evaluate_reference,
                     majorant_reference, majorizes_reference, scale_reference,
                     sup_bound_reference)

KINDS = ("exact", "real", "complex")
# more draws than the suite's default where denominators matter: the exact
# cases are a third of them
MANY = settings(max_examples=120)

fractions = st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, 4, 6, 9]))


def values(kind: str):
    if kind == "exact":
        return fractions
    reals = st.one_of(fractions.map(lambda x: mpf(x.numerator) / x.denominator),
                      st.builds(lambda m, e: mpmath.ldexp(mpf(m), e),
                                st.integers(-2 ** 60, 2 ** 60), st.integers(-80, 20)))
    if kind == "real":
        return reals
    return st.one_of(reals, st.builds(mpc, reals, reals))


@st.composite
def series(draw, kind: str, dim: int, degree: int = 6) -> MultiSeries:
    """A series valid to at most ``degree``, as make_series builds it (a
    vector that ends at its last nonzero entry), or with its values over a
    larger denominator, or padded: explicit zeros between and after the
    values, up to a drawn length no greater than the graded count."""
    vd = draw(st.integers(0, degree))
    indices = list(indices_up_to(dim, vd))
    entries = draw(st.dictionaries(st.sampled_from(indices), values(kind), max_size=8))
    f = make_series(dim, entries, vd, "exact" if kind == "exact" else "float")
    layout = draw(st.sampled_from(("made", "denominator", "padded")))
    if layout == "denominator" and kind == "exact":
        k = draw(st.integers(2, 6))
        return MultiSeries(dim, f.arithmetic, [k * x for x in f.vec], k * f.den, vd)
    if layout == "padded":
        length = draw(st.integers(len(f.vec), graded_count(dim, vd)))
        return MultiSeries(dim, f.arithmetic, f.dense(length), f.den, vd)
    return f


def pairs(same_mode: bool = True):
    """Two series of one dimension; float ones may be one real, one complex."""
    @st.composite
    def draw_pair(draw):
        dim = draw(st.integers(1, 3))
        kind = draw(st.sampled_from(KINDS))
        other = kind
        if kind != "exact" or not same_mode:
            other = draw(st.sampled_from(KINDS if not same_mode else ("real", "complex")))
        return draw(series(kind, dim)), draw(series(other, dim))
    return draw_pair()


def any_series():
    return st.integers(1, 3).flatmap(
        lambda dim: st.sampled_from(KINDS).flatmap(lambda kind: series(kind, dim)))


@MANY
@given(pairs())
def test_series_add(pair):
    a, b = pair
    want, vd = add_reference(a, b)
    got = series_add(a, b)
    assert got.valid_degree == vd and got.coeffs == want


@MANY
@given(any_series(), st.one_of(fractions, values("complex")))
def test_series_scale(f, scalar):
    if f.mode == "exact" and not isinstance(scalar, Fraction):
        return
    got = series_scale(f, scalar)
    assert got.valid_degree == f.valid_degree and got.coeffs == scale_reference(f, scalar)
    if f.mode == "exact":
        assert math.gcd(got.den, *got.vec) == 1    # the least denominator


@given(any_series())
def test_majorant(f):
    got = majorant(f)
    assert got.valid_degree == f.valid_degree and got.coeffs == majorant_reference(f)


@given(any_series(), st.sampled_from([Fraction(1, 2), 2, Fraction(3, 7), "0.3", 1.25]))
def test_sup_bound(f, r):
    assert sup_bound(f, r) == sup_bound_reference(f, r)


@MANY
@given(pairs(same_mode=False), st.sampled_from([None, -1, Fraction(1, 2), Fraction(7, 6)]))
def test_majorizes(pair, c):
    # f is the other series, or the first one times c, which the majorant
    # of the first one dominates when |c| <= 1
    g, f = majorant(pair[0]), pair[1] if c is None else series_scale(pair[0], c)
    assert majorizes(g, f) == majorizes_reference(g, f)


def test_majorizes_compares_values_over_denominators():
    third, half = (make_series(1, {(0,): Fraction(1, d)}, 0) for d in (3, 2))
    assert majorizes(half, third) and not majorizes(third, half)


def test_majorizes_rejects_negative_and_complex_majorants():
    f = make_series(2, {(1, 0): 1}, 2)
    with pytest.raises(ValueError):
        majorizes(make_series(2, {(0, 1): -1}, 2), f)
    with pytest.raises(ValueError):
        majorizes(make_series(2, {(0, 1): mpc(1, 1)}, 2, "float"), f)


@given(any_series(), st.booleans(), st.data())
def test_borel_z(f, inverse, data):
    orders = [1, 2] if f.mode == "exact" else [Fraction(1, 2), 1, Fraction(3, 2)]
    m_prime = [gamma_moment(data.draw(st.sampled_from(orders))) for _ in range(f.dim)]
    got = borel_z(f, m_prime, inverse)
    assert got.valid_degree == f.valid_degree
    assert got.coeffs == borel_z_reference(f, m_prime, inverse)


@given(any_series(), st.data())
def test_evaluate(f, data):
    point = data.draw(st.lists(st.one_of(fractions, values("complex")),
                               min_size=f.dim, max_size=f.dim))
    assert evaluate(f, point) == evaluate_reference(f, point)


@given(any_series(), values("real").filter(bool), fractions.filter(bool))
def test_dilate(f, constant, h):
    got = dilate(f, constant, h)
    assert got.mode == "float" and got.valid_degree == f.valid_degree
    assert got.coeffs == dilate_reference(f, constant, h)


@given(any_series())
def test_coefficient_reads_the_coefficient_dict(f):
    zero = Fraction(0) if f.mode == "exact" else mpf(0)
    for alpha in indices_up_to(f.dim, f.valid_degree + 1):
        assert f.coefficient(alpha) == f.coeffs.get(alpha, zero)
    assert f.coefficient((0,) * (f.dim + 1)) == zero


@given(st.integers(1, 3).flatmap(lambda dim: st.tuples(
    st.just(dim), st.dictionaries(st.sampled_from(list(indices_up_to(dim, 5))),
                                  values("complex"), max_size=8))))
def test_coeffs_decode_what_make_series_encodes(case):
    dim, entries = case
    f = make_series(dim, entries, 5, "float")
    assert f.coeffs == {alpha: v for alpha, v in entries.items() if v != 0}
    assert list(f.coeffs) == sorted(f.coeffs, key=lambda a: (sum(a), a))
    # the complex arithmetic only when some value is complex
    assert (f.arithmetic.name == "complex") == any(isinstance(v, mpc) for v in f.coeffs.values())


@given(st.integers(1, 3).flatmap(lambda dim: series("exact", dim)), st.integers(2, 30))
def test_equality_is_by_value_across_denominators(f, k):
    wider = MultiSeries(f.dim, f.arithmetic, [k * x for x in f.vec], k * f.den, f.valid_degree)
    assert wider == f and wider.den != f.den
    bumped = series_add(f, make_series(f.dim, {(0,) * f.dim: Fraction(1, k)}, f.valid_degree))
    assert bumped != f


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_rank_map_round_trip(dim):
    indices = list(indices_up_to(dim, 30))
    for r, alpha in enumerate(indices):
        assert graded_rank(alpha) == r
    for degree in range(31):
        assert graded_count(dim, degree) == sum(1 for a in indices if sum(a) <= degree)


@given(st.integers(1, 3).flatmap(lambda dim: series("real", dim)), values("real").filter(bool))
def test_built_at_53_bits_operated_at_256(drawn, scalar):
    dim = drawn.dim
    with mpmath.workprec(53):
        f = make_series(dim, {a: +v for a, v in drawn.coeffs.items()}, drawn.valid_degree,
                        "float")
        g = majorant(f)
    assert mpmath.mp.prec == 256 and f.arithmetic.key == 53
    want, vd = add_reference(f, g)
    assert series_add(f, g).coeffs == want
    assert series_scale(f, scalar).coeffs == scale_reference(f, scalar)
    assert majorant(f).coeffs == majorant_reference(f)
    assert sup_bound(f, Fraction(1, 3)) == sup_bound_reference(f, Fraction(1, 3))
    assert dilate(f, scalar, 3).coeffs == dilate_reference(f, scalar, 3)
    m_prime = [gamma_moment(Fraction(1, 2))] * dim
    assert borel_z(f, m_prime).coeffs == borel_z_reference(f, m_prime)
    point = [Fraction(1, 3)] * dim
    assert evaluate(f, point) == evaluate_reference(f, point)
