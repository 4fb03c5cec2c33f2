from fractions import Fraction
from math import gcd

import pytest
from hypothesis import event, given, strategies as st

from symtriple.scalars import GaussianRational, HALF, I, ONE, ZERO, qi


small_rationals = st.builds(
    Fraction,
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=1, max_value=12),
)
scalars = st.builds(GaussianRational.from_fractions, small_rationals, small_rationals)
small_ints = st.integers(min_value=-30, max_value=30)
# Gaussian integers, values over a few shared denominators, and general
# values, so that sums and products that reduce are drawn often
mixed_scalars = st.one_of(
    st.builds(GaussianRational, small_ints, small_ints),
    st.builds(GaussianRational, small_ints, small_ints, st.sampled_from((2, 3, 4, 6))),
    scalars,
)


def assert_canonical(q):
    assert type(q) is GaussianRational
    assert q.d >= 1 and gcd(q.a, q.b, q.d) == 1
    if not (q.a or q.b):
        assert (q.a, q.b, q.d) == (0, 0, 1)


def test_canonical_form():
    q = GaussianRational(2, 4, 6)
    assert (q.a, q.b, q.d) == (1, 2, 3)
    q = GaussianRational(1, 0, -2)
    assert (q.a, q.b, q.d) == (-1, 0, 2)
    with pytest.raises(ZeroDivisionError):
        GaussianRational(1, 1, 0)


def test_basic_arithmetic():
    assert qi(3) / qi(4) == qi("3/4")
    assert I * I == qi(-1)
    assert ONE / I == -I
    assert qi("2i") * qi("3i") == qi(-6)
    assert (qi(3) + Fraction(1, 2)) == qi("7/2")
    assert qi(5).inverse() * qi(5) == ONE
    assert HALF + HALF == ONE
    assert qi("1+i") * qi("1-i") == qi(2)
    assert qi("1+i") ** 4 == qi(-4)
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_parse_and_format_round_trip():
    for s in ["0", "-7", "1/3", "i", "-i", "2/3i", "5-i", "-1/2+7/9i", "23i"]:
        assert str(qi(s)) == s
    assert qi("3/4i").im == Fraction(3, 4)
    assert qi("3/4-2/5i").re == Fraction(3, 4)
    for bad in ["", "+-3", "1/0", "2/00", "1/0i", "3-1/0i", "x", "3..2", "i2"]:
        with pytest.raises(ValueError):
            qi(bad)


def test_hashing_matches_stdlib():
    assert hash(qi(3)) == hash(3) == hash(Fraction(3))
    assert hash(qi("1/2")) == hash(Fraction(1, 2))
    assert qi(3) == 3 and qi("1/2") == Fraction(1, 2)
    assert qi("i") != 1


def test_conjugate_and_parts():
    z = qi("3/4-2/5i")
    assert z.conjugate() == qi("3/4+2/5i")
    assert z * z.conjugate() == qi(str(Fraction(9, 16) + Fraction(4, 25)))
    assert ZERO.is_real and not I.is_real


def test_unknown_types_are_rejected():
    for bad in (0.5, None, 1j):
        with pytest.raises(TypeError):
            qi(bad)
    # the constructor keeps the integer invariant, also over denominator 1
    for bad in (0.5, Fraction(1, 2)):
        with pytest.raises(TypeError):
            GaussianRational(bad)
    # the operators still defer, so Python raises TypeError for them too
    with pytest.raises(TypeError):
        ONE + 0.5
    with pytest.raises(TypeError):
        0.5 * ONE
    assert ONE != 1.0


@given(scalars, scalars, scalars)
def test_field_laws(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x
    assert x - x == ZERO
    if y:
        assert (x / y) * y == x


@given(scalars)
def test_string_round_trip(x):
    assert qi(str(x)) == x


@st.composite
def sum_of_product_operands(draw):
    """(y, c, x); half the time y lies over the denominator of c * x, so that
    y + c * x sums over equal denominators."""
    c, x = draw(mixed_scalars), draw(mixed_scalars)
    if draw(st.booleans()):
        d = c.d * x.d
        y = GaussianRational(1 + d * draw(small_ints), draw(small_ints), d)
    else:
        y = draw(mixed_scalars)
    return y, c, x


@given(sum_of_product_operands())
def test_fast_paths_are_canonical(operands):
    y, c, x = operands
    prod = c * x
    if y.d != prod.d:
        event("+: unlike denominators")
    else:
        event(f"+: equal denominators {'1' if y.d == 1 else '> 1'}")
    got = y + prod
    re = y.re + c.re * x.re - c.im * x.im
    im = y.im + c.re * x.im + c.im * x.re
    assert (got.re, got.im) == (re, im)
    for q in (got, prod, y + c, y - c, y * c, -y, y.conjugate(), y + y, y - y):
        assert_canonical(q)


def test_add_mul_takes_int_and_fraction_operands():
    assert qi("1/2") + 2 * qi(3) == qi("13/2")
    assert qi("1/2") + qi(3) * 2 == qi("13/2")
    assert ONE + qi("i") * Fraction(1, 3) == qi("1+1/3i")
    assert ONE + Fraction(1, 3) * qi("i") == qi("1+1/3i")
    assert ZERO + ZERO * I == ZERO
    with pytest.raises(TypeError):
        ONE + ONE * 0.5


def _parts(q):
    """(re, im) of a GaussianRational, int or Fraction, as Fractions."""
    if isinstance(q, GaussianRational):
        return q.re, q.im
    return Fraction(q), Fraction(0)


@given(mixed_scalars, st.one_of(mixed_scalars, small_ints, small_rationals))
def test_operators_are_canonical(x, y):
    """+, -, *, /, negation and conjugate give the exact value in canonical
    form, also with an int or Fraction on either side."""
    (xr, xi), (yr, yi) = _parts(x), _parts(y)
    want = [
        (x + y, (xr + yr, xi + yi)),
        (y + x, (xr + yr, xi + yi)),
        (x - y, (xr - yr, xi - yi)),
        (y - x, (yr - xr, yi - xi)),
        (x * y, (xr * yr - xi * yi, xr * yi + xi * yr)),
        (y * x, (xr * yr - xi * yi, xr * yi + xi * yr)),
        (-x, (-xr, -xi)),
        (x.conjugate(), (xr, -xi)),
        (x - x, (0, 0)),
    ]
    if y:
        n = yr * yr + yi * yi
        want.append((x / y, ((xr * yr + xi * yi) / n, (xi * yr - xr * yi) / n)))
    if x:
        n = xr * xr + xi * xi
        want.append((y / x, ((yr * xr + yi * xi) / n, (yi * xr - yr * xi) / n)))
    for got, parts in want:
        assert_canonical(got)
        assert _parts(got) == parts
