"""``linalg.Matrix`` against an independent dense reference.

The reference keeps a matrix as dense rows of (re, im) pairs of ``Fraction``
and computes every product, trace, inverse and vector map entry by entry.
``Matrix`` keeps Gaussian-integer numerator rows over one denominator and
reduces each result once, so every result is also checked for the canonical
form: den >= 1, no stored zero, gcd(den, all numerators) = 1 and den = 1 for
the zero matrix.  The strategies draw sparse entries over the denominators
1, 2, 3, 4 and 12, results that cancel to the zero matrix, and results whose
numerators share a factor with the denominator of the product or sum.
``--hypothesis-show-statistics`` lists how often each was reached.
"""

from fractions import Fraction
from itertools import chain
from math import gcd, lcm

import pytest
from hypothesis import event, given, settings, strategies as st

from symtriple.errors import ValidationError
from symtriple.linalg import Matrix, comm, inverse, trace_product
from symtriple.scalars import GaussianRational, ZERO

from conftest import apply, bilinear, combination, comm_minus, integer_terms

Z = (Fraction(0), Fraction(0))


def _pair(x: GaussianRational) -> tuple:
    return (x.re, x.im)


def _mul(p, q):
    return (p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0])


def _add(p, q):
    return (p[0] + q[0], p[1] + q[1])


def _div(p, q):
    n = q[0] * q[0] + q[1] * q[1]
    return ((p[0] * q[0] + p[1] * q[1]) / n, (p[1] * q[0] - p[0] * q[1]) / n)


def dense_values(m: Matrix) -> list:
    return [[m[i, j] for j in range(m.cols)] for i in range(m.rows)]


def dense(m: Matrix) -> list:
    return [[_pair(x) for x in row] for row in dense_values(m)]


def _sum(pairs) -> tuple:
    out = Z
    for p in pairs:
        out = _add(out, p)
    return out


def ref_matmul(a: list, b: list) -> list:
    return [
        [_sum(_mul(a[i][k], b[k][j]) for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def ref_axpy(y: list, c: tuple, x: list) -> list:
    """y + c x, entrywise."""
    return [[_add(u, _mul(c, v)) for u, v in zip(ry, rx)] for ry, rx in zip(y, x)]


def ref_inverse(a: list):
    """Gauss-Jordan on [a | I]; None when a is singular."""
    n = len(a)
    one = (Fraction(1), Fraction(0))
    rows = [list(r) + [one if j == i else Z for j in range(n)] for i, r in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col] != Z), None)
        if piv is None:
            return None
        rows[col], rows[piv] = rows[piv], rows[col]
        rows[col] = [_div(x, rows[col][col]) for x in rows[col]]
        for r in range(n):
            c = rows[r][col]
            if r != col and c != Z:
                rows[r] = [_add(x, _mul((-c[0], -c[1]), y)) for x, y in zip(rows[r], rows[col])]
    return [r[n:] for r in rows]


def assert_canonical(m: Matrix) -> Matrix:
    assert m.den >= 1
    nums = list(chain.from_iterable(chain.from_iterable(r.values() for r in m.num.values())))
    assert all(row for row in m.num.values())
    assert all(z != (0, 0) for row in m.num.values() for z in row.values())
    assert all(0 <= i < m.rows for i in m.num)
    assert all(0 <= j < m.cols for row in m.num.values() for j in row)
    assert gcd(m.den, *nums) == 1  # den = 1 for the zero matrix
    return m


DENOMINATORS = (1, 2, 3, 4, 12)
_scalars = st.builds(
    GaussianRational, st.integers(-6, 6), st.integers(-3, 3), st.sampled_from(DENOMINATORS)
)
_cells = st.one_of(st.just(ZERO), st.just(ZERO), _scalars)


@st.composite
def square(draw, n=None):
    n = n or draw(st.integers(1, 3))
    return Matrix.from_rows([[draw(_cells) for _ in range(n)] for _ in range(n)])


@st.composite
def product_cases(draw):
    n = draw(st.integers(1, 3))
    a, b = draw(square(n)), draw(square(n))
    terms = draw(st.lists(st.tuples(_scalars | st.integers(-3, 3), square(n)), max_size=3))
    if draw(st.booleans()):  # make the result cancel: subtract [a, b] itself
        terms += [(1, a @ b), (-1, b @ a)]
    return a, b, [(GaussianRational(c) if isinstance(c, int) else c, m) for c, m in terms]


@settings(max_examples=80)
@given(product_cases())
def test_products_match_reference(case):
    a, b, terms = case
    da, db = dense(a), dense(b)
    ab = assert_canonical(a @ b)
    assert dense(ab) == ref_matmul(da, db)
    if not ab.is_zero() and ab.den < a.den * b.den:
        event("@ numerators share a factor with a.den * b.den")
    assert dense(assert_canonical(a.transpose())) == [list(r) for r in zip(*da)]
    t = _sum(_mul(da[i][k], db[k][i]) for i in range(len(da)) for k in range(len(da)))
    assert _pair(trace_product(a, b)) == t == _pair(ab.trace())

    want_comb = [[Z] * a.cols for _ in range(a.rows)]
    want_comm = ref_axpy(ref_matmul(da, db), (Fraction(-1), Fraction(0)), ref_matmul(db, da))
    x = assert_canonical(comm(a, b))
    assert dense(x) == want_comm
    for c, m in terms:
        want_comb = ref_axpy(want_comb, _pair(c), dense(m))
    rest = assert_canonical(combination(terms, a.rows))
    assert dense(rest) == want_comb
    got = assert_canonical(x - rest)
    assert dense(got) == ref_axpy(want_comm, (Fraction(-1), Fraction(0)), want_comb)
    total = assert_canonical(rest + x)
    assert dense(total) == ref_axpy(want_comb, (Fraction(1), Fraction(0)), want_comm)
    assert comm_minus(a, b, *integer_terms(terms)) == got
    ba = b @ a
    sums = ((ab, ba, x), (x, rest, got), (rest, x, total))
    if any(s.is_zero() and not (u.is_zero() and v.is_zero()) for u, v, s in sums):
        event("+ or - cancels to the zero matrix")
    if any(not s.is_zero() and s.den < lcm(u.den, v.den) for u, v, s in sums):
        event("+ or - numerators share a factor with the lcm of the denominators")


@settings(max_examples=60)
@given(square(), st.sampled_from((2, 3, 4, 6, 12)))
def test_scaled_numerators_reduce(m, k):
    # the same matrix with numerators and denominator multiplied by k
    num = {i: {j: (x * k, y * k) for j, (x, y) in row.items()} for i, row in m.num.items()}
    same = Matrix.from_numerators(m.rows, m.cols, num, m.den * k)
    assert assert_canonical(same) == m and hash(same) == hash(m)
    assert Matrix.from_rows(dense_values(m)) == m
    # k * m: the numerators of the sum share the factor k with its denominator
    scaled = assert_canonical(combination([(GaussianRational(1, 0, k), m)] * k, m.rows))
    assert scaled == m and hash(scaled) == hash(m)
    if m.den > 1 and gcd(m.den, k) > 1:
        event("a scalar multiple shares a factor with den")
    assert assert_canonical(combination([(k, m)], m.rows)) == combination([(1, m)] * k, m.rows)
    bumped = m + Matrix(m.rows, m.cols, {0: {0: GaussianRational(1, 0, 12)}})
    assert bumped != m and dense(bumped)[0][0] == _add(dense(m)[0][0], (Fraction(1, 12), 0))
    assert assert_canonical(m - m) == Matrix(m.rows, m.cols) and (m - m).den == 1


@settings(max_examples=50)
@given(st.data())
def test_vector_maps_match_reference(data):
    rows, cols = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    m = Matrix.from_rows([[data.draw(_cells) for _ in range(cols)] for _ in range(rows)])
    x = tuple(data.draw(_cells) for _ in range(rows))
    y = tuple(data.draw(_cells) for _ in range(cols))
    dm = dense(m)
    want = [_sum(_mul(dm[i][j], _pair(y[j])) for j in range(cols)) for i in range(rows)]
    assert [_pair(v) for v in apply(m, y)] == want
    assert _pair(bilinear(m, x, y)) == _sum(_mul(_pair(x[i]), want[i]) for i in range(rows))


@settings(max_examples=60)
@given(square())
def test_inverse_matches_reference(m):
    want = ref_inverse(dense(m))
    if want is None:
        event("singular")
        with pytest.raises(ValidationError):
            inverse(m)
        return
    inv = assert_canonical(inverse(m))
    assert dense(inv) == want
    assert m @ inv == Matrix.identity(m.rows) == inv @ m
    event("invertible, den %s" % ("1" if inv.den == 1 else "> 1"))
