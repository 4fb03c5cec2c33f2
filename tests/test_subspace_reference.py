"""``linalg.Subspace`` against an independent dense Gauss-Jordan elimination.

The reference keeps dense reduced-row-echelon rows of (re, im) pairs of
``Fraction``, with no integer rows, denominators or column index.  The
strategies draw sparse Gaussian-rational vectors with mixed denominators,
some scaled by an integer or Gaussian-integer factor (content > 1) and some
combinations of earlier ones (rejected), so pivots come out imaginary,
negative and positive, and back-elimination both fills in and cancels
entries.  ``--hypothesis-show-statistics`` lists how often each was reached.
The reference takes each vector as drawn, ``Subspace`` with its denominators
cleared: a span does not change under scaling.
"""

from fractions import Fraction
from math import gcd, lcm

from hypothesis import event, example, given, settings, strategies as st

from symtriple.linalg import Matrix, Subspace, kernel, vec
from symtriple.scalars import GaussianRational, ZERO, qi

from conftest import cleared

Z = (Fraction(0), Fraction(0))


def _pair(x: GaussianRational) -> tuple:
    return (x.re, x.im)


def _mul(p, q):
    return (p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0])


def _sub(p, q):
    return (p[0] - q[0], p[1] - q[1])


def _div(p, q):
    n = q[0] * q[0] + q[1] * q[1]
    return ((p[0] * q[0] + p[1] * q[1]) / n, (p[1] * q[0] - p[0] * q[1]) / n)


class Reference:
    """Plain Gauss-Jordan elimination on dense rows of pairs of Fraction."""

    def __init__(self, n: int):
        self.n = n
        self.rows = {}  # pivot -> dense row with 1 at the pivot

    def reduce(self, v: list) -> list:
        for p, row in self.rows.items():
            c = v[p]
            if c != Z:
                v = [_sub(x, _mul(c, y)) for x, y in zip(v, row)]
        return v

    def insert(self, v: list) -> bool:
        v = self.reduce(v)
        nonzero = [k for k, x in enumerate(v) if x != Z]
        if not nonzero:
            return False
        p = nonzero[0]
        v = [_div(x, v[p]) for x in v]
        for q, row in self.rows.items():
            c = row[p]
            if c != Z:
                new = [_sub(x, _mul(c, y)) for x, y in zip(row, v)]
                if any(x == Z and y != Z for x, y in zip(row, new)):
                    event("back-elimination fills in an entry")
                if any(x != Z and y == Z for k, (x, y) in enumerate(zip(row, new)) if k != p):
                    event("back-elimination cancels an entry")
                self.rows[q] = new
        self.rows[p] = v
        return True

    def coords(self, v: list):
        if any(x != Z for x in self.reduce(v)):
            return None
        return tuple(v[p] for p in sorted(self.rows))


def _dense(v, n: int) -> list:
    if isinstance(v, dict):
        return [_pair(v.get(k, ZERO)) for k in range(n)]
    return [_pair(qi(x)) for x in v]


def _classify(v: list, ref: Reference) -> None:
    """Record which branch of the normalization inserting ``v`` reaches."""
    nonzero = [x for x in v if x != Z]
    if nonzero:
        den = lcm(*(c.denominator for x in nonzero for c in x))
        if gcd(*(int(c * den) for x in nonzero for c in x)) > 1:
            event("input with integer content > 1")
    w = ref.reduce(v)
    lead = next((x for x in w if x != Z), None)
    if lead is None:
        event("rejected")
    elif lead[1]:
        event("imaginary pivot")
    elif lead[0] < 0:
        event("negative pivot")
    else:
        event("positive pivot")


def assert_matches(s: Subspace, ref: Reference, probes: list) -> None:
    n = ref.n
    assert s.pivots == tuple(sorted(ref.rows))
    assert [_dense(row, n) for row in s.rows] == [ref.rows[p] for p in s.pivots]
    # equal subspaces hold equal rows, whatever order built them
    rebuilt = Subspace.span((cleared(row)[0] for row in reversed(s.rows)), n)
    assert rebuilt == s and hash(rebuilt) == hash(s)
    for v in probes:
        want = ref.coords(_dense(v, n))
        w, den = cleared(v)
        assert s.contains(w) == (want is not None)
        got = s.coords_of(w)
        assert (got is None) == (want is None)
        if got is not None:
            assert tuple(_pair(x / den) for x in got) == want


_entries = st.builds(GaussianRational, st.integers(-3, 3), st.integers(-2, 2), st.integers(1, 4))
_nonzero = st.one_of(
    st.builds(GaussianRational, st.sampled_from((-3, -2, -1, 1, 2, 3)), st.integers(-2, 2),
              st.integers(1, 4)),
    st.builds(GaussianRational, st.just(0), st.sampled_from((-2, -1, 1, 2)), st.integers(1, 4)),
)
_sparse_entries = st.one_of(st.just(ZERO), st.just(ZERO), _entries)
_factors = st.sampled_from(
    (qi(1), qi(2), qi(-3), GaussianRational(0, 2), GaussianRational(1, 1), GaussianRational(2, -4, 3))
)


@st.composite
def insert_sequences(draw):
    """An ambient dimension and vectors, dense or sparse, to insert in order."""
    n = draw(st.integers(1, 7))
    vectors = []
    for _ in range(draw(st.integers(1, 8))):
        if vectors and draw(st.integers(0, 3)) == 0:
            # a combination of earlier vectors, which must be rejected
            coeffs = draw(st.lists(_entries, min_size=len(vectors), max_size=len(vectors)))
            v = [ZERO] * n
            for c, u in zip(coeffs, vectors):
                dense = [u.get(k, ZERO) for k in range(n)] if isinstance(u, dict) else u
                v = [x + c * y for x, y in zip(v, dense)]
        else:
            # one to three nonzero entries, often at adjacent indices: a chain
            # e_i + c e_(i+1), e_(i+1) + c' e_(i+2) makes back-elimination fill in
            if draw(st.booleans()):
                i = draw(st.integers(0, n - 1))
                support = {k: draw(_nonzero) for k in range(i, min(i + 2, n))}
            else:
                support = draw(st.dictionaries(st.integers(0, n - 1), _nonzero, min_size=1, max_size=3))
            c = draw(_factors)
            v = [c * support.get(k, ZERO) for k in range(n)]
        if draw(st.booleans()):
            v = {k: x for k, x in enumerate(v) if x}
        vectors.append(v)
    probes = draw(st.lists(st.lists(_sparse_entries, min_size=n, max_size=n), max_size=3))
    return n, vectors, probes


@settings(max_examples=100)
@given(insert_sequences())
# e_1 + e_2 clears pivot 1 from e_0 + e_1 and fills in column 2 of that row,
# which e_2 must then clear
@example((3, [vec([1, 1, 0]), vec([0, 1, 1]), vec([0, 0, 1])], []))
def test_subspace_matches_dense_reference(case):
    n, vectors, probes = case
    s, ref = Subspace(n), Reference(n)
    for v in vectors:
        _classify(_dense(v, n), ref)
        out, grew = s.insert(cleared(v)[0])
        assert out is s
        assert grew == ref.insert(_dense(v, n))
    assert s.dim == len(ref.rows)
    assert_matches(s, ref, [*vectors, *probes])


@settings(max_examples=40)
@given(
    st.lists(st.lists(_sparse_entries, min_size=4, max_size=4), min_size=1, max_size=3),
    st.lists(st.lists(_sparse_entries, min_size=4, max_size=4), max_size=4),
)
def test_kernel_extends_like_any_subspace(matrix_rows, extra):
    # a kernel is built from the rows of a larger echelon form, not by
    # insert; inserting into it must keep the rows canonical all the same
    k = kernel(Matrix.from_rows(matrix_rows))
    ref = Reference(4)
    for row in k.rows:
        assert ref.insert(_dense(row, 4))
    for v in extra:
        assert k.insert(cleared(v)[0])[1] == ref.insert(_dense(v, 4))
    assert_matches(k, ref, extra)
