import itertools
import random
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from symtriple.errors import DimensionError
from symtriple.linalg import (
    MODULUS,
    Matrix,
    Subspace,
    ad_flat,
    add_numerators,
    bracket_closure,
    center_of,
    combination,
    comm,
    comm_minus,
    kernel,
    rank,
    table_product,
    trace_product,
    vec,
)
from symtriple.scalars import ONE, GaussianRational, qi

from conftest import apply, bilinear, cleared, independent_mod_p, integer_terms, matrices_of

E12 = Matrix.from_rows([[0, 1], [0, 0]])
E21 = Matrix.from_rows([[0, 0], [1, 0]])
F12, F21 = E12.flatten(), E21.flatten()


def ints(*values) -> dict:
    """The sparse Gaussian-integer vector ``{index: (re, im)}`` that
    ``Subspace`` takes, of a dense list of ints."""
    return {k: (x, 0) for k, x in enumerate(values) if x}


def test_rank_examples():
    assert rank(Matrix.identity(3)) == 3
    assert rank(Matrix(3, 3)) == 0
    assert rank(Matrix.from_rows([[1, 2], [2, 4]])) == 1


def test_kernel_examples():
    assert kernel(Matrix.identity(3)).dim == 0
    k = kernel(Matrix(2, 3))
    assert k.dim == 3
    k = kernel(Matrix.from_rows([[1, 1]]))
    assert k.dim == 1 and k.rows[0] == {0: qi(1), 1: qi(-1)}


def test_matrix_algebra():
    a = Matrix.from_rows([[1, 2], [3, 4]])
    b = Matrix.from_rows([[0, 1], [1, 0]])
    assert a @ b == Matrix.from_rows([[2, 1], [4, 3]])
    assert a.transpose()[0, 1] == qi(3)
    assert a.trace() == qi(5)
    assert trace_product(a, b) == (a @ b).trace()
    assert apply(a, vec([1, 0])) == vec([1, 3])
    assert Matrix.from_flat(a.flatten(), 2, 2) == a
    assert (a + b) - b == a and (a - a).is_zero()
    assert bilinear(a, vec([1, 2]), vec([0, 1])) == qi(10)
    with pytest.raises(DimensionError):
        a @ Matrix.identity(3)
    with pytest.raises(DimensionError):
        bilinear(a, vec([1, 2, 3]), vec([0, 1]))


def test_denominator_must_be_positive():
    # den -2 would read as -1/2 yet compare unequal to the canonical -1/2,
    # and den 0 would raise only when an entry is read
    for den in (-2, 0):
        with pytest.raises(ValueError):
            Matrix.from_numerators(1, 1, {0: {0: (1, 0)}}, den)
        with pytest.raises(ValueError):
            Matrix.from_flat({0: (1, 0)}, 1, 1, den)
    half = Matrix.from_numerators(1, 1, {0: {0: (-1, 0)}}, 2)
    assert half == Matrix.from_rows([[qi("-1/2")]]) and half.den == 2


def test_sparse_kernel():
    w = {0: (1, 0), 2: (3, 0)}
    add_numerators(w, -3, 0, {2: (1, 0), 5: (2, 0)})
    assert w == {0: (1, 0), 2: (0, 0), 5: (-6, 0)}  # the cancelled entry stays as (0, 0)
    # the dual numbers: e_0 the unit, e_1 e_1 = 0
    table = {(0, 0): {0: (1, 0)}, (0, 1): {1: (1, 0)}, (1, 0): {1: (1, 0)}}
    assert table_product(table, 1, vec([2, 1]), vec([3, 5])) == vec([6, 13])
    doubled = {key: {k: (2 * x, 2 * y) for k, (x, y) in col.items()} for key, col in table.items()}
    assert table_product(doubled, 2, vec([2, 1]), vec([3, 5])) == vec([6, 13])


def test_insert_examples():
    s = Subspace.span([ints(1, 0, 0)], 3)
    s2, grew = s.insert(ints(1, 0, 0))
    assert not grew and s2 == s
    s3, grew = s.insert(ints(0, 1, 0))
    assert grew and s3.dim == 2
    z, grew = Subspace(2).insert({0: (0, 0), 1: (0, 0)})
    assert not grew and z.dim == 0
    with pytest.raises(DimensionError):
        s.insert({-1: (1, 0)})
    with pytest.raises(DimensionError):
        s.insert({3: (1, 0)})


def test_insert_extends_in_place_in_pivot_order():
    s = Subspace.span([ints(0, 1, 1), ints(0, 0, 1)], 3)
    assert s.rows == ({1: ONE}, {2: ONE})
    # the new pivot 0 lies below every stored pivot
    out, grew = s.insert(ints(1, 1, 0))
    assert out is s and grew
    assert s.pivots == (0, 1, 2)
    assert s.rows == ({0: ONE}, {1: ONE}, {2: ONE})
    assert s.coords_of(ints(3, 5, 7)) == ints(3, 5, 7)
    out, grew = s.insert(ints(1, 2, 3))
    assert out is s and not grew and s.dim == 3

    s = Subspace.span([ints(0, 1, 2, 0)], 4)
    s.insert(ints(1, 1, 0, 1))
    assert s.pivots == (0, 1)
    assert s.rows == ({0: ONE, 2: qi(-2), 3: ONE}, {1: ONE, 2: qi(2)})
    assert s.coords_of(ints(2, 3, 2, 2)) == ints(2, 3)
    assert hash(s) == hash(Subspace.span([ints(1, 0, -2, 1), ints(0, 1, 2, 0)], 4))


def test_rows_enter_only_through_insert():
    # the constructor takes no rows: a row stored unchecked, such as the
    # non-canonical {0: 2}, would reject [1, 0, 0] and give it no coordinates
    with pytest.raises(TypeError):
        Subspace(3, {0: {0: qi(2)}})
    s = Subspace.span([ints(2, 0, 0)], 3)
    assert s.rows == ({0: ONE},)
    assert s.contains(ints(1, 0, 0)) and s.coords_of(ints(1, 0, 0)) == ints(1)


def test_insert_takes_gaussian_integer_vectors():
    # a vector spans what any nonzero Gaussian-integer multiple of it spans;
    # a stored zero is not a pivot
    a = Subspace.span([{0: (2, 0), 1: (0, 4)}, {1: (3, 3), 2: (0, 0)}], 3)
    b = Subspace.span([{0: (0, 1), 1: (-2, 0)}, {1: (1, 1)}], 3)
    assert a == b and a.pivots == (0, 1)
    assert a.rows == ({0: ONE}, {1: ONE})
    assert a.coords_of({0: (3, 0), 1: (0, 6)}) == {0: (3, 0), 1: (0, 6)}


@pytest.mark.parametrize(
    "v, error",
    [
        ([0, 1, 0], TypeError),
        ({1: (1, 0), 2: qi(2)}, TypeError),
        ({1: qi(2), 2: (1, 0)}, TypeError),
        ({1: (1, 0, 0)}, ValueError),
        ({1: (1, 0), 3: (1, 0)}, DimensionError),
        ({1: (1.0, 0)}, TypeError),
        ({1: (1, 0), 2: (0.5, 0)}, TypeError),
    ],
    ids=["list", "pair-then-scalar", "scalar-then-pair", "3-tuple", "index-out-of-range",
         "float-pivot", "float-tail"],
)
def test_malformed_vectors_are_refused(v, error):
    # Subspace takes only sparse Gaussian-integer vectors {index: (re, im)};
    # anything else raises before a row is stored
    s = Subspace.span([ints(1, 0, 0)], 3)
    rows = s.rows
    for call in (s.insert, s.contains, s.coords_of):
        with pytest.raises(error):
            call(v)
        assert (s.dim, s.pivots, s.rows) == (1, (0,), rows)


def test_sum_leaves_its_operands_unchanged():
    a = Subspace.span([ints(0, 1, 0)], 3)
    b = Subspace.span([ints(1, 0, 0), ints(0, 1, 1)], 3)
    total = a.sum(b)
    assert total.dim == 3 and total is not a and total is not b
    assert a.rows == ({1: ONE},) and a.dim == 1
    assert b.rows == ({0: ONE}, {1: ONE, 2: ONE}) and b.dim == 2


def test_float_entries_are_rejected():
    with pytest.raises(TypeError):
        vec([0.5])
    with pytest.raises(TypeError):
        Matrix.from_rows([[0.5, 1]])
    with pytest.raises(TypeError):
        Subspace.span([{0: 0.5, 1: (1, 0)}], 2)


def test_span_is_order_independent():
    vs = [ints(1, 2, 3), ints(0, 1, 1), ints(2, 5, 7), ints(1, 0, 0)]
    spans = {Subspace.span(p, 3) for p in itertools.permutations(vs)}
    assert len(spans) == 1


def test_coords_of():
    s = Subspace.span([ints(1, 0, 2), ints(0, 1, 3)], 3)
    c = s.coords_of(ints(2, 5, 19))
    assert c == ints(2, 5)
    assert s.coords_of(ints(0, 0, 1)) is None


def test_closure_nilpotent_generator():
    assert bracket_closure([F12], [F12], 2).dim == 1


def test_closure_of_no_generators_lives_in_gl_d():
    # the explicit side sets the ambient gl(d), with no generators or no multipliers
    empty = bracket_closure([], [F12], 2)
    assert (empty.ambient, empty.dim) == (4, 0)
    assert empty.sum(bracket_closure([F12], [], 2)).dim == 1
    assert bracket_closure([], [], 0).ambient == 0
    # the generators may be any iterable, read once in order
    read = []
    gens = (read.append(m) or m.flatten() for m in (E12, E21))
    assert bracket_closure(gens, [], 2).dim == 2 and read == [E12, E21]


def test_closure_generates_sl2():
    # [E12, E21] = diag(1, -1), so the closure is the full traceless algebra.
    space = bracket_closure([F12, F21], [F12, F21], 2)
    assert space.dim == 3
    mats = matrices_of(space)
    for x in mats:
        for y in mats:
            assert space.contains(comm(x, y).flatten())


def test_closure_with_multipliers_and_stop():
    # multiplier brackets alone must be followed: start from the diagonal.
    # Without multipliers the closure is the span: no mutual commutators.
    gens = [F12, F21]
    assert bracket_closure(gens, [], 2).dim == 2
    h = comm(E12, E21)
    space = bracket_closure([h.flatten()], gens, 2)
    assert space.dim == 3
    # a multiple of a multiplier gives the same closure
    assert bracket_closure([h.flatten()], [{1: (3, 4)}, F21], 2) == space
    space = bracket_closure(gens, gens, 2, stop_dim=3)
    assert space.dim == 3
    # a generator of another side; a multiplier is checked by ad_flat
    with pytest.raises(DimensionError):
        bracket_closure([Matrix.identity(3).flatten()], [F12], 2)


def test_center_examples():
    sl2 = bracket_closure([F12, F21], [F12, F21], 2)
    assert center_of(sl2).dim == 0
    span_id = Subspace.span([Matrix.identity(2).flatten()], ambient=4)
    assert center_of(span_id) == span_id
    # gl2 = sl2 + identity has a one-dimensional center
    gl2, _ = sl2.insert(Matrix.identity(2).flatten())
    assert center_of(gl2).dim == 1


@settings(max_examples=60)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=10**6),
)
def test_rank_nullity(rows, cols, seed):
    rng = random.Random(seed)
    m = Matrix.from_rows(
        [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
    )
    k = kernel(m)
    assert rank(m) + k.dim == cols
    for v in k.rows:
        assert not any(apply(m, tuple(v.get(j, qi(0)) for j in range(cols))))


@settings(max_examples=40)
@given(st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3), min_size=1, max_size=5))
def test_insert_idempotent(vectors):
    vectors = [ints(*v) for v in vectors]
    s = Subspace.span(vectors, 3)
    for v in vectors:
        s2, grew = s.insert(v)
        assert not grew and s2 == s


_entries = st.builds(
    GaussianRational, st.integers(-3, 3), st.integers(-2, 2), st.integers(1, 3)
)
_sparse_vectors = st.dictionaries(st.integers(0, 7), _entries, max_size=5)


@settings(max_examples=80)
@given(
    st.lists(_sparse_vectors, max_size=6),
    st.lists(st.lists(_entries, min_size=6, max_size=6), max_size=3),
)
def test_canonical_form_on_sparse_input(vectors, combos):
    # a span does not change under scaling: insert each vector with its
    # denominators cleared
    s = Subspace.span((cleared(v)[0] for v in vectors), ambient=8)
    assert list(s.pivots) == sorted(s.pivots) and s.dim <= len(vectors)
    for p, row in zip(s.pivots, s.rows):
        assert min(row) == p and row[p] == ONE
        assert all(row.values())  # no stored zeros
        assert all(p not in other for q, other in zip(s.pivots, s.rows) if q != p)
    # every input and every linear combination of inputs lies in the span
    in_span = list(vectors)
    for coeffs in combos:
        v = {}
        for c, u in zip(coeffs, vectors):
            for k, x in u.items():
                v[k] = v.get(k, qi(0)) + c * x
        in_span.append(v)
    for v in in_span:
        w, den = cleared(v)
        coords = s.coords_of(w)
        assert coords is not None and s.contains(w)
        rebuilt = {}
        rows = s.rows
        for r, (re, im) in coords.items():
            c = GaussianRational(re, im)
            for k, x in rows[r].items():
                rebuilt[k] = rebuilt.get(k, qi(0)) + c * x / den
        assert {k: x for k, x in rebuilt.items() if x} == {k: x for k, x in v.items() if x}


_small_matrices = st.dictionaries(
    st.integers(0, 2),
    st.dictionaries(st.integers(0, 2), _entries.filter(bool), min_size=1, max_size=3),
    max_size=3,
).map(lambda data: Matrix(3, 3, data))


@settings(max_examples=60)
@given(
    _small_matrices,
    _small_matrices,
    st.lists(st.tuples(_entries | st.integers(-2, 2), _small_matrices), max_size=3),
)
def test_comm_minus_matches_matrix_arithmetic(a, b, terms):
    want = a @ b - b @ a
    total = Matrix(3, 3)
    for c, m in terms:
        cm = Matrix(3, 3, {i: {j: c * x for j, x in m.row(i).items()} for i in m.num})
        want = want - cm
        total = total + cm
    got = comm_minus(a, b, *integer_terms(terms))
    assert got == want and all(x for _, _, x in got.entries())
    assert comm(a, b) == a @ b - b @ a
    assert combination(terms, 3) == total
    # [a, b] minus itself cancels to the zero matrix
    assert comm_minus(a, b, [((1, 0), a @ b), ((-1, 0), b @ a)]).is_zero()
    with pytest.raises(DimensionError):
        comm_minus(a, b, [((1, 0), Matrix(2, 2))])
    with pytest.raises(DimensionError):
        comm_minus(a, Matrix(2, 2), ())


def _random_numerators(rng, n: int, density: float) -> dict:
    """Sparse n x n Gaussian-integer rows, about a quarter of them imaginary."""
    num: dict = {}
    for i in range(n):
        for j in range(n):
            if rng.random() < density:
                z = (rng.randint(-5, 5), rng.choice((0, 0, 0, rng.randint(-3, 3))))
                if z != (0, 0):
                    num.setdefault(i, {})[j] = z
    return num


def test_ad_flat_matches_commutator():
    rng = random.Random(20261020)
    n = 4
    dens = set()
    for den in (1, 2, 6, 15):
        for _ in range(6):
            a = Matrix.from_numerators(n, n, _random_numerators(rng, n, 0.5), den)
            ad = ad_flat(a.flatten(), n)
            dens.add(a.den)
            for _ in range(4):
                x = Matrix.from_numerators(n, n, _random_numerators(rng, n, 0.4)).flatten()
                got = ad(x)
                assert all(z != (0, 0) for z in got.values())
                assert Matrix.from_flat(got, n, n, a.den) == comm(a, Matrix.from_flat(x, n, n))
            # [a, a] and [a, 1] cancel to the empty vector, and so does [a, 0]
            assert ad(a.flatten()) == ad(Matrix.identity(n).flatten()) == ad({}) == {}
    assert dens - {1}  # a non-unit denominator is scaled out, not dropped
    # imaginary entries on both sides, over a = (1/2) (i e_01 + 4 e_10)
    a = Matrix(2, 2, {0: {1: GaussianRational(0, 1, 2)}, 1: {0: 2}})
    x = {0: (0, 1), 1: (3, -2), 3: (1, 0)}
    assert a.den == 2
    assert Matrix.from_flat(ad_flat(a.flatten(), 2)(x), 2, 2, a.den) == comm(
        a, Matrix.from_flat(x, 2, 2))
    # an operator with an index outside n x n, as the flattening of a
    # multiplier of another side, is refused when the map is built
    for bad in (Matrix.identity(3).flatten(), {4: (1, 0)}, {-1: (1, 0)}):
        with pytest.raises(DimensionError):
            ad_flat(bad, 2)
    assert ad_flat({}, 2)(x) == {}


def test_modulus_constants():
    # a prime P = 1 mod 4 and a square root s of -1 mod P
    p, s = MODULUS
    assert all(p % d for d in range(2, isqrt(p) + 1))
    assert p % 4 == 1
    assert (s * s + 1) % p == 0


def test_independent_mod_p_examples():
    assert independent_mod_p([])
    assert independent_mod_p([ints(1, 2, 0), ints(0, 1, 3), ints(5, 0, 0)])
    # (i, 2) and (1, 2i): determinant -4
    assert independent_mod_p([{0: (0, 1), 1: (2, 0)}, {0: (1, 0), 1: (0, 2)}])
    assert independent_mod_p([{3: (0, -7)}, {3: (1, 1), 5: (0, 2)}])
    assert not independent_mod_p([ints(1, 2, 0), ints(0, 1, 3), ints(2, 5, 3)])
    # (1, -2i) = -i (i, 2): dependent over Q(i) only
    assert not independent_mod_p([{0: (0, 1), 1: (2, 0)}, {0: (1, 0), 1: (0, -2)}])
    assert not independent_mod_p([ints(1, 0), {}])
    assert not independent_mod_p([ints(1, 0), {1: (0, 0)}])


_gaussian_ints = st.tuples(st.integers(-2, 2), st.integers(-2, 2))


@given(st.lists(st.dictionaries(st.integers(0, 3), _gaussian_ints, max_size=4), max_size=5))
def test_independent_mod_p_agrees_with_span(vectors):
    # True proves full rank.  Here the converse holds too: by Hadamard's
    # bound a minor of at most four vectors with |re|, |im| <= 2 has norm at
    # most 32^4 = 2^20 < P, and a + bi with a + bs = 0 mod P has norm
    # a^2 + b^2 = b^2 (s^2 + 1) = 0 mod P
    span = Subspace.span(vectors, ambient=4)
    assert independent_mod_p(vectors) == (span.dim == len(vectors))
