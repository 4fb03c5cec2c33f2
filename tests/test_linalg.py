import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from symtriple.errors import DimensionError
from symtriple.linalg import (
    Matrix,
    Subspace,
    add_scaled,
    bracket_closure,
    center_of,
    combination,
    comm,
    comm_minus,
    kernel,
    matrices_of,
    rank,
    table_product,
    trace_product,
    vec,
)
from symtriple.scalars import ONE, GaussianRational, qi

E12 = Matrix.from_rows([[0, 1], [0, 0]])
E21 = Matrix.from_rows([[0, 0], [1, 0]])


def test_rank_examples():
    assert rank(Matrix.identity(3)) == 3
    assert rank(Matrix.zero(3, 3)) == 0
    assert rank(Matrix.from_rows([[1, 2], [2, 4]])) == 1


def test_kernel_examples():
    assert kernel(Matrix.identity(3)).dim == 0
    k = kernel(Matrix.zero(2, 3))
    assert k.dim == 3
    k = kernel(Matrix.from_rows([[1, 1]]))
    assert k.dim == 1 and k.rows[0] == {0: qi(1), 1: qi(-1)}


def test_matrix_algebra():
    a = Matrix.from_rows([[1, 2], [3, 4]])
    b = Matrix.from_rows([[0, 1], [1, 0]])
    assert (a @ b).to_lists() == Matrix.from_rows([[2, 1], [4, 3]]).to_lists()
    assert a.transpose()[0, 1] == qi(3)
    assert a.trace() == qi(5)
    assert trace_product(a, b) == (a @ b).trace()
    assert a.apply(vec([1, 0])) == vec([1, 3])
    assert Matrix.from_flat(a.flatten(), 2, 2) == a
    assert (a + b) - b == a and (a - a).is_zero()
    assert a.bilinear(vec([1, 2]), vec([0, 1])) == qi(10)
    with pytest.raises(DimensionError):
        a @ Matrix.identity(3)
    with pytest.raises(DimensionError):
        a.bilinear(vec([1, 2, 3]), vec([0, 1]))


def test_sparse_kernel():
    w = {0: ONE, 2: qi(3)}
    add_scaled(w, qi(-3), {2: ONE, 5: qi(2)})
    assert w == {0: ONE, 5: qi(-6)}  # the cancelled entry is dropped
    # the dual numbers: e_0 the unit, e_1 e_1 = 0
    table = (({0: ONE}, {1: ONE}), ({1: ONE}, {}))
    assert table_product(table, vec([2, 1]), vec([3, 5])) == vec([6, 13])


def test_insert_examples():
    s = Subspace.span([[1, 0, 0]], 3)
    s2, grew = s.insert(vec([1, 0, 0]))
    assert not grew and s2 == s
    s3, grew = s.insert(vec([0, 1, 0]))
    assert grew and s3.dim == 2
    z, grew = Subspace(2).insert(vec([0, 0]))
    assert not grew and z.dim == 0
    with pytest.raises(DimensionError):
        s.insert(vec([1, 0]))
    with pytest.raises(DimensionError):
        s.insert({3: qi(1)})


def test_insert_extends_in_place_in_pivot_order():
    s = Subspace.span([[0, 1, 1], [0, 0, 1]], 3)
    assert s.rows == ({1: ONE}, {2: ONE})
    # the new pivot 0 lies below every stored pivot
    out, grew = s.insert(vec([1, 1, 0]))
    assert out is s and grew
    assert s.pivots == (0, 1, 2)
    assert s.rows == ({0: ONE}, {1: ONE}, {2: ONE})
    assert s.coords_of(vec([3, 5, 7])) == vec([3, 5, 7])
    out, grew = s.insert(vec([1, 2, 3]))
    assert out is s and not grew and s.dim == 3

    s = Subspace.span([[0, 1, 2, 0]], 4)
    s.insert(vec([1, 1, 0, 1]))
    assert s.pivots == (0, 1)
    assert s.rows == ({0: ONE, 2: qi(-2), 3: ONE}, {1: ONE, 2: qi(2)})
    assert s.coords_of(vec([2, 3, 2, 2])) == vec([2, 3])
    assert hash(s) == hash(Subspace.span([[1, 0, -2, 1], [0, 1, 2, 0]], 4))


def test_sum_leaves_its_operands_unchanged():
    a = Subspace.span([[0, 1, 0]], 3)
    b = Subspace.span([[1, 0, 0], [0, 1, 1]], 3)
    total = a.sum(b)
    assert total.dim == 3 and total is not a and total is not b
    assert a.rows == ({1: ONE},) and a.dim == 1
    assert b.rows == ({0: ONE}, {1: ONE, 2: ONE}) and b.dim == 2


def test_float_entries_are_rejected():
    with pytest.raises(TypeError):
        vec([0.5])
    with pytest.raises(TypeError):
        Subspace.span([[0.5, 1]])


def test_span_is_order_independent():
    vs = [[1, 2, 3], [0, 1, 1], [2, 5, 7], [1, 0, 0]]
    spans = {Subspace.span(p, 3) for p in itertools.permutations(vs)}
    assert len(spans) == 1


def test_coords_of():
    s = Subspace.span([[1, 0, 2], [0, 1, 3]], 3)
    c = s.coords_of(vec([2, 5, 19]))
    assert c == vec([2, 5])
    assert s.coords_of(vec([0, 0, 1])) is None


def test_closure_nilpotent_generator():
    assert bracket_closure([E12], [E12]).dim == 1


def test_closure_generates_sl2():
    # [E12, E21] = diag(1, -1), so the closure is the full traceless algebra.
    space = bracket_closure([E12, E21], [E12, E21])
    assert space.dim == 3
    mats = matrices_of(space)
    for x in mats:
        for y in mats:
            assert space.contains(comm(x, y).flatten())


def test_closure_with_multipliers_and_stop():
    # multiplier brackets alone must be followed: start from the diagonal.
    # Without multipliers the closure is the span: no mutual commutators.
    assert bracket_closure([E12, E21], []).dim == 2
    h = comm(E12, E21)
    space = bracket_closure([h], [E12, E21])
    assert space.dim == 3
    space = bracket_closure([E12, E21], [E12, E21], stop_dim=3)
    assert space.dim == 3
    mixed = [E12, Matrix.identity(3)]
    with pytest.raises(DimensionError):
        bracket_closure(mixed, mixed)


def test_center_examples():
    sl2 = bracket_closure([E12, E21], [E12, E21])
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
        assert (m @ Matrix.from_flat(v, cols, 1)).is_zero()


@settings(max_examples=40)
@given(st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3), min_size=1, max_size=5))
def test_insert_idempotent(vectors):
    s = Subspace.span(vectors, 3)
    for v in vectors:
        s2, grew = s.insert(vec(v))
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
    s = Subspace.span(vectors, ambient=8)
    assert list(s.pivots) == sorted(s.pivots) and s.dim <= len(vectors)
    for p, row in zip(s.pivots, s.rows):
        assert min(row) == p and row[p] == ONE
        assert all(row.values())  # no stored zeros
        assert all(p not in other for q, other in s.basis.items() if q != p)
    # every input and every linear combination of inputs lies in the span
    in_span = list(vectors)
    for coeffs in combos:
        v = {}
        for c, u in zip(coeffs, vectors):
            for k, x in u.items():
                v[k] = v.get(k, qi(0)) + c * x
        in_span.append(v)
    for v in in_span:
        coords = s.coords_of(v)
        assert coords is not None and s.contains(v)
        rebuilt = {}
        for c, row in zip(coords, s.rows):
            for k, x in row.items():
                rebuilt[k] = rebuilt.get(k, qi(0)) + c * x
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
        want = want - m.scale(c)
        total = total + m.scale(c)
    got = comm_minus(a, b, terms)
    assert got == want and all(x for _, _, x in got.entries())
    assert comm(a, b) == a @ b - b @ a
    assert combination(terms, 3) == total
    # [a, b] minus itself cancels to the zero matrix
    assert comm_minus(a, b, [(1, a @ b), (-1, b @ a)]).is_zero()
    with pytest.raises(DimensionError):
        comm_minus(a, b, [(1, Matrix(2, 2))])
    with pytest.raises(DimensionError):
        comm_minus(a, Matrix(2, 2), ())
