import sys
from itertools import product

import pytest

from symtriple.composition import CompositionAlgebra, build_composition
from symtriple.connections import connection_by_name
from symtriple.enveloping import build_model
from symtriple.errors import ValidationError
from symtriple.families import build_triple
from symtriple.holonomy import holonomy_algebra
from symtriple.jordan import CubicJordan, build_jordan
from symtriple.linalg import Matrix, rank, table_product
from symtriple.scalars import ONE, qi

from conftest import basis

HERMITIAN_DIMS = {"unarion": 6, "binarion": 9, "quaternion": 15, "octonion": 27}


@pytest.fixture(scope="module", params=sorted(HERMITIAN_DIMS))
def hermitian(request):
    return build_jordan("hermitian", build_composition(request.param))


def cross(J, a, b):
    return table_product(J.cross_table, J.cross_den, a, b)


def dot(J, a, b):
    return table_product(J.dot_table, J.dot_den, a, b)


def test_scalar_kind():
    j = build_jordan("scalar")
    assert j.dim == 1
    assert j.trace_form.bilinear((ONE,), (ONE,)) == 3
    # n(a) = a^3: the adjoint is a^2, so a x b = ab and a x' b = 2ab
    a = (qi(2),)
    assert cross(j, a, (qi(5),)) == (qi(10),)
    assert j.linearized_cross(a, (qi(5),)) == (qi(20),)
    # (a x a) . a = n(a) 1 and tr(a) = t(a, 1)
    assert dot(j, cross(j, a, a), a) == (qi(8),)
    assert j.trace_form.bilinear(a, j.unit) == 6


def test_hermitian_dimensions(hermitian):
    assert hermitian.dim == HERMITIAN_DIMS[hermitian.algebra.kind]


def test_unit_identities(hermitian):
    unit = hermitian.unit
    assert cross(hermitian, unit, unit) == unit
    # tr(1) = t(1, 1) = 3 and (1 x 1) . 1 = n(1) 1 = 1
    assert hermitian.trace_form.bilinear(unit, unit) == 3
    assert dot(hermitian, cross(hermitian, unit, unit), unit) == unit


def test_symmetry(hermitian):
    d = hermitian.dim
    form = hermitian.trace_form
    for i in range(d):
        for j in range(d):
            assert hermitian.cross_table.get((i, j)) == hermitian.cross_table.get((j, i))
            assert form[i, j] == form[j, i]
            assert hermitian.dot_table.get((i, j)) == hermitian.dot_table.get((j, i))


def test_trace_form_nondegenerate(hermitian):
    assert rank(hermitian.trace_form) == hermitian.dim


def test_trace_of_basis(hermitian):
    # tr(a) = t(a, 1) is 1 on the three diagonal units and 0 on the rest
    for i, e in enumerate(basis(hermitian.dim)):
        assert hermitian.trace_form.bilinear(e, hermitian.unit) == (1 if i < 3 else 0)


def test_diagonal_off_the_unit_line_is_refused():
    # with the identity as conjugation (an involutive anti-automorphism of
    # the commutative binarion table), the diagonal of A A for A with e_0 at
    # (0, 1) and (1, 0) is 2 e_0, which is not a multiple of the unit (1, 1)
    c = build_composition("binarion")
    bad = CompositionAlgebra(c.kind, c.dim, c.unit, c.mul, c.mul_den,
                             Matrix.identity(c.dim), c.norm_gram)
    with pytest.raises(ValidationError, match="not a multiple of the unit"):
        build_jordan("hermitian", bad)


def test_composition_algebra_is_checked():
    c = build_composition("binarion")
    # e_0 e_0 = e_1: conj(e_0 e_0) = e_0 but conj(e_0) conj(e_0) = e_1
    bad = CompositionAlgebra(c.kind, c.dim, c.unit, {**c.mul, (0, 0): {1: (1, 0)}},
                             c.mul_den, c.conj, c.norm_gram)
    with pytest.raises(ValidationError, match="anti-automorphism"):
        build_jordan("hermitian", bad)
    doubled = CompositionAlgebra(c.kind, c.dim, (qi(2), qi(2)), c.mul, c.mul_den,
                                 c.conj, c.norm_gram)
    with pytest.raises(ValidationError, match="0/1 vector"):
        build_jordan("hermitian", doubled)


def test_trace_associativity(hermitian):
    # t(e_i . e_j, e_k) = t(e_i, e_j . e_k) on every basis triple, both
    # sides as Gaussian-integer numerators over dot_den * trace_form.den
    form = hermitian.trace_form
    rows, cols, dots = form.num, form.transpose().num, hermitian.dot_table

    def pair(x, y):  # sum_l x_l y_l
        re = im = 0
        for l, (a, b) in x.items():
            c, d = y.get(l, (0, 0))
            re += a * c - b * d
            im += a * d + b * c
        return re, im

    for i, j, k in product(range(hermitian.dim), repeat=3):
        left = pair(dots.get((i, j), {}), cols.get(k, {}))
        assert left == pair(rows.get(i, {}), dots.get((j, k), {}))


def test_adjoint_identity_on_probes(hermitian):
    # (a x a) . a is n(a) * unit
    d = hermitian.dim
    e = basis(d)
    probes = e + [tuple(a + b for a, b in zip(e[i], e[j]))
                  for i in range(min(d, 6)) for j in range(i + 1, min(d, 7))]
    for a in probes:
        v = dot(hermitian, cross(hermitian, a, a), a)
        assert v == tuple(v[0] * u for u in hermitian.unit)


def test_linearized_cross_doubles(hermitian):
    e = basis(hermitian.dim)
    doubled = tuple(x + x for x in cross(hermitian, e[0], e[3]))
    assert hermitian.linearized_cross(e[0], e[3]) == doubled


def test_bad_arguments():
    with pytest.raises(ValidationError):
        build_jordan("scalar", build_composition("unarion"))
    with pytest.raises(ValidationError):
        build_jordan("hermitian")
    with pytest.raises(ValueError):
        build_jordan("spin-factor")


def test_exceptional_build_evaluates_no_dense_element(monkeypatch):
    # every stage reads the numerator tables: with each dense evaluator
    # refusing, the light exceptional models and a holonomy still build
    def refuse(*args):
        raise AssertionError("a dense element was evaluated")

    for name, module in list(sys.modules.items()):
        if name.startswith("symtriple") and hasattr(module, "table_product"):
            monkeypatch.setattr(module, "table_product", refuse)
    monkeypatch.setattr(Matrix, "apply", refuse)
    monkeypatch.setattr(Matrix, "bilinear", refuse)
    monkeypatch.setattr(CubicJordan, "linearized_cross", refuse)
    models = {J: build_model(build_triple("exceptional", J))
              for J in ("scalar", "unarion", "binarion")}
    hol = holonomy_algebra(connection_by_name(models["scalar"], "distinguished"))
    assert [model.algebra.dim for model in models.values()] == [14, 52, 78]
    assert hol.dim == 6
