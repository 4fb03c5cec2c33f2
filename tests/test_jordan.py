import pytest

from symtriple.composition import CompositionAlgebra, build_composition
from symtriple.errors import ValidationError
from symtriple.jordan import build_jordan
from symtriple.linalg import Matrix, rank
from symtriple.scalars import ONE, qi

HERMITIAN_DIMS = {"unarion": 6, "binarion": 9, "quaternion": 15, "octonion": 27}


@pytest.fixture(scope="module", params=sorted(HERMITIAN_DIMS))
def hermitian(request):
    return build_jordan("hermitian", build_composition(request.param))


def test_scalar_kind():
    j = build_jordan("scalar")
    assert j.dim == 1
    assert j.t((ONE,), (ONE,)) == 3
    # n(a) = a^3: the adjoint is a^2, so a x b = ab and a x' b = 2ab
    assert j.cross((qi(2),), (qi(5),)) == (qi(10),)
    assert j.linearized_cross((qi(2),), (qi(5),)) == (qi(20),)
    assert j.norm((qi(2),)) == 8
    assert j.trace_of((qi(2),)) == 6


def test_hermitian_dimensions(hermitian):
    assert hermitian.dim == HERMITIAN_DIMS[hermitian.algebra.kind]


def test_unit_identities(hermitian):
    unit = hermitian.unit
    assert hermitian.cross(unit, unit) == unit
    assert hermitian.trace_of(unit) == 3
    assert hermitian.t(unit, unit) == 3
    assert hermitian.norm(unit) == 1


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
    for i in range(hermitian.dim):
        assert hermitian.trace_of(hermitian.basis_element(i)) == (1 if i < 3 else 0)


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
    d = hermitian.dim
    basis = [hermitian.basis_element(i) for i in range(d)]
    for i in range(d):
        for j in range(d):
            for k in range(d):
                left = hermitian.t(hermitian.dot(basis[i], basis[j]), basis[k])
                right = hermitian.t(basis[i], hermitian.dot(basis[j], basis[k]))
                assert left == right


def test_adjoint_identity_on_probes(hermitian):
    # (a x a) . a is n(a) * unit; norm() raises if the multiple breaks down.
    d = hermitian.dim
    basis = [hermitian.basis_element(i) for i in range(d)]
    probes = list(basis)
    for i in range(min(d, 6)):
        for j in range(i + 1, min(d, 7)):
            probes.append(tuple(a + b for a, b in zip(basis[i], basis[j])))
    for a in probes:
        hermitian.norm(a)


def test_linearized_cross_doubles(hermitian):
    a = hermitian.basis_element(0)
    b = hermitian.basis_element(3)
    doubled = tuple(x + x for x in hermitian.cross(a, b))
    assert hermitian.linearized_cross(a, b) == doubled


def test_bad_arguments():
    with pytest.raises(ValidationError):
        build_jordan("scalar", build_composition("unarion"))
    with pytest.raises(ValidationError):
        build_jordan("hermitian")
    with pytest.raises(ValueError):
        build_jordan("spin-factor")
