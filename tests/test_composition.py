from itertools import combinations, product

import pytest

from symtriple.composition import KINDS, build_composition, unit_multiple
from symtriple.errors import ValidationError
from symtriple.scalars import ONE, ZERO, qi


def probe_set(c):
    basis = [c.basis_element(i) for i in range(c.dim)]
    sums = [
        tuple(a + b for a, b in zip(basis[i], basis[j]))
        for i, j in combinations(range(c.dim), 2)
    ]
    return basis + sums


@pytest.fixture(scope="module", params=KINDS)
def algebra(request):
    return build_composition(request.param)


def test_unital(algebra):
    for i in range(algebra.dim):
        e = algebra.basis_element(i)
        assert algebra.multiply(algebra.unit, e) == e
        assert algebra.multiply(e, algebra.unit) == e


def test_unit_multiple(algebra):
    three = tuple(qi(3) * u for u in algebra.unit)
    assert unit_multiple(three, algebra.unit) == qi(3)
    if algebra.dim > 1:
        with pytest.raises(ValidationError):
            unit_multiple(algebra.basis_element(1), algebra.unit)
    with pytest.raises(ValidationError):
        unit_multiple(algebra.unit, (ZERO,) * algebra.dim)


def test_conjugation_involution_and_norm(algebra):
    for x in probe_set(algebra):
        assert algebra.conjugate(algebra.conjugate(x)) == x
        n = algebra.norm(x)
        assert algebra.multiply(x, algebra.conjugate(x)) == tuple(
            n * u for u in algebra.unit
        )


def test_trace_identity(algebra):
    # x + conj(x) = trace(x) * unit
    for x in probe_set(algebra):
        s = tuple(a + b for a, b in zip(x, algebra.conjugate(x)))
        assert s == tuple(algebra.trace(x) * u for u in algebra.unit)


def test_norm_multiplicative(algebra):
    # quadratic in each slot, so values on e_i and e_i + e_j pin it down;
    # the probe set covers exactly those.
    probes = probe_set(algebra)
    for x in probes:
        for y in probes:
            assert algebra.norm(algebra.multiply(x, y)) == algebra.norm(x) * algebra.norm(y)


def test_alternative_polarized(algebra):
    basis = [algebra.basis_element(i) for i in range(algebra.dim)]
    for x, y, z in product(basis, repeat=3):
        left = algebra.associator(x, z, y)
        right = algebra.associator(z, x, y)
        assert all((a + b) == ZERO for a, b in zip(left, right))
        left = algebra.associator(y, x, z)
        right = algebra.associator(y, z, x)
        assert all((a + b) == ZERO for a, b in zip(left, right))


def test_binarion_idempotents():
    b = build_composition("binarion")
    assert b.multiply(b.basis_element(0), b.basis_element(1)) == (ZERO, ZERO)
    assert b.multiply(b.basis_element(0), b.basis_element(0)) == b.basis_element(0)


def test_quaternion_conjugate_is_adjugate():
    q = build_composition("quaternion")
    assert q.conjugate(q.basis_element(0)) == q.basis_element(3)
    assert q.conjugate(q.basis_element(1)) == tuple(
        -x for x in q.basis_element(1)
    )


def test_zorn_hand_product():
    # (0,e1;0,0) * (0,e2;0,0) has -e1 x e2 = -e3 in the lower-left block.
    z = build_composition("octonion")
    u1, u2 = z.basis_element(2), z.basis_element(3)
    expect = tuple(-ONE if i == 7 else ZERO for i in range(8))
    assert z.multiply(u1, u2) == expect
    # and the norm pairing: n(p) = 0, n(u_i) = 0, bilinear n(p, q) = 1/2
    assert z.norm(z.basis_element(0)) == ZERO
    assert z.norm_b(z.basis_element(0), z.basis_element(1)) == qi("1/2")
    assert z.norm_b(z.basis_element(2), z.basis_element(5)) == qi("-1/2")


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        build_composition("sedenion")
