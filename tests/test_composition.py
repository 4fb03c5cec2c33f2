from itertools import combinations, product

import pytest

from symtriple.composition import KINDS, build_composition
from symtriple.linalg import table_product
from symtriple.scalars import ONE, ZERO, qi

from conftest import apply, basis, bilinear


def probe_set(c):
    e = basis(c.dim)
    return e + [tuple(a + b for a, b in zip(e[i], e[j])) for i, j in combinations(range(c.dim), 2)]


def mul(c, x, y):
    return table_product(c.mul, c.mul_den, x, y)


@pytest.fixture(scope="module", params=KINDS)
def algebra(request):
    return build_composition(request.param)


def test_unital(algebra):
    for e in basis(algebra.dim):
        assert mul(algebra, algebra.unit, e) == e
        assert mul(algebra, e, algebra.unit) == e


def test_conjugation_involution_and_norm(algebra):
    # x conj(x) = n(x) 1 with n(x) = N(x, x)
    for x in probe_set(algebra):
        assert apply(algebra.conj, apply(algebra.conj, x)) == x
        n = bilinear(algebra.norm_gram, x, x)
        assert mul(algebra, x, apply(algebra.conj, x)) == tuple(n * u for u in algebra.unit)


def test_trace_identity(algebra):
    # x + conj(x) = t(x) 1 with t(x) = 2 N(x, 1)
    for x in probe_set(algebra):
        s = tuple(a + b for a, b in zip(x, apply(algebra.conj, x)))
        t = 2 * bilinear(algebra.norm_gram, x, algebra.unit)
        assert s == tuple(t * u for u in algebra.unit)


def test_norm_multiplicative(algebra):
    # quadratic in each slot, so values on e_i and e_i + e_j pin it down;
    # the probe set covers exactly those.
    n = lambda x: bilinear(algebra.norm_gram, x, x)
    probes = probe_set(algebra)
    for x in probes:
        for y in probes:
            assert n(mul(algebra, x, y)) == n(x) * n(y)


def test_alternative_polarized(algebra):
    # the associator (xy)z - x(yz) is alternating
    m = lambda x, y: mul(algebra, x, y)
    assoc = lambda x, y, z: tuple(a - b for a, b in zip(m(m(x, y), z), m(x, m(y, z))))
    for x, y, z in product(basis(algebra.dim), repeat=3):
        assert all(a + b == ZERO for a, b in zip(assoc(x, z, y), assoc(z, x, y)))
        assert all(a + b == ZERO for a, b in zip(assoc(y, x, z), assoc(y, z, x)))


def test_binarion_idempotents():
    b = build_composition("binarion")
    e = basis(2)
    assert mul(b, e[0], e[1]) == (ZERO, ZERO)
    assert mul(b, e[0], e[0]) == e[0]


def test_quaternion_conjugate_is_adjugate():
    q = build_composition("quaternion")
    e = basis(4)
    assert apply(q.conj, e[0]) == e[3]
    assert apply(q.conj, e[1]) == tuple(-x for x in e[1])


def test_zorn_hand_product():
    # (0,e1;0,0) * (0,e2;0,0) has -e1 x e2 = -e3 in the lower-left block.
    z = build_composition("octonion")
    e = basis(8)
    expect = tuple(-ONE if i == 7 else ZERO for i in range(8))
    assert mul(z, e[2], e[3]) == expect
    # and the norm pairing: n(p) = 0, n(u_i) = 0, bilinear n(p, q) = 1/2
    assert bilinear(z.norm_gram, e[0], e[0]) == ZERO
    assert bilinear(z.norm_gram, e[0], e[1]) == qi("1/2")
    assert bilinear(z.norm_gram, e[2], e[5]) == qi("-1/2")


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        build_composition("sedenion")
