import itertools

import pytest

from symtriple import enveloping, triples
from symtriple.enveloping import (
    GradedLieAlgebra,
    build_enveloping,
    killing_form,
    metric_g,
    verify_jacobi,
)
from symtriple.errors import ConstructionError, ValidationError
from symtriple.linalg import (
    Matrix, bracket_closure, comm, lie_generators, numerators, rank,
    trace_product,
)
from symtriple.scalars import HALF, ONE, ZERO, GaussianRational, qi
from symtriple.triples import SymplecticTripleSystem, build_symplectic_type, inder_basis

from conftest import (
    XI, LIGHT_CASES, ad, apply, basis, combination, dmat, gamma_mat, matrices_of, scalar_table,
    scalars, sl2_to_xi,
)

ENVELOPING_DIMS = {
    ("symplectic", 1): 10,  # sp(4)
    ("symplectic", 2): 21,  # sp(6)
    ("symplectic", 3): 36,  # sp(8)
    ("special", 1): 8,  # sl(3)
    ("special", 2): 15,  # sl(4)
    ("orthogonal", 3): 21,  # so(7)
    ("orthogonal", 4): 28,  # so(8)
    ("exceptional", "scalar"): 14,  # g2
    ("exceptional", "unarion"): 52,  # f4
}


@pytest.mark.parametrize("family,param", sorted(ENVELOPING_DIMS, key=str))
def test_enveloping_dimension(family, param, model_cache):
    model = model_cache(family, param)
    L = model.algebra
    assert L.dim == ENVELOPING_DIMS[(family, param)]
    assert L.dim == 3 + model.h_dim + 2 * L.t_dim


@pytest.mark.parametrize("family,param", LIGHT_CASES)
def test_jacobi(family, param, model_cache):
    assert verify_jacobi(model_cache(family, param).algebra).passed


def test_xi_bracket_relations(model_cache):
    L = model_cache("symplectic", 1).algebra
    assert scalars(L.bracket_basis(0, 1), L.den) == {2: qi(2)}  # [xi1, xi2] = 2 xi3
    assert scalars(L.bracket_basis(1, 2), L.den) == {0: qi(2)}
    assert scalars(L.bracket_basis(2, 0), L.den) == {1: qi(2)}
    # 2x2 matrix commutators agree
    x1, x2, x3 = XI
    assert comm(x1, x2) == x3 + x3


def test_integer_tables_match_2x2_references():
    # each integer table of sp(V) is what its 2x2 matrices give
    for xi, table in zip(XI, enveloping._XI_ON_V):
        assert xi.den == 1 and xi.transpose().num == table
    for (i, j), want in enveloping._XI_BRACKETS.items():
        assert sl2_to_xi(comm(XI[i], XI[j])) == (want, 1)
    for a, b in itertools.product(range(2), repeat=2):
        gamma = gamma_mat(a, b)
        assert gamma.den == 1 and gamma.transpose().num == {
            c: {d: (x, 0) for d, x in col.items()} for c, col in triples._GAMMA[a][b].items()
        }
        if a <= b:
            assert sl2_to_xi(gamma) == (enveloping._GAMMA_XI[(a, b)], 1)
    assert len(enveloping._GAMMA_XI) == 3


def test_inder_acts_on_odd(model_cache):
    # [d, e_a (x) t_k] = e_a (x) d(t_k)
    model = model_cache("symplectic", 2)
    L = model.algebra
    td = L.t_dim
    for r, d in enumerate(matrices_of(model.inder)):
        for a in range(2):
            for k in range(td):
                got = scalars(L.bracket_basis(3 + r, L.odd_index(a, k)), L.den)
                want = {
                    L.odd_index(a, l): d[l, k]
                    for l in range(td)
                    if d[l, k]
                }
                assert got == want


def test_odd_odd_bracket(model_cache):
    # [e_1 (x) x, e_2 (x) y] has h-part <e_1,e_2> d_{x,y}
    model = model_cache("symplectic", 1)
    L = model.algebra
    t = model.triple
    for k in range(L.t_dim):
        for l in range(L.t_dim):
            hpart = model.m_bracket_h(3 + k, 3 + L.t_dim + l)
            d = dmat(t, k, l)
            assert scalars(hpart, L.den) == scalars(model.inder.coords_of(d.flatten()), d.den)


def _direct_ad_m_inder(model, r):
    """ad(d_r) on m from the matrix of d_r: e_a (x) t_k -> e_a (x) d_r(t_k)."""
    td = model.algebra.t_dim
    d = matrices_of(model.inder)[r]
    data = {}
    for a in range(2):
        base = 3 + a * td
        for k in range(td):
            for l in range(td):
                if d[l, k]:
                    data.setdefault(base + l, {})[base + k] = d[l, k]
    return Matrix(model.m_dim, model.m_dim, data)


def _direct_ad_m_xi(model, i):
    """ad(xi_i) on m: the bracket [xi_i, xi_j] on the vertical block and
    e_a (x) t_k -> xi_i(e_a) (x) t_k on the odd block."""
    L = model.algebra
    td = L.t_dim
    xi = XI[i - 1]
    data = {}
    for j in range(3):
        for l, v in scalars(L.bracket_basis(i - 1, j), L.den).items():
            data.setdefault(l, {})[j] = v
    for a in range(2):
        for b in range(2):
            if xi[b, a]:
                for k in range(td):
                    data.setdefault(3 + b * td + k, {})[3 + a * td + k] = xi[b, a]
    return Matrix(model.m_dim, model.m_dim, data)


def _direct_split(model, p, q):
    """(m-part, h-part) of [e_p, e_q] by the index ranges of the g basis."""
    h = model.h_dim
    mm, hh = {}, {}
    for l, v in model.algebra.bracket_basis(model.m_to_g(p), model.m_to_g(q)).items():
        if 3 <= l < 3 + h:
            hh[l - 3] = v
        else:
            mm[l if l < 3 else l - h] = v
    return mm, hh


@pytest.mark.parametrize("family,param", LIGHT_CASES)
def test_model_operators_match_direct_construction(family, param, model_cache):
    model = model_cache(family, param)
    for r in range(model.h_dim):
        assert model.ad_m_inder(r) == _direct_ad_m_inder(model, r)
    for i in (1, 2, 3):
        assert model.ad_m_xi(i) == _direct_ad_m_xi(model, i)
    for p in range(model.m_dim):
        for q in range(model.m_dim):
            got = (model.m_bracket_m(p, q), model.m_bracket_h(p, q))
            assert got == _direct_split(model, p, q)


def test_jacobi_detects_mutation(model_cache):
    L0 = model_cache("symplectic", 1).algebra
    table = scalar_table(L0)
    table[(0, 1)] = {2: qi(-2)}  # flip one sign
    bad = GradedLieAlgebra(L0.dim, L0.n, L0.h_dim, L0.t_dim, *numerators(table))
    report = verify_jacobi(bad)
    assert not report.passed and report.failures[0].witness


def test_jacobi_abelian_passes():
    abelian = GradedLieAlgebra(4, 1, 0, 2, {})
    assert verify_jacobi(abelian).passed


def test_jacobi_rejects_unknown_mode(model_cache):
    with pytest.raises(ValueError):
        verify_jacobi(model_cache("symplectic", 1).algebra, mode="thorough")


def _algebra_generators(L):
    """The basis indices whose unit vectors ``verify_jacobi`` checks: its
    ``lie_generators`` call, with ad_k w computed as a matrix product."""
    return lie_generators(
        [{i: (1, 0)} for i in range(L.dim)],
        lambda k, w: (ad(L, k) @ Matrix.from_flat(w, L.dim, 1)).flatten(), L.dim,
        [ad(L, i).nnz() for i in range(L.dim)],
    )


# (generators, dim g(T)): how many basis elements ``verify_jacobi``
# evaluates the identity for, of the basis of g(T)
ALGEBRA_GENERATORS = {
    ("symplectic", 1): (5, 10),
    ("symplectic", 2): (8, 21),
    ("special", 1): (5, 8),
    ("special", 2): (8, 15),
    ("orthogonal", 3): (7, 21),
    ("orthogonal", 4): (7, 28),
    ("exceptional", "scalar"): (5, 14),
    ("exceptional", "unarion"): (10, 52),
}


def _assert_generators_fill(L, n_gens, dim):
    gens = _algebra_generators(L)
    assert (len(gens), L.dim) == (n_gens, dim)
    ads = [ad(L, s).flatten() for s in gens]
    closure = bracket_closure(ads, ads, L.dim)
    assert all(closure.contains(ad(L, i).flatten()) for i in range(L.dim))


def test_generators_fill_algebra(model_cache):
    assert set(LIGHT_CASES) < set(ALGEBRA_GENERATORS)
    for (family, param), (n_gens, dim) in ALGEBRA_GENERATORS.items():
        _assert_generators_fill(model_cache(family, param).algebra, n_gens, dim)
    assert _algebra_generators(GradedLieAlgebra(4, 1, 0, 2, {})) == [0, 1, 2, 3]


@pytest.mark.heavy
@pytest.mark.parametrize("family,param,n_gens,dim", [
    ("exceptional", "binarion", 12, 78),
    ("exceptional", "quaternion", 14, 133),
])
def test_generators_fill_heavy_algebra(family, param, n_gens, dim, model_cache):
    _assert_generators_fill(model_cache(family, param).algebra, n_gens, dim)


# (generators, dim inder(T)): how many nonzero d_ij ``verify_axioms``
# evaluates identity (3) for, of the d_ij spanning inder(T)
INDER_GENERATORS = [
    ("symplectic", 1, 2, 3),
    ("special", 2, 3, 4),
    ("orthogonal", 3, 4, 6),
    ("exceptional", "scalar", 2, 3),
    ("exceptional", "unarion", 8, 21),
    pytest.param("exceptional", "binarion", 12, 35, marks=pytest.mark.heavy),
    pytest.param("exceptional", "quaternion", 18, 66, marks=pytest.mark.heavy),
]


@pytest.mark.parametrize("family,param,n_gens,h_dim", INDER_GENERATORS)
def test_inder_generators(family, param, n_gens, h_dim, triple_cache):
    """The ``lie_generators`` call of ``verify_axioms`` for identity (3)."""
    t = triple_cache(family, param)
    d = t.dim
    dmats = [dmat(t, i, j) for i in range(d) for j in range(i, d)]
    dmats = [m for m in dmats if not m.is_zero()]
    gens = lie_generators(
        [m.flatten() for m in dmats],
        lambda k, w: comm(dmats[k], Matrix.from_flat(w, d, d)).flatten(),
        d * d,
        [m.nnz() for m in dmats],
    )
    assert (len(gens), inder_basis(t).dim) == (n_gens, h_dim)
    flats = [dmats[s].flatten() for s in gens]
    closure = bracket_closure(flats, flats, d)
    assert closure.dim == h_dim
    assert all(closure.contains(m.flatten()) for m in dmats)


def _reference_jacobi(L, mode):
    """The all-pairs loop: every basis pair, in order, until the first
    failure (fast) or the audit cap."""
    limit = 1 if mode == "fast" else enveloping.JACOBI_FAILURE_CAP
    checked, witnesses = 0, []
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            checked += 1
            rhs = combination(
                [(v, ad(L, l)) for l, v in scalars(L.bracket_basis(i, j), L.den).items()], L.dim
            )
            if comm(ad(L, i), ad(L, j)) != rhs:
                witnesses.append((i, j))
                if len(witnesses) == limit:
                    return checked, witnesses
    return checked, witnesses


def _bumped(table, key, l):
    """A copy of ``table`` with 1 added to the e_l coefficient of ``key``."""
    t = {k: dict(e) for k, e in table.items()}
    entry = t.setdefault(key, {})
    entry[l] = entry.get(l, ZERO) + ONE
    if not entry[l]:
        del entry[l]
    return t


def _bumped_tables(table):
    """Each table entry bumped by 1, one at a time."""
    for key in sorted(table):
        for l in sorted(table[key]):
            yield _bumped(table, key, l)


def _completed_tables(table, dim):
    """One missing entry added to each pair's bracket, one at a time."""
    for i in range(dim):
        for j in range(i + 1, dim):
            l = min(set(range(dim)) - set(table.get((i, j), {})))
            yield _bumped(table, (i, j), l)


@pytest.mark.parametrize("mode", ["fast", "audit"])
def test_jacobi_generators_match_reference(mode, model_cache):
    sp4 = model_cache("symplectic", 1).algebra
    sl4 = model_cache("special", 2).algebra
    # two of the sl(4) bumps pass every generator-by-generator pair and
    # fail only at a generator against a non-generator
    for L0, tables in (
        (sp4, [*_bumped_tables(scalar_table(sp4)), *_completed_tables(scalar_table(sp4), sp4.dim)]),
        (sl4, list(_bumped_tables(scalar_table(sl4)))),
    ):
        failing = 0
        for table in tables:
            L = GradedLieAlgebra(L0.dim, L0.n, L0.h_dim, L0.t_dim, *numerators(table))
            report = verify_jacobi(L, mode=mode)
            checked, witnesses = _reference_jacobi(L, mode)
            assert (report.checked_pairs, [f.witness for f in report.failures]) == (
                checked, witnesses
            ), table
            failing += bool(witnesses)
        assert failing


@pytest.mark.parametrize("family,param", LIGHT_CASES)
def test_killing_scale_on_odd_block(family, param, model_cache):
    # kappa(a (x) x, b (x) y) = -4(n+2) <a,b> (x,y)
    model = model_cache(family, param)
    L = model.algebra
    kap = model.kappa
    t = model.triple
    s = qi(-4 * (L.n + 2))
    eps = {(0, 1): ONE, (1, 0): -ONE}
    for a in range(2):
        for k in range(L.t_dim):
            i = L.odd_index(a, k)
            for b in range(2):
                for l in range(L.t_dim):
                    j = L.odd_index(b, l)
                    want = s * eps.get((a, b), ZERO) * t.omega[k, l]
                    assert kap[i, j] == want


@pytest.mark.parametrize("family,param", LIGHT_CASES)
def test_killing_nondegenerate_and_graded(family, param, model_cache):
    model = model_cache(family, param)
    kap = model.kappa
    L = model.algebra
    assert rank(kap) == L.dim
    for r in range(L.h_dim):
        for j in range(3 + L.h_dim, L.dim):
            assert kap[3 + r, j] == ZERO
        for j in range(3):
            assert kap[3 + r, j] == ZERO


def _assert_killing_matches_trace_products(L):
    """killing_form(L) entry by entry against trace(ad_i ad_j) per pair."""
    kap = killing_form(L)
    for i in range(L.dim):
        for j in range(L.dim):
            assert kap[i, j] == trace_product(ad(L, i), ad(L, j)), (i, j)
    return kap


@pytest.mark.parametrize("family,param", LIGHT_CASES)
def test_killing_form_matches_trace_products(family, param, model_cache):
    _assert_killing_matches_trace_products(model_cache(family, param).algebra)


def test_killing_form_assumes_no_grading():
    # gl(2) (+) gl(1) in the basis E11/2, i E12, E22, E21/3, E11 + E33:
    # imaginary constants, denominators 2 and 3, and in the layout of
    # dim 5 (h_dim 0, t_dim 1) indices 3 and 4 are "odd", yet kappa pairs
    # them with the "even" indices 0..2
    table = {
        (0, 1): {1: HALF},
        (0, 3): {3: -HALF},
        (1, 2): {1: ONE},
        (1, 3): {0: GaussianRational(0, 2, 3), 2: GaussianRational(0, -1, 3)},
        (1, 4): {1: -ONE},
        (2, 3): {3: ONE},
        (3, 4): {3: ONE},
    }
    L = GradedLieAlgebra(5, 0, 0, 1, *numerators(table))
    assert verify_jacobi(L, mode="audit").passed
    kap = _assert_killing_matches_trace_products(L)
    # kappa(X, Y) = 4 tr XY - 2 tr X tr Y on gl(2)
    assert kap[1, 3] == GaussianRational(0, 4, 3)
    assert kap[2, 4] == qi(-2)
    assert kap[0, 0] == HALF


def test_killing_ad_invariance(model_cache):
    # kappa([x,y],z) + kappa(y,[x,z]) = 0 on basis triples
    L = model_cache("exceptional", "scalar").algebra
    kap = killing_form(L)
    d = L.dim
    for i in range(d):
        for j in range(d):
            for k in range(d):
                left = sum(
                    (v * kap[l, k] for l, v in scalars(L.bracket_basis(i, j), L.den).items()),
                    ZERO,
                )
                right = sum(
                    (v * kap[j, l] for l, v in scalars(L.bracket_basis(i, k), L.den).items()),
                    ZERO,
                )
                assert left + right == ZERO


@pytest.mark.parametrize("family,param", LIGHT_CASES)
def test_metric_blocks(family, param, model_cache):
    model = model_cache(family, param)
    gram = model.metric.gram
    L = model.algebra
    td = L.t_dim
    for i in range(3):
        for j in range(3):
            assert gram[i, j] == (ONE if i == j else ZERO)
        for j in range(3, model.m_dim):
            assert gram[i, j] == ZERO and gram[j, i] == ZERO
    eps = {(0, 1): ONE, (1, 0): -ONE}
    for a in range(2):
        for k in range(td):
            for b in range(2):
                for l in range(td):
                    want = HALF * eps.get((a, b), ZERO) * model.triple.omega[k, l]
                    assert gram[3 + a * td + k, 3 + b * td + l] == want


def test_metric_inverse(model_cache):
    model = model_cache("orthogonal", 3)
    ginv = model.metric.inverse()
    assert ginv @ model.metric.gram == Matrix.identity(model.m_dim)


def test_metric_refuses_a_killing_form_off_its_blocks(model_cache):
    # an entry on the mixed sp(V) x odd block, either way round, and a
    # vertical block off the identity, on or off its diagonal
    model = model_cache("symplectic", 1)
    L, split, kappa = model.algebra, model.split, model.kappa
    assert metric_g(L, split, kappa).gram == model.metric.gram
    odd = split.m_indices[3]

    def plus(i, j):
        num = {r: dict(row) for r, row in kappa.num.items()}
        num.setdefault(i, {})[j] = (1, 0)
        return Matrix.from_numerators(L.dim, L.dim, num, kappa.den)

    for i, j in ((0, odd), (odd, 2)):
        with pytest.raises(ConstructionError, match=r"^Killing form does not vanish on the "
                                                     r"mixed sp\(V\) x odd block$"):
            metric_g(L, split, plus(i, j))
    for off in (kappa + kappa, plus(0, 1)):
        with pytest.raises(ConstructionError,
                           match="^vertical block of the metric is not orthonormal$"):
            metric_g(L, split, off)


@pytest.mark.parametrize("i", [0, 4, -1])
def test_xi_index_outside_one_to_three_is_refused(i, model_cache):
    # only xi_1, xi_2, xi_3 exist; no index is read as a position of m
    model = model_cache("symplectic", 1)
    for call in (model.ad_m_xi, model.phi):
        with pytest.raises(ValidationError):
            call(i)


def test_phi_relations(model_cache):
    model = model_cache("exceptional", "scalar")
    xi = basis(model.m_dim)[:3]
    zero = tuple([ZERO] * model.m_dim)
    assert apply(model.phi(1), xi[1]) == xi[2]
    assert apply(model.phi(2), xi[2]) == xi[0]
    for i in (1, 2, 3):
        assert apply(model.phi(i), xi[i - 1]) == zero
    # phi_k = phi_i . phi_j - eta_j (x) xi_i for even permutations
    for (i, j, k) in [(1, 2, 3), (2, 3, 1), (3, 1, 2)]:
        # eta_j = g(xi_j, .) is row j - 1 of the Gram matrix
        correction = Matrix(model.m_dim, model.m_dim, {i - 1: model.metric.gram.row(j - 1)})
        assert model.phi(k) == model.phi(i) @ model.phi(j) - correction


def test_metric_skew_operator_is_orthogonal(model_cache):
    model = model_cache("symplectic", 1)
    # g(u, .) v - g(v, .) u for u = xi_1 = e_0 and v = e_4
    md = model.m_dim
    g = model.metric.gram
    phi = Matrix(md, md, {4: g.row(0)}) - Matrix(md, md, {0: g.row(4)})
    assert not phi.is_zero()
    assert (phi.transpose() @ g + g @ phi).is_zero()


def test_odd_dimension_rejected():
    t = build_symplectic_type(1)
    odd = SymplecticTripleSystem(1, Matrix(1, 1), {}, "odd")
    with pytest.raises(ValidationError):
        build_enveloping(odd, inder_basis(odd))


def test_split_is_reductive(model_cache):
    # [h, m] lands back in m, never in h
    model = model_cache("orthogonal", 3)
    L = model.algebra
    h_set = set(model.split.h_indices)
    for r in model.split.h_indices:
        for j in model.split.m_indices:
            image = L.bracket_basis(r, j)
            assert not (set(image) & h_set)


def test_phi_squared_on_odd(model_cache):
    # phi_i restricted to the odd block squares like ad(xi_i)
    model = model_cache("symplectic", 1)
    for i in (1, 2, 3):
        phi2 = model.phi(i) @ model.phi(i)
        ad2 = model.ad_m_xi(i) @ model.ad_m_xi(i)
        for p in range(3, model.m_dim):
            for q in range(3, model.m_dim):
                assert phi2[p, q] == ad2[p, q]
