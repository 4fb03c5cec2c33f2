import itertools

import pytest

from symtriple.connections import (
    admissibility_failures,
    alpha_canonical,
    alpha_distinguished,
    alpha_family,
    alpha_levi_civita,
    alpha_o,
    alpha_rs,
    connection_by_name,
)
from symtriple.enveloping import metric_skew_operator
from symtriple.linalg import Matrix
from symtriple.scalars import HALF, ONE, ZERO, qi

from conftest import LIGHT_CASES

EPS2 = ((0, 1), (-1, 0))  # <e_a, e_b> on the auxiliary plane

IDENTITY3 = [[1 if r == s else 0 for s in range(3)] for r in range(3)]
ZERO3 = [[0] * 3 for _ in range(3)]


def basis_vec(md, i):
    return tuple(ONE if j == i else ZERO for j in range(md))


def gamma_on(a, c, b):
    """gamma_{e_a, e_c}(e_b) = <e_a,e_b> e_c + <e_c,e_b> e_a on the plane."""
    out = [ZERO, ZERO]
    if EPS2[a][b]:
        out[c] = out[c] + qi(EPS2[a][b])
    if EPS2[c][b]:
        out[a] = out[a] + qi(EPS2[c][b])
    return out


# ---------------------------------------------------------------------------
# Nomizu map value tables
# ---------------------------------------------------------------------------


def test_levi_civita_values(model_cache):
    model = model_cache("symplectic", 1)
    lc = alpha_levi_civita(model)
    md = model.m_dim
    xi = [model.xi_vector(i) for i in (1, 2, 3)]
    odd = basis_vec(md, 3)
    assert lc.value(xi[0], odd) == (ZERO,) * md
    assert lc.value(xi[0], xi[1]) == xi[2]  # (1/2)[xi1, xi2]
    # alpha(a (x) x, xi) = [a (x) x, xi]_m = -xi(a) (x) x; xi1(e1) = i e1
    assert lc.value(odd, xi[0]) == tuple(
        qi("-i") if i == 3 else ZERO for i in range(md)
    )


def test_alpha_o_values(model_cache):
    model = model_cache("symplectic", 1)
    ao = alpha_o(model)
    md = model.m_dim
    xi = [model.xi_vector(i) for i in (1, 2, 3)]
    assert ao.value(xi[0], xi[1]) == xi[2]
    assert ao.value(xi[1], xi[0]) == tuple(-c for c in xi[2])
    assert ao.value(xi[0], basis_vec(md, 4)) == (ZERO,) * md
    assert ao.value(basis_vec(md, 3), basis_vec(md, 4)) == (ZERO,) * md


def test_alpha_rs_values(model_cache):
    model = model_cache("symplectic", 1)
    md = model.m_dim
    xi = [model.xi_vector(i) for i in (1, 2, 3)]
    x = basis_vec(md, 3)
    a11 = alpha_rs(model, 1, 1)
    assert a11.value(x, xi[0]) == model.phi(1).apply(x)
    assert a11.value(xi[0], x) == tuple(-c for c in model.phi(1).apply(x))
    assert a11.value(xi[0], xi[1]) == tuple(-c for c in xi[2])
    a12 = alpha_rs(model, 1, 2)
    assert a12.value(xi[0], xi[1]) == (ZERO,) * md  # r != s kills the vertical part
    assert a12.value(x, xi[0]) == model.phi(2).apply(x)
    assert a12.value(x, xi[1]) == (ZERO,) * md
    # odd-odd: alpha_rs(X, Y) = Phi_s(X, Y) xi_r
    y = basis_vec(md, 5)
    phi2y = model.phi(2).apply(y)
    want = tuple(model.metric.value(x, phi2y) * c for c in xi[0])
    assert a12.value(x, y) == want


def test_family_specializations(model_cache):
    model = model_cache("symplectic", 1)
    assert alpha_family(model, 0, ZERO3).ops == alpha_levi_civita(model).ops
    assert alpha_family(model, 2, IDENTITY3).ops == alpha_distinguished(model).ops
    assert alpha_family(model, 0, IDENTITY3).ops == alpha_canonical(model).ops


@pytest.mark.parametrize("family,param", LIGHT_CASES)
def test_skew_value_tables(family, param, model_cache):
    model = model_cache(family, param)
    md = model.m_dim
    dist = alpha_distinguished(model)
    can = alpha_canonical(model)
    # the closed-form tables are the family members at (a, B) = (2, I), (0, I)
    for closed, a in ((dist, 2), (can, 0)):
        combo = alpha_family(model, a, IDENTITY3)
        assert combo.ops == closed.ops
        assert combo.params == closed.params
    xi = [model.xi_vector(i) for i in (1, 2, 3)]
    zero = (ZERO,) * md
    for i in range(3):
        for p in range(3, md):
            x = basis_vec(md, p)
            assert dist.value(x, xi[i]) == zero
            assert dist.value(xi[i], x) == tuple(
                -c for c in model.phi(i + 1).apply(x)
            )
            assert can.value(x, xi[i]) == dist.value(x, xi[i])
            assert can.value(xi[i], x) == dist.value(xi[i], x)
        for j in range(3):
            assert dist.value(xi[i], xi[j]) == zero
            mbm = model.m_bracket_m(i, j)
            want = [ZERO] * md
            for l, v in mbm.items():
                want[l] = -v
            assert can.value(xi[i], xi[j]) == tuple(want)
    assert dist.value(basis_vec(md, 3), basis_vec(md, md - 1)) == zero
    assert can.value(basis_vec(md, 3), basis_vec(md, md - 1)) == zero


def test_torsion_values(model_cache):
    model = model_cache("symplectic", 1)
    lc = connection_by_name(model, "levi-civita")
    dist = connection_by_name(model, "distinguished")
    can = connection_by_name(model, "canonical")
    md = model.m_dim
    for i in range(md):
        for j in range(md):
            assert lc.torsion(i, j) == (ZERO,) * md
    xi3 = model.xi_vector(3)
    assert dist.torsion(0, 1) == tuple(qi(-2) * c for c in xi3)
    assert can.torsion(0, 1) == tuple(qi(-6) * c for c in xi3)


@pytest.mark.parametrize("family,param", LIGHT_CASES)
def test_metric_and_skew_flags(family, param, connection_cache):
    for name in ("levi-civita", "distinguished", "canonical"):
        conn = connection_cache(family, param, name)
        assert conn.is_metric()
        assert conn.is_skew_torsion()


def test_zero_map_not_skew(model_cache):
    model = model_cache("symplectic", 1)
    zero = connection_by_name(model, "zero")
    assert zero.is_metric()
    assert not zero.is_skew_torsion()


def test_family_members_are_skew(model_cache):
    model = model_cache("symplectic", 1)
    from symtriple.connections import Connection

    alpha = alpha_family(model, qi("1/2"), [[1, 2, 0], [0, -1, 1], [3, 0, 5]])
    conn = Connection(model, alpha)
    assert conn.is_metric() and conn.is_skew_torsion()
    assert not admissibility_failures(model, alpha)


@pytest.mark.parametrize("family,param", LIGHT_CASES)
def test_admissibility(family, param, connection_cache):
    for name in ("levi-civita", "distinguished", "canonical"):
        conn = connection_cache(family, param, name)
        assert not admissibility_failures(conn.model, conn.alpha)


def test_wedge_normalization_cross_check(model_cache):
    # g(alpha_rs(X,Y),Z) = (eta_r ^ Phi_s)(X,Y,Z) with the pinned wedge
    # (eta ^ Phi)(X,Y,Z) = eta(X)Phi(Y,Z) + eta(Y)Phi(Z,X) + eta(Z)Phi(X,Y);
    # same for alpha_o against eta_1 ^ eta_2 ^ eta_3.
    model = model_cache("symplectic", 1)
    md = model.m_dim
    basis = [basis_vec(md, p) for p in range(md)]
    gv = model.metric.value
    for r in range(1, 4):
        eta_r = model.metric.eta(r - 1)
        for s in range(1, 4):
            ars = alpha_rs(model, r, s)
            phi_s = model.phi(s)

            def phi2(u, w):
                return gv(u, phi_s.apply(w))

            for i, j, k in itertools.product(range(md), repeat=3):
                lhs = gv(ars.value(basis[i], basis[j]), basis[k])
                rhs = (
                    eta_r[i] * phi2(basis[j], basis[k])
                    + eta_r[j] * phi2(basis[k], basis[i])
                    + eta_r[k] * phi2(basis[i], basis[j])
                )
                assert lhs == rhs
    ao = alpha_o(model)
    etas = [model.metric.eta(r) for r in range(3)]
    for i, j, k in itertools.product(range(md), repeat=3):
        rows = [[etas[r][idx] for idx in (i, j, k)] for r in range(3)]
        det = (
            rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
            - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
            + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0])
        )
        assert gv(ao.value(basis[i], basis[j]), basis[k]) == det


# ---------------------------------------------------------------------------
# Curvature operators against their closed forms
# ---------------------------------------------------------------------------


def _odd(model, a, k):
    return 3 + a * model.algebra.t_dim + k


def lc_closed_form(model, i, j):
    """Curvature of the Levi-Civita map, assembled from the three displayed
    cases (bracket nesting, metric pairing, gamma/triple-product terms)."""
    md = model.m_dim
    td = model.algebra.t_dim
    om = model.triple.omega
    out = Matrix(md, md)
    if i < 3 and j < 3:
        for k in range(3):
            acc = [ZERO] * md
            for l1, v1 in model.m_bracket_m(i, j).items():
                for l2, v2 in model.m_bracket_m(l1, k).items():
                    acc[l2] = acc[l2] - qi("1/4") * v1 * v2
            for l in range(md):
                if acc[l]:
                    out.set_entry(l, k, acc[l])
        return out
    if i >= 3 and j < 3:
        a, k = divmod(i - 3, td)
        # vertical input xi_m: g(xi_j, xi_m) (a x) t_k; odd input (b, l):
        # -(1/2) (t_k, t_l) <e_a, e_b> xi_j
        out.set_entry(i, j, ONE)
        for b in range(2):
            eps = EPS2[a][b]
            if not eps:
                continue
            for l in range(td):
                v = om[k, l]
                if v:
                    out.set_entry(j, _odd(model, b, l), -HALF * v * qi(eps))
        return out
    if i < 3 and j >= 3:
        return -lc_closed_form(model, j, i)
    a, k = divmod(i - 3, td)
    b, l = divmod(j - 3, td)
    eps_ab = qi(EPS2[a][b])
    for c in range(2):
        for m in range(td):
            col = _odd(model, c, m)
            acc = [ZERO] * md
            v1 = om[k, m]
            if v1:
                g = gamma_on(a, c, b)
                for vslot in range(2):
                    if g[vslot]:
                        acc[_odd(model, vslot, l)] = (
                            acc[_odd(model, vslot, l)] + HALF * v1 * g[vslot]
                        )
            v2 = om[l, m]
            if v2:
                g = gamma_on(b, c, a)
                for vslot in range(2):
                    if g[vslot]:
                        acc[_odd(model, vslot, k)] = (
                            acc[_odd(model, vslot, k)] - HALF * v2 * g[vslot]
                        )
            if eps_ab:
                for t, v in model.triple.basis_triple(k, l, m).items():
                    acc[_odd(model, c, t)] = acc[_odd(model, c, t)] - eps_ab * v
            for p in range(md):
                if acc[p]:
                    out.set_entry(p, col, acc[p])
    return out


def skew_closed_form(model, i, j, canonical):
    """Curvature closed forms of the two skew-torsion connections."""
    md = model.m_dim
    td = model.algebra.t_dim
    om = model.triple.omega
    out = Matrix(md, md)
    if i < 3 and j < 3:
        for l1, v1 in model.m_bracket_m(i, j).items():
            ad = model.ad_m_xi(l1 + 1)
            if canonical:
                out = out + ad.scale(qi(2) * v1)
            else:
                for (rr, row) in ad.data.items():
                    if rr < 3:
                        continue
                    for cc, vv in row.items():
                        if cc >= 3:
                            out.set_entry(rr, cc, out[rr, cc] + qi(2) * v1 * vv)
        return out
    if (i >= 3) != (j >= 3):
        return out  # R(odd, vertical) = 0
    a, k = divmod(i - 3, td)
    b, l = divmod(j - 3, td)
    v = om[k, l]
    if v:
        g = gamma_on(a, b, 0), gamma_on(a, b, 1)  # gamma_{a,b}(e_c) for c = 0, 1
        if canonical:
            # ad of the vertical element (x,y) gamma_{a,b} on all of m
            coords = _gamma_xi_coords(a, b)
            for idx, cv in enumerate(coords):
                if cv:
                    out = out + model.ad_m_xi(idx + 1).scale(v * cv)
        else:
            for c in range(2):
                for m in range(td):
                    gc = g[c]
                    for vslot in range(2):
                        if gc[vslot]:
                            out.set_entry(
                                _odd(model, vslot, m),
                                _odd(model, c, m),
                                out[_odd(model, vslot, m), _odd(model, c, m)]
                                + v * gc[vslot],
                            )
    eps = qi(EPS2[a][b])
    if eps:
        if canonical:
            coords = model.inder.coords_of(model.triple.dmat(k, l))
            for r, cv in enumerate(coords):
                if cv:
                    out = out - model.ad_m_inder(r).scale(eps * cv)
        else:
            for c in range(2):
                for m in range(td):
                    for t, tv in model.triple.basis_triple(k, l, m).items():
                        out.set_entry(
                            _odd(model, c, t),
                            _odd(model, c, m),
                            out[_odd(model, c, t), _odd(model, c, m)] - eps * tv,
                        )
    return out


def _gamma_xi_coords(a, b):
    from symtriple.enveloping import _gamma_mat, _sl2_to_xi

    return _sl2_to_xi(_gamma_mat(a, b))


@pytest.mark.parametrize("family,param", LIGHT_CASES)
def test_levi_civita_curvature_closed_forms(family, param, connection_cache):
    conn = connection_cache(family, param, "levi-civita")
    model = conn.model
    for (i, j), r in conn.curvature_pairs():
        assert r == lc_closed_form(model, i, j), (family, param, i, j)


@pytest.mark.parametrize("family,param", LIGHT_CASES)
def test_skew_curvature_closed_forms(family, param, connection_cache):
    for name, canonical in (("distinguished", False), ("canonical", True)):
        conn = connection_cache(family, param, name)
        model = conn.model
        for (i, j), r in conn.curvature_pairs():
            assert r == skew_closed_form(model, i, j, canonical), (name, i, j)


@pytest.mark.parametrize("family,param", LIGHT_CASES)
def test_lc_curvature_is_metric_pair_operator(family, param, connection_cache):
    # R(xi, xi') = -phi_{xi,xi'} and R(a (x) x, xi) = -phi_{a (x) x, xi}
    conn = connection_cache(family, param, "levi-civita")
    model = conn.model
    md = model.m_dim
    for i in range(3):
        for j in range(i + 1, 3):
            want = metric_skew_operator(
                model.metric, basis_vec(md, i), basis_vec(md, j)
            )
            assert conn.curvature(i, j) == -want
    for p in range(3, md):
        for i in range(3):
            want = metric_skew_operator(
                model.metric, basis_vec(md, p), basis_vec(md, i)
            )
            assert conn.curvature(p, i) == -want


@pytest.mark.parametrize("family,param", LIGHT_CASES)
def test_curvature_operators_orthogonal(family, param, connection_cache):
    g = None
    for name in ("levi-civita", "distinguished", "canonical"):
        conn = connection_cache(family, param, name)
        if g is None:
            g = conn.model.metric.gram
        for _, r in conn.curvature_pairs():
            assert (r.transpose() @ g + g @ r).is_zero()


@pytest.mark.parametrize("family,param", LIGHT_CASES)
def test_skew_vs_canonical_blocks(family, param, connection_cache):
    dist = connection_cache(family, param, "distinguished")
    can = connection_cache(family, param, "canonical")
    md = dist.model.m_dim
    for i in range(md):
        for j in range(i + 1, md):
            rs, rc = dist.curvature(i, j), can.curvature(i, j)
            for p in range(3, md):
                for q in range(3, md):
                    assert rs[p, q] == rc[p, q]
            for p in range(3):
                for q in range(md):
                    assert rs[p, q] == ZERO


def _lts_product(model, i, j, k):
    """Independent triple product on the odd part:
    gamma_{a,b}(c) (x) (x,y) z + <a,b> c (x) [x,y,z]."""
    md = model.m_dim
    td = model.algebra.t_dim
    a, x = divmod(i - 3, td)
    b, y = divmod(j - 3, td)
    c, z = divmod(k - 3, td)
    out = [ZERO] * md
    v = model.triple.omega[x, y]
    if v:
        g = gamma_on(a, b, c)
        for vslot in range(2):
            if g[vslot]:
                out[_odd(model, vslot, z)] = out[_odd(model, vslot, z)] + v * g[vslot]
    eps = qi(EPS2[a][b])
    if eps:
        for t, tv in model.triple.basis_triple(x, y, z).items():
            out[_odd(model, c, t)] = out[_odd(model, c, t)] + eps * tv
    return tuple(out)


def _gamma_part(model, i, j, k):
    md = model.m_dim
    td = model.algebra.t_dim
    a, x = divmod(i - 3, td)
    b, y = divmod(j - 3, td)
    c, z = divmod(k - 3, td)
    out = [ZERO] * md
    v = model.triple.omega[x, y]
    if v:
        g = gamma_on(a, b, c)
        for vslot in range(2):
            if g[vslot]:
                out[_odd(model, vslot, z)] = out[_odd(model, vslot, z)] + v * g[vslot]
    return tuple(out)


@pytest.mark.parametrize("family,param", [("symplectic", 1), ("exceptional", "scalar")])
def test_lie_triple_cyclic_identity(family, param, model_cache):
    # the odd part is a Lie triple system: cyclic sums vanish
    model = model_cache(family, param)
    md = model.m_dim
    zero = (ZERO,) * md
    for i, j, k in itertools.product(range(3, md), repeat=3):
        total = [ZERO] * md
        for p, q, r in ((i, j, k), (j, k, i), (k, i, j)):
            for t, v in enumerate(_lts_product(model, p, q, r)):
                total[t] = total[t] + v
        assert tuple(total) == zero


@pytest.mark.parametrize("family,param", [("symplectic", 1), ("exceptional", "scalar")])
def test_first_bianchi_failure_value(family, param, connection_cache):
    # cyclic sum of R^dist over odd arguments equals twice the cyclic
    # gamma-part: the exact amount by which the first Bianchi identity fails.
    conn = connection_cache(family, param, "distinguished")
    model = conn.model
    md = model.m_dim
    for i, j, k in itertools.product(range(3, md), repeat=3):
        total = [ZERO] * md
        want = [ZERO] * md
        for p, q, r in ((i, j, k), (j, k, i), (k, i, j)):
            cur = conn.curvature(p, q)
            for t in range(md):
                v = cur[t, r]
                if v:
                    total[t] = total[t] + v
            for t, v in enumerate(_gamma_part(model, p, q, r)):
                want[t] = want[t] + v + v
        assert total == want


def test_curvature_of_matches_bilinear_expansion(connection_cache):
    # R on arbitrary vectors from the defining formula agrees with the
    # antisymmetric bilinear expansion of the basis operators
    import random

    conn = connection_cache("symplectic", 1, "canonical")
    model = conn.model
    md = model.m_dim
    rng = random.Random(7)
    for _ in range(5):
        x = tuple(qi(rng.randint(-3, 3)) for _ in range(md))
        y = tuple(qi(rng.randint(-3, 3)) for _ in range(md))
        direct = conn.curvature_of(x, y)
        expanded = Matrix(md, md)
        for i in range(md):
            if not x[i]:
                continue
            for j in range(md):
                if y[j]:
                    expanded = expanded + conn.curvature(i, j).scale(x[i] * y[j])
        assert direct == expanded
    # antisymmetry
    x = tuple(qi(1) for _ in range(md))
    assert conn.curvature_of(x, x).is_zero()


def test_constant_curvature_witness(connection_cache):
    # R^g(e1 (x) x, e2 (x) y)(e1 (x) z) = -phi_{.,.}(e1 (x) z) holds for the
    # symplectic family and fails somewhere for every other light family.
    def mismatch_exists(family, param):
        conn = connection_cache(family, param, "levi-civita")
        model = conn.model
        md = model.m_dim
        td = model.algebra.t_dim
        for x in range(td):
            for y in range(td):
                p, q = _odd(model, 0, x), _odd(model, 1, y)
                r = conn.curvature(p, q)
                phi = metric_skew_operator(
                    model.metric, basis_vec(md, p), basis_vec(md, q)
                )
                for z in range(td):
                    col = _odd(model, 0, z)
                    for t in range(md):
                        if r[t, col] != -phi[t, col]:
                            return True
        return False

    assert not mismatch_exists("symplectic", 1)
    assert not mismatch_exists("symplectic", 2)
    for family, param in [("orthogonal", 3), ("special", 1), ("exceptional", "scalar")]:
        assert mismatch_exists(family, param)
