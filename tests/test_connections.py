import itertools

import pytest

from symtriple.connections import (
    NomizuMap,
    admissibility_failures,
    alpha_canonical,
    alpha_distinguished,
    alpha_family,
    alpha_levi_civita,
    connection_by_name,
    is_metric,
    is_skew_torsion,
    metric_products,
    torsion_operator,
)
from symtriple.linalg import Matrix, combination
from symtriple.scalars import HALF, ONE, ZERO, qi

from conftest import LIGHT_CASES, basis, curvature, curvature_pairs, scalars

EPS2 = ((0, 1), (-1, 0))  # <e_a, e_b> on the auxiliary plane

IDENTITY3 = [[1 if r == s else 0 for s in range(3)] for r in range(3)]
ZERO3 = [[0] * 3 for _ in range(3)]


def _mbm(model, p, q):
    """[e_p, e_q]_m as scalars."""
    return scalars(model.m_bracket_m(p, q), model.algebra.den)


def _bt(model, i, j, k):
    """[e_i, e_j, e_k] in T as scalars."""
    return scalars(model.triple.basis_triple(i, j, k), model.triple.den)


def unit3(r, s):
    """E_rs for r, s in 1..3."""
    return [[1 if (p, q) == (r, s) else 0 for q in (1, 2, 3)] for p in (1, 2, 3)]


def torsion_part(model, a, b_matrix):
    """alpha_family(a, B) - alpha_g; alpha_o is (1, 0), alpha_rs is (0, E_rs)."""
    family = alpha_family(model, a, b_matrix)
    lc = alpha_levi_civita(model)
    return NomizuMap([x - y for x, y in zip(family.ops, lc.ops)], family.label)


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
    lc = alpha_levi_civita(model).ops
    md = model.m_dim
    e = basis(md)
    xi, odd = e[:3], e[3]
    assert lc[0].apply(odd) == (ZERO,) * md
    assert lc[0].apply(xi[1]) == xi[2]  # (1/2)[xi1, xi2]
    # alpha(a (x) x, xi) = [a (x) x, xi]_m = -xi(a) (x) x; xi1(e1) = i e1
    assert lc[3].apply(xi[0]) == tuple(
        qi("-i") if i == 3 else ZERO for i in range(md)
    )


def test_alpha_o_values(model_cache):
    model = model_cache("symplectic", 1)
    ao = torsion_part(model, 1, ZERO3).ops
    md = model.m_dim
    e = basis(md)
    assert ao[0].apply(e[1]) == e[2]
    assert ao[1].apply(e[0]) == tuple(-c for c in e[2])
    assert ao[0].apply(e[4]) == (ZERO,) * md
    assert ao[3].apply(e[4]) == (ZERO,) * md


def test_alpha_rs_values(model_cache):
    model = model_cache("symplectic", 1)
    md = model.m_dim
    e = basis(md)
    xi, x = e[:3], e[3]
    a11 = torsion_part(model, 0, unit3(1, 1)).ops
    assert a11[3].apply(xi[0]) == model.phi(1).apply(x)
    assert a11[0].apply(x) == tuple(-c for c in model.phi(1).apply(x))
    assert a11[0].apply(xi[1]) == tuple(-c for c in xi[2])
    a12 = torsion_part(model, 0, unit3(1, 2)).ops
    assert a12[0].apply(xi[1]) == (ZERO,) * md  # r != s kills the vertical part
    assert a12[3].apply(xi[0]) == model.phi(2).apply(x)
    assert a12[3].apply(xi[1]) == (ZERO,) * md
    # odd-odd: alpha_rs(X, Y) = Phi_s(X, Y) xi_r
    y = e[5]
    phi2y = model.phi(2).apply(y)
    want = tuple(model.metric.gram.bilinear(x, phi2y) * c for c in xi[0])
    assert a12[3].apply(y) == want


def test_family_specializations(model_cache):
    model = model_cache("symplectic", 1)
    assert alpha_family(model, 0, ZERO3).ops == alpha_levi_civita(model).ops
    assert alpha_family(model, 2, IDENTITY3).ops == alpha_distinguished(model).ops
    assert alpha_family(model, 0, IDENTITY3).ops == alpha_canonical(model).ops


# ---------------------------------------------------------------------------
# Reference constructions: each map built entry by entry from its own table,
# independently of HomogeneousModel.bracket_op
# ---------------------------------------------------------------------------

EPS3 = {}
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    EPS3[(_i, _j, _k)] = 1
    EPS3[(_j, _i, _k)] = -1


def zero_ops(md):
    """One entries dict {row: {col: scalar}} per operator."""
    return [{} for _ in range(md)]


def to_matrices(md, ops):
    return [Matrix(md, md, data) for data in ops]


def add_entry(data, l, j, v):
    """data[l][j] += v in an entries dict."""
    row = data.setdefault(l, {})
    row[j] = row.get(j, ZERO) + v


def add_col(data, j, entries):
    for l, v in entries:
        add_entry(data, l, j, v)


def reference_phi(model, i):
    """phi_i: ad(xi_i)|_m with its vertical columns halved."""
    data = {}
    for l, j, v in model.ad_m_xi(i).entries():
        data.setdefault(l, {})[j] = v * HALF if j < 3 else v
    return Matrix(model.m_dim, model.m_dim, data)


def reference_levi_civita(model):
    """Half-bracket on matching blocks, full bracket odd-into-vertical,
    zero vertical-into-odd."""
    md = model.m_dim
    ops = zero_ops(md)
    for i in range(md):
        for j in range(md):
            mbm = _mbm(model, i, j)
            if i < 3 and j < 3:
                add_col(ops[i], j, ((l, v * HALF) for l, v in mbm.items()))
            elif i < 3:
                continue
            elif j < 3:
                add_col(ops[i], j, mbm.items())
            else:
                add_col(ops[i], j, ((l, v * HALF) for l, v in mbm.items()))
    return to_matrices(md, ops)


def reference_alpha_o(model):
    """alpha_o(xi_i, xi_j) = eps_ijk xi_k, zero on odd arguments."""
    ops = zero_ops(model.m_dim)
    for (i, j, k), sgn in EPS3.items():
        add_entry(ops[i], k, j, qi(sgn))
    return to_matrices(model.m_dim, ops)


def reference_alpha_rs(model, r, s):
    """-delta_rs eps_ijk xi_k on the vertical block, Phi_s(X, Y) xi_r on odd
    pairs and phi_s(X) on (X, xi_r), extended alternating."""
    md = model.m_dim
    phi_s = reference_phi(model, s)
    w_s = model.metric.gram @ phi_s
    ops = zero_ops(md)
    if r == s:
        for (i, j, k), sgn in EPS3.items():
            add_entry(ops[i], k, j, qi(-sgn))
    for i in range(3, md):
        for j, v in w_s.row(i).items():
            if j >= 3:
                add_entry(ops[i], r - 1, j, v)
        for l in range(md):
            v = phi_s[l, i]
            if v:
                add_entry(ops[i], l, r - 1, v)
                add_entry(ops[r - 1], l, i, -v)
    return to_matrices(md, ops)


def reference_skew(model, canonical):
    """alpha(xi_i, X) = -phi_i(X) on odd X, alpha(xi, xi') = 0 (distinguished)
    or -[xi, xi']_m (canonical), zero on every other pair."""
    md = model.m_dim
    ops = zero_ops(md)
    for i in range(3):
        phi = reference_phi(model, i + 1)
        for j in range(3, md):
            for l in range(md):
                if phi[l, j]:
                    add_entry(ops[i], l, j, -phi[l, j])
        if canonical:
            for j in range(3):
                for l, v in _mbm(model, i, j).items():
                    add_entry(ops[i], l, j, -v)
    return to_matrices(md, ops)


@pytest.mark.parametrize("family,param", LIGHT_CASES)
def test_skew_value_tables(family, param, model_cache):
    model = model_cache(family, param)
    dist = alpha_distinguished(model)
    can = alpha_canonical(model)
    # the closed-form tables are the family members at (a, B) = (2, I), (0, I)
    for closed, a in ((dist, 2), (can, 0)):
        combo = alpha_family(model, a, IDENTITY3)
        assert combo.ops == closed.ops
        assert combo.params == closed.params
    # every map built by bracket_op equals its entry-by-entry table
    for i in (1, 2, 3):
        assert model.phi(i) == reference_phi(model, i)
    assert list(alpha_levi_civita(model).ops) == reference_levi_civita(model)
    assert list(torsion_part(model, 1, ZERO3).ops) == reference_alpha_o(model)
    for r, s in itertools.product((1, 2, 3), repeat=2):
        got = torsion_part(model, 0, unit3(r, s)).ops
        assert list(got) == reference_alpha_rs(model, r, s)
    assert list(dist.ops) == reference_skew(model, canonical=False)
    assert list(can.ops) == reference_skew(model, canonical=True)


def reference_family(model, a, b_matrix, lc, ao, ars):
    """alpha_g + a alpha_o + sum_rs B_rs alpha_rs from the reference maps."""
    md = model.m_dim
    terms = [(ONE, lc), (qi(a), ao)]
    terms += [
        (qi(c), ars[(r + 1, s + 1)])
        for r, row in enumerate(b_matrix) for s, c in enumerate(row)
    ]
    return [combination([(c, ops[i]) for c, ops in terms], md) for i in range(md)]


@pytest.mark.parametrize("family,param", LIGHT_CASES)
def test_family_matches_reference_combination(family, param, model_cache):
    import random

    model = model_cache(family, param)
    lc = reference_levi_civita(model)
    ao = reference_alpha_o(model)
    ars = {rs: reference_alpha_rs(model, *rs) for rs in itertools.product((1, 2, 3), repeat=2)}
    members = [(1, ZERO3)]
    members += [(0, unit3(r, s)) for r, s in itertools.product((1, 2, 3), repeat=2)]
    rng = random.Random(19)
    values = ["0", "1", "-2", "1/2", "-3/4", "i", "2-1/3i"]
    for _ in range(3):
        members.append((
            qi(rng.choice(values)),
            [[qi(rng.choice(values)) for _ in range(3)] for _ in range(3)],
        ))
    for a, b_matrix in members:
        got = alpha_family(model, a, b_matrix).ops
        assert list(got) == reference_family(model, a, b_matrix, lc, ao, ars), (a, b_matrix)


def test_torsion_values(model_cache):
    model = model_cache("symplectic", 1)
    lc = connection_by_name(model, "levi-civita")
    dist = connection_by_name(model, "distinguished")
    can = connection_by_name(model, "canonical")
    md = model.m_dim
    for i in range(md):
        for j in range(md):
            assert torsion_operator(model, lc.alpha, i, j) == (ZERO,) * md
    xi3 = basis(md)[2]
    assert torsion_operator(model, dist.alpha, 0, 1) == tuple(qi(-2) * c for c in xi3)
    assert torsion_operator(model, can.alpha, 0, 1) == tuple(qi(-6) * c for c in xi3)


@pytest.mark.parametrize("family,param", LIGHT_CASES)
def test_metric_and_skew_flags(family, param, connection_cache):
    for name in ("levi-civita", "distinguished", "canonical"):
        conn = connection_cache(family, param, name)
        assert is_metric(conn.model, conn.alpha)
        assert is_skew_torsion(conn.model, conn.alpha)


def test_zero_map_not_skew(model_cache):
    model = model_cache("symplectic", 1)
    zero = connection_by_name(model, "zero")
    assert is_metric(model, zero.alpha)
    assert not is_skew_torsion(model, zero.alpha)


def dense_is_skew_torsion(model, alpha):
    """The dense predicate: both so(g) checks on w_i = D_i^T g, then
    w_i[j, k] = -w_j[i, k] entry by entry, for D = alpha - alpha_g."""
    if not is_metric(model, alpha):
        return False
    base = alpha_levi_civita(model)
    g = model.metric.gram
    md = model.m_dim
    w = []
    for i in range(md):
        w_i = (alpha.ops[i] - base.ops[i]).transpose() @ g
        if not (w_i + w_i.transpose()).is_zero():
            return False
        w.append(w_i)
    return all(
        w[i][j, k] == -w[j][i, k]
        for i in range(md) for j in range(i + 1, md) for k in range(md)
    )


@pytest.mark.parametrize("family,param", LIGHT_CASES)
def test_skew_torsion_on_maps_that_fail_it(family, param, model_cache):
    model = model_cache(family, param)
    md = model.m_dim
    lc = alpha_levi_civita(model).ops

    def replaced(k, op, label):
        return NomizuMap([op if i == k else x for i, x in enumerate(lc)], label)

    bumped = lc[4] + Matrix(md, md, {1: {2: 1}})
    ad = model.ad_m_inder(0)
    rr = torsion_part(model, 0, unit3(2, 2)).ops
    cases = [
        # metric, since ad h acts by isometries, but D(e_4, .) = 2 ad != -D(., e_4)
        (replaced(4, lc[4] + ad + ad, "lc + 2 ad"), True, False),
        # alpha_rs is a 3-form, so this member is metric and alternating
        (NomizuMap([combination([(1, x), (3, y)], md) for x, y in zip(lc, rr)], "lc + 3 a22"),
         True, True),
        (replaced(4, bumped, "lc bumped"), False, False),
    ]
    g = model.metric.gram
    for alpha, metric, skew in cases:
        assert is_metric(model, alpha) == metric, alpha.label
        products = metric_products(model, alpha)
        assert products == ([g @ op for op in alpha.ops] if metric else None), alpha.label
        assert is_skew_torsion(model, alpha) == skew, alpha.label
        assert dense_is_skew_torsion(model, alpha) == skew, alpha.label


def test_family_members_are_skew(model_cache):
    model = model_cache("symplectic", 1)
    alpha = alpha_family(model, qi("1/2"), [[1, 2, 0], [0, -1, 1], [3, 0, 5]])
    assert is_metric(model, alpha) and is_skew_torsion(model, alpha)
    assert not admissibility_failures(model, alpha)


@pytest.mark.parametrize("family,param", LIGHT_CASES)
def test_admissibility(family, param, connection_cache):
    for name in ("levi-civita", "distinguished", "canonical"):
        conn = connection_cache(family, param, name)
        assert not admissibility_failures(conn.model, conn.alpha)


def test_wedge_normalization_cross_check(model_cache):
    # g(alpha_rs(X,Y),Z) = (eta_r ^ Phi_s)(X,Y,Z) with the pinned wedge
    # (eta ^ Phi)(X,Y,Z) = eta(X)Phi(Y,Z) + eta(Y)Phi(Z,X) + eta(Z)Phi(X,Y);
    # same for alpha_o against eta_1 ^ eta_2 ^ eta_3.  eta_r(e_i) = g[r - 1, i].
    model = model_cache("symplectic", 1)
    md = model.m_dim
    e = basis(md)
    gram = model.metric.gram
    gv = gram.bilinear
    for r in range(1, 4):
        for s in range(1, 4):
            ars = torsion_part(model, 0, unit3(r, s)).ops
            phi_s = model.phi(s)

            def phi2(u, w):
                return gv(u, phi_s.apply(w))

            for i, j, k in itertools.product(range(md), repeat=3):
                lhs = gv(ars[i].apply(e[j]), e[k])
                rhs = (
                    gram[r - 1, i] * phi2(e[j], e[k])
                    + gram[r - 1, j] * phi2(e[k], e[i])
                    + gram[r - 1, k] * phi2(e[i], e[j])
                )
                assert lhs == rhs
    ao = torsion_part(model, 1, ZERO3).ops
    for i, j, k in itertools.product(range(md), repeat=3):
        rows = [[gram[r, idx] for idx in (i, j, k)] for r in range(3)]
        det = (
            rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
            - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
            + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0])
        )
        assert gv(ao[i].apply(e[j]), e[k]) == det


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
    out = {}
    if i < 3 and j < 3:
        for k in range(3):
            for l1, v1 in _mbm(model, i, j).items():
                for l2, v2 in _mbm(model, l1, k).items():
                    add_entry(out, l2, k, -qi("1/4") * v1 * v2)
        return Matrix(md, md, out)
    if i >= 3 and j < 3:
        a, k = divmod(i - 3, td)
        # vertical input xi_m: g(xi_j, xi_m) (a x) t_k; odd input (b, l):
        # -(1/2) (t_k, t_l) <e_a, e_b> xi_j
        add_entry(out, i, j, ONE)
        for b in range(2):
            eps = EPS2[a][b]
            if not eps:
                continue
            for l in range(td):
                v = om[k, l]
                if v:
                    add_entry(out, j, _odd(model, b, l), -HALF * v * qi(eps))
        return Matrix(md, md, out)
    if i < 3 and j >= 3:
        return -lc_closed_form(model, j, i)
    a, k = divmod(i - 3, td)
    b, l = divmod(j - 3, td)
    eps_ab = qi(EPS2[a][b])
    for c in range(2):
        for m in range(td):
            col = _odd(model, c, m)
            v1 = om[k, m]
            if v1:
                g = gamma_on(a, c, b)
                for vslot in range(2):
                    if g[vslot]:
                        add_entry(out, _odd(model, vslot, l), col, HALF * v1 * g[vslot])
            v2 = om[l, m]
            if v2:
                g = gamma_on(b, c, a)
                for vslot in range(2):
                    if g[vslot]:
                        add_entry(out, _odd(model, vslot, k), col, -HALF * v2 * g[vslot])
            if eps_ab:
                for t, v in _bt(model, k, l, m).items():
                    add_entry(out, _odd(model, c, t), col, -eps_ab * v)
    return Matrix(md, md, out)


def add_matrix(data, c, m):
    """data += c m in an entries dict."""
    for rr, cc, vv in m.entries():
        add_entry(data, rr, cc, c * vv)


def skew_closed_form(model, i, j, canonical):
    """Curvature closed forms of the two skew-torsion connections."""
    md = model.m_dim
    td = model.algebra.t_dim
    om = model.triple.omega
    out = {}
    if i < 3 and j < 3:
        for l1, v1 in _mbm(model, i, j).items():
            ad = model.ad_m_xi(l1 + 1)
            if canonical:
                add_matrix(out, qi(2) * v1, ad)
            else:
                for rr, cc, vv in ad.entries():
                    if rr >= 3 and cc >= 3:
                        add_entry(out, rr, cc, qi(2) * v1 * vv)
        return Matrix(md, md, out)
    if (i >= 3) != (j >= 3):
        return Matrix(md, md)  # R(odd, vertical) = 0
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
                    add_matrix(out, v * cv, model.ad_m_xi(idx + 1))
        else:
            for c in range(2):
                for m in range(td):
                    gc = g[c]
                    for vslot in range(2):
                        if gc[vslot]:
                            add_entry(out, _odd(model, vslot, m), _odd(model, c, m),
                                      v * gc[vslot])
    eps = qi(EPS2[a][b])
    if eps:
        if canonical:
            d = model.triple.dmat(k, l)
            for r, cv in scalars(model.inder.coords_of(d), d.den).items():
                add_matrix(out, -eps * cv, model.ad_m_inder(r))
        else:
            for c in range(2):
                for m in range(td):
                    for t, tv in _bt(model, k, l, m).items():
                        add_entry(out, _odd(model, c, t), _odd(model, c, m), -eps * tv)
    return Matrix(md, md, out)


def _gamma_xi_coords(a, b):
    from symtriple.enveloping import _gamma_mat, _sl2_to_xi

    coords = scalars(*_sl2_to_xi(_gamma_mat(a, b)))
    return tuple(coords.get(k, ZERO) for k in range(3))


@pytest.mark.parametrize("family,param", LIGHT_CASES)
def test_levi_civita_curvature_closed_forms(family, param, connection_cache):
    conn = connection_cache(family, param, "levi-civita")
    model = conn.model
    for (i, j), r in curvature_pairs(conn):
        assert r == lc_closed_form(model, i, j), (family, param, i, j)


@pytest.mark.parametrize("family,param", LIGHT_CASES)
def test_skew_curvature_closed_forms(family, param, connection_cache):
    for name, canonical in (("distinguished", False), ("canonical", True)):
        conn = connection_cache(family, param, name)
        model = conn.model
        for (i, j), r in curvature_pairs(conn):
            assert r == skew_closed_form(model, i, j, canonical), (name, i, j)


@pytest.mark.parametrize("family,param", LIGHT_CASES)
def test_lc_curvature_is_metric_pair_operator(family, param, connection_cache):
    # R(xi, xi') = -phi_{xi,xi'} and R(a (x) x, xi) = -phi_{a (x) x, xi}
    conn = connection_cache(family, param, "levi-civita")
    model = conn.model
    md = model.m_dim
    g = model.metric.gram

    def phi(a, b):  # g(e_a, .) e_b - g(e_b, .) e_a
        return Matrix(md, md, {b: g.row(a)}) - Matrix(md, md, {a: g.row(b)})

    for i in range(3):
        for j in range(i + 1, 3):
            assert curvature(conn, i, j) == -phi(i, j)
    for p in range(3, md):
        for i in range(3):
            assert curvature(conn, p, i) == -phi(p, i)


@pytest.mark.parametrize("family,param", LIGHT_CASES)
def test_curvature_operators_orthogonal(family, param, connection_cache):
    g = None
    for name in ("levi-civita", "distinguished", "canonical"):
        conn = connection_cache(family, param, name)
        if g is None:
            g = conn.model.metric.gram
        for _, r in curvature_pairs(conn):
            assert (r.transpose() @ g + g @ r).is_zero()


@pytest.mark.parametrize("family,param", LIGHT_CASES)
def test_skew_vs_canonical_blocks(family, param, connection_cache):
    dist = connection_cache(family, param, "distinguished")
    can = connection_cache(family, param, "canonical")
    md = dist.model.m_dim
    for i in range(md):
        for j in range(i + 1, md):
            rs, rc = curvature(dist, i, j), curvature(can, i, j)
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
        for t, tv in _bt(model, x, y, z).items():
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
            cur = curvature(conn, p, q)
            for t in range(md):
                v = cur[t, r]
                if v:
                    total[t] = total[t] + v
            for t, v in enumerate(_gamma_part(model, p, q, r)):
                want[t] = want[t] + v + v
        assert total == want


def test_constant_curvature_witness(connection_cache):
    # R^g(e1 (x) x, e2 (x) y)(e1 (x) z) = -phi_{.,.}(e1 (x) z) holds for the
    # symplectic family and fails somewhere for every other light family.
    def mismatch_exists(family, param):
        conn = connection_cache(family, param, "levi-civita")
        model = conn.model
        md = model.m_dim
        td = model.algebra.t_dim
        g = model.metric.gram
        for x in range(td):
            for y in range(td):
                p, q = _odd(model, 0, x), _odd(model, 1, y)
                r = curvature(conn, p, q)
                phi = Matrix(md, md, {q: g.row(p)}) - Matrix(md, md, {p: g.row(q)})
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
