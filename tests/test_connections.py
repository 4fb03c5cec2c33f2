import argparse
import itertools
import random
from fractions import Fraction
from functools import partial

import pytest

from symtriple import cli, connections
from symtriple.connections import (
    CONNECTION_NAMES,
    NAMED,
    Connection,
    NomizuMap,
    admissibility_failures,
    alpha_family,
    connection_by_name,
    is_metric,
    is_skew_torsion,
    metric_products,
    named_alpha,
    torsion_operator,
)
from symtriple.holonomy import table_report
from symtriple.linalg import Matrix, inverse
from symtriple.scalars import HALF, ONE, ZERO, qi

from conftest import (
    LIGHT_CASES, apply, basis, bilinear, combination, comm_minus, curvature, curvature_pairs,
    dmat, gamma_mat, scalars, sl2_to_xi,
)
from test_matrix_reference import assert_canonical

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
    lc = named_alpha(model, "levi-civita")
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
    lc = named_alpha(model, "levi-civita").ops
    md = model.m_dim
    e = basis(md)
    xi, odd = e[:3], e[3]
    assert apply(lc[0], odd) == (ZERO,) * md
    assert apply(lc[0], xi[1]) == xi[2]  # (1/2)[xi1, xi2]
    # alpha(a (x) x, xi) = [a (x) x, xi]_m = -xi(a) (x) x; xi1(e1) = i e1
    assert apply(lc[3], xi[0]) == tuple(
        qi("-i") if i == 3 else ZERO for i in range(md)
    )


def test_alpha_o_values(model_cache):
    model = model_cache("symplectic", 1)
    ao = torsion_part(model, 1, ZERO3).ops
    md = model.m_dim
    e = basis(md)
    assert apply(ao[0], e[1]) == e[2]
    assert apply(ao[1], e[0]) == tuple(-c for c in e[2])
    assert apply(ao[0], e[4]) == (ZERO,) * md
    assert apply(ao[3], e[4]) == (ZERO,) * md


def test_alpha_rs_values(model_cache):
    model = model_cache("symplectic", 1)
    md = model.m_dim
    e = basis(md)
    xi, x = e[:3], e[3]
    a11 = torsion_part(model, 0, unit3(1, 1)).ops
    assert apply(a11[3], xi[0]) == apply(model.phi(1), x)
    assert apply(a11[0], x) == tuple(-c for c in apply(model.phi(1), x))
    assert apply(a11[0], xi[1]) == tuple(-c for c in xi[2])
    a12 = torsion_part(model, 0, unit3(1, 2)).ops
    assert apply(a12[0], xi[1]) == (ZERO,) * md  # r != s kills the vertical part
    assert apply(a12[3], xi[0]) == apply(model.phi(2), x)
    assert apply(a12[3], xi[1]) == (ZERO,) * md
    # odd-odd: alpha_rs(X, Y) = Phi_s(X, Y) xi_r
    y = e[5]
    phi2y = apply(model.phi(2), y)
    want = tuple(bilinear(model.metric.gram, x, phi2y) * c for c in xi[0])
    assert apply(a12[3], y) == want


def test_family_specializations(model_cache):
    model = model_cache("symplectic", 1)
    assert alpha_family(model, 0, ZERO3).ops == named_alpha(model, "levi-civita").ops
    assert alpha_family(model, 2, IDENTITY3).ops == named_alpha(model, "distinguished").ops
    assert alpha_family(model, 0, IDENTITY3).ops == named_alpha(model, "canonical").ops


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
    dist = named_alpha(model, "distinguished")
    can = named_alpha(model, "canonical")
    # the closed-form tables are the family members at (a, B) = (2, I), (0, I)
    for closed, a in ((dist, 2), (can, 0)):
        combo = alpha_family(model, a, IDENTITY3)
        assert combo.ops == closed.ops
    # every map built by bracket_op equals its entry-by-entry table
    for i in (1, 2, 3):
        assert model.phi(i) == reference_phi(model, i)
    assert list(named_alpha(model, "levi-civita").ops) == reference_levi_civita(model)
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
    # B over 3, 5 and 7, coprime to the denominators of phi_s and g, so the
    # one denominator of the numerator sum is no multiple of theirs
    members += [(qi("1/2"), [["1/3", 0, "2/7+1/5i"], [0, "-1/3", 1], ["2/7+1/5i", 2, 0]]),
                (0, [[0, "1/3", 0], ["2/7+1/5i", 0, 0], [0, 0, "1/3"]])]
    for a, b_matrix in members:
        got = alpha_family(model, a, b_matrix).ops
        assert list(got) == reference_family(model, a, b_matrix, lc, ao, ars), (a, b_matrix)
        for op in got:
            assert_canonical(op)


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


def test_named_table_drives_every_reader(model_cache):
    # each NAMED row is built once per model; its names, and no other, are
    # what connection_by_name, the CLI and the dimension table accept
    model = model_cache("symplectic", 1)
    for name in NAMED:
        assert named_alpha(model, name) is named_alpha(model, name)
        assert named_alpha(model, name).label == name
    with pytest.raises(ValueError, match="bogus"):
        connection_by_name(model, "bogus")
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for command in ("holonomy", "curvature", "ricci"):
        option = next(a for a in commands.choices[command]._actions if a.dest == "connection")
        assert tuple(option.choices) == (*NAMED, "family")
    [row] = table_report([("symplectic", 1)])
    assert tuple(row.dims) == tuple(row.expected) == CONNECTION_NAMES
    assert set(CONNECTION_NAMES) < set(NAMED)


def dense_is_skew_torsion(model, alpha):
    """The dense predicate: both so(g) checks on w_i = D_i^T g, then
    w_i[j, k] = -w_j[i, k] entry by entry, for D = alpha - alpha_g."""
    if not is_metric(model, alpha):
        return False
    base = named_alpha(model, "levi-civita")
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
    lc = named_alpha(model, "levi-civita").ops

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


def three_form_part(model, c, i, j, k) -> Matrix:
    """The operator D with g(D e_j, e_k) = c = -g(D e_k, e_j), zero
    elsewhere: a metric change of alpha(e_i, .) that is one entry of a
    3-form, up to its forced alternation in (Y, Z)."""
    md = model.m_dim
    return inverse(model.metric.gram) @ Matrix(md, md, {k: {j: c}, j: {k: -c}})


@pytest.mark.parametrize("family,param", LIGHT_CASES)
def test_skew_torsion_matches_dense_predicate(family, param, model_cache):
    # is_skew_torsion sums D(e_i, e_j) + D(e_j, e_i) on numerators over the
    # lcm of alpha's and alpha_g's denominators; the dense predicate does not
    model = model_cache(family, param)
    md = model.m_dim
    lc = named_alpha(model, "levi-civita").ops
    rng = random.Random(29)

    def rational():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 5))

    def gaussian():
        return qi(rational()) + qi(rational()) * qi("i")

    members = [alpha_family(model, draw(), [[draw() for _ in range(3)] for _ in range(3)])
               for draw in (rational, gaussian)]
    assert any(x.b for op in members[1].ops for _, _, x in op.entries())
    # B = E_11 / 3 leaves alpha(X, xi_2) = alpha_g(X, xi_2) over another
    # denominator: D holds zeros where the two numerators cancel
    cancel = alpha_family(model, 0, [[Fraction(1, 3), 0, 0], ZERO3[1], ZERO3[2]])
    assert any(a.den != b.den and any(a[l, j] == x for l, j, x in b.entries())
               for a, b in zip(cancel.ops, lc))
    if (family, param) == ("orthogonal", 3):
        assert 4 in {op.den for op in lc}
        assert all({op.den for op in lc} != {op.den for op in m.ops} for m in (*members, cancel))
    # one entry of a 3-form on (e_0, e_3, e_last): in all three operators
    # it alternates, in alpha(e_0, .) alone it breaks only the (X, Y)
    # alternation, at D(e_0, e_3) and D(e_0, e_last)
    base, c, k = members[0], qi("2/7"), md - 1
    parts = {0: three_form_part(model, c, 0, 3, k), 3: three_form_part(model, c, 3, k, 0),
             k: three_form_part(model, c, k, 0, 3)}
    full = NomizuMap([op + parts[i] if i in parts else op for i, op in enumerate(base.ops)],
                     "member + 3-form")
    broken = NomizuMap([op + parts[0] if i == 0 else op for i, op in enumerate(base.ops)],
                       "member + one operator of a 3-form")
    for alpha, skew in (*((m, True) for m in members), (cancel, True), (full, True),
                        (broken, False)):
        assert is_metric(model, alpha), alpha.label
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
    gv = partial(bilinear, gram)
    for r in range(1, 4):
        for s in range(1, 4):
            ars = torsion_part(model, 0, unit3(r, s)).ops
            phi_s = model.phi(s)

            def phi2(u, w):
                return gv(u, apply(phi_s, w))

            for i, j, k in itertools.product(range(md), repeat=3):
                lhs = gv(apply(ars[i], e[j]), e[k])
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
        assert gv(apply(ao[i], e[j]), e[k]) == det


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
            d = dmat(model.triple, k, l)
            for r, cv in scalars(model.inder.coords_of(d.flatten()), d.den).items():
                add_matrix(out, -eps * cv, model.ad_m_inder(r))
        else:
            for c in range(2):
                for m in range(td):
                    for t, tv in _bt(model, k, l, m).items():
                        add_entry(out, _odd(model, c, t), _odd(model, c, m), -eps * tv)
    return Matrix(md, md, out)


def _gamma_xi_coords(a, b):
    coords = scalars(*sl2_to_xi(gamma_mat(a, b)))
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


def fractional_members(model):
    """Two seeded family members, one with B over 3 and one over 5, whose
    operators alpha(e_i, .) carry different denominators."""
    rng = random.Random(3)
    for den in (3, 5):
        b = [[Fraction(rng.randint(-6, 6), rng.choice((1, den))) for _ in range(3)]
             for _ in range(3)]
        alpha = alpha_family(model, Fraction(rng.randint(-6, 6), den), b)
        assert len({op.den for op in alpha.ops}) > 1
        yield Connection(model, alpha)


def curvature_reference(model, alpha, i, j) -> Matrix:
    """R(e_i, e_j) = [A_i, A_j] - A_{[e_i, e_j]_m} - ad_m([e_i, e_j]_h) by
    Matrix arithmetic, A_k = alpha(e_k, .)."""
    ops = alpha.ops
    return comm_minus(ops[i], ops[j], [
        *((z, ops[k]) for k, z in model.m_bracket_m(i, j).items()),
        *((z, model.ad_m_inder(t)) for t, z in model.m_bracket_h(i, j).items()),
    ], model.algebra.den)


@pytest.mark.parametrize("family,param", LIGHT_CASES)
def test_curvature_vectors_match_curvature(family, param, connection_cache):
    # each flat vector over its denominator is R(e_i, e_j), as Matrix
    # arithmetic and connections.curvature give it, for i < j, i > j and
    # i = j; a pair is skipped exactly where R(e_i, e_j) = 0
    model = connection_cache(family, param, "levi-civita").model
    md = model.m_dim
    conns = [*(connection_cache(family, param, name)
               for name in ("levi-civita", "distinguished", "canonical", "zero")),
             *fractional_members(model)]
    pairs = list(itertools.product(range(md), repeat=2))
    skipped = 0
    for conn in conns:
        got = {ij: Matrix.from_flat(v, md, md, den)
               for ij, v, den in connections.curvature_vectors(model, conn.alpha, pairs)}
        for i, j in pairs:
            want = curvature_reference(model, conn.alpha, i, j)
            assert ((i, j) in got) == (not want.is_zero()), (conn.label, i, j)
            assert got.get((i, j), want) == want, (conn.label, i, j)
            assert connections.curvature(model, conn.alpha, i, j) == want, (conn.label, i, j)
            skipped += want.is_zero() and i != j
        # by default the pairs i < j, in order
        default = [ij for ij, _, _ in connections.curvature_vectors(model, conn.alpha)]
        assert default == [(i, j) for i, j in got if i < j], conn.label
    assert skipped


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
