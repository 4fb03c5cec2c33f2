import itertools
import random
from fractions import Fraction
from math import lcm

import pytest

from symtriple import connections, holonomy, linalg
from symtriple.connections import (
    Connection, NomizuMap, _block_ops, alpha_family, connection_by_name, is_metric,
)
from symtriple.errors import DimensionError
from symtriple.families import (
    expected_hol_levi_civita,
    expected_hol_skew,
)
from symtriple.holonomy import (
    holonomy_algebra,
    holonomy_identity_check,
    ricci,
    scalar_curvature_formula,
    so_algebra,
    table_report,
)
from symtriple.linalg import (
    Matrix, Subspace, add_numerators, bracket_closure, center_of, comm, matrices_of,
)
from symtriple.scalars import GaussianRational, qi

from conftest import LIGHT_CASES, curvature_pairs, independent_mod_p


@pytest.mark.parametrize("family,param", LIGHT_CASES)
def test_holonomy_dimensions(family, param, connection_cache):
    model = connection_cache(family, param, "levi-civita").model
    res = holonomy_algebra(
        connection_cache(family, param, "levi-civita"), compute_center=False
    )
    assert res.dim == expected_hol_levi_civita(model.n)
    assert res.contains_so and res.dim == res.so_dim
    for name in ("distinguished", "canonical"):
        res = holonomy_algebra(connection_cache(family, param, name), compute_center=False)
        assert res.dim == expected_hol_skew(family, param)
        assert not res.contains_so


@pytest.mark.parametrize("family,param", LIGHT_CASES)
def test_centers(family, param, connection_cache):
    want = 1 if family == "special" else 0
    for name in ("distinguished", "canonical"):
        res = holonomy_algebra(connection_cache(family, param, name))
        assert res.center_dim == want


@pytest.mark.parametrize("family,param", LIGHT_CASES)
def test_holonomy_structure_identities(family, param, connection_cache):
    model = connection_cache(family, param, "levi-civita").model
    spaces = {}
    for name in ("distinguished", "canonical"):
        conn = connection_cache(family, param, name)
        res = holonomy_algebra(conn, compute_center=False)
        check = holonomy_identity_check(conn, res)
        assert check.matches
        assert check.expected_dim == 3 + model.h_dim
        spaces[name] = res.algebra
    # same dimension, different subspaces, sum of dimension h + 6
    assert spaces["distinguished"] != spaces["canonical"]
    total = spaces["distinguished"].sum(spaces["canonical"])
    assert total.dim == model.h_dim + 6


def test_holonomy_contains_own_multipliers(connection_cache):
    # hol contains alpha_xi for each vertical xi (distinguished), and
    # -ad xi|_m (canonical), as forced by the vertical curvature operators.
    for name in ("distinguished", "canonical"):
        conn = connection_cache("symplectic", 1, name)
        res = holonomy_algebra(conn, compute_center=False)
        model = conn.model
        for i in range(3):
            assert res.algebra.contains(conn.alpha.ops[i].flatten())
            if name == "canonical":
                assert res.algebra.contains(model.ad_m_xi(i + 1).flatten())


def test_holonomy_closure_is_closed(connection_cache):
    for (family, param), name in itertools.product(
        LIGHT_CASES, ("distinguished", "canonical")
    ):
        conn = connection_cache(family, param, name)
        res = holonomy_algebra(conn, compute_center=False)
        mats = matrices_of(res.algebra)
        for x in mats:
            for y in mats:
                assert res.algebra.contains(comm(x, y).flatten()), (family, param, name)
        for op in conn.alpha.ops:
            for x in mats:
                assert res.algebra.contains(comm(op, x).flatten()), (family, param, name)


def full_lie_closure(gens, multipliers, stop_dim=None):
    """The reference Lie closure: the span of ``gens`` closed under [mu, .]
    for each multiplier and under mutual commutators."""
    d = gens[0].rows
    space = Subspace(d * d)
    pool, work = [], []

    def push(mat):
        nonlocal space
        space, grew = space.insert(mat.flatten())
        if grew:
            pool.append(mat)
            work.append(mat)
        return stop_dim is not None and space.dim >= stop_dim

    for g in gens:
        if push(g):
            return space
    while work:
        x = work.pop()
        for y in [*multipliers, *pool]:
            if push(comm(y, x)):
                return space
    return space


@pytest.mark.parametrize("family,param", LIGHT_CASES)
def test_kostant_closure_matches_full_lie_closure(family, param, connection_cache):
    # Kostant's span m_0 + [alpha(m), m_0] + ... is already a Lie algebra, so
    # adding every mutual commutator leaves the echelon rows unchanged
    model = connection_cache(family, param, "levi-civita").model
    conns = [connection_cache(family, param, name)
             for name in ("levi-civita", "distinguished", "canonical", "zero")]
    rng = random.Random(11)
    for _ in range(2):
        a = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        b = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(3)]
             for _ in range(3)]
        conns.append(Connection(model, alpha_family(model, a, b)))
    for conn in conns:
        gens = [r for _, r in curvature_pairs(conn) if not r.is_zero()]
        multipliers = [op for op in conn.alpha.ops if not op.is_zero()]
        stop = model.so_dim() if is_metric(model, conn.alpha) else None
        want = full_lie_closure(gens, multipliers, stop)
        assert holonomy_algebra(conn, compute_center=False).algebra == want, conn.label


def _seeded_members(model, seed):
    rng = random.Random(seed)
    for _ in range(2):
        a = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        b = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(3)]
             for _ in range(3)]
        yield Connection(model, alpha_family(model, a, b))


@pytest.mark.parametrize("family,param", LIGHT_CASES)
def test_closure_fallback_gives_the_certified_rows(family, param, connection_cache,
                                                   monkeypatch):
    # when the modular certificate declines, or runs modulo 5 (2^2 = -1), the
    # closure gives the same canonical rows as the full Lie closure; so it
    # does for the zero map, whose certificate always declines, and for a
    # non-metric map, which has no certificate and no early-exit bound
    model = connection_cache(family, param, "levi-civita").model
    non_metric = Connection(model, NomizuMap(
        _block_ops(model, (Fraction(1, 2), 1), (1, 0)), "non-metric"))
    assert not is_metric(model, non_metric.alpha)
    conns = [connection_cache(family, param, "levi-civita"), *_seeded_members(model, 5),
             connection_cache(family, param, "zero"), non_metric]
    wants = []
    for conn in conns:
        gens = [r for _, r in curvature_pairs(conn) if not r.is_zero()]
        multipliers = [op for op in conn.alpha.ops if not op.is_zero()]
        stop = model.so_dim() if is_metric(model, conn.alpha) else None
        wants.append(full_lie_closure(gens, multipliers, stop))
    with monkeypatch.context() as patch:
        patch.setattr(linalg, "MODULUS", (5, 2))
        for conn, want in zip(conns, wants):
            assert holonomy_algebra(conn, compute_center=False).algebra == want
    closures = []

    def counted_closure(*args, **kwargs):
        closures.append(1)
        return bracket_closure(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(holonomy, "independent_fp", lambda vectors: False)
        patch.setattr(holonomy, "bracket_closure", counted_closure)
        for conn, want in zip(conns, wants):
            assert holonomy_algebra(conn, compute_center=False).algebra == want
    assert len(closures) == len(conns)


def certifies_so(conn) -> bool:
    return holonomy._certifies_so(conn, [conn.model.metric.gram @ op for op in conn.alpha.ops])


def reference_vectors(conn):
    """The exact path to the so(m, g) certificate's vectors: the numerators
    N of each R(e_i, e_j), i < j, from ``curvature_numerators``, and the
    upper triangle of g N on Gaussian integers, keyed a * m + c."""
    model = conn.model
    md = model.m_dim
    g = model.metric.gram.num
    for i in range(md):
        for j in range(i + 1, md):
            num = connections.curvature_numerators(model, conn.alpha, i, j)[0]
            v: dict = {}
            for a, grow in g.items():
                for b, (gx, gy) in grow.items():
                    for c, (x, y) in num.get(b, {}).items():
                        if c > a:
                            zr, zi = v.get(a * md + c, (0, 0))
                            v[a * md + c] = (zr + gx * x - gy * y, zi + gx * y + gy * x)
            yield v


def _unit_leading(v: dict) -> dict:
    """v mod P scaled so that its entry at the least index is 1: two vectors
    agree here exactly when one is a unit of F_P times the other."""
    p = linalg.MODULUS[0]
    w = {k: x % p for k, x in sorted(v.items()) if x % p}
    inv = pow(next(iter(w.values()), 1), -1, p)
    return {k: x * inv % p for k, x in w.items()}


def _metric_connections(model, connection_cache, family, param):
    return [*(connection_cache(family, param, name)
              for name in ("levi-civita", "distinguished", "canonical", "zero")),
            *_seeded_members(model, 5)]


def _assert_certificate_agrees(conn, monkeypatch):
    """The certificate's verdict is that of the exact path, and each of its
    F_P vectors is a unit times the reduction of the exact one."""
    verdict = certifies_so(conn)
    assert verdict == independent_mod_p(reference_vectors(conn)), conn.label
    read = []
    with monkeypatch.context() as patch:
        patch.setattr(holonomy, "independent_fp", lambda vectors: read.extend(vectors))
        certifies_so(conn)
    want = [_unit_leading(linalg.mod_p(v)) for v in reference_vectors(conn)]
    assert [_unit_leading(v) for v in read] == want, conn.label
    return verdict


@pytest.mark.parametrize("family,param", LIGHT_CASES)
def test_certificate_agrees_with_exact_numerators(family, param, connection_cache,
                                                  monkeypatch):
    # the F_P vectors formed from alpha are those of the exact Gaussian-
    # integer curvature numerators, reduced mod P, and give their verdict
    model = connection_cache(family, param, "levi-civita").model
    conns = _metric_connections(model, connection_cache, family, param)
    assert all(is_metric(model, conn.alpha) for conn in conns)
    verdicts = [_assert_certificate_agrees(conn, monkeypatch) for conn in conns]
    assert verdicts == [True, False, False, False, True, True]


@pytest.mark.parametrize("family,param", LIGHT_CASES)
def test_certified_members_build_no_curvature_numerators(family, param, connection_cache,
                                                          monkeypatch):
    model = connection_cache(family, param, "levi-civita").model
    conns = [connection_cache(family, param, "levi-civita"), *_seeded_members(model, 5)]

    def refuse(*args):
        raise AssertionError("curvature numerators built on the certified path")

    monkeypatch.setattr(connections, "curvature_numerators", refuse)
    monkeypatch.setattr(holonomy, "curvature_numerators", refuse)
    for conn in conns:
        assert holonomy_algebra(conn, compute_center=False).contains_so


def test_certificate_declines_on_a_denominator_divisible_by_p(model_cache, monkeypatch):
    # modulo 5 the member's alpha has no image in F_P: the certificate
    # declines without raising, and the closure gives the rows
    model = model_cache("symplectic", 1)
    b = [[Fraction(1, 5), 2, 0], [0, -1, Fraction(3, 5)], [1, 0, 5]]
    conn = Connection(model, alpha_family(model, Fraction(2, 5), b))
    gens = [r for _, r in curvature_pairs(conn) if not r.is_zero()]
    multipliers = [op for op in conn.alpha.ops if not op.is_zero()]
    want = bracket_closure(gens, multipliers, model.so_dim())
    with monkeypatch.context() as patch:
        patch.setattr(linalg, "MODULUS", (5, 2))
        assert any(op.den % 5 == 0 for op in conn.alpha.ops)
        assert not certifies_so(conn)
        res = holonomy_algebra(conn, compute_center=False)
    assert res.algebra.rows == want.rows and res.contains_so


@pytest.mark.parametrize("family,param", LIGHT_CASES)
def test_so_algebra_is_spanned_by_metric_skew_operators(family, param, model_cache):
    model = model_cache(family, param)
    md = model.m_dim
    g = model.metric.gram
    want = Subspace.span((
        (Matrix(md, md, {b: g.row(a)}) - Matrix(md, md, {a: g.row(b)})).flatten()
        for a in range(md) for b in range(a + 1, md)
    ), ambient=md * md)
    first, second = so_algebra(model), so_algebra(model)
    assert first.rows == second.rows == want.rows
    assert first.dim == model.so_dim()
    # a fresh basis on every call: growing one leaves the other as it was
    assert first is not second
    assert first.insert(Matrix.identity(md).flatten())[1]
    assert first.dim == model.so_dim() + 1
    assert second.rows == want.rows


@pytest.mark.heavy
def test_heavy_e6_certificate_matches_closure(model_cache):
    # the certified so(43, g) is the closure's so(43, g), row for row
    model = model_cache("exceptional", "binarion")
    b = [[1, 2, 0], [0, -1, 1], [3, 0, 5]]
    for conn in (Connection(model, alpha_family(model, 0, [[0] * 3] * 3)),
                 Connection(model, alpha_family(model, Fraction(1, 2), b))):
        gens = [r for _, r in curvature_pairs(conn) if not r.is_zero()]
        multipliers = [op for op in conn.alpha.ops if not op.is_zero()]
        want = bracket_closure(gens, multipliers, model.so_dim())
        res = holonomy_algebra(conn, compute_center=False)
        assert res.algebra.rows == want.rows and res.dim == 903


@pytest.mark.heavy
def test_heavy_e6_certificate_agrees_with_exact_numerators(model_cache, connection_cache,
                                                          monkeypatch):
    model = model_cache("exceptional", "binarion")
    conns = _metric_connections(model, connection_cache, "exceptional", "binarion")
    verdicts = [_assert_certificate_agrees(conn, monkeypatch) for conn in conns]
    assert verdicts == [True, False, False, False, True, True]


@pytest.mark.parametrize("family,param,span_dim", [
    ("symplectic", 1, 18),
    ("special", 1, 18),
    ("special", 2, 52),
    ("orthogonal", 3, 102),
    ("exceptional", "scalar", 52),
])
def test_holonomy_grows_through_multipliers(family, param, span_dim, model_cache):
    # at (a, B) = (1, 0) the curvature operators span so(m) less three
    # dimensions, which only the [alpha(e_i, .), .] steps of the closure add
    model = model_cache(family, param)
    conn = Connection(model, alpha_family(model, 1, [[0] * 3 for _ in range(3)]))
    gens = [r for _, r in curvature_pairs(conn) if not r.is_zero()]
    span = Subspace.span([r.flatten() for r in gens], ambient=model.m_dim ** 2)
    assert span.dim == span_dim
    assert not independent_mod_p(r.flatten() for _, r in curvature_pairs(conn))
    res = holonomy_algebra(conn, compute_center=False)
    assert res.dim > span.dim
    assert res.dim == res.so_dim == model.so_dim()
    multipliers = [op for op in conn.alpha.ops if not op.is_zero()]
    assert res.algebra == full_lie_closure(gens, multipliers, model.so_dim())


RICCI_TABLE = {
    # connection -> (vertical const as n-function, horizontal const, scalar)
    "levi-civita": (lambda n: 4 * n + 2, lambda n: 4 * n + 2,
                    lambda n: (4 * n + 2) * (4 * n + 3)),
    "distinguished": (lambda n: 0, lambda n: 4 * n - 4, lambda n: 16 * n * (n - 1)),
    "canonical": (lambda n: -16, lambda n: 4 * n - 4,
                  lambda n: 16 * (n * n - n - 3)),
}


@pytest.mark.parametrize("family,param", LIGHT_CASES)
def test_ricci_blocks_and_scalars(family, param, connection_cache):
    model = connection_cache(family, param, "levi-civita").model
    n = model.n
    for name, (fv, fh, fs) in RICCI_TABLE.items():
        data = ricci(connection_cache(family, param, name))
        assert data.mixed_zero
        assert data.vertical_constant == qi(fv(n))
        assert data.horizontal_constant == qi(fh(n))
        assert data.scalar_curvature == qi(fs(n))


def ricci_reference(conn: Connection) -> Matrix:
    """Ric[j, k] = sum_i R(e_i, e_j)[i, k], summed row by row from the
    curvature operators R(e_i, e_j), i < j."""
    md = conn.model.m_dim
    pairs = list(curvature_pairs(conn))
    den = lcm(*(r.den for _, r in pairs))
    num: dict = {k: {} for k in range(md)}
    for (i, j), r in pairs:
        # contributes R(e_i, e_j)[i, k] to Ric[j, k] and -R[j, k] to Ric[i, k]
        s = den // r.den
        add_numerators(num[j], s, 0, r.num.get(i, {}))
        add_numerators(num[i], -s, 0, r.num.get(j, {}))
    return Matrix.from_numerators(md, md, num, den)


def _gaussian_members(model, seed):
    """Two seeded family members whose a and B entries are Gaussian rationals."""
    rng = random.Random(seed)

    def entry():
        return GaussianRational(rng.randint(-6, 6), rng.randint(-6, 6), rng.randint(1, 4))

    for _ in range(2):
        yield Connection(model, alpha_family(
            model, entry(), [[entry() for _ in range(3)] for _ in range(3)]))


def _assert_ricci_matches_reference(family, param, connection_cache):
    model = connection_cache(family, param, "levi-civita").model
    md = model.m_dim
    conns = [connection_cache(family, param, name)
             for name in ("levi-civita", "distinguished", "canonical", "zero")]
    conns += [*_seeded_members(model, 13), *_gaussian_members(model, 17)]
    for conn in conns:
        got, want = ricci(conn).ricci, ricci_reference(conn)
        for j in range(md):
            for k in range(md):
                assert got[j, k] == want[j, k], (conn.label, j, k)
        assert got == want, conn.label


@pytest.mark.parametrize("family,param", LIGHT_CASES)
def test_ricci_matches_row_sum_reference(family, param, connection_cache):
    # the trace contraction from alpha gives every entry of the row sum over
    # the curvature operators, for metric and non-metric (zero) connections
    _assert_ricci_matches_reference(family, param, connection_cache)


@pytest.mark.heavy
@pytest.mark.parametrize("family,param", [("exceptional", "binarion"),
                                          ("exceptional", "octonion")])
def test_heavy_ricci_matches_row_sum_reference(family, param, connection_cache):
    _assert_ricci_matches_reference(family, param, connection_cache)


def test_certified_member_builds_no_curvature_matrix(model_cache, monkeypatch):
    # Ricci and the so(m, g) certificate of a generic member read alpha and
    # the unreduced curvature numerators only, and so does the closure that
    # runs when the certificate declines (distinguished, canonical, zero)
    model = model_cache("special", 2)
    conn = next(_seeded_members(model, 5))
    closed = [connection_by_name(model, name) for name in ("distinguished", "canonical", "zero")]

    def refuse(*args):
        raise AssertionError("a curvature Matrix was built")

    monkeypatch.setattr(connections, "curvature", refuse)
    data = ricci(conn)
    res = holonomy_algebra(conn, compute_center=False)
    assert res.contains_so and res.dim == model.so_dim()
    results = [holonomy_algebra(c, compute_center=False) for c in closed]
    checks = [holonomy_identity_check(c) for c in closed[:2]]
    monkeypatch.undo()
    assert data.ricci == ricci_reference(conn)
    assert res.algebra == so_algebra(model)
    for c, got in zip(closed, results):
        gens = [r for _, r in curvature_pairs(c) if not r.is_zero()]
        multipliers = [op for op in c.alpha.ops if not op.is_zero()]
        want = bracket_closure(gens, multipliers, model.so_dim())
        assert got.algebra.rows == want.rows, c.label
    assert all(check.matches for check in checks)


@pytest.mark.parametrize("family,param", LIGHT_CASES)
def test_isotropy_operators_are_g_skew(family, param, model_cache):
    # the premise of the so(m, g) certificate: g is ad(h)-invariant, so each
    # ad_m(d_r) lies in so(m, g) and so does every R(e_i, e_j) of a metric alpha
    model = model_cache(family, param)
    g = model.metric.gram
    for r in range(model.h_dim):
        gd = g @ model.ad_m_inder(r)
        assert gd.transpose() == -gd, r


@pytest.mark.parametrize("b_matrix", [
    [[1, 0, 0, 5], [0, 1, 0], [0, 0, 1]],
    [[1, 0], [0, 1]],
])
def test_scalar_curvature_formula_needs_3x3(b_matrix):
    with pytest.raises(DimensionError):
        scalar_curvature_formula(1, 0, b_matrix)


def test_dimension_seven_values(connection_cache):
    # n = 1: scalars 42 / 0 / -48
    assert ricci(connection_cache("symplectic", 1, "levi-civita")).scalar_curvature == 42
    assert ricci(connection_cache("symplectic", 1, "distinguished")).scalar_curvature == 0
    assert ricci(connection_cache("symplectic", 1, "canonical")).scalar_curvature == -48


def test_lazy_center(connection_cache):
    res = holonomy_algebra(
        connection_cache("special", 1, "canonical"), compute_center=False
    )
    assert res.center_dim is None
    assert center_of(res.algebra).dim == 1


def test_zero_connection_smoke(model_cache):
    # alpha = 0 gives holonomy isomorphic to the isotropy algebra
    for family, param in [("symplectic", 1), ("special", 2)]:
        model = model_cache(family, param)
        conn = connection_by_name(model, "zero")
        res = holonomy_algebra(conn, compute_center=False)
        assert res.dim == model.h_dim


@pytest.mark.parametrize("family,param", LIGHT_CASES)
def test_scalar_curvature_formula(family, param, connection_cache):
    # (4n+2)(4n+3) - 6(a - tr B)^2 - 12n||B||^2 at the named connections,
    # (0, 0), (2, I) and (0, I), and at seeded generic members
    model = connection_cache(family, param, "levi-civita").model
    eye = [[int(r == s) for s in range(3)] for r in range(3)]
    zero = [[0] * 3 for _ in range(3)]
    for name, a, b in (("levi-civita", 0, zero), ("distinguished", 2, eye),
                       ("canonical", 0, eye)):
        want = scalar_curvature_formula(model.n, a, b)
        assert ricci(connection_cache(family, param, name)).scalar_curvature == want
    rng = random.Random(7)
    for _ in range(2):
        a = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        b = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(3)]
             for _ in range(3)]
        conn = Connection(model, alpha_family(model, a, b))
        assert ricci(conn).scalar_curvature == scalar_curvature_formula(model.n, a, b)
    assert scalar_curvature_formula(1, 2, eye) == 0  # the distinguished point at n = 1


def test_table_report_all_pass():
    cases = [("symplectic", 1), ("special", 1)]
    rows = table_report(cases, compute_centers=True)
    for row in rows:
        assert row.passed
        assert row.centers["distinguished"] == (1 if row.family == "special" else 0)


def test_f4_table_row(connection_cache):
    # the dim-31 model: so(31) for Levi-Civita, 24/24 for the skew pair
    res = holonomy_algebra(
        connection_cache("exceptional", "unarion", "levi-civita"), compute_center=False
    )
    assert res.dim == 465 and res.contains_so
    for name in ("distinguished", "canonical"):
        res = holonomy_algebra(
            connection_cache("exceptional", "unarion", name), compute_center=True
        )
        assert res.dim == 24
        assert res.center_dim == 0


@pytest.mark.heavy
def test_heavy_e6_holonomy(connection_cache):
    # e6: inder = sl(6) (35), table entry 38/38; LC is so(43), dim 903
    for name, dim in (("distinguished", 38), ("canonical", 38)):
        res = holonomy_algebra(
            connection_cache("exceptional", "binarion", name), compute_center=True
        )
        assert res.dim == dim
        assert res.center_dim == 0
    res = holonomy_algebra(
        connection_cache("exceptional", "binarion", "levi-civita"),
        compute_center=False,
    )
    assert res.dim == 903 and res.contains_so


@pytest.mark.heavy
def test_heavy_e7_holonomy(connection_cache):
    # e7: inder = so(12) (66), table entry 69/69; LC is so(67), dim 2211
    for name, dim in (("distinguished", 69), ("canonical", 69)):
        res = holonomy_algebra(
            connection_cache("exceptional", "quaternion", name), compute_center=True
        )
        assert res.dim == dim
        assert res.center_dim == 0
    res = holonomy_algebra(
        connection_cache("exceptional", "quaternion", "levi-civita"),
        compute_center=False,
    )
    assert res.dim == 2211 and res.contains_so


@pytest.mark.heavy
def test_heavy_e8_holonomy(connection_cache):
    # e8: inder = e7 (133), table entry 136/136; LC is so(115), dim 6555
    for name, dim in (("distinguished", 136), ("canonical", 136)):
        res = holonomy_algebra(
            connection_cache("exceptional", "octonion", name), compute_center=True
        )
        assert res.dim == dim
        assert res.center_dim == 0
    res = holonomy_algebra(
        connection_cache("exceptional", "octonion", "levi-civita"),
        compute_center=False,
    )
    assert res.dim == 6555 and res.contains_so
