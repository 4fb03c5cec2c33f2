import itertools
import pickle
import random
import sys
from fractions import Fraction
from math import lcm

import pytest

from symtriple import connections, holonomy, linalg
from symtriple.connections import (
    Connection, NomizuMap, _block_ops, admissibility_failures, alpha_family, connection_by_name,
    curvature_vectors, is_metric,
)
from symtriple.enveloping import build_model
from symtriple.errors import DimensionError
from symtriple.families import expected_hol
from symtriple.holonomy import (
    holonomy_algebra,
    holonomy_identity_check,
    ricci,
    scalar_curvature_formula,
    so_algebra,
    table_report,
)
from symtriple.linalg import (
    Matrix, Subspace, add_numerators, bracket_closure, center_of, comm,
)
from symtriple.scalars import GaussianRational, qi
from symtriple.triples import verify_axioms

from conftest import LIGHT_CASES, curvature_pairs, independent_mod_p, matrices_of


@pytest.mark.parametrize("family,param", LIGHT_CASES)
def test_holonomy_dimensions(family, param, connection_cache):
    res = holonomy_algebra(
        connection_cache(family, param, "levi-civita"), compute_center=False
    )
    assert res.dim == expected_hol(family, param, "levi-civita")
    assert res.contains_so and res.dim == res.so_dim
    for name in ("distinguished", "canonical"):
        res = holonomy_algebra(connection_cache(family, param, name), compute_center=False)
        assert res.dim == expected_hol(family, param, name)
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


def _mixed_maps(model, levi_civita, distinguished):
    """Metric maps with zero and nonzero operators: distinguished with its
    first odd operator taken from Levi-Civita, and Levi-Civita with its
    first vertical operator, or its whole vertical block, zeroed."""
    lc, dist = levi_civita.alpha.ops, distinguished.alpha.ops
    zero = Matrix(model.m_dim, model.m_dim)
    return [NomizuMap([*dist[:3], lc[3], *dist[4:]], "distinguished, one odd operator"),
            NomizuMap([zero, *lc[1:]], "levi-civita, first operator zeroed"),
            NomizuMap([zero] * 3 + list(lc[3:]), "levi-civita, vertical block zeroed")]


@pytest.mark.parametrize("family,param", LIGHT_CASES)
def test_spanning_pairs_give_the_closure_over_every_pair(family, param, connection_cache,
                                                          monkeypatch):
    # where alpha(e_i, .) or alpha(e_j, .) is zero, R(e_i, e_j) is a linear
    # image of [e_i, e_j], so the pairs whose brackets grow a span in g give
    # the span of every R(e_i, e_j), and the closure over them the rows of
    # the closure over every pair; the certificate is refused, so that the
    # closure runs on each map.  Where h acts by derivations, that is the
    # full Lie closure too; elsewhere Kostant's span need not be closed
    # under mutual commutators
    model = connection_cache(family, param, "levi-civita").model
    maps = _mixed_maps(model, connection_cache(family, param, "levi-civita"),
                       connection_cache(family, param, "distinguished"))
    monkeypatch.setattr(holonomy, "independent_fp", lambda vectors: False)
    admissible = 0
    for alpha in maps:
        conn = Connection(model, alpha)
        assert is_metric(model, alpha)
        flats = [r.flatten() for _, r in curvature_pairs(conn)]
        picked = curvature_vectors(model, alpha, holonomy._spanning_pairs(model, alpha.ops))
        assert (Subspace.span((v for _, v, _ in picked), model.m_dim ** 2)
                == Subspace.span(flats, model.m_dim ** 2)), alpha.label
        multipliers = [op for op in alpha.ops if not op.is_zero()]
        every = bracket_closure(flats, [op.flatten() for op in multipliers], model.m_dim,
                                model.so_dim())
        got = holonomy_algebra(conn, compute_center=False).algebra
        assert got == every, alpha.label
        if not admissibility_failures(model, alpha):
            admissible += 1
            gens = [r for _, r in curvature_pairs(conn) if not r.is_zero()]
            assert got == full_lie_closure(gens, multipliers, model.so_dim()), alpha.label
    assert admissible >= 2


@pytest.mark.parametrize("family,param", LIGHT_CASES)
def test_closure_reads_few_curvature_pairs(family, param, connection_cache, monkeypatch):
    # with k nonzero operators, the closure computes R(e_i, e_j) for the
    # C(k, 2) pairs of them and for at most dim g pairs whose brackets grow
    # a span in g, not for all m(m-1)/2
    read = []

    def counted(model, alpha, pairs):
        pairs = list(pairs)
        read.append(len(pairs))
        return curvature_vectors(model, alpha, pairs)

    monkeypatch.setattr(holonomy, "curvature_vectors", counted)
    for name in ("distinguished", "canonical", "zero"):
        conn = connection_cache(family, param, name)
        k = sum(not op.is_zero() for op in conn.alpha.ops)
        holonomy_algebra(conn, compute_center=False)
        assert len(read) == 1, name
        assert read.pop() <= conn.model.algebra.dim + k * (k - 1) // 2 < conn.model.so_dim()


@pytest.mark.heavy
def test_heavy_e6_named_closures_match_the_closure_over_every_pair(connection_cache):
    for name in ("distinguished", "canonical"):
        conn = connection_cache("exceptional", "binarion", name)
        model = conn.model
        gens = (v for _, v, _ in curvature_vectors(model, conn.alpha))
        multipliers = [op.flatten() for op in conn.alpha.ops if not op.is_zero()]
        want = bracket_closure(gens, multipliers, model.m_dim, model.so_dim())
        res = holonomy_algebra(conn, compute_center=False)
        assert res.algebra.rows == want.rows and res.dim == 38, name


def certifies_so(conn) -> bool:
    return holonomy._certifies_so(conn, [conn.model.metric.gram @ op for op in conn.alpha.ops])


def reference_vectors(conn):
    """The exact path to the so(m, g) certificate's vectors: the flat
    Gaussian-integer multiple N of each R(e_i, e_j), i < j, from
    ``curvature_vectors`` (zero where it yields none), and the upper
    triangle of g N on Gaussian integers, keyed a * m + c."""
    model = conn.model
    md = model.m_dim
    g = model.metric.gram.num
    flat = {ij: v for ij, v, _ in connections.curvature_vectors(model, conn.alpha)}
    for i in range(md):
        for j in range(i + 1, md):
            num: dict = {}  # N as rows {b: {c: (re, im)}}
            for p, z in flat.get((i, j), {}).items():
                num.setdefault(p // md, {})[p % md] = z
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
    # the certified path builds no curvature vectors and no center: the
    # algebra is so(m, g), semisimple for m >= 3, whose center is 0, as
    # center_of gives on so_algebra
    model = connection_cache(family, param, "levi-civita").model
    assert center_of(so_algebra(model)).dim == 0
    conns = [connection_cache(family, param, "levi-civita"), *_seeded_members(model, 5)]

    def refuse(*args):
        raise AssertionError("curvature vectors or a center built on the certified path")

    monkeypatch.setattr(connections, "curvature_vectors", refuse)
    monkeypatch.setattr(holonomy, "curvature_vectors", refuse)
    monkeypatch.setattr(holonomy, "center_of", refuse)
    for conn in conns:
        res = holonomy_algebra(conn)
        assert res.contains_so and res.center_dim == 0, conn.label


def test_certificate_declines_on_a_denominator_divisible_by_p(model_cache, monkeypatch):
    # modulo 5 the member's alpha has no image in F_P: the certificate
    # declines without raising, and the closure gives the rows
    model = model_cache("symplectic", 1)
    b = [[Fraction(1, 5), 2, 0], [0, -1, Fraction(3, 5)], [1, 0, 5]]
    conn = Connection(model, alpha_family(model, Fraction(2, 5), b))
    gens = [r for _, r in curvature_pairs(conn) if not r.is_zero()]
    multipliers = [op.flatten() for op in conn.alpha.ops if not op.is_zero()]
    want = bracket_closure([r.flatten() for r in gens], multipliers, model.m_dim,
                           model.so_dim())
    with monkeypatch.context() as patch:
        patch.setattr(linalg, "MODULUS", (5, 2))
        assert any(op.den % 5 == 0 for op in conn.alpha.ops)
        assert not certifies_so(conn)
        res = holonomy_algebra(conn, compute_center=False)
    assert res.algebra.rows == want.rows and res.contains_so


@pytest.mark.parametrize("family,param", LIGHT_CASES)
def test_certified_algebra_is_spanned_on_first_read(family, param, connection_cache,
                                                    monkeypatch):
    # a certified result knows dim, contains_so and its center without
    # so(m, g); the first read of .algebra spans it, and later reads return
    # that same Subspace
    model = connection_cache(family, param, "levi-civita").model
    want = so_algebra(model).rows
    calls = []

    def counted(model):
        calls.append(model)
        return so_algebra(model)

    monkeypatch.setattr(holonomy, "so_algebra", counted)
    for conn in (connection_cache(family, param, "levi-civita"), *_seeded_members(model, 5)):
        calls.clear()
        res = holonomy_algebra(conn)
        assert res.contains_so and res.dim == model.so_dim() and res.center_dim == 0
        assert calls == [], conn.label
        first = res.algebra
        assert calls == [model] and first.rows == want, conn.label
        assert res.algebra is first and len(calls) == 1, conn.label


def test_results_pickle_before_and_after_the_first_read(connection_cache):
    # a result can be sent to another process, its algebra read or not
    model = connection_cache("special", 1, "levi-civita").model
    for name in ("levi-civita", "distinguished"):
        res = holonomy_algebra(connection_cache("special", 1, name))
        for copy in (pickle.loads(pickle.dumps(res)), pickle.loads(pickle.dumps(res))):
            assert copy == res and copy.algebra.rows == res.algebra.rows, name
    assert res.dim < model.so_dim()


@pytest.mark.parametrize("family,param", LIGHT_CASES)
def test_per_model_products_hold_no_residue(family, param, triple_cache, monkeypatch):
    # a model whose exact g ad_m(d_t) were filled at the real P gives, at
    # P = 5, the verdicts and rows of a model built fresh: the cache holds
    # exact products, never residues
    warm, fresh = build_model(triple_cache(family, param)), build_model(triple_cache(family, param))
    b = [[Fraction(1, 5), 2, 0], [0, -1, Fraction(3, 5)], [1, 0, 5]]

    def conns(model):
        return [connection_by_name(model, "levi-civita"), *_seeded_members(model, 5),
                Connection(model, alpha_family(model, Fraction(2, 5), b))]

    assert all(certifies_so(conn) for conn in conns(warm)[:3])
    assert warm._g_ads and all(
        m == warm.metric.gram @ warm.ad_m_inder(t) for t, m in warm._g_ads.items())
    with monkeypatch.context() as patch:
        patch.setattr(linalg, "MODULUS", (5, 2))
        for got, want in zip(conns(warm), conns(fresh)):
            assert certifies_so(got) == certifies_so(want), want.label
            g, w = holonomy_algebra(got), holonomy_algebra(want)
            assert (g.dim, g.center_dim, g.contains_so) == (w.dim, w.center_dim, w.contains_so)
            assert g.algebra.rows == w.algebra.rows, want.label


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
        multipliers = [op.flatten() for op in conn.alpha.ops if not op.is_zero()]
        want = bracket_closure([r.flatten() for r in gens], multipliers, model.m_dim,
                               model.so_dim())
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
    # Ricci and the so(m, g) certificate of a generic member read alpha
    # only, and the closure that runs when the certificate declines
    # (distinguished, canonical, zero) reads the flat curvature vectors
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
        multipliers = [op.flatten() for op in c.alpha.ops if not op.is_zero()]
        want = bracket_closure([r.flatten() for r in gens], multipliers, model.m_dim,
                               model.so_dim())
        assert got.algebra.rows == want.rows, c.label
    assert all(check.matches for check in checks)


def test_closure_and_center_images_build_no_matrix(connection_cache, triple_cache, monkeypatch):
    # closure, center and identity (3) generator images and g(T)'s h-h
    # brackets go through linalg.ad_flat on flat vectors; with linalg.comm
    # refused wherever it is imported, and Matrix.from_flat on the one Matrix
    # class, the same results and g(T) tables come out
    cases = (("symplectic", 1), ("special", 1))
    conns = [connection_cache(family, param, name)
             for family, param in cases for name in ("distinguished", "canonical")]
    T = triple_cache("exceptional", "scalar")
    triples = [triple_cache(*case) for case in cases] + [T]

    def results():
        hol = [holonomy_algebra(conn) for conn in conns]
        tables = [(L.den, L.table) for L in (build_model(t).algebra for t in triples)]
        return [(r.algebra, r.center_dim) for r in hol], verify_axioms(T), tables

    want = results()

    def refuse(*args):
        raise AssertionError("a commutator Matrix was built")

    patched = [name for name, mod in sys.modules.items()
               if name.startswith("symtriple") and getattr(mod, "comm", None) is linalg.comm]
    assert "symtriple.linalg" in patched
    for name in patched:
        monkeypatch.setattr(sys.modules[name], "comm", refuse)
    assert all(getattr(mod, "Matrix", Matrix) is Matrix
               for name, mod in sys.modules.items() if name.startswith("symtriple"))
    monkeypatch.setattr(Matrix, "from_flat", refuse)
    got = results()
    monkeypatch.undo()
    assert got == want
    assert [c for _, c in want[0]] == [0, 0, 1, 1] and want[1].passed


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
