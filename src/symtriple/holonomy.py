"""Holonomy algebras, Ricci tensors and scalar curvatures.

By Kostant's formula (Kobayashi-Nomizu II, ch. X, Thm 4.1) the holonomy
algebra of an invariant connection is

    m_0 + [alpha(m), m_0] + [alpha(m), [alpha(m), m_0]] + ...,

with m_0 the span of the curvature operators R(e_i, e_j).  That sum is the
smallest subspace of gl(m) containing every R(e_i, e_j) and invariant under
[alpha(e_i, .), .]; it is already a Lie algebra, so no mutual commutators
are taken.
For a metric connection it sits inside so(m, g), of dimension m(m-1)/2, the
number of R(e_i, e_j) with i < j: if they are independent, which the
certificate proves in F_P from alpha, g and the bracket table, they span
so(m, g), and the result spans it only when its ``algebra`` is first read.
Otherwise (dependent R(e_i, e_j), or an unlucky prime) the closure runs,
with dim so(m, g) as its early exit, on the flat Gaussian-integer
multiples of R(e_i, e_j) that ``connections.curvature_vectors`` yields,
read lazily.  Neither path builds a curvature ``Matrix``.

The closure reads R(e_i, e_j) only for the pairs ``_spanning_pairs`` picks:
every pair of nonzero alpha(e_i, .), and a pair with a zero one only when
its bracket [e_i, e_j] grows a span in g.  They span what all R(e_i, e_j)
span, so the canonical rows are the same.  The distinguished and canonical
maps are zero on the odd block, and on e8 they read 251 of the 6,555 pairs.

``ricci`` contracts Ric[j, k] = sum_i R(e_i, e_j)[i, k] straight from the
Nomizu map, about m vector-operator products instead of the m(m-1)
operator products of the curvature operators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from math import lcm

from .connections import (CONNECTION_NAMES, Connection, connection_by_name, curvature_vectors,
                          metric_products)
from .enveloping import HomogeneousModel, build_model
from .errors import DimensionError, ValidationError
from .linalg import (Matrix, Subspace, add_numerators, bracket_closure, center_of,
                     independent_fp, mod_p, trace_product)
from .scalars import GaussianRational, ZERO, qi
from . import families, linalg

__all__ = [
    "HolonomyResult",
    "RicciData",
    "holonomy_algebra",
    "so_algebra",
    "expected_skew_holonomy_space",
    "holonomy_identity_check",
    "HolonomyStructure",
    "ricci",
    "scalar_curvature_formula",
    "TableRow",
    "table_report",
    "format_table",
]


@dataclass
class HolonomyResult:
    """A certified result holds no ``_algebra`` but its model: the first
    read of ``algebra`` spans ``so_algebra(_model)`` and keeps it, since
    ``dim``, ``contains_so`` and ``center_dim`` do not need it."""

    label: str
    dim: int
    center_dim: int | None
    contains_so: bool
    so_dim: int
    metric: bool
    _algebra: Subspace | None = field(default=None, repr=False, compare=False)
    _model: HomogeneousModel | None = field(default=None, repr=False, compare=False)

    @property
    def algebra(self) -> Subspace:
        if self._algebra is None:
            self._algebra = so_algebra(self._model)
        return self._algebra


def holonomy_algebra(conn: Connection, compute_center: bool = True) -> HolonomyResult:
    """The holonomy algebra of ``conn`` by Kostant's formula: the span of
    the curvature operators, closed under [alpha(e_i, .), .], unless it is
    certified to be so(m, g).

    The metric test is ``connections.metric_products``, whose products
    g A_i the certificate reads.  The certificate rests on one premise:
    every ad_m(d), d in h, is g-skew (g is ad(h)-invariant), so that for a
    metric alpha each R(e_i, e_j) lies in so(m, g).  A certified algebra's
    dim is dim so(m, g), and its center is 0 without ``center_of``:
    so(m, g) is semisimple for m >= 3, and every m here is 2 dim T + 3 >= 7.
    So its ``so_algebra`` basis is spanned only on the first read of
    ``algebra``; the closure's algebra is built here.

    The result is the holonomy algebra only for an invariant connection,
    one whose Nomizu map h acts on by derivations: only then is Kostant's
    span a Lie algebra.  ``connections.connection_by_name`` checks this
    with ``admissibility_failures``; a bare ``Connection(model, alpha)``
    is not checked, here or anywhere, and for a map that fails it the
    span returned need not be the holonomy algebra."""
    model = conn.model
    md = model.m_dim
    g_ops = metric_products(model, conn.alpha)
    metric = g_ops is not None
    so_dim = model.so_dim()
    if metric and _certifies_so(conn, g_ops):
        return HolonomyResult(
            label=conn.label,
            dim=so_dim,
            center_dim=0 if compute_center else None,
            contains_so=True,
            so_dim=so_dim,
            metric=True,
            _model=model,
        )
    pairs = _spanning_pairs(model, conn.alpha.ops)
    gens = (v for _, v, _ in curvature_vectors(model, conn.alpha, pairs))
    multipliers = [op.flatten() for op in conn.alpha.ops if not op.is_zero()]
    algebra = bracket_closure(gens, multipliers, md, so_dim if metric else None)
    return HolonomyResult(
        label=conn.label,
        dim=algebra.dim,
        center_dim=center_of(algebra).dim if compute_center else None,
        contains_so=metric and algebra.dim == so_dim,
        so_dim=so_dim,
        metric=metric,
        _algebra=algebra,
    )


def _spanning_pairs(model: HomogeneousModel, ops):
    """The pairs i < j, lazily and in order, whose R(e_i, e_j) span what
    all of them span: each pair of nonzero operators A_i = alpha(e_i, .),
    and each other pair whose bracket [e_i, e_j] grows the span, in one
    ``Subspace`` of g, of the brackets of the other pairs before it.  With
    Lambda the linear map on g that sends e_k to A_k and d_t to ad_m(d_t),

        R(e_i, e_j) = [A_i, A_j] - Lambda([e_i, e_j]),

    so where A_i = 0 or A_j = 0 it is -Lambda([e_i, e_j]), and the R of
    those pairs span Lambda of the span of their brackets.  Only linearity
    in g's coordinates is used, not the Jacobi identity."""
    zero = [op.is_zero() for op in ops]
    bracket, g = model.algebra.bracket_basis, model.m_to_g
    brackets = Subspace(model.algebra.dim)
    for i in range(len(ops)):
        for j in range(i + 1, len(ops)):
            if zero[i] or zero[j]:
                b = bracket(g(i), g(j))
                if not (b and brackets.insert(b)[1]):
                    continue
            yield i, j


def _certifies_so(conn: Connection, g_ops: list) -> bool:
    """True only if the m(m-1)/2 operators R(e_i, e_j), i < j, of a metric
    ``conn`` with g A_i = ``g_ops[i]`` are independent, so span so(m, g).
    ``independent_fp`` reads, lazily, the upper triangle (keyed a * m + c,
    a < c) in F_P of each

        g R(e_i, e_j) = X - X^T - sum_k c_k g A_k - sum_t h_t g ad_m(d_t),

    with A_i = alpha(e_i, .), X = (g A_i) A_j = ((g A_j) A_i)^T for g-skew
    A_i, A_j, and [e_i, e_j] = sum_k c_k e_k + sum_t h_t d_t, each factor
    reduced mod P once per call (the exact g ad_m(d_t) are formed once per
    model, by ``HomogeneousModel.g_ad_m_inder``).  R is a polynomial in the
    entries of alpha, the structure constants and g, and Z[i][1/D] -> F_P
    is a ring homomorphism when P does not divide D, so these reduce the
    exact vectors: True proves those, and the skew g R(e_i, e_j) they
    determine, independent over Q(i).
    If P divides a denominator of alpha, g or the bracket table (which
    ad_m(d_t)'s divides), it declines."""
    model, ops = conn.model, conn.alpha.ops
    md, gram, lden = model.m_dim, model.metric.gram, model.algebra.den

    def reduced(m: Matrix) -> dict:
        return {i: mod_p(row, m.den) for i, row in m.num.items()}

    def upper(rows: dict) -> list:
        return [(r * md + c, x) for r, row in rows.items() for c, x in row.items() if c > r]

    a = cache(lambda i: reduced(ops[i]))
    ga = cache(lambda i: reduced(g_ops[i]))
    ga_up = cache(lambda k: upper(ga(k)))
    gd_up = cache(lambda t: upper(reduced(model.g_ad_m_inder(t))))

    def vectors():
        for i in range(md):
            for j in range(i + 1, md):
                v: dict = {}
                get = v.get
                right = a(j)
                for r, row in ga(i).items():  # X at (r, c) enters at r < c, -X^T at c < r
                    for b, x in row.items():
                        if b in right:
                            for c, y in right[b].items():
                                if c != r:
                                    key, y = (r * md + c, y) if c > r else (c * md + r, -y)
                                    v[key] = get(key, 0) + x * y
                for br, up in ((model.m_bracket_m(i, j), ga_up), (model.m_bracket_h(i, j), gd_up)):
                    for k, z in mod_p(br, lden).items():
                        for key, x in up(k):
                            v[key] = get(key, 0) - z * x
                yield v

    dens = (gram.den, lden, *(op.den for op in ops))
    return all(d % linalg.MODULUS[0] for d in dens) and independent_fp(vectors())


def so_algebra(model: HomogeneousModel) -> Subspace:
    """so(m, g) as a new Subspace: the span of g(e_a, .)e_b - g(e_b, .)e_a, a < b."""
    md, g = model.m_dim, model.metric.gram.num  # g is nondegenerate: no zero row
    return Subspace.span(({
        **{b * md + j: z for j, z in g[a].items()},
        **{a * md + j: (-x, -y) for j, (x, y) in g[b].items()},
    } for a in range(md) for b in range(a + 1, md)), ambient=md * md)


def expected_skew_holonomy_space(conn: Connection) -> Subspace:
    """The closed-form holonomy space of the distinguished or canonical
    connection: vertical generators plus the isotropy action on m.

    distinguished: alpha(xi_i, .) for i = 1..3, plus ad(d)|_m over inder(T);
    canonical:     ad(xi_i)|_m for i = 1..3,   plus ad(d)|_m over inder(T).
    """
    model = conn.model
    md = model.m_dim
    vecs = []
    if conn.label == "distinguished":
        for i in range(3):
            vecs.append(conn.alpha.ops[i].flatten())
    elif conn.label == "canonical":
        for i in range(1, 4):
            vecs.append(model.ad_m_xi(i).flatten())
    else:
        raise ValidationError(
            "closed-form holonomy applies to the distinguished/canonical connections"
        )
    for r in range(model.h_dim):
        vecs.append(model.ad_m_inder(r).flatten())
    return Subspace.span(vecs, ambient=md * md)


@dataclass
class HolonomyStructure:
    label: str
    matches: bool
    computed_dim: int
    expected_dim: int


def holonomy_identity_check(conn: Connection, result: HolonomyResult | None = None) -> HolonomyStructure:
    """Compare the computed holonomy algebra with its closed form."""
    if result is None:
        result = holonomy_algebra(conn, compute_center=False)
    expected = expected_skew_holonomy_space(conn)
    return HolonomyStructure(
        label=conn.label,
        matches=(expected == result.algebra),
        computed_dim=result.dim,
        expected_dim=expected.dim,
    )


# ---------------------------------------------------------------------------
# Ricci and scalar curvature
# ---------------------------------------------------------------------------


@dataclass
class RicciData:
    ricci: Matrix
    vertical_constant: GaussianRational | None
    horizontal_constant: GaussianRational | None
    mixed_zero: bool
    scalar_curvature: GaussianRational


def ricci(conn: Connection) -> RicciData:
    """Ric(X, Y) = trace(Z -> R(Z, X) Y), plus block comparison against g.

    Ric[j, k] = sum_i R(e_i, e_j)[i, k] is contracted straight from alpha,
    with no curvature operator built.  With A_i = alpha(e_i, .) and
    R(e_i, e_j) = [A_i, A_j] - A_{[e_i, e_j]_m} - ad_m([e_i, e_j]_h):

        sum_i (A_i A_j)[i, .] = v A_j,  v_t = sum_i A_i[i, t], formed once;
        sum_i (A_j A_i)[i, .] = sum of A_j[i, t] A_i[t, .] over A_j's entries;

    and each bracket term reads row i of one A_l or ad_m(d_u).
    """
    model = conn.model
    md = model.m_dim
    ops = conn.alpha.ops
    inder = [model.ad_m_inder(u) for u in range(model.h_dim)]
    lden = model.algebra.den
    da = lcm(*(op.den for op in ops))
    den = lcm(da * da, lden * da, lden * lcm(*(d.den for d in inder)))
    v: dict = {}  # over da
    for i, op in enumerate(ops):
        add_numerators(v, da // op.den, 0, op.num.get(i, {}))
    num: dict = {}
    for j, aj in enumerate(ops):
        out = num[j] = {}
        rows = aj.num
        s = den // (da * aj.den)
        for t, (x, y) in v.items():
            if t in rows:
                add_numerators(out, s * x, s * y, rows[t])
        for i, row in rows.items():
            ai = ops[i]
            s = -(den // (aj.den * ai.den))
            for t, (x, y) in row.items():
                if t in ai.num:
                    add_numerators(out, s * x, s * y, ai.num[t])
    # [e_p, e_q] enters Ric[q] through i = p, and Ric[p] through i = q with
    # the opposite sign
    for p in range(md):
        for q in range(p + 1, md):
            for parts, mats in ((model.m_bracket_m(p, q), ops),
                                (model.m_bracket_h(p, q), inder)):
                for l, (x, y) in parts.items():
                    mat = mats[l].num
                    s = den // (lden * mats[l].den)
                    if p in mat:
                        add_numerators(num[q], -s * x, -s * y, mat[p])
                    if q in mat:
                        add_numerators(num[p], s * x, s * y, mat[q])
    ric = Matrix.from_numerators(md, md, num, den)
    gram = model.metric.gram
    vertical = _block_constant(ric, gram, range(0, 3))
    horizontal = _block_constant(ric, gram, range(3, md))
    mixed_zero = all(
        not ric[i, j] and not ric[j, i] for i in range(3) for j in range(3, md)
    )
    scal = trace_product(model.metric.inverse(), ric)
    return RicciData(ric, vertical, horizontal, mixed_zero, scal)


def _block_constant(ric: Matrix, gram: Matrix, idx) -> GaussianRational | None:
    """c with ric = c * gram on the block, or None when not proportional."""
    idx = list(idx)
    c = None
    for i in idx:
        for j in idx:
            g = gram[i, j]
            r = ric[i, j]
            if g:
                ratio = r / g
                if c is None:
                    c = ratio
                elif ratio != c:
                    return None
            elif r:
                return None
    return c if c is not None else ZERO


def scalar_curvature_formula(n: int, a, b_matrix) -> GaussianRational:
    """Scalar curvature of the family member ``alpha_family(model, a, B)``
    on a model with dim T = 2n:

        (4n+2)(4n+3) - 6 (a - tr B)^2 - 12 n ||B||^2,

    with ||B||^2 the sum of the squared entries of B.  This is the paper's
    (4n+2)(4n+3) - 3/2 (a' - tr B')^2 - 3n ||B'||^2 at (a', B') = (2a, 2B),
    the paper's parameters for the library's (a, B).
    """
    a = qi(a)
    rows = [[qi(x) for x in row] for row in b_matrix]
    if len(rows) != 3 or any(len(r) != 3 for r in rows):
        raise DimensionError("b_matrix must be 3x3")
    tr = rows[0][0] + rows[1][1] + rows[2][2]
    norm2 = sum((x * x for row in rows for x in row), ZERO)
    return qi((4 * n + 2) * (4 * n + 3)) - qi(6) * (a - tr) ** 2 - qi(12 * n) * norm2


# ---------------------------------------------------------------------------
# The dimension table
# ---------------------------------------------------------------------------


@dataclass
class TableRow:
    family: str
    param: object
    label: str
    n: int
    dims: dict  # connection name -> computed dim
    expected: dict  # connection name -> closed-form dim
    centers: dict  # connection name -> center dim (skew connections only)

    @property
    def passed(self) -> bool:
        return all(self.dims[k] == self.expected[k] for k in self.dims)


def table_report(cases, compute_centers: bool = False):
    """Holonomy dimensions for the selected cases, against closed forms."""
    rows = []
    for family, param in cases:
        model = build_model(families.build_triple(family, param))
        n = model.n
        dims = {}
        centers = {}
        for name in CONNECTION_NAMES:
            conn = connection_by_name(model, name)
            want_center = compute_centers and name != "levi-civita"
            res = holonomy_algebra(conn, compute_center=want_center)
            dims[name] = res.dim
            if want_center:
                centers[name] = res.center_dim
        expected = {name: families.expected_hol(family, param, name) for name in CONNECTION_NAMES}
        rows.append(
            TableRow(
                family=family,
                param=param,
                label=model.triple.label,
                n=n,
                dims=dims,
                expected=expected,
                centers=centers,
            )
        )
    return rows


def format_table(rows) -> str:
    header = (
        f"{'case':26s} {'n':>3s} {'hol(LC)':>8s} {'hol(dist)':>9s} "
        f"{'hol(can)':>8s} {'expected':>20s} {'status':>7s}"
    )
    lines = [header, "-" * len(header)]
    for r in rows:
        exp = "{}/{}/{}".format(
            r.expected["levi-civita"], r.expected["distinguished"], r.expected["canonical"]
        )
        lines.append(
            f"{r.label:26s} {r.n:3d} {r.dims['levi-civita']:8d} "
            f"{r.dims['distinguished']:9d} {r.dims['canonical']:8d} {exp:>20s} "
            f"{'PASS' if r.passed else 'FAIL':>7s}"
        )
    return "\n".join(lines)
