"""Invariant affine connections as bilinear maps on the tangent model m.

A connection is encoded by its Nomizu map alpha: m x m -> m, stored as the
list of left-multiplication operators ``ops[i] = alpha(e_i, .)``.  The
library provides the Levi-Civita map, the affine family alpha_g + a*alpha_o
+ sum b_rs alpha_rs covering the metric skew-torsion connections, and its
distinguished / canonical members, plus torsion, metric and skew-torsion
predicates, and curvature operators

    R(X, Y) = [alpha_X, alpha_Y] - alpha_{[X,Y]_m} - ad([X,Y]_h).

``curvature_vectors`` sums this on flat Gaussian-integer vectors, through
``linalg.ad_flat``, for the holonomy closure; ``curvature`` brings one to a
``Matrix``.  ``admissibility_failures`` sums its residues the same way.

Every named map is a block-wise multiple of the bracket: alpha(e_i, e_j) =
c [e_i, e_j]_m, with c read off the blocks of e_i (row) and e_j (column),
m = vertical (xi_1, xi_2, xi_3) (+) odd part.  Each operator alpha(e_i, .)
is ``HomogeneousModel.bracket_op(i, vertical, odd)``, with the rows of
``NAMED``.  The family member (a, B) is Levi-Civita's map with its vertical
operators times 1 + a - tr B, plus, for each r, the Phi and phi entries of
sum_s B_rs phi_s, summed on Gaussian-integer numerators.
"""

from __future__ import annotations

from functools import cache
from math import lcm

from .enveloping import HomogeneousModel
from .errors import ConstructionError, DimensionError
from .linalg import _EMPTY, _ZZ, Matrix, _times, ad_flat, add_numerators
from .scalars import HALF, ONE, ZERO, GaussianRational, qi

__all__ = [
    "NomizuMap",
    "Connection",
    "NAMED",
    "named_alpha",
    "alpha_family",
    "torsion_operator",
    "metric_products",
    "is_metric",
    "is_skew_torsion",
    "curvature",
    "curvature_vectors",
    "admissibility_failures",
    "connection_by_name",
    "CONNECTION_NAMES",
]

class NomizuMap:
    """Bilinear map m x m -> m, as left-multiplication matrices per basis."""

    __slots__ = ("ops", "label")

    def __init__(self, ops, label: str):
        self.ops = tuple(ops)
        self.label = label

    @property
    def m_dim(self) -> int:
        return len(self.ops)

    def __eq__(self, other):
        if not isinstance(other, NomizuMap):
            return NotImplemented
        return self.ops == other.ops

    def __hash__(self):
        return hash(self.ops)

    def __repr__(self):
        return f"NomizuMap({self.label!r}, m_dim={self.m_dim})"


def _block_ops(model: HomogeneousModel, vertical_row, odd_row) -> list:
    """ops[i] = bracket_op(i, *row), with the row of e_i's block."""
    return [
        model.bracket_op(i, *(vertical_row if i < 3 else odd_row))
        for i in range(model.m_dim)
    ]


# name -> (vertical row, odd row): the row of e_i's block holds c for a
# vertical and for an odd e_j.  distinguished and canonical are the family
# members at (a, B) = (2, I) and (0, I): alpha(xi_i, X) = -phi_i(X), plus
# alpha(xi, xi') = -[xi, xi'] for the canonical map, and zero on every
# other pair of blocks.
NAMED = {
    "levi-civita": ((HALF, ZERO), (ONE, HALF)),
    "distinguished": ((ZERO, -ONE), (ZERO, ZERO)),
    "canonical": ((-ONE, -ONE), (ZERO, ZERO)),
    "zero": ((ZERO, ZERO), (ZERO, ZERO)),  # a reference map, not in the paper
}
CONNECTION_NAMES = tuple(name for name in NAMED if name != "zero")


def named_alpha(model: HomogeneousModel, name: str) -> NomizuMap:
    """The Nomizu map of the ``NAMED`` row ``name``, built once per model."""
    alpha = model._named.get(name)
    if alpha is None:
        if name not in NAMED:
            raise ValueError(f"unknown connection {name!r}")
        alpha = model._named[name] = NomizuMap(_block_ops(model, *NAMED[name]), name)
    return alpha


def alpha_family(model: HomogeneousModel, a, b_matrix) -> NomizuMap:
    """alpha_g + a * alpha_o + sum_rs b[r][s] * alpha_rs, the metric
    skew-torsion family, where

        alpha_o(xi_i, xi_j) = eps_ijk xi_k, zero whenever an argument is odd;
        alpha_rs(X, Y) = Phi_s(X, Y) xi_r, alpha_rs(X, xi_j) = delta_rj phi_s(X),
        alpha_rs(xi_i, xi_j) = -delta_rs eps_ijk xi_k, extended alternating.

    On the blocks of the bracket the sum is alpha_g, its vertical operators
    times 1 + a - tr B; then, for each r, the Phi and phi entries of phi =
    sum_s b[r][s] phi_s are added, on numerators over one denominator.
    """
    a = qi(a)
    rows = [[qi(x) for x in row] for row in b_matrix]
    if len(rows) != 3 or any(len(r) != 3 for r in rows):
        raise DimensionError("b_matrix must be 3x3")
    md, gram, gden = model.m_dim, model.metric.gram, model.metric.gram.den
    k = ONE + a - (rows[0][0] + rows[1][1] + rows[2][2])
    lc = [(k if i < 3 else ONE, op) for i, op in enumerate(named_alpha(model, "levi-civita").ops)]
    den = lcm(*(c.d * op.den for c, op in lc),
              gden * lcm(*(f.den for f in model.phis)) * lcm(*(c.d for row in rows for c in row)))
    ops = [{l: _times(c.a * s, c.b * s, row) for l, row in op.num.items()}
           for c, op in lc for s in (den // (c.d * op.den),)]
    for r, row in enumerate(rows):
        phi: dict = {}  # sum_s b[r][s] phi_s, over den / g's denominator
        for c, f in zip(row, model.phis):
            if c:
                s = den // (gden * c.d * f.den)
                for l, frow in f.num.items():
                    add_numerators(phi.setdefault(l, {}), c.a * s, c.b * s, frow)
        odd = {l: {i: z for i, z in prow.items() if i >= 3} for l, prow in phi.items()}
        for i, grow in gram.num.items():  # row r over odd Y: Phi(e_i, Y) = (g phi)[i, Y]
            if i >= 3:
                out = ops[i].setdefault(r, {})
                for b, (x, y) in grow.items():
                    add_numerators(out, x, y, odd.get(b, _EMPTY))
        for l, orow in odd.items():  # column xi_r: phi(e_i), and its alternating counterpart
            add_numerators(ops[r].setdefault(l, {}), -gden, 0, orow)
            for i, z in orow.items():
                add_numerators(ops[i].setdefault(l, {}), gden, 0, {r: z})
    label = f"family(a={a}, B={[[str(x) for x in row] for row in rows]})"
    return NomizuMap((Matrix.from_numerators(md, md, num, den) for num in ops), label)


def torsion_operator(model: HomogeneousModel, alpha: NomizuMap, i: int, j: int):
    """T(e_i, e_j) = alpha(e_i,e_j) - alpha(e_j,e_i) - [e_i,e_j]_m."""
    a, b, L = alpha.ops[i], alpha.ops[j], model.algebra
    den = lcm(a.den, b.den, L.den)
    t: dict = {}
    add_numerators(t, den // a.den, 0, {l: row[j] for l, row in a.num.items() if j in row})
    add_numerators(t, -(den // b.den), 0, {l: row[i] for l, row in b.num.items() if i in row})
    add_numerators(t, -(den // L.den), 0, model.m_bracket_m(i, j))
    return tuple(GaussianRational(*t.get(l, (0, 0)), den) for l in range(model.m_dim))


def metric_products(model: HomogeneousModel, alpha: NomizuMap) -> list | None:
    """The products g A_i, A_i = alpha(e_i, .), when every A_i lies in
    so(m, g); None, at the first that does not.

    g is symmetric, so a^T g + g a = (g a)^T + g a, and a lies in so(m, g)
    exactly when g a is skew: one product per operator, each numerator
    compared with its mirror in place.
    """
    g = model.metric.gram
    products = []
    for a_i in alpha.ops:
        ga = g @ a_i
        rows = ga.num
        if not all(rows.get(c, _EMPTY).get(r) == (-x, -y)
                   for r, row in rows.items() for c, (x, y) in row.items()):
            return None
        products.append(ga)
    return products


def is_metric(model: HomogeneousModel, alpha: NomizuMap) -> bool:
    """alpha(X, .) in so(m, g) for every X (``metric_products``)."""
    return metric_products(model, alpha) is not None


def is_skew_torsion(model: HomogeneousModel, alpha: NomizuMap) -> bool:
    """Metric, and g((alpha - alpha_g)(., .), .) totally alternating.

    alpha and alpha_g are both metric, so for D = alpha - alpha_g the form
    g(D(X, Y), Z) already alternates in (Y, Z); it is a 3-form exactly when
    D(X, Y) = -D(Y, X) as well: on numerators over the lcm E of alpha's and
    alpha_g's denominators, E D(e_i, e_j) + E D(e_j, e_i) vanishes.
    """
    if not is_metric(model, alpha):
        return False
    md, base = model.m_dim, named_alpha(model, "levi-civita").ops
    den = lcm(*(op.den for op in alpha.ops), *(op.den for op in base))
    sums: dict = {}  # (min(i, j) m + max(i, j)) m + l -> E (D(e_i, e_j) + D(e_j, e_i))_l
    get = sums.get
    for i, pair in enumerate(zip(alpha.ops, base)):
        for sign, op in zip((1, -1), pair):
            s = sign * (den // op.den)
            for l, row in op.num.items():
                for j, (x, y) in row.items():
                    key = ((i * md + j) if i <= j else (j * md + i)) * md + l
                    zr, zi = get(key, _ZZ)
                    sums[key] = (zr + s * x, zi + s * y)
    return not any(x or y for x, y in sums.values())


def curvature_vectors(model: HomogeneousModel, alpha: NomizuMap, pairs=None):
    """Yield ``((i, j), v, den)`` for the pairs, by default every i < j in
    order, where R(e_i, e_j) != 0: v is the flattening of den R(e_i, e_j),
    without zeros.  ``ad_flat`` of the flattening of A_i.den A_i, A_i =
    alpha(e_i, .), built once per i, maps that of A_j.den A_j to that of
    A_i.den A_j.den [A_i, A_j]; the bracket terms are subtracted on flat
    vectors, and no ``Matrix`` is built."""
    md, ops, lden = model.m_dim, alpha.ops, model.algebra.den
    flat_op = cache(lambda k: ops[k].flatten())
    flat_ad = cache(lambda t: model.ad_m_inder(t).flatten())
    kernel = cache(lambda i: ad_flat(flat_op(i), md))
    if pairs is None:
        pairs = ((i, j) for i in range(md) for j in range(i + 1, md))
    for i, j in pairs:
        terms = [*((z, ops[k].den, flat_op(k)) for k, z in model.m_bracket_m(i, j).items()),
                 *((z, model.ad_m_inder(t).den, flat_ad(t))
                   for t, z in model.m_bracket_h(i, j).items())]
        ab = ops[i].den * ops[j].den
        den = lcm(ab, *(lden * d for _, d, _ in terms))
        v = kernel(i)(flat_op(j))
        if (s := den // ab) != 1:
            v = {p: (x * s, y * s) for p, (x, y) in v.items()}
        for (x, y), d, w in terms:
            s = den // (lden * d)
            add_numerators(v, -s * x, -s * y, w)
        v = {p: z for p, z in v.items() if z != (0, 0)}
        if v:
            yield (i, j), v, den


def curvature(model: HomogeneousModel, alpha: NomizuMap, i: int, j: int) -> Matrix:
    """The curvature operator R(e_i, e_j) on the m basis, the vector of
    ``curvature_vectors`` in canonical form."""
    _, v, den = next(curvature_vectors(model, alpha, [(i, j)]), (None, {}, 1))
    return Matrix.from_flat(v, model.m_dim, model.m_dim, den)


def admissibility_failures(model: HomogeneousModel, alpha: NomizuMap) -> list:
    """The first pair (h-index, m-index) at which h fails to act as a
    derivation of alpha, [ad d, alpha_X] = alpha_{dX}, as a one-element
    list; empty when every h-basis element acts as a derivation.

    With F_l the flattening of D alpha(e_l, .), D the lcm of alpha's
    denominators, the residue at (t, i) times D and ad_m(d_t)'s denominator
    is K(F_i) - sum_l d_t(e_i)_l F_l, K = ``ad_flat`` of the flattening of
    ad_m(d_t) times its denominator, built at most once per t, on its first
    nonzero F_i; it passes when every entry cancels.  Where F_i = 0 and
    every F_l it subtracts is zero, as on the odd block of the
    distinguished and canonical maps, the residue is zero and nothing is
    summed.  The h_dim * m_dim residues are read in (t, i) order, up to
    the first nonzero one.  Lie generators of h found through
    g(T)'s bracket would certify the rest only if g(T) is a Lie algebra,
    which this check must not assume.  Generators of ad_m(h) in gl(m) are
    sound, but found per call they cost more than this loop, on one Xeon
    core 0.059 s for e8's 30 against 0.025 s for its residues."""
    den = lcm(*(op.den for op in alpha.ops))
    flats = [{p: (x * s, y * s) for p, (x, y) in op.flatten().items()}
             for op in alpha.ops for s in (den // op.den,)]

    for t in range(model.h_dim):
        d = model.ad_m_inder(t)
        image = None
        cols = d.transpose().num  # cols[i] = d(e_i), over d.den
        for i, f in enumerate(flats):
            v = {}
            if f:  # K(0) = 0: a t whose residues read no nonzero F_i builds no K
                image = image or ad_flat(d.flatten(), model.m_dim)
                v = image(f)
            for l, (x, y) in cols.get(i, {}).items():
                add_numerators(v, -x, -y, flats[l])
            if any(x or y for x, y in v.values()):
                return [(t, i)]
    return []


class Connection:
    """A Nomizu map on the tangent model of a homogeneous model."""

    __slots__ = ("model", "alpha")

    def __init__(self, model: HomogeneousModel, alpha: NomizuMap):
        self.model = model
        self.alpha = alpha

    @property
    def label(self) -> str:
        return self.alpha.label

    def __repr__(self):
        return f"Connection({self.label!r} on {self.model.triple.label!r})"


def connection_by_name(model: HomogeneousModel, name: str) -> Connection:
    alpha = named_alpha(model, name)
    if admissibility_failures(model, alpha):
        raise ConstructionError(f"{name}: isotropy does not act by derivations")
    return Connection(model, alpha)
