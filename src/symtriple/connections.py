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
``NAMED`` for the named maps and ``((1 + a - tr B)/2, 0)`` and ``(1, 1/2)``
for the family member (a, B), which then adds, for each r, the Phi and phi
entries of sum_s B_rs phi_s.
"""

from __future__ import annotations

from functools import cache
from math import lcm

from .enveloping import HomogeneousModel
from .errors import ConstructionError, DimensionError
from .linalg import _EMPTY, Matrix, ad_flat, add_numerators, combination
from .scalars import HALF, ONE, ZERO, GaussianRational, qi
from .triples import check_witnesses

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

    On the blocks of the bracket the sum is one bracket multiple; then, for
    each r, the Phi and phi entries of phi = sum_s b[r][s] phi_s are added.
    """
    a = qi(a)
    rows = [[qi(x) for x in row] for row in b_matrix]
    if len(rows) != 3 or any(len(r) != 3 for r in rows):
        raise DimensionError("b_matrix must be 3x3")
    md = model.m_dim
    trace = rows[0][0] + rows[1][1] + rows[2][2]
    ops = _block_ops(model, ((ONE + a - trace) * HALF, ZERO), (ONE, HALF))
    # entries added to the bracket part, at places no other r touches
    extra = [{} for _ in range(md)]
    for r, row in enumerate(rows):
        phi = combination(((c, model.phi(s + 1)) for s, c in enumerate(row)), md)
        w = model.metric.gram @ phi  # w[i, j] = g(e_i, phi e_j)
        for i, j, v in w.entries():
            if i >= 3 and j >= 3:  # columns over odd Y: Phi(e_i, Y) xi_r
                extra[i].setdefault(r, {})[j] = v
        for l, i, v in phi.entries():
            if i >= 3:  # column xi_r: phi(e_i), and its alternating counterpart
                extra[i].setdefault(l, {})[r] = v
                extra[r].setdefault(l, {})[i] = -v
    ops = [op + Matrix(md, md, e) if e else op for op, e in zip(ops, extra)]
    label = f"family(a={a}, B={[[str(x) for x in row] for row in rows]})"
    return NomizuMap(ops, label)


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
    D(X, Y) = -D(Y, X) as well.
    """
    if not is_metric(model, alpha):
        return False
    base = named_alpha(model, "levi-civita")
    cols: dict = {}  # (i, j) -> D(e_i, e_j), sparse and nonzero
    for i, (a_i, g_i) in enumerate(zip(alpha.ops, base.ops)):
        for j, l, x in (a_i - g_i).transpose().entries():
            cols.setdefault((i, j), {})[l] = x
    return all(
        cols.get((j, i)) == {l: -x for l, x in col.items()}
        for (i, j), col in cols.items()
    )


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
    summed.  All h_dim * m_dim residues go through ``check_witnesses`` in
    ``fast`` mode, in (t, i) order.  Lie generators of h found through
    g(T)'s bracket would certify the rest only if g(T) is a Lie algebra,
    which this check must not assume.  Generators of ad_m(h) in gl(m) are
    sound, but found per call they cost more than this loop, on one Xeon
    core 0.059 s for e8's 30 against 0.025 s for its residues."""
    den = lcm(*(op.den for op in alpha.ops))
    flats = [{p: (x * s, y * s) for p, (x, y) in op.flatten().items()}
             for op in alpha.ops for s in (den // op.den,)]

    def residues():
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
                yield (t, i), not any(x or y for x, y in v.values())

    return check_witnesses(residues(), "fast", 1)[1]


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
