"""Invariant affine connections as bilinear maps on the tangent model m.

A connection is encoded by its Nomizu map alpha: m x m -> m, stored as the
list of left-multiplication operators ``ops[i] = alpha(e_i, .)``.  The
library provides the Levi-Civita map, the affine family alpha_g + a*alpha_o
+ sum b_rs alpha_rs covering the metric skew-torsion connections, and its
distinguished / canonical members, plus torsion, metric and skew-torsion
predicates, and curvature operators

    R(X, Y) = [alpha_X, alpha_Y] - alpha_{[X,Y]_m} - ad([X,Y]_h).

On the basis this term list is ``curvature_numerators``, whose unreduced
numerators are what the holonomy closure reads; ``curvature`` brings them
to a ``Matrix``.

Every named map is a block-wise multiple of the bracket: alpha(e_i, e_j) =
c [e_i, e_j]_m, with c read off the blocks of e_i (row) and e_j (column),
m = vertical (xi_1, xi_2, xi_3) (+) odd part.  Each operator alpha(e_i, .)
is ``HomogeneousModel.bracket_op(i, vertical, odd)`` with

    map                    vertical e_i             odd e_i
    levi-civita            (1/2, 0)                 (1, 1/2)
    family (a, B)          ((1 + a - tr B)/2, 0)    (1, 1/2)
    distinguished          (0, -1)                  0
    canonical              (-1, -1)                 0

The family adds, for each r, the Phi and phi entries of sum_s B_rs phi_s.
"""

from __future__ import annotations

from math import lcm

from .enveloping import HomogeneousModel
from .errors import ConstructionError, DimensionError
from .linalg import Matrix, add_numerators, combination, comm_minus, comm_minus_numerators
from .scalars import HALF, ONE, ZERO, GaussianRational, qi
from .triples import check_witnesses

__all__ = [
    "NomizuMap",
    "Connection",
    "alpha_levi_civita",
    "alpha_family",
    "alpha_distinguished",
    "alpha_canonical",
    "alpha_zero",
    "torsion_operator",
    "metric_products",
    "is_metric",
    "is_skew_torsion",
    "curvature",
    "curvature_numerators",
    "admissibility_failures",
    "connection_by_name",
    "CONNECTION_NAMES",
]

class NomizuMap:
    """Bilinear map m x m -> m, as left-multiplication matrices per basis."""

    __slots__ = ("ops", "label", "params")

    def __init__(self, ops, label: str, params=None):
        self.ops = tuple(ops)
        self.label = label
        self.params = params

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


def _block_ops(model: HomogeneousModel, vertical_row, odd_row=(ZERO, ZERO)) -> list:
    """ops[i] = bracket_op(i, *row), with the row of e_i's block."""
    return [
        model.bracket_op(i, *(vertical_row if i < 3 else odd_row))
        for i in range(model.m_dim)
    ]


def alpha_levi_civita(model: HomogeneousModel) -> NomizuMap:
    """Half-bracket on matching blocks, full bracket odd-into-vertical,
    zero vertical-into-odd; built once per model."""
    if model._alpha_g is None:
        model._alpha_g = NomizuMap(_block_ops(model, (HALF, ZERO), (ONE, HALF)), "levi-civita")
    return model._alpha_g


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
    return NomizuMap(ops, label, params=(a, tuple(tuple(r) for r in rows)))


_IDENTITY3 = tuple(tuple(ONE if r == s else ZERO for s in range(3)) for r in range(3))


def alpha_distinguished(model: HomogeneousModel) -> NomizuMap:
    """alpha_g + 2 alpha_o + sum_r alpha_rr, the family member at (a, B) =
    (2, I), from its value table: alpha(xi_i, X) = -phi_i(X) and zero on
    every other pair of blocks."""
    return NomizuMap(
        _block_ops(model, (ZERO, -ONE)), "distinguished", params=(qi(2), _IDENTITY3)
    )


def alpha_canonical(model: HomogeneousModel) -> NomizuMap:
    """alpha_g + sum_r alpha_rr, the family member at (a, B) = (0, I), from
    its value table: the distinguished one plus alpha(xi, xi') = -[xi, xi']."""
    return NomizuMap(
        _block_ops(model, (-ONE, -ONE)), "canonical", params=(qi(0), _IDENTITY3)
    )


def alpha_zero(model: HomogeneousModel) -> NomizuMap:
    """The zero Nomizu map (flat-ish reference connection)."""
    return NomizuMap(_block_ops(model, (ZERO, ZERO)), "zero")


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
    exactly when g a is skew: one product per operator.
    """
    g = model.metric.gram
    products = []
    for a_i in alpha.ops:
        ga = g @ a_i
        if ga.transpose() != -ga:
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
    base = alpha_levi_civita(model)
    cols: dict = {}  # (i, j) -> D(e_i, e_j), sparse and nonzero
    for i, (a_i, g_i) in enumerate(zip(alpha.ops, base.ops)):
        for j, l, x in (a_i - g_i).transpose().entries():
            cols.setdefault((i, j), {})[l] = x
    return all(
        cols.get((j, i)) == {l: -x for l, x in col.items()}
        for (i, j), col in cols.items()
    )


def curvature_numerators(model: HomogeneousModel, alpha: NomizuMap, i: int,
                         j: int) -> tuple[dict, int]:
    """R(e_i, e_j) = [alpha_i, alpha_j] - alpha_{[e_i, e_j]_m} - ad_m([e_i,
    e_j]_h) on the m basis, as ``comm_minus_numerators`` sums it: numerator
    rows, which may hold zeros, over a denominator they may share a factor
    with."""
    return comm_minus_numerators(alpha.ops[i], alpha.ops[j], [
        *((z, alpha.ops[k]) for k, z in model.m_bracket_m(i, j).items()),
        *((z, model.ad_m_inder(t)) for t, z in model.m_bracket_h(i, j).items()),
    ], model.algebra.den)


def curvature(model: HomogeneousModel, alpha: NomizuMap, i: int, j: int) -> Matrix:
    """The curvature operator R(e_i, e_j) on the m basis, ``curvature_numerators``
    in canonical form."""
    md = model.m_dim
    return Matrix.from_numerators(md, md, *curvature_numerators(model, alpha, i, j))


def admissibility_failures(model: HomogeneousModel, alpha: NomizuMap) -> list:
    """The first pair (h-index, m-index) at which h fails to act as a
    derivation of alpha, [ad d, alpha_X] = alpha_{dX}, as a one-element
    list; empty when every h-basis element acts as a derivation.

    All h_dim * m_dim residues go through ``check_witnesses`` in ``fast``
    mode, with no certificate.  The d acting as derivations of alpha form a
    Lie algebra, but Lie generators of h found through g(T)'s bracket (30 of
    133 on e8) certify the rest only if ad_m: h -> gl(m) is a Lie
    homomorphism, which is the Jacobi identity of g(T), and this check
    guards models whose T was never verified.  Generators of ad_m(h) taken
    inside gl(m) are sound, but measured slower than this loop."""

    def residues():
        for t in range(model.h_dim):
            d = model.ad_m_inder(t)
            cols = d.transpose().num  # cols[i] = d(e_i), over d.den
            for i in range(model.m_dim):
                terms = [(z, alpha.ops[l]) for l, z in cols.get(i, {}).items()]
                yield (t, i), comm_minus(d, alpha.ops[i], terms, d.den).is_zero()

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


CONNECTION_NAMES = ("levi-civita", "distinguished", "canonical")


def connection_by_name(model: HomogeneousModel, name: str) -> Connection:
    if name == "levi-civita":
        alpha = alpha_levi_civita(model)
    elif name == "distinguished":
        alpha = alpha_distinguished(model)
    elif name == "canonical":
        alpha = alpha_canonical(model)
    elif name == "zero":
        alpha = alpha_zero(model)
    else:
        raise ValueError(f"unknown connection {name!r}")
    if admissibility_failures(model, alpha):
        raise ConstructionError(f"{name}: isotropy does not act by derivations")
    return Connection(model, alpha)
