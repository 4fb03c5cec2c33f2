"""Invariant affine connections as bilinear maps on the tangent model m.

A connection is encoded by its Nomizu map alpha: m x m -> m, stored as the
list of left-multiplication operators ``ops[i] = alpha(e_i, .)``.  The
library provides the Levi-Civita map, the two torsion building blocks, the
affine family alpha_g + a*alpha_o + sum b_rs alpha_rs covering the metric
skew-torsion connections, and the distinguished / canonical members, plus
torsion, metric and skew-torsion predicates, and curvature operators

    R(X, Y) = [alpha_X, alpha_Y] - alpha_{[X,Y]_m} - ad([X,Y]_h).
"""

from __future__ import annotations

from .enveloping import HomogeneousModel
from .errors import ConstructionError, DimensionError
from .linalg import Matrix, combination, comm_minus
from .scalars import HALF, ONE, ZERO, qi

__all__ = [
    "NomizuMap",
    "Connection",
    "alpha_levi_civita",
    "alpha_o",
    "alpha_rs",
    "alpha_family",
    "alpha_distinguished",
    "alpha_canonical",
    "alpha_zero",
    "torsion_operator",
    "is_metric",
    "is_skew_torsion",
    "curvature",
    "curvature_of",
    "admissibility_failures",
    "connection_by_name",
    "CONNECTION_NAMES",
]

_EPS3 = {}
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    _EPS3[(_i, _j, _k)] = 1
    _EPS3[(_j, _i, _k)] = -1


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

    def value(self, x, y):
        """alpha(x, y) for m-coordinate vectors."""
        if len(x) != self.m_dim or len(y) != self.m_dim:
            raise DimensionError("NomizuMap arguments must live on the m basis")
        out = [ZERO] * self.m_dim
        for i, xi in enumerate(x):
            if not xi:
                continue
            img = self.ops[i].apply(y)
            for l, v in enumerate(img):
                if v:
                    out[l] = out[l] + xi * v
        return tuple(out)

    def op_of(self, x) -> Matrix:
        """The operator alpha(x, .) for an m-coordinate vector x."""
        if len(x) != self.m_dim:
            raise DimensionError("NomizuMap arguments must live on the m basis")
        return combination(zip(x, self.ops), self.m_dim)

    def __eq__(self, other):
        if not isinstance(other, NomizuMap):
            return NotImplemented
        return self.ops == other.ops

    def __hash__(self):
        return hash(self.ops)

    def __repr__(self):
        return f"NomizuMap({self.label!r}, m_dim={self.m_dim})"


def _ops_zero(m_dim: int):
    return [Matrix(m_dim, m_dim) for _ in range(m_dim)]


def _set_col(mat: Matrix, j: int, entries) -> None:
    for l, v in entries:
        if v:
            mat.set_entry(l, j, mat[l, j] + v)


def alpha_levi_civita(model: HomogeneousModel) -> NomizuMap:
    """Half-bracket on matching blocks, full bracket odd-into-vertical,
    zero vertical-into-odd."""
    md = model.m_dim
    ops = _ops_zero(md)
    for i in range(md):
        for j in range(md):
            mbm = model.m_bracket_m(i, j)
            if not mbm:
                continue
            if i < 3 and j < 3:
                _set_col(ops[i], j, ((l, v * HALF) for l, v in mbm.items()))
            elif i < 3:
                continue  # alpha(vertical, odd) = 0
            elif j < 3:
                _set_col(ops[i], j, mbm.items())
            else:
                _set_col(ops[i], j, ((l, v * HALF) for l, v in mbm.items()))
    return NomizuMap(ops, "levi-civita")


def alpha_o(model: HomogeneousModel) -> NomizuMap:
    """alpha_o(xi_i, xi_j) = eps_ijk xi_k; zero whenever an argument is odd."""
    md = model.m_dim
    ops = _ops_zero(md)
    for (i, j, k), sgn in _EPS3.items():
        ops[i].set_entry(k, j, qi(sgn))
    return NomizuMap(ops, "alpha_o")


def alpha_rs(model: HomogeneousModel, r: int, s: int) -> NomizuMap:
    """The torsion block alpha_rs (r, s in 1..3):

    alpha_rs(X, Y) = Phi_s(X, Y) xi_r, alpha_rs(X, xi_j) = delta_rj phi_s(X),
    alpha_rs(xi_i, xi_j) = -delta_rs eps_ijk xi_k, extended alternating.
    """
    if not (1 <= r <= 3 and 1 <= s <= 3):
        raise DimensionError("alpha_rs indices must lie in 1..3")
    md = model.m_dim
    ri = r - 1
    phi_s = model.phi(s)
    w_s = model.metric.gram @ phi_s  # w_s[i, j] = g(e_i, phi_s e_j)
    ops = _ops_zero(md)
    if r == s:
        for (i, j, k), sgn in _EPS3.items():
            ops[i].set_entry(k, j, qi(-sgn))
    for i in range(3, md):
        # columns over odd Y: Phi_s(e_i, Y) xi_r
        row = w_s.data.get(i, {})
        for j, v in row.items():
            if j >= 3:
                ops[i].set_entry(ri, j, v)
        # column xi_r: phi_s(e_i)
        for l in range(md):
            v = phi_s[l, i]
            if v:
                ops[i].set_entry(l, ri, v)
                ops[ri].set_entry(l, i, -v)  # alternating counterpart
    return NomizuMap(ops, f"alpha_{r}{s}")


def alpha_family(model: HomogeneousModel, a, b_matrix, label: str | None = None) -> NomizuMap:
    """alpha_g + a * alpha_o + sum_rs b[r][s] * alpha_rs."""
    a = qi(a)
    rows = [[qi(x) for x in row] for row in b_matrix]
    if len(rows) != 3 or any(len(r) != 3 for r in rows):
        raise DimensionError("b_matrix must be 3x3")
    parts = [(ONE, alpha_levi_civita(model))]
    if a:
        parts.append((a, alpha_o(model)))
    parts += [
        (c, alpha_rs(model, r + 1, s + 1))
        for r, row in enumerate(rows) for s, c in enumerate(row) if c
    ]
    md = model.m_dim
    ops = [combination(((c, p.ops[i]) for c, p in parts), md) for i in range(md)]
    if label is None:
        label = f"family(a={a}, B={[[str(x) for x in row] for row in rows]})"
    return NomizuMap(ops, label, params=(a, tuple(tuple(r) for r in rows)))


_IDENTITY3 = tuple(tuple(ONE if r == s else ZERO for s in range(3)) for r in range(3))


def _closed_form_skew(model: HomogeneousModel, canonical: bool) -> NomizuMap:
    """Closed-form tables: alpha(X, xi) = 0, alpha(xi_i, X) = -phi_i(X),
    alpha(X, Y) = 0, and alpha(xi, xi') = 0 (distinguished) or -[xi, xi']
    (canonical).  These are the family members ``alpha_family`` gives at
    (a, B) = (2, I) and (0, I), whose parameters the map carries."""
    md = model.m_dim
    ops = _ops_zero(md)
    for i in range(3):
        phi = model.phi(i + 1)
        for j in range(3, md):
            for l in range(md):
                v = phi[l, j]
                if v:
                    ops[i].set_entry(l, j, -v)
        if canonical:
            for j in range(3):
                for l, v in model.m_bracket_m(i, j).items():
                    ops[i].set_entry(l, j, -v)
    a = qi(0) if canonical else qi(2)
    return NomizuMap(
        ops, "canonical" if canonical else "distinguished", params=(a, _IDENTITY3)
    )


def alpha_distinguished(model: HomogeneousModel) -> NomizuMap:
    """alpha_g + 2 alpha_o + sum_r alpha_rr, from its value table."""
    return _closed_form_skew(model, canonical=False)


def alpha_canonical(model: HomogeneousModel) -> NomizuMap:
    """alpha_g + sum_r alpha_rr, from its value table."""
    return _closed_form_skew(model, canonical=True)


def alpha_zero(model: HomogeneousModel) -> NomizuMap:
    """The zero Nomizu map (flat-ish reference connection)."""
    return NomizuMap(_ops_zero(model.m_dim), "zero")


def torsion_operator(model: HomogeneousModel, alpha: NomizuMap, i: int, j: int):
    """T(e_i, e_j) = alpha(e_i,e_j) - alpha(e_j,e_i) - [e_i,e_j]_m."""
    md = model.m_dim
    out = [ZERO] * md
    for l in range(md):
        v = alpha.ops[i][l, j] - alpha.ops[j][l, i]
        if v:
            out[l] = v
    for l, v in model.m_bracket_m(i, j).items():
        out[l] = out[l] - v
    return tuple(out)


def is_metric(model: HomogeneousModel, alpha: NomizuMap) -> bool:
    """alpha(X, .) in so(m, g) for every X."""
    g = model.metric.gram
    for a_i in alpha.ops:
        if not (a_i.transpose() @ g + g @ a_i).is_zero():
            return False
    return True


def is_skew_torsion(model: HomogeneousModel, alpha: NomizuMap) -> bool:
    """Metric, and g((alpha - alpha_g)(., .), .) totally alternating."""
    if not is_metric(model, alpha):
        return False
    base = alpha_levi_civita(model)
    g = model.metric.gram
    md = model.m_dim
    w = []
    for i in range(md):
        d_i = alpha.ops[i] - base.ops[i]
        w_i = d_i.transpose() @ g  # w_i[j, k] = g(D(e_i, e_j), e_k)
        if not (w_i + w_i.transpose()).is_zero():
            return False
        w.append(w_i)
    for i in range(md):
        for j in range(i + 1, md):
            for k in range(md):
                if w[i][j, k] != -w[j][i, k]:
                    return False
    return True


def curvature(model: HomogeneousModel, alpha: NomizuMap, i: int, j: int) -> Matrix:
    """The curvature operator R(e_i, e_j) on the m basis."""
    return comm_minus(alpha.ops[i], alpha.ops[j], [
        *((v, alpha.ops[k]) for k, v in model.m_bracket_m(i, j).items()),
        *((v, model.ad_m_inder(t)) for t, v in model.m_bracket_h(i, j).items()),
    ])


def curvature_of(model: HomogeneousModel, alpha: NomizuMap, x, y) -> Matrix:
    """R(X, Y) for arbitrary m-coordinate vectors, straight from the
    defining formula rather than by bilinear expansion of basis operators."""
    md = model.m_dim
    if len(x) != md or len(y) != md:
        raise DimensionError("curvature arguments must live on the m basis")
    mker = [ZERO] * md
    hker = [ZERO] * model.h_dim
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            if xi and yj:
                c = xi * yj
                for k, v in model.m_bracket_m(i, j).items():
                    mker[k] = mker[k] + c * v
                for t, v in model.m_bracket_h(i, j).items():
                    hker[t] = hker[t] + c * v
    return comm_minus(alpha.op_of(x), alpha.op_of(y), [
        *((v, alpha.ops[k]) for k, v in enumerate(mker) if v),
        *((v, model.ad_m_inder(t)) for t, v in enumerate(hker) if v),
    ])


def admissibility_failures(model: HomogeneousModel, alpha: NomizuMap) -> list:
    """The first pair (h-index, m-index) at which h fails to act as a
    derivation of alpha, [ad d, alpha_X] = alpha_{dX}, as a one-element
    list; empty when every h-basis element acts as a derivation."""
    for t in range(model.h_dim):
        d = model.ad_m_inder(t)
        cols = d.transpose().data  # cols[i] = d(e_i)
        for i in range(model.m_dim):
            terms = [(v, alpha.ops[l]) for l, v in cols.get(i, {}).items()]
            if not comm_minus(d, alpha.ops[i], terms).is_zero():
                return [(t, i)]
    return []


class Connection:
    """A Nomizu map together with cached derived tensors."""

    __slots__ = ("model", "alpha", "_curv", "_metric_flag", "_skew_flag")

    def __init__(self, model: HomogeneousModel, alpha: NomizuMap):
        self.model = model
        self.alpha = alpha
        self._curv: dict = {}
        self._metric_flag = None
        self._skew_flag = None

    @property
    def label(self) -> str:
        return self.alpha.label

    def curvature(self, i: int, j: int) -> Matrix:
        if i == j:
            return Matrix(self.model.m_dim, self.model.m_dim)
        if i > j:
            return -self.curvature(j, i)
        m = self._curv.get((i, j))
        if m is None:
            m = curvature(self.model, self.alpha, i, j)
            self._curv[(i, j)] = m
        return m

    def curvature_pairs(self):
        md = self.model.m_dim
        for i in range(md):
            for j in range(i + 1, md):
                yield (i, j), self.curvature(i, j)

    def torsion(self, i: int, j: int):
        return torsion_operator(self.model, self.alpha, i, j)

    def curvature_of(self, x, y) -> Matrix:
        return curvature_of(self.model, self.alpha, x, y)

    def is_metric(self) -> bool:
        if self._metric_flag is None:
            self._metric_flag = is_metric(self.model, self.alpha)
        return self._metric_flag

    def is_skew_torsion(self) -> bool:
        if self._skew_flag is None:
            self._skew_flag = is_skew_torsion(self.model, self.alpha)
        return self._skew_flag

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
