"""The graded Lie algebra attached to a triple system, and its homogeneous
Riemannian data.

Given a simple triple system T of dimension 2n, the algebra is

    g  =  sp(V) (+) inder(T) (+) V (x) T

with basis ordered exactly that way: indices 0..2 are the vertical elements
xi_1, xi_2, xi_3 coordinatizing sp(V) (so the metric constants match the
Riemannian normalization), then the echelon basis of inder(T), then the odd
part e_1(x)t_0, ..., e_1(x)t_{2n-1}, e_2(x)t_0, ...

The reductive split has h = inder(T) and m = sp(V) (+) odd part, with the
m basis ordered (xi_1, xi_2, xi_3, e_1(x)t_0, ...).  The invariant metric is
the block rescaling of the Killing form kappa:

    g|sp(V) = -kappa / (4(n+2)),   g|odd = -kappa / (8(n+2)),   mixed = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConstructionError, ValidationError
from .linalg import Matrix, comm, comm_minus, inverse, trace_product
from .scalars import GaussianRational, HALF, I, ONE, ZERO, qi
from .triples import InnerDerivationSpace, SymplecticTripleSystem, check_witnesses, inder_basis

__all__ = [
    "GradedLieAlgebra",
    "ReductiveSplit",
    "InvariantMetric",
    "HomogeneousModel",
    "build_enveloping",
    "build_model",
    "verify_jacobi",
    "killing_form",
    "metric_g",
    "xi_matrices",
    "metric_skew_operator",
]

# The vertical basis of sp(V) as 2x2 matrices: xi_1 = diag(i, -i),
# xi_2 = [[0,-1],[1,0]], xi_3 = [[0,-i],[-i,0]]; [xi_i, xi_j] = 2 eps_ijk xi_k.
_XI = (
    Matrix.from_rows([[I, ZERO], [ZERO, -I]]),
    Matrix.from_rows([[ZERO, -ONE], [ONE, ZERO]]),
    Matrix.from_rows([[ZERO, -I], [-I, ZERO]]),
)

_EPS2 = ((0, 1), (-1, 0))  # <e_a, e_b> on V


def xi_matrices():
    """The three vertical generators as 2x2 matrices over Q(i)."""
    return _XI


def _sl2_to_xi(m: Matrix):
    """Coordinates of a traceless 2x2 matrix in the (xi_1, xi_2, xi_3) basis."""
    p, q, r = m[0, 0], m[0, 1], m[1, 0]
    if m[1, 1] != -p:
        raise ValidationError("matrix is not traceless")
    c1 = -I * p
    c2 = (r - q) * HALF
    c3 = I * (q + r) * HALF
    return (c1, c2, c3)


def _gamma_mat(a: int, b: int) -> Matrix:
    """gamma_{e_a, e_b} = <e_a,.>e_b + <e_b,.>e_a as a 2x2 matrix."""
    m = Matrix(2, 2)
    for c in range(2):
        ea_c = _EPS2[a][c]
        if ea_c:
            m.set_entry(b, c, m[b, c] + qi(ea_c))
        eb_c = _EPS2[b][c]
        if eb_c:
            m.set_entry(a, c, m[a, c] + qi(eb_c))
    return m


class GradedLieAlgebra:
    """Structure constants of g(T) with the fixed basis layout."""

    __slots__ = ("dim", "n", "h_dim", "t_dim", "table", "_ads")

    def __init__(self, dim, n, h_dim, t_dim, table):
        self.dim = dim
        self.n = n
        self.h_dim = h_dim
        self.t_dim = t_dim
        # table[(i, j)] for i < j: sparse {l: coefficient} of [e_i, e_j]
        self.table = table
        self._ads: list | None = None

    def odd_index(self, a: int, k: int) -> int:
        return 3 + self.h_dim + a * self.t_dim + k

    def bracket_basis(self, i: int, j: int) -> dict:
        if i == j:
            return {}
        if i < j:
            return self.table.get((i, j), {})
        entry = self.table.get((j, i))
        if not entry:
            return {}
        return {l: -v for l, v in entry.items()}

    def bracket(self, x, y):
        out = [ZERO] * self.dim
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, yj in enumerate(y):
                if not yj:
                    continue
                c = xi * yj
                for l, v in self.bracket_basis(i, j).items():
                    out[l] = out[l] + c * v
        return tuple(out)

    def ad(self, i: int) -> Matrix:
        if self._ads is None:
            self._ads = [None] * self.dim
        m = self._ads[i]
        if m is None:
            data: dict = {}
            for j in range(self.dim):
                for l, v in self.bracket_basis(i, j).items():
                    data.setdefault(l, {})[j] = v
            m = Matrix(self.dim, self.dim, data)
            self._ads[i] = m
        return m

    def __repr__(self):
        return f"GradedLieAlgebra(dim={self.dim}, n={self.n})"


@dataclass
class ReductiveSplit:
    """g = h (+) m with h the inner derivations and m the tangent model."""

    h_indices: tuple
    m_indices: tuple

    @property
    def m_dim(self) -> int:
        return len(self.m_indices)


def build_enveloping(T: SymplecticTripleSystem, inder: InnerDerivationSpace | None = None):
    """Assemble g(T) and its reductive split from a simple triple system."""
    if T.dim % 2:
        raise ValidationError("triple systems of odd dimension are out of scope")
    n = T.dim // 2
    if inder is None:
        inder = inder_basis(T)
    h = inder.dim
    t_dim = T.dim
    dim = 3 + h + 2 * t_dim
    table: dict = {}

    def put(i, j, entries):
        # entries: iterable of (index, coefficient)
        if i > j:
            i, j = j, i
            entries = [(l, -v) for l, v in entries]
        tgt = table.setdefault((i, j), {})
        for l, v in entries:
            if not v:
                continue
            s = tgt.get(l, ZERO) + v
            if s:
                tgt[l] = s
            else:
                del tgt[l]
        if not tgt:
            table.pop((i, j), None)

    # vertical-vertical
    for i in range(3):
        for j in range(i + 1, 3):
            coords = _sl2_to_xi(comm(_XI[i], _XI[j]))
            put(i, j, [(k, v) for k, v in enumerate(coords) if v])
    # h-h
    for r in range(h):
        for s in range(r + 1, h):
            coords = inder.bracket_coords(r, s)
            if coords is None:
                raise ConstructionError(
                    f"inner derivations not closed under brackets at ({r},{s})"
                )
            put(3 + r, 3 + s, [(3 + t, v) for t, v in enumerate(coords) if v])
    # vertical-odd:  [xi, e_a (x) t_k] = xi(e_a) (x) t_k
    for i in range(3):
        for a in range(2):
            col = [(_XI[i][0, a]), (_XI[i][1, a])]
            for k in range(t_dim):
                j = 3 + h + a * t_dim + k
                put(i, j, [
                    (3 + h + 0 * t_dim + k, col[0]),
                    (3 + h + 1 * t_dim + k, col[1]),
                ])
    # h-odd:  [d, e_a (x) t_k] = e_a (x) d(t_k)
    for r in range(h):
        dmat = inder.mats[r]
        for a in range(2):
            for k in range(t_dim):
                j = 3 + h + a * t_dim + k
                entries = []
                for l in range(t_dim):
                    v = dmat[l, k]
                    if v:
                        entries.append((3 + h + a * t_dim + l, v))
                put(3 + r, j, entries)
    # odd-odd:  [e_a (x) x, e_b (x) y] = (x,y) gamma_{a,b} + <a,b> d_{x,y}
    gamma_coords = {
        (a, b): _sl2_to_xi(_gamma_mat(a, b)) for a in range(2) for b in range(2)
    }
    dcoord_cache: dict = {}

    def d_coords(k, l):
        key = (k, l) if k <= l else (l, k)
        c = dcoord_cache.get(key)
        if c is None:
            c = inder.coords_of(T.dmat(*key))
            if c is None:
                raise ConstructionError(f"d_({key}) escapes the inner derivation span")
            dcoord_cache[key] = c
        return c

    for a in range(2):
        for k in range(t_dim):
            i = 3 + h + a * t_dim + k
            for b in range(a, 2):
                for l in range(t_dim):
                    j = 3 + h + b * t_dim + l
                    if j <= i:
                        continue
                    entries = []
                    om = T.omega[k, l]
                    if om:
                        for idx, v in enumerate(gamma_coords[(a, b)]):
                            if v:
                                entries.append((idx, om * v))
                    eps = _EPS2[a][b]
                    if eps:
                        e = qi(eps)
                        for t, v in enumerate(d_coords(k, l)):
                            if v:
                                entries.append((3 + t, e * v))
                    put(i, j, entries)

    algebra = GradedLieAlgebra(dim, n, h, t_dim, table)
    split = ReductiveSplit(
        h_indices=tuple(range(3, 3 + h)),
        m_indices=tuple(range(0, 3)) + tuple(range(3 + h, dim)),
    )
    return algebra, split


@dataclass
class JacobiFailure:
    witness: tuple
    detail: str


@dataclass
class JacobiReport:
    dim: int
    checked_pairs: int
    failures: list

    @property
    def passed(self) -> bool:
        return not self.failures


JACOBI_FAILURE_CAP = 50  # witnesses an audit keeps


def verify_jacobi(L: GradedLieAlgebra, mode: str = "fast") -> JacobiReport:
    """Check [ad_x, ad_y] = ad_[x,y] on basis pairs (equivalent to Jacobi)."""
    checked, failed = check_witnesses((
        ((i, j), comm_minus(
            L.ad(i), L.ad(j), [(v, L.ad(l)) for l, v in L.bracket_basis(i, j).items()]
        ).is_zero())
        for i in range(L.dim) for j in range(i + 1, L.dim)
    ), mode, JACOBI_FAILURE_CAP)
    return JacobiReport(L.dim, checked, [
        JacobiFailure(w, "[ad_i, ad_j] != ad_[e_i, e_j]") for w in failed
    ])


def killing_form(L: GradedLieAlgebra) -> Matrix:
    """kappa(x, y) = trace(ad x . ad y), exact, from the trace definition."""
    kappa = Matrix(L.dim, L.dim)
    ads = [L.ad(i) for i in range(L.dim)]
    for i in range(L.dim):
        for j in range(i, L.dim):
            v = trace_product(ads[i], ads[j])
            if v:
                kappa.set_entry(i, j, v)
                if i != j:
                    kappa.set_entry(j, i, v)
    return kappa


class InvariantMetric:
    """Gram matrix of the invariant metric on the m basis, and its inverse."""

    __slots__ = ("gram", "_inverse")

    def __init__(self, gram: Matrix, gram_inverse: Matrix):
        self.gram = gram
        self._inverse = gram_inverse

    def value(self, x, y) -> GaussianRational:
        acc = ZERO
        for i, row in self.gram.data.items():
            xi = x[i]
            if not xi:
                continue
            for j, v in row.items():
                yj = y[j]
                if yj:
                    acc = acc + xi * v * yj
        return acc

    def eta(self, i: int):
        """The 1-form g(xi_i, .) as a coordinate row over the m basis."""
        return tuple(self.gram[i, j] for j in range(self.gram.cols))

    def inverse(self) -> Matrix:
        return self._inverse


def metric_g(L: GradedLieAlgebra, split: ReductiveSplit, kappa: Matrix | None = None) -> InvariantMetric:
    """Metric gram matrix: -kappa/(4(n+2)) on sp(V), -kappa/(8(n+2)) on the
    odd block, zero mixed; validated against the structural expectations."""
    if kappa is None:
        kappa = killing_form(L)
    n = L.n
    m_idx = split.m_indices
    m_dim = len(m_idx)
    denom_v = qi(-4 * (n + 2)).inverse()
    denom_o = qi(-8 * (n + 2)).inverse()
    gram = Matrix(m_dim, m_dim)
    for p, i in enumerate(m_idx):
        for q, j in enumerate(m_idx):
            k = kappa[i, j]
            if not k:
                continue
            vertical_i, vertical_j = p < 3, q < 3
            if vertical_i != vertical_j:
                raise ConstructionError(
                    "Killing form does not vanish on the mixed sp(V) x odd block"
                )
            gram.set_entry(p, q, k * (denom_v if vertical_i else denom_o))
    for i in range(3):
        for j in range(3):
            expect = ONE if i == j else ZERO
            if gram[i, j] != expect:
                raise ConstructionError("vertical block of the metric is not orthonormal")
    return InvariantMetric(gram, inverse(gram))  # inverse raises if degenerate


def metric_skew_operator(metric: InvariantMetric, u, v) -> Matrix:
    """The rank-two element g(u,.)v - g(v,.)u of so(m, g)."""
    m_dim = metric.gram.rows
    gu = tuple(metric.value(u, _axis(m_dim, j)) for j in range(m_dim))
    gv = tuple(metric.value(v, _axis(m_dim, j)) for j in range(m_dim))
    data: dict = {}
    for i in range(m_dim):
        row = {}
        for j in range(m_dim):
            x = gu[j] * v[i] - gv[j] * u[i]
            if x:
                row[j] = x
        if row:
            data[i] = row
    return Matrix(m_dim, m_dim, data)


def _axis(n: int, i: int):
    return tuple(ONE if j == i else ZERO for j in range(n))


class HomogeneousModel:
    """Everything downstream code needs about one homogeneous space: the
    triple system, g(T), the split, the metric, and the Sasaki operators."""

    __slots__ = (
        "triple",
        "inder",
        "algebra",
        "split",
        "kappa",
        "metric",
        "phis",
        "_mbm",
        "_mbh",
        "_adm_h",
        "_adm_xi",
    )

    def __init__(self, triple, inder, algebra, split, kappa, metric):
        self.triple = triple
        self.inder = inder
        self.algebra = algebra
        self.split = split
        self.kappa = kappa
        self.metric = metric
        self._mbm: dict = {}
        self._mbh: dict = {}
        self._adm_h: list | None = None
        self._adm_xi: list | None = None
        self.phis = tuple(self._build_phi(i) for i in range(3))

    # -- geometry ---------------------------------------------------------

    @property
    def n(self) -> int:
        return self.algebra.n

    @property
    def m_dim(self) -> int:
        return self.split.m_dim

    @property
    def h_dim(self) -> int:
        return self.algebra.h_dim

    def so_dim(self) -> int:
        return self.m_dim * (self.m_dim - 1) // 2

    def xi_vector(self, i: int):
        """xi_i as an m-coordinate vector (i in 1..3)."""
        return _axis(self.m_dim, i - 1)

    def m_to_g(self, p: int) -> int:
        return self.split.m_indices[p]

    # -- bracket projections on the m basis -------------------------------

    def m_bracket_m(self, p: int, q: int) -> dict:
        """m-part of [e_p, e_q] for m-basis indices, as sparse m-coords."""
        if p == q:
            return {}
        if p > q:
            return {l: -v for l, v in self.m_bracket_m(q, p).items()}
        r = self._mbm.get((p, q))
        if r is None:
            self._project(p, q)
            r = self._mbm[(p, q)]
        return r

    def m_bracket_h(self, p: int, q: int) -> dict:
        """h-part of [e_p, e_q], as sparse coords over the inder basis."""
        if p == q:
            return {}
        if p > q:
            return {l: -v for l, v in self.m_bracket_h(q, p).items()}
        r = self._mbh.get((p, q))
        if r is None:
            self._project(p, q)
            r = self._mbh[(p, q)]
        return r

    def _project(self, p: int, q: int) -> None:
        L = self.algebra
        h = L.h_dim
        full = L.bracket_basis(self.m_to_g(p), self.m_to_g(q))
        mm: dict = {}
        hh: dict = {}
        for l, v in full.items():
            if 3 <= l < 3 + h:
                hh[l - 3] = v
            elif l < 3:
                mm[l] = v
            else:
                mm[l - h] = v
        self._mbm[(p, q)] = mm
        self._mbh[(p, q)] = hh

    # -- distinguished operators on m --------------------------------------

    def ad_m_inder(self, r: int) -> Matrix:
        """ad(d_r) restricted to m (kills the vertical block)."""
        if self._adm_h is None:
            self._adm_h = [None] * self.h_dim
        m = self._adm_h[r]
        if m is None:
            L = self.algebra
            t_dim = L.t_dim
            dmat = self.inder.mats[r]
            data: dict = {}
            for a in range(2):
                base = 3 + a * t_dim
                for k in range(t_dim):
                    col = base + k
                    for l in range(t_dim):
                        v = dmat[l, k]
                        if v:
                            data.setdefault(base + l, {})[col] = v
            m = Matrix(self.m_dim, self.m_dim, data)
            self._adm_h[r] = m
        return m

    def ad_m_xi(self, i: int) -> Matrix:
        """ad(xi_i) restricted to m (i in 1..3)."""
        if self._adm_xi is None:
            self._adm_xi = [None, None, None]
        m = self._adm_xi[i - 1]
        if m is None:
            L = self.algebra
            t_dim = L.t_dim
            data: dict = {}
            for j in range(3):
                for l, v in L.bracket_basis(i - 1, j).items():
                    data.setdefault(l, {})[j] = v
            xi = _XI[i - 1]
            for a in range(2):
                for k in range(t_dim):
                    col = 3 + a * t_dim + k
                    for row_v in range(2):
                        v = xi[row_v, a]
                        if v:
                            data.setdefault(3 + row_v * t_dim + k, {})[col] = v
            m = Matrix(self.m_dim, self.m_dim, data)
            self._adm_xi[i - 1] = m
        return m

    def _build_phi(self, idx: int) -> Matrix:
        """phi_{idx+1}: half ad(xi) on the vertical block, ad(xi) on the odd."""
        full = self.ad_m_xi(idx + 1)
        data: dict = {}
        for i, row in full.data.items():
            for j, v in row.items():
                data.setdefault(i, {})[j] = v * HALF if j < 3 else v
        return Matrix(self.m_dim, self.m_dim, data)

    def phi(self, i: int) -> Matrix:
        """The Sasaki endomorphism phi_i on m (i in 1..3)."""
        return self.phis[i - 1]

    def __repr__(self):
        return (
            f"HomogeneousModel({self.triple.label!r}, n={self.n}, "
            f"m_dim={self.m_dim}, h_dim={self.h_dim})"
        )


def build_model(T: SymplecticTripleSystem) -> HomogeneousModel:
    inder = inder_basis(T)
    algebra, split = build_enveloping(T, inder)
    kappa = killing_form(algebra)
    metric = metric_g(algebra, split, kappa)
    return HomogeneousModel(T, inder, algebra, split, kappa, metric)
