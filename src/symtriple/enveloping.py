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
from .linalg import (
    Matrix, add_numerators, comm, comm_minus, inverse, lie_generators, trace_product,
)
from .scalars import GaussianRational, HALF, I, ONE, ZERO, qi
from .triples import (
    _EPS2,
    InnerDerivationSpace,
    SymplecticTripleSystem,
    _gamma_mat,
    check_witnesses,
    inder_basis,
)

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

    def ad(self, i: int) -> Matrix:
        if self._ads is None:
            self._ads = [None] * self.dim
        m = self._ads[i]
        if m is None:
            cols = ((j, self.bracket_basis(i, j)) for j in range(self.dim))
            m = Matrix(self.dim, self.dim, {j: col for j, col in cols if col}).transpose()
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
        """Set [e_i, e_j], i < j, from (index, coefficient) pairs on distinct
        indices; each pair (i, j) is put at most once."""
        entry = {l: v for l, v in entries if v}
        if entry:
            table[(i, j)] = entry

    # vertical-vertical
    for i in range(3):
        for j in range(i + 1, 3):
            put(i, j, enumerate(_sl2_to_xi(comm(_XI[i], _XI[j]))))
    # h-h
    for r in range(h):
        for s in range(r + 1, h):
            coords = inder.coords_of(comm(inder.mats[r], inder.mats[s]))
            if coords is None:
                raise ConstructionError(
                    f"inner derivations not closed under brackets at ({r},{s})"
                )
            put(3 + r, 3 + s, ((3 + t, v) for t, v in enumerate(coords)))
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
    # h-odd:  [d, e_a (x) t_k] = e_a (x) d(t_k), over the nonzero columns of d
    for r in range(h):
        cols = inder.mats[r].transpose()
        ks = [(k, cols.row(k)) for k in cols.num]
        for a in range(2):
            odd = 3 + h + a * t_dim
            for k, col in ks:
                put(3 + r, odd + k, [(odd + l, v) for l, v in col.items()])
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
                        entries += ((idx, om * v) for idx, v in enumerate(gamma_coords[(a, b)]))
                    eps = _EPS2[a, b]
                    if eps:
                        entries += ((3 + t, eps * v) for t, v in enumerate(d_coords(k, l)))
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
    """Outcome of ``verify_jacobi``.  ``checked_pairs`` counts the basis
    pairs (i, j), i < j, certified, not the residues evaluated: a pass
    certifies all dim(dim - 1)/2 pairs from the generator residues alone."""

    dim: int
    checked_pairs: int
    failures: list

    @property
    def passed(self) -> bool:
        return not self.failures


JACOBI_FAILURE_CAP = 50  # witnesses an audit keeps


def _ad_is_hom(L: GradedLieAlgebra, i: int, j: int) -> bool:
    """[ad_i, ad_j] = ad_[e_i, e_j], as one commutator residue."""
    return comm_minus(
        L.ad(i), L.ad(j), [(v, L.ad(l)) for l, v in L.bracket_basis(i, j).items()]
    ).is_zero()


def verify_jacobi(L: GradedLieAlgebra, mode: str = "fast") -> JacobiReport:
    """Check [ad_x, ad_y] = ad_[x,y] on basis pairs (equivalent to Jacobi).

    The x satisfying it for every y are those whose ad_x is a derivation;
    they form a subspace closed under the bracket, by bilinearity alone.
    So the identity is evaluated only for basis indices s whose e_s generate
    g as a Lie algebra (``linalg.lie_generators`` over the unit vectors,
    cheapest ad_s first), against every basis index j, which proves it for
    every pair.  Only when one of those residues is nonzero does the check
    rerun over every pair (i, j) to find the witnesses, so ``fast`` and
    ``audit`` reports are those of the all-pairs loop.  On a pass
    ``checked_pairs`` is dim(dim - 1)/2, the pairs certified.
    """
    if mode not in ("fast", "audit"):
        raise ValueError("mode must be 'fast' or 'audit'")
    cols: dict = {}

    def act(k: int, w: dict) -> dict:
        """ad_k w times the denominator of ad_k: the columns of ad_k summed
        on plain ints."""
        col = cols.get(k)
        if col is None:
            col = cols[k] = L.ad(k).transpose().num
        out: dict = {}
        for j, (re, im) in w.items():
            c = col.get(j)
            if c:
                add_numerators(out, re, im, c)
        return out

    gens = lie_generators(
        [{i: (1, 0)} for i in range(L.dim)], act, L.dim,
        [L.ad(i).nnz() for i in range(L.dim)],
    )
    if all(
        _ad_is_hom(L, min(s, j), max(s, j))
        for k, s in enumerate(gens) for j in range(L.dim)
        if j != s and j not in gens[:k]
    ):
        return JacobiReport(L.dim, L.dim * (L.dim - 1) // 2, [])
    checked, failed = check_witnesses((
        ((i, j), _ad_is_hom(L, i, j))
        for i in range(L.dim) for j in range(i + 1, L.dim)
    ), mode, JACOBI_FAILURE_CAP)
    return JacobiReport(L.dim, checked, [
        JacobiFailure(w, "[ad_i, ad_j] != ad_[e_i, e_j]") for w in failed
    ])


def killing_form(L: GradedLieAlgebra) -> Matrix:
    """kappa(x, y) = trace(ad x . ad y), exact, from the trace definition."""
    data: dict = {}
    ads = [L.ad(i) for i in range(L.dim)]
    for i in range(L.dim):
        for j in range(i, L.dim):
            v = trace_product(ads[i], ads[j])
            if v:
                data.setdefault(i, {})[j] = v
                data.setdefault(j, {})[i] = v
    return Matrix(L.dim, L.dim, data)


class InvariantMetric:
    """Gram matrix of the invariant metric on the m basis, and its inverse."""

    __slots__ = ("gram", "_inverse")

    def __init__(self, gram: Matrix, gram_inverse: Matrix):
        self.gram = gram
        self._inverse = gram_inverse

    def value(self, x, y) -> GaussianRational:
        return self.gram.bilinear(x, y)

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
    position = {i: p for p, i in enumerate(m_idx)}
    data: dict = {}
    for i, j, k in kappa.entries():
        p, q = position.get(i), position.get(j)
        if p is None or q is None:
            continue
        vertical_i, vertical_j = p < 3, q < 3
        if vertical_i != vertical_j:
            raise ConstructionError(
                "Killing form does not vanish on the mixed sp(V) x odd block"
            )
        data.setdefault(p, {})[q] = k * (denom_v if vertical_i else denom_o)
    gram = Matrix(m_dim, m_dim, data)
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
    triple system, g(T), the split, the metric, and the Sasaki operators.

    The operators on m are read off g(T)'s own adjoint action: for e_k in
    sp(V) (+) h, ad(e_k) preserves m, and its restriction there is
    ``ad_m_xi`` or ``ad_m_inder``."""

    __slots__ = (
        "triple",
        "inder",
        "algebra",
        "split",
        "kappa",
        "metric",
        "phis",
        "_where",
        "_parts",
        "_ads",
    )

    def __init__(self, triple, inder, algebra, split, kappa, metric):
        self.triple = triple
        self.inder = inder
        self.algebra = algebra
        self.split = split
        self.kappa = kappa
        self.metric = metric
        # g-index -> (part, position): part 0 is m, part 1 is h
        self._where = {g: (0, p) for p, g in enumerate(split.m_indices)}
        self._where.update((g, (1, r)) for r, g in enumerate(split.h_indices))
        self._parts: dict = {}
        self._ads: dict = {}
        self.phis = tuple(self.bracket_op(i, HALF, ONE) for i in range(3))

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
        if p > q:
            return {l: -v for l, v in self.m_bracket_m(q, p).items()}
        return self._split_bracket(p, q)[0]

    def m_bracket_h(self, p: int, q: int) -> dict:
        """h-part of [e_p, e_q], as sparse coords over the inder basis."""
        if p > q:
            return {l: -v for l, v in self.m_bracket_h(q, p).items()}
        return self._split_bracket(p, q)[1]

    def _split_bracket(self, p: int, q: int) -> tuple:
        """(m-part, h-part) of [e_p, e_q] for p <= q."""
        parts = self._parts.get((p, q))
        if parts is None:
            parts = ({}, {})
            for l, v in self.algebra.bracket_basis(self.m_to_g(p), self.m_to_g(q)).items():
                part, pos = self._where[l]
                parts[part][pos] = v
            self._parts[(p, q)] = parts
        return parts

    # -- distinguished operators on m --------------------------------------

    def _ad_m(self, k: int) -> Matrix:
        """ad(e_k) restricted to m, for e_k in sp(V) (+) h."""
        m = self._ads.get(k)
        if m is None:
            where = self._where
            ad = self.algebra.ad(k)
            num: dict = {}
            for l, row in ad.num.items():
                part, pos = where[l]
                if part == 0:
                    num[pos] = {where[j][1]: z for j, z in row.items()}
            m = Matrix.from_numerators(self.m_dim, self.m_dim, num, ad.den)
            self._ads[k] = m
        return m

    def ad_m_inder(self, r: int) -> Matrix:
        """ad(d_r) restricted to m (kills the vertical block)."""
        return self._ad_m(self.split.h_indices[r])

    def ad_m_xi(self, i: int) -> Matrix:
        """ad(xi_i) restricted to m (i in 1..3)."""
        return self._ad_m(self.m_to_g(i - 1))

    def bracket_op(self, i: int, vertical, odd) -> Matrix:
        """The operator e_j -> c_j [e_i, e_j]_m on m, with c_j = ``vertical``
        on the vertical block (j < 3) and c_j = ``odd`` on the odd block.

        phi_i and every named Nomizu map are built from it, operator by
        operator, with these (vertical, odd) coefficients:

            phi_i                  bracket_op(i - 1, 1/2, 1)
            levi-civita            (1/2, 0) for vertical e_i, (1, 1/2) for odd
            alpha_o                (1/2, 0) for vertical e_i, zero for odd
            distinguished          (0, -1)  for vertical e_i, zero for odd
            canonical              (-1, -1) for vertical e_i, zero for odd
            eps block of alpha_rr  (-1/2, 0) for vertical e_i, zero for odd
        """
        vertical, odd = qi(vertical), qi(odd)
        data: dict = {}
        for j in range(self.m_dim):
            c = vertical if j < 3 else odd
            if c:
                for l, v in self.m_bracket_m(i, j).items():
                    data.setdefault(l, {})[j] = c * v
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
