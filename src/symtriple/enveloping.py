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
from math import lcm

from .errors import ConstructionError, ValidationError
from .linalg import (
    Matrix, Subspace, ad_flat, add_numerators, canonical, inverse, lie_generators, numerators,
)
from .scalars import HALF, I, ONE, ZERO, qi
from .triples import (
    _EMPTY,
    SymplecticTripleSystem,
    _flat_d,
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
]

# The vertical basis of sp(V) as 2x2 matrices: xi_1 = diag(i, -i),
# xi_2 = [[0,-1],[1,0]], xi_3 = [[0,-i],[-i,0]]; [xi_i, xi_j] = 2 eps_ijk xi_k.
_XI = (
    Matrix.from_rows([[I, ZERO], [ZERO, -I]]),
    Matrix.from_rows([[ZERO, -ONE], [ONE, ZERO]]),
    Matrix.from_rows([[ZERO, -I], [-I, ZERO]]),
)
# [xi_i, xi_j], i < j, as numerators over 1
_XI_BRACKETS = {(0, 1): {2: (2, 0)}, (0, 2): {1: (-2, 0)}, (1, 2): {0: (2, 0)}}


def _sl2_to_xi(m: Matrix) -> tuple[dict, int]:
    """(numerators, den) of a traceless 2x2 matrix in the xi_1, xi_2, xi_3 basis."""
    p, q, r = m[0, 0], m[0, 1], m[1, 0]
    if m[1, 1] != -p:
        raise ValidationError("matrix is not traceless")
    num, den = numerators({0: {0: -I * p, 1: (r - q) * HALF, 2: I * (q + r) * HALF}})
    return num.get(0, {}), den


class GradedLieAlgebra:
    """Structure constants of g(T) with the fixed basis layout:
    ``table[(i, j)]``, i < j, is [e_i, e_j] as sparse Gaussian-integer
    numerators ``{l: (re, im)}`` over the one positive denominator ``den``."""

    __slots__ = ("dim", "n", "h_dim", "t_dim", "table", "den")

    def __init__(self, dim, n, h_dim, t_dim, table, den=1):
        self.dim = dim
        self.n = n
        self.h_dim = h_dim
        self.t_dim = t_dim
        self.table = table
        self.den = den

    def odd_index(self, a: int, k: int) -> int:
        return 3 + self.h_dim + a * self.t_dim + k

    def bracket_basis(self, i: int, j: int) -> dict:
        """[e_i, e_j] as numerators over ``den``."""
        if i <= j:
            return self.table.get((i, j), _EMPTY)
        return {l: (-x, -y) for l, (x, y) in self.table.get((j, i), _EMPTY).items()}

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


def build_enveloping(T: SymplecticTripleSystem, inder: Subspace):
    """Assemble g(T) and its reductive split from a simple triple system
    and the echelon span ``inder`` of its flattened d_ij.

    Every part is a sparse numerator table over a denominator of its own.
    The operators d_r are read from the rows of ``inder``: ``vectors()``
    gives the flattening of D_r d_r, D_r its entry at the pivot.  The sp(V)
    brackets are the constant ``_XI_BRACKETS``, and the h-h bracket
    [d_r, d_s] is ``ad_flat(D_r d_r)`` of D_s d_s, read in the basis by
    ``coords_of`` over D_r D_s.  The table is brought to one denominator
    with one lcm and to canonical form with one gcd."""
    if T.dim % 2:
        raise ValidationError("triple systems of odd dimension are out of scope")
    n = T.dim // 2
    flat = inder.vectors()  # flat[r] = D_r d_r, flattened
    dens = [v[p][0] for p, v in zip(inder.pivots, flat)]  # D_r
    h = inder.dim
    t_dim = T.dim
    dim = 3 + h + 2 * t_dim
    parts: list = []

    def odd(a, k):  # the index of e_a (x) t_k
        return 3 + h + a * t_dim + k

    def put(i, j, entry, den):
        """Add numerators over ``den`` of [e_i, e_j], i < j, on indices of their own."""
        if entry:
            parts.append(((i, j), den, entry))

    # vertical-vertical
    for key, entry in _XI_BRACKETS.items():
        put(*key, entry, 1)
    # h-h:  [d_r, d_s] times D_r D_s
    for r in range(h):
        ad = ad_flat(flat[r], t_dim)
        for s in range(r + 1, h):
            coords = inder.coords_of(ad(flat[s]))
            if coords is None:
                raise ConstructionError(
                    f"inner derivations not closed under brackets at ({r},{s})"
                )
            put(3 + r, 3 + s, {3 + t: z for t, z in coords.items()}, dens[r] * dens[s])
    # vertical-odd:  [xi, e_a (x) t_k] = xi(e_a) (x) t_k
    for i in range(3):
        xi = _XI[i].transpose().num  # xi[a] = xi(e_a)
        for a, col in xi.items():
            for k in range(t_dim):
                put(i, odd(a, k), {odd(b, k): z for b, z in col.items()}, _XI[i].den)
    # h-odd:  [d_r, e_a (x) t_k] = e_a (x) d_r(t_k), over the nonzero columns of d_r
    for r, v in enumerate(flat):
        cols: dict = {}  # k -> D_r d_r(t_k)
        for p, z in v.items():
            l, k = divmod(p, t_dim)
            cols.setdefault(k, {})[l] = z
        for a in range(2):
            for k, col in cols.items():
                put(3 + r, odd(a, k), {odd(a, l): z for l, z in col.items()}, dens[r])
    # odd-odd:  [e_a (x) x, e_b (x) y] = (x,y) gamma_{a,b} + <a,b> d_{x,y}, a <= b
    for a, b in ((0, 0), (0, 1), (1, 1)):
        coords, den = _sl2_to_xi(_gamma_mat(a, b))
        for k, row in T.omega.num.items():
            for l, z in row.items():
                if odd(a, k) < odd(b, l):
                    entry: dict = {}
                    add_numerators(entry, *z, coords)
                    put(odd(a, k), odd(b, l), entry, T.omega.den * den)
    flat_d = _flat_d(T)  # T.den d_{k,l}, flattened, for each nonzero d_{k,l}
    for k in range(t_dim):  # <e_1, e_2> = 1, and d_{x,y} = d_{y,x}
        for l in range(k, t_dim):
            v = flat_d.get((k, l))
            if v is None:
                continue
            coords = inder.coords_of(v)
            if coords is None:
                raise ConstructionError(f"d_({(k, l)}) escapes the inner derivation span")
            entry = {3 + t: z for t, z in coords.items()}
            put(odd(0, k), odd(1, l), entry, T.den)
            if l != k:
                put(odd(0, l), odd(1, k), entry, T.den)

    # one denominator for the whole table
    den = lcm(*{d for _, d, _ in parts})
    table: dict = {}
    for key, d, entry in parts:
        s = den // d
        if s != 1:
            entry = {l: (x * s, y * s) for l, (x, y) in entry.items()}
        table.setdefault(key, {}).update(entry)

    algebra = GradedLieAlgebra(dim, n, h, t_dim, *canonical(table, den))
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


def verify_jacobi(L: GradedLieAlgebra, mode: str = "fast") -> JacobiReport:
    """Check [ad_x, ad_y] = ad_[x,y] on basis pairs (equivalent to Jacobi).

    Each residue is evaluated on flat Gaussian-integer vectors: with B_i
    the flattening of L.den ad_i, read from ``L.table`` in one pass, and
    [e_s, e_j] = sum_l z_l e_l / L.den, the residue of (s, j) times L.den^2
    is ad_flat(B_s)(B_j) - sum_l z_l B_l, so no ``ad`` or commutator
    ``Matrix`` is built.

    The x satisfying it for every y are those whose ad_x is a derivation;
    they form a subspace closed under the bracket, by bilinearity alone.
    So the ``check_witnesses`` certificate evaluates the identity only for
    basis indices s whose e_s generate g as a Lie algebra
    (``linalg.lie_generators`` over the unit vectors, sparsest B_s first),
    against every basis index j, which proves it for every pair.  Only when
    one of those residues is nonzero does the check run over every pair
    (i, j) to find the witnesses, so ``fast`` and ``audit`` reports are
    those of the all-pairs loop.  On a pass ``checked_pairs`` is
    dim(dim - 1)/2, the pairs certified.
    """
    dim = L.dim
    flat: list = [{} for _ in range(dim)]  # flat[i] = B_i
    for (i, j), col in L.table.items():
        for l, (x, y) in col.items():
            flat[i][l * dim + j] = (x, y)  # [e_i, e_j]
            flat[j][l * dim + i] = (-x, -y)  # [e_j, e_i]
    ads: dict = {}  # s -> ad_flat(B_s), built when e_s first acts

    def is_hom(s: int, j: int) -> bool:
        """[ad_s, ad_j] = ad_[e_s, e_j], as one residue on flat vectors."""
        ad = ads.get(s)
        if ad is None:
            ad = ads[s] = ad_flat(flat[s], dim)
        r = ad(flat[j])
        for l, (x, y) in L.bracket_basis(s, j).items():
            add_numerators(r, -x, -y, flat[l])
        return not any(x or y for x, y in r.values())

    def act(k: int, w: dict) -> dict:
        """ad_k w times L.den: the brackets [e_k, e_j] summed on plain ints."""
        out: dict = {}
        for j, (re, im) in w.items():
            add_numerators(out, re, im, L.bracket_basis(k, j))
        return out

    def certificate() -> bool:
        gens = lie_generators(
            [{i: (1, 0)} for i in range(dim)], act, dim, [len(b) for b in flat],
        )
        return all(
            is_hom(s, j)
            for k, s in enumerate(gens) for j in range(dim)
            if j != s and j not in gens[:k]
        )

    checked, failed = check_witnesses((
        ((i, j), is_hom(i, j))
        for i in range(dim) for j in range(i + 1, dim)
    ), mode, JACOBI_FAILURE_CAP, certificate, dim * (dim - 1) // 2)
    return JacobiReport(dim, checked, [
        JacobiFailure(w, "[ad_i, ad_j] != ad_[e_i, e_j]") for w in failed
    ])


def killing_form(L: GradedLieAlgebra) -> Matrix:
    """kappa_ij = trace(ad_i ad_j), exact for any table (no grading is assumed),
    as one sparse join: ad_i[k, l] ad_j[l, k] over the table's numerators
    indexed by position, summed on Gaussian integers over L.den^2."""
    at: dict = {}  # (k, l) -> {i: numerator of ad_i at (k, l)}
    for (i, j), col in L.table.items():
        for k, (x, y) in col.items():
            at.setdefault((k, j), {})[i] = (x, y)  # [e_i, e_j]
            at.setdefault((k, i), {})[j] = (-x, -y)  # [e_j, e_i]
    acc: dict = {}
    for (k, l), left in at.items():
        right = at.get((l, k))
        if right:
            for i, (x, y) in left.items():
                add_numerators(acc.setdefault(i, {}), x, y, right)
    return Matrix.from_numerators(L.dim, L.dim, acc, L.den * L.den)


class InvariantMetric:
    """Gram matrix of the invariant metric on the m basis, and its inverse."""

    __slots__ = ("gram", "_inverse")

    def __init__(self, gram: Matrix, gram_inverse: Matrix):
        self.gram = gram
        self._inverse = gram_inverse

    def inverse(self) -> Matrix:
        return self._inverse


def metric_g(L: GradedLieAlgebra, split: ReductiveSplit, kappa: Matrix) -> InvariantMetric:
    """Metric gram matrix from the Killing form kappa of L: -kappa/(4(n+2))
    on sp(V), -kappa/(8(n+2)) on the odd block, zero mixed; validated
    against the structural expectations."""
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


def _xi_position(i: int) -> int:
    """The m-basis position of xi_i, for i in 1..3."""
    if i not in (1, 2, 3):
        raise ValidationError(f"xi index {i!r} is not 1, 2 or 3")
    return i - 1


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
        "_g_ads",
        "_named",
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
        self._g_ads: dict = {}  # exact g ad_m(d_r), never a residue mod P
        self._named: dict = {}  # connections.named_alpha, each built on first use
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

    def m_to_g(self, p: int) -> int:
        return self.split.m_indices[p]

    # -- bracket projections on the m basis, over ``algebra.den`` ---------

    def m_bracket_m(self, p: int, q: int) -> dict:
        """m-part of [e_p, e_q] for m-basis indices, as sparse m-coords."""
        return self._split_bracket(p, q, 0)

    def m_bracket_h(self, p: int, q: int) -> dict:
        """h-part of [e_p, e_q], as sparse coords over the inder basis."""
        return self._split_bracket(p, q, 1)

    def _split_bracket(self, p: int, q: int, part: int) -> dict:
        """The m-part (0) or h-part (1) of [e_p, e_q]; both are kept for p <= q."""
        if p > q:
            return {l: (-x, -y) for l, (x, y) in self._split_bracket(q, p, part).items()}
        parts = self._parts.get((p, q))
        if parts is None:
            parts = self._parts[(p, q)] = ({}, {})
            for l, z in self.algebra.bracket_basis(self.m_to_g(p), self.m_to_g(q)).items():
                where, pos = self._where[l]
                parts[where][pos] = z
        return parts[part]

    # -- distinguished operators on m --------------------------------------

    def _ad_m(self, k: int) -> Matrix:
        """ad(e_k) restricted to m, for e_k in sp(V) (+) h."""
        m = self._ads.get(k)
        if m is None:
            m = self._ads[k] = self._bracket_m(k, (1, 0), (1, 0), 1)
        return m

    def ad_m_inder(self, r: int) -> Matrix:
        """ad(d_r) restricted to m (kills the vertical block)."""
        return self._ad_m(self.split.h_indices[r])

    def g_ad_m_inder(self, r: int) -> Matrix:
        """g ad_m(d_r): the Gram matrix times ``ad_m_inder(r)``, cached."""
        m = self._g_ads.get(r)
        if m is None:
            m = self._g_ads[r] = self.metric.gram @ self.ad_m_inder(r)
        return m

    def ad_m_xi(self, i: int) -> Matrix:
        """ad(xi_i) restricted to m (i in 1..3)."""
        return self._ad_m(self.m_to_g(_xi_position(i)))

    def bracket_op(self, i: int, vertical, odd) -> Matrix:
        """The operator e_j -> c_j [e_i, e_j]_m on m, with c_j = ``vertical``
        on the vertical block (j < 3) and c_j = ``odd`` on the odd block.

        phi_i is ``bracket_op(i - 1, 1/2, 1)``; the coefficients of every
        named Nomizu map are the rows of ``connections.NAMED``.
        """
        coeffs, den = numerators({0: {0: vertical, 1: odd}})
        row = coeffs.get(0, _EMPTY)
        return self._bracket_m(self.m_to_g(i), row.get(0), row.get(1), den)

    def _bracket_m(self, k: int, vertical, odd, den: int) -> Matrix:
        """e_j -> c_j [e_k, e_j]_m on m for the g-index k, with c_j the
        Gaussian-integer numerator ``vertical`` or ``odd`` (None for 0) over
        ``den``, on the blocks of ``bracket_op``; read from the stored entry
        of ``algebra.table``, with no negated copy."""
        table, where = self.algebra.table, self._where
        num: dict = {}
        for q, j in enumerate(self.split.m_indices):
            c = vertical if q < 3 else odd
            if c:
                # [e_k, e_j] = -[e_j, e_k], and only the first of each pair is stored
                key, (cr, ci) = ((k, j), c) if k <= j else ((j, k), (-c[0], -c[1]))
                for l, (x, y) in table.get(key, _EMPTY).items():
                    part, p = where[l]
                    if part == 0:
                        num.setdefault(p, {})[q] = (cr * x - ci * y, cr * y + ci * x)
        return Matrix.from_numerators(self.m_dim, self.m_dim, num, den * self.algebra.den)

    def phi(self, i: int) -> Matrix:
        """The Sasaki endomorphism phi_i on m (i in 1..3)."""
        return self.phis[_xi_position(i)]

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
