"""Symplectic triple systems: constructions, axiom verification, inner
derivations, simplicity, and structure-constant file round-trips.

A system is a space T with a skew form ``(.,.)`` and a triple product
``[.,.,.]`` subject to four identities:

(1) [x,y,z] = [y,x,z]
(2) [x,y,z] - [x,z,y] = (x,z)y - (x,y)z + 2(y,z)x
(3) d_{x,y} := [x,y,.] is a derivation of the triple product
(4) ([x,y,u],v) + (u,[x,y,v]) = 0

Basis conventions (fixed so files are reproducible):

* symplectic type (param n): W = span(w_0..w_{2n-1}) with (w_i, w_{n+i}) = 1.
* orthogonal type (param w): T = V (x) W, basis e_1(x)b_0, ..., e_1(x)b_{w-1},
  e_2(x)b_0, ...; the symmetric form on W is the identity matrix.
* special type (param w): W basis first, then the dual basis, (f_i, x_j) =
  delta_ij.
* exceptional type (param J): slots ordered alpha, beta, a-part (J basis),
  b-part (J basis).

Everywhere V is two-dimensional with basis (e_1, e_2) and <e_1, e_2> = 1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import DimensionError, ParseError, ValidationError
from .jordan import CubicJordan
from .linalg import (
    Matrix, Subspace, add_scaled, combination, comm, comm_minus, lie_generators, matrices_of, rank,
)
from .scalars import GaussianRational, HALF, ONE, ZERO, qi

__all__ = [
    "SymplecticTripleSystem",
    "InnerDerivationSpace",
    "AxiomReport",
    "AxiomFailure",
    "build_symplectic_type",
    "build_orthogonal_type",
    "build_special_type",
    "build_exceptional_type",
    "verify_axioms",
    "check_witnesses",
    "inder_basis",
    "is_simple",
    "save_sts",
    "load_sts",
    "scalar_to_json",
    "scalar_from_json",
]


class SymplecticTripleSystem:
    """Finite-dimensional triple system held as exact structure constants."""

    __slots__ = ("dim", "omega", "cols", "label", "_dmats")

    def __init__(self, dim: int, omega: Matrix, cols: dict, label: str):
        if omega.rows != dim or omega.cols != dim:
            raise DimensionError("omega shape mismatch")
        self.dim = dim
        self.omega = omega
        # cols[(i, j, k)] = sparse {l: coefficient} for [e_i, e_j, e_k]
        self.cols = cols
        self.label = label
        self._dmats: dict = {}

    def form(self, x, y) -> GaussianRational:
        """The skew bilinear form (x, y)."""
        return self.omega.bilinear(x, y)

    def basis_triple(self, i: int, j: int, k: int) -> dict:
        return self.cols.get((i, j, k), _EMPTY)

    def triple_product(self, x, y, z):
        """[x, y, z] = d_{x,y}(z), with d_{x,y} = sum x_i y_j d_{e_i, e_j}."""
        if len(x) != self.dim or len(y) != self.dim or len(z) != self.dim:
            raise DimensionError("triple_product arity/length mismatch")
        d_xy = combination((
            (xi * yj, self.dmat(i, j))
            for i, xi in enumerate(x) if xi for j, yj in enumerate(y) if yj
        ), self.dim)
        return d_xy.apply(z)

    def dmat(self, i: int, j: int) -> Matrix:
        """The operator d_{e_i, e_j} = [e_i, e_j, .] as a matrix."""
        m = self._dmats.get((i, j))
        if m is None:
            cols = ((k, self.cols.get((i, j, k))) for k in range(self.dim))
            m = Matrix(self.dim, self.dim, {k: col for k, col in cols if col}).transpose()
            self._dmats[(i, j)] = m
        return m

    def entries(self):
        """Sparse tensor entries as (i, j, k, l, coefficient), sorted."""
        out = []
        for (i, j, k), col in self.cols.items():
            for l, v in col.items():
                out.append((i, j, k, l, v))
        out.sort(key=lambda e: e[:4])
        return out

    def __eq__(self, other):
        if not isinstance(other, SymplecticTripleSystem):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.omega == other.omega
            and self.cols == other.cols
        )

    def __hash__(self):
        return hash((self.dim, tuple(self.entries())))

    def __repr__(self):
        return f"SymplecticTripleSystem({self.label!r}, dim={self.dim})"


_EMPTY: dict = {}


def _add_entry(cols: dict, i: int, j: int, k: int, l: int, v) -> None:
    """[e_i, e_j, e_k] += v e_l in the sparse tensor ``cols``."""
    if v:
        col = cols.setdefault((i, j, k), {})
        add_scaled(col, v, {l: ONE})
        if not col:
            del cols[(i, j, k)]


_EPS2 = Matrix.from_rows([[0, 1], [-1, 0]])  # <e_a, e_b>


def _gamma_mat(a: int, b: int) -> Matrix:
    """gamma_{e_a, e_b} = <e_a,.>e_b + <e_b,.>e_a as a 2x2 matrix."""
    return Matrix(2, 2, {b: _EPS2.data[a]}) + Matrix(2, 2, {a: _EPS2.data[b]})


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------


def build_symplectic_type(n: int) -> SymplecticTripleSystem:
    """T = W, dim 2n, with [x,y,z] = (x,z)y + (y,z)x."""
    if n < 1:
        raise ValidationError("symplectic type needs n >= 1")
    dim = 2 * n
    omega = Matrix(dim, dim)
    for i in range(n):
        omega.set_entry(i, n + i, ONE)
        omega.set_entry(n + i, i, -ONE)
    cols: dict = {}
    for i in range(dim):
        for k in range(dim):
            o_ik = omega[i, k]
            if not o_ik:
                continue
            for j in range(dim):
                # (e_i, e_k) e_j contribution
                _add_entry(cols, i, j, k, j, o_ik)
    for j in range(dim):  # (e_j, e_k) e_i contribution
        for k in range(dim):
            o_jk = omega[j, k]
            if not o_jk:
                continue
            for i in range(dim):
                _add_entry(cols, i, j, k, i, o_jk)
    return SymplecticTripleSystem(dim, omega, cols, f"symplectic(n={n})")


def build_orthogonal_type(w: int) -> SymplecticTripleSystem:
    """T = V (x) W with the identity form on W; dim 2w, w >= 3."""
    if w < 3:
        raise ValidationError("orthogonal type needs w >= 3")
    dim = 2 * w

    def idx(a: int, p: int) -> int:
        return a * w + p

    omega = Matrix(dim, dim)
    for p in range(w):
        omega.set_entry(idx(0, p), idx(1, p), HALF)
        omega.set_entry(idx(1, p), idx(0, p), -HALF)
    # gamma[a][b][c] = gamma_{e_a, e_b}(e_c), sparse over V
    gamma = [[_gamma_mat(a, b).transpose().data for b in range(2)] for a in range(2)]
    cols: dict = {}
    for a in range(2):
        for p in range(w):
            i = idx(a, p)
            for b in range(2):
                for q in range(w):
                    j = idx(b, q)
                    eps = _EPS2[a, b]
                    for c in range(2):
                        for r in range(w):
                            k = idx(c, r)
                            # (1/2) gamma_{a,b}(c) (x) b(p,q) r-slot
                            if p == q:
                                for vc, coeff in gamma[a][b].get(c, _EMPTY).items():
                                    _add_entry(cols, i, j, k, idx(vc, r), HALF * coeff)
                            if eps:
                                # <a,b> c (x) (b(p,r) q - b(q,r) p)
                                if p == r:
                                    _add_entry(cols, i, j, k, idx(c, q), eps)
                                if q == r:
                                    _add_entry(cols, i, j, k, idx(c, p), -eps)
    return SymplecticTripleSystem(dim, omega, cols, f"orthogonal(w={w})")


def build_special_type(w: int) -> SymplecticTripleSystem:
    """T = W + W*, dim 2w; [x,f,y] = f(x)y + 2f(y)x, [x,f,g] = -f(x)g - 2g(x)f."""
    if w < 1:
        raise ValidationError("special type needs w >= 1")
    dim = 2 * w
    omega = Matrix(dim, dim)
    for p in range(w):
        omega.set_entry(w + p, p, ONE)
        omega.set_entry(p, w + p, -ONE)
    cols: dict = {}
    two = qi(2)
    for p in range(w):  # x_p
        for q in range(w):  # f_q
            i, j = p, w + q
            for r in range(w):  # third = x_r
                if q == p:
                    _add_entry(cols, i, j, r, r, ONE)
                    _add_entry(cols, j, i, r, r, ONE)
                if q == r:
                    _add_entry(cols, i, j, r, p, two)
                    _add_entry(cols, j, i, r, p, two)
            for r in range(w):  # third = f_r
                if q == p:
                    _add_entry(cols, i, j, w + r, w + r, -ONE)
                    _add_entry(cols, j, i, w + r, w + r, -ONE)
                if r == p:
                    _add_entry(cols, i, j, w + r, w + q, -two)
                    _add_entry(cols, j, i, w + r, w + q, -two)
    return SymplecticTripleSystem(dim, omega, cols, f"special(w={w})")


def build_exceptional_type(jordan: CubicJordan) -> SymplecticTripleSystem:
    """T_J of dim 2 + 2 dim(J), from a cubic Jordan algebra J.

    An element is (alpha, beta, a, b) with alpha, beta scalars and a, b in J.
    The product is [x1, x2, x3] = (g(x1, x2, x3), -g(tau x1, tau x2, tau x3),
    c(x1, x2, x3), -c(tau x1, tau x2, tau x3)), where tau swaps alpha with
    beta and a with b, t is the trace form of J, and with
    s12 = alpha1 beta2 + beta1 alpha2:

        g = (t(a1,b2) + t(b1,a2) - 3 s12) alpha3
            + 2 (alpha1 t(b2,a3) + alpha2 t(b1,a3) - t(a1 x a2, a3))
        c = (t(a1,b2) + t(b1,a2) - s12) a3
            + 2 (t(b2,a3) - beta2 alpha3) a1 + 2 (t(b1,a3) - beta1 alpha3) a2
            + 2 (alpha1 b2 x b3 + alpha2 b1 x b3 + alpha3 b1 x b2)
            - 2 ((a1 x a2) x b3 + (a1 x a3) x b2 + (a2 x a3) x b1)

    The cross product x here must be the full adjoint linearization
    (``linearized_cross``, with a x a twice the adjoint); the half-normalized
    cross makes the derivation identity fail.  The axiom checker is the
    arbiter: this normalization is the one that passes it.

    A basis element lies in exactly one slot, so on a basis triple each term
    above is a single lookup in tables of e_p x e_q (twice J's
    ``cross_table``), (e_p x e_q) x e_r and t(e_p x e_q, e_r), picked by the
    slot kinds; tau maps basis elements to basis elements, so the
    tau-components are the same lookups at the swapped indices.
    """
    dj = jordan.dim
    dim = 2 + 2 * dj
    tform = jordan.trace_form

    omega = Matrix(dim, dim)
    omega.set_entry(0, 1, ONE)
    omega.set_entry(1, 0, -ONE)
    for p in range(dj):
        for q in range(dj):
            t_pq = tform[p][q]
            if t_pq:
                omega.set_entry(2 + p, 2 + dj + q, -t_pq)
                omega.set_entry(2 + dj + p, 2 + q, t_pq)

    gamma_c = _exc_components(jordan)
    tau = [1, 0] + list(range(2 + dj, dim)) + list(range(2, 2 + dj))
    cols: dict = {}
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                g, c = gamma_c(i, j, k)
                gt, ct = gamma_c(tau[i], tau[j], tau[k])
                if not (g or c or gt or ct):
                    continue
                col = {0: g} if g else {}
                if gt:
                    col[1] = -gt
                col.update((2 + l, v) for l, v in c.items())
                col.update((2 + dj + l, -v) for l, v in ct.items())
                cols[(i, j, k)] = col
    kind = "scalar" if jordan.kind == "scalar" else f"H3({jordan.algebra.kind})"
    return SymplecticTripleSystem(dim, omega, cols, f"exceptional(J={kind})")


def _exc_components(J: CubicJordan):
    """(g, c) of ``build_exceptional_type`` on basis triples, as a function
    of the basis indices (i, j, k); c is a sorted sparse {J-index: value}."""
    dj = J.dim
    tf = J.trace_form
    two, m1, m2, m3 = (qi(n) for n in (2, -1, -2, -3))
    # x[p][q] = e_p x e_q, the linearized cross product
    x = [[{l: v + v for l, v in u.items()} for u in row] for row in J.cross_table]
    x2 = [[_combine((two, u)) for u in row] for row in x]
    # xx[p][q][r] = -2 (e_p x e_q) x e_r,  tx[p][q][r] = -2 t(e_p x e_q, e_r)
    xx = [
        [[_combine(*((m2 * ul, x[l][r]) for l, ul in u.items())) for r in range(dj)] for u in row]
        for row in x
    ]
    tx = [
        [[sum((m2 * ul * tf[l][r] for l, ul in u.items()), ZERO) for r in range(dj)] for u in row]
        for row in x
    ]
    # the nonzero terms of g or c for each slot-kind triple of (x1, x2, x3);
    # a kind triple not listed gives (0, 0)
    rules = {
        ("al", "be", "al"): lambda p, q, r: (m3, _EMPTY),
        ("be", "al", "al"): lambda p, q, r: (m3, _EMPTY),
        ("a", "b", "al"): lambda p, q, r: (tf[p][q], _EMPTY),
        ("b", "a", "al"): lambda p, q, r: (tf[p][q], _EMPTY),
        ("al", "b", "a"): lambda p, q, r: (two * tf[q][r], _EMPTY),
        ("b", "al", "a"): lambda p, q, r: (two * tf[p][r], _EMPTY),
        ("a", "a", "a"): lambda p, q, r: (tx[p][q][r], _EMPTY),
        ("al", "be", "a"): lambda p, q, r: (ZERO, {r: m1}),
        ("be", "al", "a"): lambda p, q, r: (ZERO, {r: m1}),
        ("a", "be", "al"): lambda p, q, r: (ZERO, {p: m2}),
        ("be", "a", "al"): lambda p, q, r: (ZERO, {q: m2}),
        ("al", "b", "b"): lambda p, q, r: (ZERO, x2[q][r]),
        ("b", "al", "b"): lambda p, q, r: (ZERO, x2[p][r]),
        ("b", "b", "al"): lambda p, q, r: (ZERO, x2[p][q]),
        ("a", "a", "b"): lambda p, q, r: (ZERO, xx[p][q][r]),
        # (a, b, a) and (b, a, a) meet three terms of c
        ("a", "b", "a"): lambda p, q, r: (
            ZERO, _combine((ONE, xx[p][r][q]), (tf[p][q], {r: ONE}), (two * tf[q][r], {p: ONE}))
        ),
        ("b", "a", "a"): lambda p, q, r: (
            ZERO, _combine((ONE, xx[q][r][p]), (tf[p][q], {r: ONE}), (two * tf[p][r], {q: ONE}))
        ),
    }
    kinds = ["al", "be"] + ["a"] * dj + ["b"] * dj
    pos = [0, 0] + list(range(dj)) * 2
    none = (ZERO, _EMPTY)

    def gamma_c(i: int, j: int, k: int):
        rule = rules.get((kinds[i], kinds[j], kinds[k]))
        return rule(pos[i], pos[j], pos[k]) if rule else none

    return gamma_c


def _combine(*terms) -> dict:
    """The sum of s * u over terms (s, u) of sparse vectors u, sorted by
    index and without zeros."""
    out: dict = {}
    for s, u in terms:
        if s:
            add_scaled(out, s, u)
    return dict(sorted(out.items()))


# ---------------------------------------------------------------------------
# Axiom verification
# ---------------------------------------------------------------------------


@dataclass
class AxiomFailure:
    axiom: int
    witness: tuple
    detail: str


@dataclass
class AxiomReport:
    """Outcome of ``verify_axioms``.  ``checked[n]`` counts the basis tuples
    identity (n) was certified on; a passing (3) is certified from the
    residues of a Lie generating set of inder(T) alone, so it counts more
    tuples than residues evaluated.  ``failures`` lists the failing
    witnesses."""

    label: str
    dim: int
    checked: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        lines = [f"axioms for {self.label} (dim {self.dim}):"]
        failed_axiom = {f.axiom for f in self.failures}
        for ax in (1, 2, 3, 4):
            status = "FAIL" if ax in failed_axiom else "pass"
            lines.append(f"  ({ax}) {status}  [{self.checked.get(ax, 0)} tuples]")
        for f in self.failures:
            lines.append(f"  witness ({f.axiom}) at {f.witness}: {f.detail}")
        return "\n".join(lines)


AXIOM_FAILURE_CAP = 1000  # witnesses an audit keeps per identity


def check_witnesses(checks, mode: str, cap: int) -> tuple[int, list]:
    """Consume ``(witness, ok)`` pairs in order and return how many were
    checked and the witnesses that failed.  ``fast`` stops at the first
    failure; ``audit`` goes on until ``cap`` failures are recorded."""
    if mode not in ("fast", "audit"):
        raise ValueError("mode must be 'fast' or 'audit'")
    limit = 1 if mode == "fast" else cap
    checked = 0
    failed = []
    for witness, ok in checks:
        checked += 1
        if not ok:
            failed.append(witness)
            if len(failed) >= limit:
                break
    return checked, failed


def verify_axioms(T: SymplecticTripleSystem, mode: str = "fast") -> AxiomReport:
    """Check identities (1)-(4) over every basis tuple.

    ``fast`` stops each identity at its first failing tuple; ``audit``
    collects every witness (capped at ``AXIOM_FAILURE_CAP`` per identity).

    Identity (3) says that d_ij is a derivation of the triple product, and
    the derivations of any trilinear product form a Lie algebra.  So it is
    computed only for the pairs (i, j) whose d_ij generate a Lie algebra
    containing every d_ij (``linalg.lie_generators``, sparsest first),
    against every (l, m); that proves it for all pairs.  Only when one of
    those residues is nonzero does the check rerun over every (i, j, l, m)
    to find the witnesses.  ``checked[3]`` therefore counts the tuples
    certified, not the residues evaluated.
    """
    report = AxiomReport(T.label, T.dim)
    d = T.dim
    om = T.omega
    bt = T.basis_triple
    dmat = T.dmat

    def run(axiom: int, detail: str, checks) -> bool:
        report.checked[axiom], failed = check_witnesses(checks, mode, AXIOM_FAILURE_CAP)
        report.failures.extend(AxiomFailure(axiom, w, detail) for w in failed)
        return not failed

    # (1) symmetry in the first two slots
    axiom1_ok = run(1, "[e_i,e_j,e_k] != [e_j,e_i,e_k]", (
        ((i, j, k), bt(i, j, k) == bt(j, i, k))
        for i in range(d) for j in range(i + 1, d) for k in range(d)
    ))

    # (2) [x,y,z] - [x,z,y] = (x,z)y - (x,y)z + 2(y,z)x
    run(2, "identity (2) residue nonzero", (
        ((i, j, k), not _combine(
            (ONE, bt(i, j, k)), (-ONE, bt(i, k, j)),
            (-om[i, k], {j: ONE}), (om[i, j], {k: ONE}), (-2 * om[j, k], {i: ONE}),
        ))
        for i in range(d) for j in range(d) for k in range(d)
    ))

    # (3) derivation property, as the operator identity
    #     [d_ij, d_lm] = d_{d_ij(e_l), m} + d_{l, d_ij(e_m)}
    pairs = [(i, j) for i in range(d) for j in range(i if axiom1_ok else 0, d)]

    def derivation(i: int, j: int, l: int, m: int) -> bool:
        return comm_minus(dmat(i, j), dmat(l, m), [
            *((v, dmat(p, m)) for p, v in bt(i, j, l).items()),
            *((v, dmat(l, p)) for p, v in bt(i, j, m).items()),
        ]).is_zero()

    def bracket(x: dict, y: dict) -> dict:
        return comm(Matrix.from_flat(x, d, d), Matrix.from_flat(y, d, d)).flatten()

    nonzero = [(i, j) for (i, j) in pairs if not dmat(i, j).is_zero()]
    flat = [dmat(*p).flatten() for p in nonzero]
    gens = lie_generators(flat, bracket, d * d, [len(v) for v in flat])
    if all(derivation(*nonzero[s], l, m) for s in gens for (l, m) in pairs):
        report.checked[3] = len(pairs) ** 2
    else:
        run(3, "d_{ij} fails the derivation identity", (
            ((i, j, l, m), derivation(i, j, l, m))
            for (i, j) in pairs for (l, m) in pairs
        ))

    # (4) d_ij in sp(T, omega): d^T omega + omega d = 0
    run(4, "d_{ij} not in sp(T, omega)", (
        ((i, j), (dmat(i, j).transpose() @ om + om @ dmat(i, j)).is_zero())
        for (i, j) in pairs
    ))
    return report


# ---------------------------------------------------------------------------
# Inner derivations and simplicity
# ---------------------------------------------------------------------------


class InnerDerivationSpace:
    """Echelonized span of the operators d_{x,y}."""

    __slots__ = ("space", "mats")

    def __init__(self, space: Subspace, mats: list):
        self.space = space
        self.mats = mats

    @property
    def dim(self) -> int:
        return self.space.dim

    def coords_of(self, mat: Matrix):
        return self.space.coords_of(mat.flatten())

    def __repr__(self):
        return f"InnerDerivationSpace(dim={self.dim})"


def inder_basis(T: SymplecticTripleSystem) -> InnerDerivationSpace:
    """The echelon span of the nonzero d_ij, i <= j, inserted in order."""
    d = T.dim
    dmats = (T.dmat(i, j) for i in range(d) for j in range(i, d))
    space = Subspace.span((m.flatten() for m in dmats if not m.is_zero()), ambient=d * d)
    return InnerDerivationSpace(space, matrices_of(space))


def is_simple(T: SymplecticTripleSystem) -> bool:
    """Nondegenerate form plus nonzero triple product (dim 1 excluded)."""
    if T.dim == 1:
        raise ValidationError("simplicity criterion excludes dim 1")
    if rank(T.omega) != T.dim:
        return False
    return any(col for col in T.cols.values())


# ---------------------------------------------------------------------------
# Structure-constant files
# ---------------------------------------------------------------------------


def scalar_to_json(x: GaussianRational):
    if x.is_real:
        return str(x)
    return {"re": str(qi(x.re)), "im": str(qi(x.im))}


def scalar_from_json(obj, where: str) -> GaussianRational:
    try:
        if isinstance(obj, bool):
            raise ValueError("boolean is not a scalar")
        if isinstance(obj, int):
            return qi(obj)
        if isinstance(obj, str):
            return GaussianRational.parse(obj)
        if isinstance(obj, dict):
            extra = set(obj) - {"re", "im"}
            if extra:
                raise ValueError(f"unknown keys {sorted(extra)}")
            re_part = GaussianRational.parse(str(obj.get("re", "0")))
            im_part = GaussianRational.parse(str(obj.get("im", "0")))
            if not (re_part.is_real and im_part.is_real):
                raise ValueError("re/im parts must be plain rationals")
            return GaussianRational.from_fractions(re_part.re, im_part.re)
    except ValueError as exc:
        raise ParseError(f"{where}: bad scalar {obj!r} ({exc})") from None
    raise ParseError(f"{where}: bad scalar {obj!r} (unsupported type)")


def save_sts(T: SymplecticTripleSystem, path) -> None:
    doc = {
        "dim": T.dim,
        "label": T.label,
        "omega": [
            [scalar_to_json(T.omega[i, j]) for j in range(T.dim)]
            for i in range(T.dim)
        ],
        "triple": [
            [i, j, k, l, scalar_to_json(v)] for (i, j, k, l, v) in T.entries()
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_sts(path) -> SymplecticTripleSystem:
    """Read a structure-constant file; ``ParseError`` for any file that is
    unreadable, not UTF-8 JSON or malformed, ``ValidationError`` for a form
    that is not skew."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, integers past the digit limit, and nesting too deep
        raise ParseError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("top level: expected an object")
    dim = doc.get("dim")
    # JSON true/false load as bool, a subclass of int
    if type(dim) is not int or dim < 1:
        raise ParseError("dim: expected a positive integer")
    label = doc.get("label", "file")
    if not isinstance(label, str):
        raise ParseError("label: expected a string")

    omega_rows = doc.get("omega")
    if not isinstance(omega_rows, list) or len(omega_rows) != dim:
        raise ParseError(f"omega: expected {dim} rows")
    omega = Matrix(dim, dim)
    for i, row in enumerate(omega_rows):
        if not isinstance(row, list) or len(row) != dim:
            raise ParseError(f"omega[{i}]: expected {dim} entries")
        for j, cell in enumerate(row):
            omega.set_entry(i, j, scalar_from_json(cell, f"omega[{i}][{j}]"))

    triple = doc.get("triple")
    if not isinstance(triple, list):
        raise ParseError("triple: expected a list of [i,j,k,l,coeff] entries")
    cols: dict = {}
    first_pos: dict = {}
    for pos, entry in enumerate(triple):
        where = f"triple[{pos}]"
        if not isinstance(entry, list) or len(entry) != 5:
            raise ParseError(f"{where}: expected [i,j,k,l,coeff]")
        i, j, k, l = entry[:4]
        for name, idx in zip("ijkl", (i, j, k, l)):
            if type(idx) is not int or not 0 <= idx < dim:
                raise ParseError(f"{where}: index {name}={idx!r} out of range 0..{dim-1}")
        first = first_pos.setdefault((i, j, k, l), pos)
        if first != pos:
            raise ParseError(f"triple[{first}] and {where}: repeated entry [{i},{j},{k},{l}]")
        v = scalar_from_json(entry[4], where)
        _add_entry(cols, i, j, k, l, v)

    if omega.transpose() != -omega:
        raise ValidationError("omega is not skew-symmetric")
    return SymplecticTripleSystem(dim, omega, cols, label)
