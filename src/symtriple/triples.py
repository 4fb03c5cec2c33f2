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
from itertools import product
from math import lcm

from .errors import DimensionError, ParseError, ValidationError
from .jordan import CubicJordan
from .linalg import (
    Matrix, Subspace, ad_flat, add_numerators, canonical, lie_generators, numerators, rank,
)
from .scalars import GaussianRational, HALF, ONE, qi

__all__ = [
    "SymplecticTripleSystem",
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
    """Finite-dimensional triple system held as exact structure constants:
    ``num[(i, j, k)]`` is [e_i, e_j, e_k] as numerators ``{l: (re, im)}``
    over ``den``, in the canonical form of ``Matrix``.  The constructor takes
    scalar columns ``{(i, j, k): {l: scalar}}``, as ``Matrix`` takes scalar
    entries, and ``entries`` gives them back."""

    __slots__ = ("dim", "omega", "num", "den", "label")

    def __init__(self, dim: int, omega: Matrix, cols: dict, label: str):
        if omega.rows != dim or omega.cols != dim:
            raise DimensionError("omega shape mismatch")
        self.dim = dim
        self.omega = omega
        self.num, self.den = numerators(cols)
        self.label = label

    @staticmethod
    def from_numerators(dim: int, omega: Matrix, num: dict, den: int, label: str):
        """The system with columns ``num / den``, which may hold zeros."""
        t = SymplecticTripleSystem(dim, omega, _EMPTY, label)
        t.num, t.den = canonical(num, den)
        return t

    def basis_triple(self, i: int, j: int, k: int) -> dict:
        """[e_i, e_j, e_k] as numerators over ``den``."""
        return self.num.get((i, j, k), _EMPTY)

    def entries(self):
        """Sparse tensor entries as (i, j, k, l, coefficient), sorted."""
        den = self.den
        out = [
            (i, j, k, l, GaussianRational(x, y, den))
            for (i, j, k), col in self.num.items() for l, (x, y) in col.items()
        ]
        out.sort(key=lambda e: e[:4])
        return out

    def __eq__(self, other):
        if not isinstance(other, SymplecticTripleSystem):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.omega == other.omega
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self):
        return hash((self.dim, tuple(self.entries())))

    def __repr__(self):
        return f"SymplecticTripleSystem({self.label!r}, dim={self.dim})"


_EMPTY: dict = {}
_ZZ = (0, 0)


def _add_entry(num: dict, i: int, j: int, k: int, l: int, x: int) -> None:
    """[e_i, e_j, e_k] += x e_l in the numerator table ``num``, x an int."""
    col = num.setdefault((i, j, k), {})
    re, im = col.get(l, (0, 0))
    col[l] = (re + x, im)


_EPS2 = Matrix.from_rows([[0, 1], [-1, 0]])  # <e_a, e_b>


def _gamma_mat(a: int, b: int) -> Matrix:
    """gamma_{e_a, e_b} = <e_a,.>e_b + <e_b,.>e_a as a 2x2 matrix."""
    return Matrix(2, 2, {b: _EPS2.row(a)}) + Matrix(2, 2, {a: _EPS2.row(b)})


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------


def build_symplectic_type(n: int) -> SymplecticTripleSystem:
    """T = W, dim 2n, with [x,y,z] = (x,z)y + (y,z)x."""
    if n < 1:
        raise ValidationError("symplectic type needs n >= 1")
    dim = 2 * n
    om = [[0] * dim for _ in range(dim)]
    for i in range(n):
        om[i][n + i] = 1
        om[n + i][i] = -1
    omega = Matrix.from_rows(om)
    num: dict = {}
    for i, j, k in product(range(dim), repeat=3):
        # (e_i, e_k) e_j + (e_j, e_k) e_i
        for l, x in ((j, om[i][k]), (i, om[j][k])):
            if x:
                _add_entry(num, i, j, k, l, x)
    return SymplecticTripleSystem.from_numerators(dim, omega, num, 1, f"symplectic(n={n})")


def build_orthogonal_type(w: int) -> SymplecticTripleSystem:
    """T = V (x) W with the identity form on W; dim 2w, w >= 3."""
    if w < 3:
        raise ValidationError("orthogonal type needs w >= 3")
    dim = 2 * w

    def idx(a: int, p: int) -> int:
        return a * w + p

    omega = Matrix(dim, dim, {
        **{idx(0, p): {idx(1, p): HALF} for p in range(w)},
        **{idx(1, p): {idx(0, p): -HALF} for p in range(w)},
    })
    # gamma[a][b][c] = gamma_{e_a, e_b}(e_c), sparse over V with integer entries
    gamma = [[_gamma_mat(a, b).transpose().num for b in range(2)] for a in range(2)]
    num: dict = {}  # twice the structure constants
    for (a, p), (b, q), (c, r) in product(product(range(2), range(w)), repeat=3):
        key = (idx(a, p), idx(b, q), idx(c, r))
        if p == q:  # (1/2) gamma_{a,b}(c) (x) b(p,q) r-slot
            for vc, (coeff, _) in gamma[a][b].get(c, {}).items():
                _add_entry(num, *key, idx(vc, r), coeff)
        eps = b - a  # <e_a, e_b>
        if eps:  # <a,b> c (x) (b(p,r) q - b(q,r) p)
            if p == r:
                _add_entry(num, *key, idx(c, q), 2 * eps)
            if q == r:
                _add_entry(num, *key, idx(c, p), -2 * eps)
    return SymplecticTripleSystem.from_numerators(dim, omega, num, 2, f"orthogonal(w={w})")


def build_special_type(w: int) -> SymplecticTripleSystem:
    """T = W + W*, dim 2w; [x,f,y] = f(x)y + 2f(y)x, [x,f,g] = -f(x)g - 2g(x)f."""
    if w < 1:
        raise ValidationError("special type needs w >= 1")
    dim = 2 * w
    omega = Matrix(dim, dim, {
        **{w + p: {p: ONE} for p in range(w)},
        **{p: {w + p: -ONE} for p in range(w)},
    })
    num: dict = {}
    for p, q, r in product(range(w), repeat=3):
        # [x_p, f_q, x_r] and [x_p, f_q, f_r], and the same with x_p, f_q swapped
        terms = ((r, r, int(q == p)), (r, p, 2 * (q == r)),
                 (w + r, w + r, -(q == p)), (w + r, w + q, -2 * (r == p)))
        for i, j in ((p, w + q), (w + q, p)):
            for k, l, x in terms:
                if x:
                    _add_entry(num, i, j, k, l, x)
    return SymplecticTripleSystem.from_numerators(dim, omega, num, 1, f"special(w={w})")


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
    tau-components of a basis triple are the (g, c) of its tau image.
    """
    dj = jordan.dim
    dim = 2 + 2 * dj
    tform = jordan.trace_form

    om: dict = {0: {1: (tform.den, 0)}, 1: {0: (-tform.den, 0)}}
    for p, row in tform.num.items():
        for q, (a, b) in row.items():
            om.setdefault(2 + p, {})[2 + dj + q] = (-a, -b)
            om.setdefault(2 + dj + p, {})[2 + q] = (a, b)
    omega = Matrix.from_numerators(dim, dim, om, tform.den)

    # (g, c) of a basis triple fills its slots (alpha, a); negated, they are
    # the (beta, b) slots of its tau image
    tau = [1, 0] + list(range(2 + dj, dim)) + list(range(2, 2 + dj))
    den, components = _exc_components(jordan)
    num: dict = {}
    for (i, j, k), g, c in components:
        col = num.setdefault((i, j, k), {})
        if g != _ZZ:
            col[0] = g
        col.update((2 + l, z) for l, z in c.items())
        col = num.setdefault((tau[i], tau[j], tau[k]), {})
        if g != _ZZ:
            col[1] = (-g[0], -g[1])
        col.update((2 + dj + l, (-x, -y)) for l, (x, y) in c.items())
    kind = "scalar" if jordan.kind == "scalar" else f"H3({jordan.algebra.kind})"
    return SymplecticTripleSystem.from_numerators(dim, omega, num, den, f"exceptional(J={kind})")


def _exc_components(J: CubicJordan):
    """(den, components): the basis triples (i, j, k) of
    ``build_exceptional_type`` where g or c is nonzero, with (g, c) as
    Gaussian-integer numerators over den; c is a sparse {J-index: (re, im)}.

    J's trace form and linearized cross product, twice its ``cross_table``,
    are brought to one denominator d, the lcm of the two tables'
    denominators: t(e_p, e_q) = tf[p][q] / d and e_p x e_q = x[p][q] / d.
    g and c have degree at most 2 in them, so den = d^2."""
    dj = J.dim
    tform, table = J.trace_form, J.cross_table
    d = lcm(tform.den, J.cross_den)
    st, sx = d // tform.den, 2 * d // J.cross_den
    tf = [{q: (st * a, st * b) for q, (a, b) in tform.num.get(p, _EMPTY).items()}
          for p in range(dj)]
    x = [[{l: (sx * a, sx * b) for l, (a, b) in table.get((p, q), _EMPTY).items()}
          for q in range(dj)] for p in range(dj)]
    # over d^2: t[p][q] = t(e_p, e_q), t2 = 2 t, x2[p][q] = 2 e_p x e_q,
    # xx[p][q][r] = -2 (e_p x e_q) x e_r and tx[p][q][r] = -2 t(e_p x e_q, e_r)
    t = [[(a * d, b * d) for a, b in (tf[p].get(q, _ZZ) for q in range(dj))] for p in range(dj)]
    t2 = [[(2 * a, 2 * b) for a, b in row] for row in t]
    x2 = [[{l: (2 * d * a, 2 * d * b) for l, (a, b) in u.items()} for u in row] for row in x]
    x_col = [[x[l][r] for l in range(dj)] for r in range(dj)]
    xx = [[[_lin(u, x_col[r], -2) for r in range(dj)] for u in row] for row in x]
    tx = [[_lin(u, tf, -2) for u in row] for row in x]
    g3, c1, c2 = (-3 * d * d, 0), (-d * d, 0), (-2 * d * d, 0)
    # the nonzero terms of g or c for each slot-kind triple of (x1, x2, x3);
    # a kind triple not listed gives (0, 0)
    rules = {
        ("al", "be", "al"): lambda p, q, r: (g3, _EMPTY),
        ("be", "al", "al"): lambda p, q, r: (g3, _EMPTY),
        ("a", "b", "al"): lambda p, q, r: (t[p][q], _EMPTY),
        ("b", "a", "al"): lambda p, q, r: (t[p][q], _EMPTY),
        ("al", "b", "a"): lambda p, q, r: (t2[q][r], _EMPTY),
        ("b", "al", "a"): lambda p, q, r: (t2[p][r], _EMPTY),
        ("a", "a", "a"): lambda p, q, r: (tx[p][q].get(r, _ZZ), _EMPTY),
        ("al", "be", "a"): lambda p, q, r: (_ZZ, {r: c1}),
        ("be", "al", "a"): lambda p, q, r: (_ZZ, {r: c1}),
        ("a", "be", "al"): lambda p, q, r: (_ZZ, {p: c2}),
        ("be", "a", "al"): lambda p, q, r: (_ZZ, {q: c2}),
        ("al", "b", "b"): lambda p, q, r: (_ZZ, x2[q][r]),
        ("b", "al", "b"): lambda p, q, r: (_ZZ, x2[p][r]),
        ("b", "b", "al"): lambda p, q, r: (_ZZ, x2[p][q]),
        ("a", "a", "b"): lambda p, q, r: (_ZZ, xx[p][q][r]),
        # (a, b, a) and (b, a, a) meet three terms of c
        ("a", "b", "a"): lambda p, q, r: (_ZZ, _plus(xx[p][r][q], (r, t[p][q]), (p, t2[q][r]))),
        ("b", "a", "a"): lambda p, q, r: (_ZZ, _plus(xx[q][r][p], (r, t[p][q]), (q, t2[p][r]))),
    }
    # the basis elements of each slot kind, as (basis index, J-index)
    slots = {"al": [(0, 0)], "be": [(1, 0)],
             "a": [(2 + p, p) for p in range(dj)], "b": [(2 + dj + p, p) for p in range(dj)]}

    def components():
        for (k1, k2, k3), rule in rules.items():
            for (i, p), (j, q), (k, r) in product(slots[k1], slots[k2], slots[k3]):
                g, c = rule(p, q, r)
                if g != _ZZ or c:
                    yield (i, j, k), g, c

    return d * d, components()


def _lin(u: dict, rows, s: int) -> dict:
    """s sum_l u[l] rows[l] on sparse Gaussian-integer vectors, without zeros."""
    out: dict = {}
    for l, (a, b) in u.items():
        add_numerators(out, s * a, s * b, rows[l])
    return {k: z for k, z in out.items() if z != _ZZ}


def _plus(v: dict, *terms) -> dict:
    """v + sum z e_l over the pairs (l, z) of ``terms``, without zeros."""
    out = dict(v)
    for l, (a, b) in terms:
        re, im = out.get(l, _ZZ)
        out[l] = (re + a, im + b)
    return {k: z for k, z in out.items() if z != _ZZ}


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
    identity (n) was certified on; a passing (2) or (3) is certified from
    fewer residues (see ``verify_axioms``), so it counts more tuples than
    residues evaluated.  ``failures`` lists the failing witnesses."""

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


def check_witnesses(checks, mode: str, cap: int, certificate=None,
                    certified: int = 0) -> tuple[int, list]:
    """Consume ``(witness, ok)`` pairs in order and return how many were
    checked and the witnesses that failed.  ``fast`` stops at the first
    failure; ``audit`` goes on until ``cap`` failures are recorded.

    ``certificate``, if given, is a zero-argument callable run after the
    mode check and before any pair is read: when it returns True the result
    is ``(certified, [])``, the count it proves, and ``checks`` is never
    read; otherwise the pairs are consumed as above, for the witnesses."""
    if mode not in ("fast", "audit"):
        raise ValueError("mode must be 'fast' or 'audit'")
    if certificate is not None and certificate():
        return certified, []
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

    (2), (3) and (4) each pass a ``check_witnesses`` certificate that
    evaluates fewer residues; only if it fails does the identity run over
    every tuple, so the witnesses and ``checked`` are those of that loop.
    ``checked`` counts the tuples certified, not residues evaluated.

    Once the form is checked to be skew, the residue R(x, y, z) of (2) changes
    sign under y <-> z and R(x, y, y) = 0, so (2) is certified from k > j alone.

    Identity (3) says that d_ij is a derivation of the triple product, and
    the derivations of any trilinear product form a Lie algebra.  So it is
    certified from the pairs (i, j) whose d_ij generate a Lie algebra
    containing every d_ij (``linalg.lie_generators``, sparsest first),
    against every (l, m).  The certificate and the all-pairs loop sum each
    residue on the flattenings of T.den d_ij through ``linalg.ad_flat``,
    with no commutator ``Matrix``.

    Identity (4) says d_ij lies in {d : d^T omega + omega d = 0}, a Lie
    subalgebra of gl(T) for any omega; the zero d_ij lie in it.  So the same
    generators certify it for every pair.  Its residues are summed on the
    same flattenings and on omega's numerators, with no ``Matrix`` either.
    """
    report = AxiomReport(T.label, T.dim)
    d = T.dim
    om = T.omega
    # (e_i, e_j) = form[i][j] / om.den, read densely by (2)
    form = [[om.num.get(i, _EMPTY).get(j, _ZZ) for j in range(d)] for i in range(d)]
    bt = T.basis_triple

    def run(axiom: int, detail: str, checks, *certificate) -> bool:
        report.checked[axiom], failed = check_witnesses(
            checks, mode, AXIOM_FAILURE_CAP, *certificate)
        report.failures.extend(AxiomFailure(axiom, w, detail) for w in failed)
        return not failed

    # (1) symmetry in the first two slots
    axiom1_ok = run(1, "[e_i,e_j,e_k] != [e_j,e_i,e_k]", (
        ((i, j, k), bt(i, j, k) == bt(j, i, k))
        for i in range(d) for j in range(i + 1, d) for k in range(d)
    ))

    # (2) [x,y,z] - [x,z,y] = (x,z)y - (x,y)z + 2(y,z)x, times both denominators
    def residue2_zero(i: int, j: int, k: int) -> bool:
        a, b = bt(i, j, k), bt(i, k, j)
        if a == b and form[i][k] == form[i][j] == form[j][k] == _ZZ:
            return True
        r: dict = {}
        add_numerators(r, om.den, 0, a)
        add_numerators(r, -om.den, 0, b)
        return not _plus(r, *((l, (c * x, c * y)) for l, c, (x, y) in (
            (j, -T.den, form[i][k]), (k, T.den, form[i][j]), (i, -2 * T.den, form[j][k]),
        )))

    run(2, "identity (2) residue nonzero", (
        ((i, j, k), residue2_zero(i, j, k))
        for i in range(d) for j in range(d) for k in range(d)
    ), lambda: om.transpose() == -om and all(
        residue2_zero(i, j, k) for i in range(d) for j in range(d) for k in range(j + 1, d)
    ), d ** 3)

    # (3) derivation property, as the operator identity
    #     [d_ij, d_lm] = d_{d_ij(e_l), m} + d_{l, d_ij(e_m)}
    # on the flattenings D_ij of T.den d_ij: with d_ij(e_l) = sum_p z_p e_p
    # / T.den and d_ij(e_m) = sum_p z'_p e_p / T.den, the residue times
    # T.den^2 is  ad_flat(D_ij)(D_lm) - sum_p z_p D_pm - sum_p z'_p D_lp
    flat = _flat_d(T)
    pairs = [(i, j) for i in range(d) for j in range(i if axiom1_ok else 0, d)]
    ads: dict = {}  # (i, j) -> ad_flat(D_ij), built when d_ij first acts

    def ad(p: tuple):
        a = ads.get(p)
        if a is None:
            a = ads[p] = ad_flat(flat[p], d)
        return a

    def derivation(i: int, j: int, l: int, m: int) -> bool:
        if (i, j) not in flat:  # d_ij = 0, and so are both its images
            return True
        r = ad((i, j))(flat.get((l, m), _EMPTY))
        for p, (x, y) in bt(i, j, l).items():
            add_numerators(r, -x, -y, flat.get((p, m), _EMPTY))
        for p, (x, y) in bt(i, j, m).items():
            add_numerators(r, -x, -y, flat.get((l, p), _EMPTY))
        return not any(x or y for x, y in r.values())

    nonzero = [p for p in pairs if p in flat]
    gens = [nonzero[s] for s in lie_generators(
        [flat[p] for p in nonzero], lambda k, w: ad(nonzero[k])(w), d * d,
        [len(flat[p]) for p in nonzero],
    )]
    run(3, "d_{ij} fails the derivation identity", (
        ((i, j, l, m), derivation(i, j, l, m))
        for (i, j) in pairs for (l, m) in pairs
    ), lambda: all(derivation(*g, l, m) for g in gens for (l, m) in pairs), len(pairs) ** 2)

    # (4) d_ij in sp(T, omega): d^T omega + omega d = 0, whose entry at
    # (k, b) is ([e_i,e_j,e_k], e_b) + (e_k, [e_i,e_j,e_b]); summed on the
    # numerators of D_ij and omega, over T.den om.den
    om_cols: dict = {}  # l -> [(a, numerator of (e_a, e_l))]
    for a, row in om.num.items():
        for l, z in row.items():
            om_cols.setdefault(l, []).append((a, z))

    def in_sp(i: int, j: int) -> bool:
        r: dict = {}
        get = r.get
        for p, (x, y) in flat.get((i, j), _EMPTY).items():
            l, k = divmod(p, d)  # T.den [e_i,e_j,e_k] holds x + y i at e_l
            for b, (u, v) in om.num.get(l, _EMPTY).items():
                zr, zi = get(k * d + b, _ZZ)
                r[k * d + b] = (zr + x * u - y * v, zi + x * v + y * u)
            for a, (u, v) in om_cols.get(l, ()):
                zr, zi = get(a * d + k, _ZZ)
                r[a * d + k] = (zr + x * u - y * v, zi + x * v + y * u)
        return not any(x or y for x, y in r.values())

    run(4, "d_{ij} not in sp(T, omega)", (((i, j), in_sp(i, j)) for (i, j) in pairs),
        lambda: all(in_sp(*g) for g in gens), len(pairs))
    return report


# ---------------------------------------------------------------------------
# Inner derivations and simplicity
# ---------------------------------------------------------------------------


def _flat_d(T: SymplecticTripleSystem) -> dict:
    """(i, j) -> the row-major flattening of T.den d_ij, for each nonzero
    d_ij, read straight from ``T.num``, so every one carries the one factor
    T.den: the entry of T.den [e_i, e_j, e_k] at e_l is at l d + k."""
    d = T.dim
    flat: dict = {}
    for (i, j, k), col in T.num.items():
        flat.setdefault((i, j), {}).update((l * d + k, z) for l, z in col.items())
    return flat


def inder_basis(T: SymplecticTripleSystem) -> Subspace:
    """The echelon span of the flattened nonzero d_ij, i <= j, inserted in
    order; ``enveloping.build_enveloping`` reads its rows as operators."""
    d = T.dim
    flat = _flat_d(T)
    return Subspace.span(
        (flat[(i, j)] for i in range(d) for j in range(i, d) if (i, j) in flat), ambient=d * d
    )


def is_simple(T: SymplecticTripleSystem) -> bool:
    """Nondegenerate form plus nonzero triple product (dim 1 excluded)."""
    if T.dim == 1:
        raise ValidationError("simplicity criterion excludes dim 1")
    if rank(T.omega) != T.dim:
        return False
    return bool(T.num)


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
    cells = []
    for i, row in enumerate(omega_rows):
        if not isinstance(row, list) or len(row) != dim:
            raise ParseError(f"omega[{i}]: expected {dim} entries")
        cells.append([scalar_from_json(cell, f"omega[{i}][{j}]") for j, cell in enumerate(row)])
    omega = Matrix.from_rows(cells)

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
        cols.setdefault((i, j, k), {})[l] = scalar_from_json(entry[4], where)

    if omega.transpose() != -omega:
        raise ValidationError("omega is not skew-symmetric")
    return SymplecticTripleSystem(dim, omega, cols, label)
