"""Cubic Jordan algebras: the scalar algebra and hermitian 3x3 matrices.

``scalar`` kind is the one-dimensional algebra with ``n(a) = a^3``, so
``t(a, b) = 3ab``, ``tr(a) = 3a``, adjoint ``a^2`` and ``a x b = ab``.
``hermitian`` kind is H3(C) for a split composition algebra C: matrices
``x`` with ``x[j][i] = conj(x[i][j])``, with

    t(a, b)  = (1/2) tr(ab + ba)
    a x b    = (1/2) (ab + ba - tr(a) b - tr(b) a + (tr(a) tr(b) - t(a, b)) I3)

and ``tr(a) = t(a, 1)``.

Basis order for the hermitian kind: the three diagonal units, then for each
off-diagonal position (0,1), (0,2), (1,2) in that order and each C-basis
element c, the matrix with c at the position and conj(c) mirrored.  So
``dim = 3 + 3 * dim(C)``.

The tables are computed on the basis from C's numerator tables: a basis
matrix is a grid of at most two C-vectors, and ab + ba is summed on its
upper triangle only.  ``build_jordan`` first checks that C's conjugation
is an involutive anti-automorphism, which makes ab + ba hermitian, so that
triangle determines it, and that C's unit is a 0/1 vector, so that each
diagonal entry is read off as a multiple of the unit.  ``cross_table`` and
``dot_table`` hold e_i x e_j and e_i . e_j as Gaussian-integer numerators
``{(i, j): {k: (re, im)}}`` over ``cross_den`` and ``dot_den``, the format
of the triple system's tables; ``trace_form`` is the ``Matrix`` of
t(e_i, e_j).  No pipeline stage evaluates a dense element, so the element
identities (trace associativity, (a x a) . a = n(a) 1) are checked in the
tests, on these tables.  One element method stays, ``linearized_cross``:
the benchmark's tracer counts its calls, a count that stays 0 while the
pipeline reads only the tables.
"""

from __future__ import annotations

from .composition import CompositionAlgebra
from .errors import DimensionError, ValidationError
from .linalg import Matrix, add_numerators, canonical, table_product
from .scalars import ONE, ZERO

__all__ = ["CubicJordan", "build_jordan"]

_OFFDIAG = ((0, 1), (0, 2), (1, 2))
_ZZ = (0, 0)


class CubicJordan:
    __slots__ = (
        "kind",
        "algebra",
        "dim",
        "unit",
        "trace_form",
        "cross_table",
        "cross_den",
        "dot_table",
        "dot_den",
    )

    def __init__(self, kind, algebra, dim, unit, trace_form, cross_table, cross_den,
                 dot_table, dot_den):
        self.kind = kind
        self.algebra = algebra
        self.dim = dim
        self.unit = unit
        self.trace_form = trace_form  # Matrix of t(e_i, e_j)
        self.cross_table = cross_table  # e_i x e_j over cross_den
        self.cross_den = cross_den
        self.dot_table = dot_table  # symmetrized product e_i . e_j over dot_den
        self.dot_den = dot_den

    def linearized_cross(self, a, b):
        """Full linearization of the adjoint map: a x' b with a x' a = 2 (a x a).

        Uniformly ab + ba - tr(a)b - tr(b)a + (tr(a)tr(b) - t(a,b)) * unit,
        twice the cross product; for the scalar kind (where tr(a) = 3a) it
        comes out as 2ab.
        """
        for x in (a, b):
            if len(x) != self.dim:
                raise DimensionError(f"element length {len(x)} != dim {self.dim}")
        return tuple(x + x for x in table_product(self.cross_table, self.cross_den, a, b))

    def __repr__(self):
        tag = self.kind if self.algebra is None else f"H3({self.algebra.kind})"
        return f"CubicJordan({tag}, dim={self.dim})"


def build_jordan(kind: str, algebra: CompositionAlgebra | None = None) -> CubicJordan:
    if kind == "scalar":
        if algebra is not None:
            raise ValidationError("scalar kind takes no composition algebra")
        one = {(0, 0): {0: (1, 0)}}
        form = Matrix.from_numerators(1, 1, {0: {0: (3, 0)}})
        return CubicJordan("scalar", None, 1, (ONE,), form, one, 1, one, 1)
    if kind != "hermitian":
        raise ValueError(f"unknown Jordan algebra kind {kind!r}")
    if algebra is None:
        raise ValidationError("hermitian kind needs a composition algebra")

    c = algebra
    _check_algebra(c)
    dc = c.dim
    dim = 3 + 3 * dc
    # the basis matrices as grids [(r, s, C-numerators)] over the
    # denominator of conj
    d = c.conj.den
    ones = frozenset(k for k, x in enumerate(c.unit) if x)
    one = {k: (d, 0) for k in ones}
    conj = c.conj.transpose().num
    grids = [[(r, r, one)] for r in range(3)]
    for r, s in _OFFDIAG:
        grids += [[(r, s, {k: (d, 0)}), (s, r, conj.get(k, {}))] for k in range(dc)]

    # ab + ba, hence every entry below, is over sden; tr is 1 on the diagonal units
    sden = d * d * c.mul_den
    trace_form, cross, dot = {}, {}, {}
    for i, a in enumerate(grids):
        for j, b in enumerate(grids):
            sym = _sym(a, b, c.mul)
            v = {}
            for p, (r, s) in enumerate(_OFFDIAG):
                v.update((3 + p * dc + k, z) for k, z in sym.get((r, s), {}).items())
            tr_re = tr_im = 0
            for r in range(3):
                z = v[r] = _unit_coefficient(sym.get((r, r), {}), ones)
                tr_re += z[0]
                tr_im += z[1]
            trace_form.setdefault(i, {})[j] = (tr_re, tr_im)  # 2 t(e_i, e_j)
            dot[(i, j)] = v  # 2 e_i . e_j
            # 4 e_i x e_j = 2 (ab + ba) - 2 tr_i e_j - 2 tr_j e_i
            #               + (2 tr_i tr_j - 2 t(e_i, e_j)) 1
            x = {k: (zr + zr, zi + zi) for k, (zr, zi) in v.items()}
            for k, tr in ((j, i < 3), (i, j < 3)):
                if tr:
                    zr, zi = x.get(k, _ZZ)
                    x[k] = (zr - 2 * sden, zi)
            coef = 2 * sden * (i < 3 and j < 3) - tr_re
            for k in range(3):
                zr, zi = x[k]
                x[k] = (zr + coef, zi - tr_im)
            cross[(i, j)] = x

    unit = tuple(ONE if k < 3 else ZERO for k in range(dim))
    form = Matrix.from_numerators(dim, dim, trace_form, 2 * sden)
    return CubicJordan("hermitian", algebra, dim, unit, form,
                       *canonical(cross, 4 * sden), *canonical(dot, 2 * sden))


def _check_algebra(c: CompositionAlgebra) -> None:
    """Raise ``ValidationError`` unless C's unit is a nonzero 0/1 vector and
    its conjugation an involutive anti-automorphism.  The first lets a
    diagonal entry be read as a multiple of the unit; the second makes ab +
    ba hermitian for hermitian a and b, so its upper triangle determines
    it.  Both sides of conj(e_i e_j) = conj(e_j) conj(e_i) are read from
    the numerator tables, as rows i * dim + j of a matrix."""
    if not any(c.unit) or any(x not in (ZERO, ONE) for x in c.unit):
        raise ValidationError("composition algebra unit is not a 0/1 vector")
    n = c.dim
    bar = c.conj.transpose()  # row k is conj(e_k)
    products = Matrix.from_numerators(
        n * n, n, {i * n + j: col for (i, j), col in c.mul.items()}, c.mul_den)
    swapped: dict = {}
    for i in range(n):
        for j in range(n):
            _add_product(swapped.setdefault(i * n + j, {}), bar.num.get(j, {}),
                         bar.num.get(i, {}), c.mul)
    if c.conj @ c.conj != Matrix.identity(n) or products @ bar != Matrix.from_numerators(
            n * n, n, swapped, bar.den * bar.den * c.mul_den):
        raise ValidationError("conjugation is not an involutive anti-automorphism")


def _sym(a: list, b: list, mul: dict) -> dict:
    """ab + ba on and above the diagonal, {(r, s): C-numerators}, for grids
    a and b of numerators ``[(r, s, {k: (re, im)})]`` and C's product
    table ``mul``."""
    out: dict = {}
    for x, y in ((a, b), (b, a)):
        for r, k, u in x:
            for l, s, w in y:
                if k == l and r <= s:
                    _add_product(out.setdefault((r, s), {}), u, w, mul)
    return out


def _add_product(acc: dict, u: dict, w: dict, mul: dict) -> None:
    """In place, acc += u w for C-numerators u and w and C's product table
    ``mul``."""
    for p, (ur, ui) in u.items():
        for q, (wr, wi) in w.items():
            col = mul.get((p, q))
            if col:
                add_numerators(acc, ur * wr - ui * wi, ur * wi + ui * wr, col)


def _unit_coefficient(x: dict, ones) -> tuple:
    """z with x = z 1 for a C-vector of numerators x, where C's unit 1 is 1
    on the indices ``ones`` and 0 elsewhere; raises ``ValidationError``
    otherwise."""
    z = x.get(min(ones), _ZZ)
    if any(x.get(k, _ZZ) != z for k in ones) or any(
            w != _ZZ for k, w in x.items() if k not in ones):
        raise ValidationError("element is not a multiple of the unit")
    return z
