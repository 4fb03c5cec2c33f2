"""Cubic Jordan algebras: the scalar algebra and hermitian 3x3 matrices.

``scalar`` kind is the one-dimensional algebra with ``n(a) = a^3``, so
``t(a, b) = 3ab``, ``tr(a) = 3a``, adjoint ``a^2`` and ``a x b = ab``.
``hermitian`` kind is H3(C) for a split composition algebra C: matrices
``x`` with ``x[j][i] = conj(x[i][j])``, with

    t(a, b)  = (1/2) tr(ab + ba)
    a x b    = (1/2) (ab + ba - tr(a) b - tr(b) a + (tr(a) tr(b) - t(a, b)) I3)

Basis order for the hermitian kind: the three diagonal units, then for each
off-diagonal position (0,1), (0,2), (1,2) in that order and each C-basis
element c, the matrix with c at the position and conj(c) mirrored.  So
``dim = 3 + 3 * dim(C)``.

``cross_table`` and ``dot_table`` hold e_i x e_j and e_i . e_j as sparse
coordinate vectors; ``trace_form`` is the dense nested tuple of t(e_i, e_j).
"""

from __future__ import annotations

from .composition import CompositionAlgebra, unit_multiple
from .errors import DimensionError, ValidationError
from .linalg import Matrix, dot, table_product
from .scalars import GaussianRational, HALF, ONE, ZERO, qi

__all__ = ["CubicJordan", "build_jordan"]

_OFFDIAG = ((0, 1), (0, 2), (1, 2))


class CubicJordan:
    __slots__ = (
        "kind",
        "algebra",
        "dim",
        "unit",
        "trace_form",
        "cross_table",
        "dot_table",
        "trace_lin",
        "_trace_gram",
    )

    def __init__(self, kind, algebra, dim, unit, trace_form, cross_table, dot_table, trace_lin):
        self.kind = kind
        self.algebra = algebra
        self.dim = dim
        self.unit = unit
        self.trace_form = trace_form  # t(e_i, e_j)
        self.cross_table = cross_table  # e_i x e_j, sparse
        self.dot_table = dot_table  # symmetrized product e_i . e_j, sparse
        self.trace_lin = trace_lin  # tr(e_i)
        self._trace_gram = Matrix.from_rows(trace_form)

    def _check(self, a):
        if len(a) != self.dim:
            raise DimensionError(f"element length {len(a)} != dim {self.dim}")

    def t(self, a, b) -> GaussianRational:
        self._check(a)
        self._check(b)
        return self._trace_gram.bilinear(a, b)

    def cross(self, a, b):
        self._check(a)
        self._check(b)
        return table_product(self.cross_table, a, b)

    def linearized_cross(self, a, b):
        """Full linearization of the adjoint map: a x' b with a x' a = 2 (a x a).

        Uniformly ab + ba - tr(a)b - tr(b)a + (tr(a)tr(b) - t(a,b)) * unit,
        twice the cross product; for the scalar kind (where tr(a) = 3a) it
        comes out as 2ab.
        """
        return tuple(x + x for x in self.cross(a, b))

    def dot(self, a, b):
        self._check(a)
        self._check(b)
        return table_product(self.dot_table, a, b)

    def trace_of(self, a) -> GaussianRational:
        self._check(a)
        return dot(a, self.trace_lin)

    def norm(self, a) -> GaussianRational:
        """Cubic norm, read off from (a x a) . a = n(a) * unit."""
        return unit_multiple(self.dot(self.cross(a, a), a), self.unit)

    def basis_element(self, i):
        return tuple(ONE if k == i else ZERO for k in range(self.dim))

    def __repr__(self):
        tag = self.kind if self.algebra is None else f"H3({self.algebra.kind})"
        return f"CubicJordan({tag}, dim={self.dim})"


class _Herm:
    """Helper doing matrix work for H3(C) while tables are generated."""

    def __init__(self, c: CompositionAlgebra):
        self.c = c
        self.dim = 3 + 3 * c.dim

    def to_matrix(self, coords):
        c = self.c
        d = c.dim
        m = [[None] * 3 for _ in range(3)]
        for i in range(3):
            m[i][i] = tuple(coords[i] * u for u in c.unit)
        for p, (i, j) in enumerate(_OFFDIAG):
            m[i][j] = tuple(coords[3 + p * d: 3 + (p + 1) * d])
            m[j][i] = c.conjugate(m[i][j])
        return m

    def from_matrix(self, m):
        c = self.c
        coords = [ZERO] * self.dim
        for i in range(3):
            coords[i] = unit_multiple(m[i][i], c.unit)
        for p, (i, j) in enumerate(_OFFDIAG):
            base = 3 + p * c.dim
            for k in range(c.dim):
                coords[base + k] = m[i][j][k]
            # hermitian consistency
            back = c.conjugate(m[i][j])
            if tuple(back) != tuple(m[j][i]):
                raise ValidationError("matrix is not hermitian")
        return tuple(coords)

    def matmul(self, a, b):
        c = self.c
        out = [[None] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(3):
                acc = (ZERO,) * c.dim
                for k in range(3):
                    acc = tuple(
                        x + y for x, y in zip(acc, c.multiply(a[i][k], b[k][j]))
                    )
                out[i][j] = acc
        return out

    def sym(self, a, b):
        """(ab + ba) as a matrix."""
        ab = self.matmul(a, b)
        ba = self.matmul(b, a)
        return [
            [tuple(x + y for x, y in zip(ab[i][j], ba[i][j])) for j in range(3)]
            for i in range(3)
        ]

    def mat_trace(self, m) -> GaussianRational:
        acc = ZERO
        for i in range(3):
            acc = acc + unit_multiple(m[i][i], self.c.unit)
        return acc


def build_jordan(kind: str, algebra: CompositionAlgebra | None = None) -> CubicJordan:
    if kind == "scalar":
        if algebra is not None:
            raise ValidationError("scalar kind takes no composition algebra")
        three = qi(3)
        return CubicJordan(
            "scalar", None, 1, (ONE,), ((three,),), (({0: ONE},),), (({0: ONE},),), (three,)
        )
    if kind != "hermitian":
        raise ValueError(f"unknown Jordan algebra kind {kind!r}")
    if algebra is None:
        raise ValidationError("hermitian kind needs a composition algebra")

    h = _Herm(algebra)
    dim = h.dim
    basis_coords = [
        tuple(ONE if k == i else ZERO for k in range(dim)) for i in range(dim)
    ]
    mats = [h.to_matrix(bc) for bc in basis_coords]
    traces = tuple(h.mat_trace(m) for m in mats)
    unit = tuple(ONE if k < 3 else ZERO for k in range(dim))

    trace_form = []
    cross_table = []
    dot_table = []
    for i in range(dim):
        tf_row = []
        cr_row = []
        dot_row = []
        for j in range(dim):
            s = h.sym(mats[i], mats[j])  # ab + ba
            t_ij = HALF * h.mat_trace(s)
            tf_row.append(t_ij)
            dot_row.append(_sparse(h.from_matrix(_scale_mat(s, HALF))))
            # 2 (a x b) = s - tr(a) b - tr(b) a + (tr(a) tr(b) - t(a,b)) I3
            coef = traces[i] * traces[j] - t_ij
            cm = [
                [
                    tuple(
                        se
                        - traces[i] * be
                        - traces[j] * ae
                        + (coef * ue if k == l else ZERO)
                        for se, be, ae, ue in zip(
                            s[k][l],
                            mats[j][k][l],
                            mats[i][k][l],
                            algebra.unit,
                        )
                    )
                    for l in range(3)
                ]
                for k in range(3)
            ]
            cr_row.append(_sparse(h.from_matrix(_scale_mat(cm, HALF))))
        trace_form.append(tuple(tf_row))
        cross_table.append(tuple(cr_row))
        dot_table.append(tuple(dot_row))

    return CubicJordan(
        "hermitian",
        algebra,
        dim,
        unit,
        tuple(trace_form),
        tuple(cross_table),
        tuple(dot_table),
        traces,
    )


def _sparse(coords) -> dict:
    return {k: x for k, x in enumerate(coords) if x}


def _scale_mat(m, c):
    return [[tuple(c * x for x in m[i][j]) for j in range(3)] for i in range(3)]
