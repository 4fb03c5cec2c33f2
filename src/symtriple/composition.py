"""The four split complex composition algebras.

Fixed basis orders (these pin the coordinates used in structure-constant
files and everywhere downstream):

* ``unarion``   (dim 1): ``[1]``.
* ``binarion``  (dim 2): ``[(1,0), (0,1)]``, componentwise product,
  conjugation swaps the two idempotents.
* ``quaternion`` (dim 4): matrix units ``[E11, E12, E21, E22]`` of the 2x2
  matrix algebra, conjugation is the adjugate, norm is the determinant.
* ``octonion``  (dim 8): vector matrices ``[p, q, u1, u2, u3, v1, v2, v3]``
  where ``p = (1,0;0,0)``, ``q = (0,0;0,1)``, ``u_i`` carries the standard
  3-vector ``e_i`` in the upper-right slot and ``v_i`` in the lower-left.
  The product of ``(a,v;w,b)`` and ``(a',v';w',b')`` is

      (aa' + v.w',  av' + b'v + w x w';  a'w + bw' - v x v',  bb' + w.v')

  i.e. plus-cross in the upper-right block, minus-cross in the lower-left;
  the norm is ``ab - v.w``.

The models are evaluated on integer coordinates.  ``mul`` holds e_i e_j as
Gaussian-integer numerators ``{(i, j): {k: (re, im)}}`` over ``mul_den``,
the format of every structure-constant table (``linalg``); conjugation
and the bilinear norm are ``Matrix``.  In every kind the unit is a 0/1
vector, and the trace is t(x) = 2 n(x, 1).
"""

from __future__ import annotations

from .errors import DimensionError, ValidationError
from .linalg import Matrix, canonical, table_product, vec
from .scalars import GaussianRational, ONE, ZERO

__all__ = ["CompositionAlgebra", "build_composition", "unit_multiple", "KINDS"]

KINDS = ("unarion", "binarion", "quaternion", "octonion")


class CompositionAlgebra:
    """Structure constants of one split composition algebra over Q(i)."""

    __slots__ = ("kind", "dim", "unit", "mul", "mul_den", "conj", "norm_gram")

    def __init__(self, kind, dim, unit, mul, mul_den, conj, norm_gram):
        self.kind = kind
        self.dim = dim
        self.unit = unit
        self.mul = mul  # mul[(i, j)] = e_i e_j as numerators {k: (re, im)} over mul_den
        self.mul_den = mul_den
        self.conj = conj  # Matrix whose column i is conj(e_i)
        self.norm_gram = norm_gram  # Matrix of the bilinear N with N(x, x) = n(x)

    def _check(self, x):
        if len(x) != self.dim:
            raise DimensionError(f"element length {len(x)} != dim {self.dim}")

    def multiply(self, x, y):
        self._check(x)
        self._check(y)
        return table_product(self.mul, self.mul_den, x, y)

    def conjugate(self, x):
        self._check(x)
        return self.conj.apply(x)

    def trace(self, x) -> GaussianRational:
        """t(x) with x + conj(x) = t(x) * unit, which is 2 n(x, 1)."""
        t = self.norm_b(x, self.unit)
        return t + t

    def norm_b(self, x, y) -> GaussianRational:
        """Symmetric bilinear norm form; norm_b(x, x) is the quadratic norm."""
        self._check(x)
        self._check(y)
        return self.norm_gram.bilinear(x, y)

    def norm(self, x) -> GaussianRational:
        return self.norm_b(x, x)

    def basis_element(self, i):
        return tuple(ONE if k == i else ZERO for k in range(self.dim))

    def associator(self, x, y, z):
        xy_z = self.multiply(self.multiply(x, y), z)
        x_yz = self.multiply(x, self.multiply(y, z))
        return tuple(a - b for a, b in zip(xy_z, x_yz))

    def __repr__(self):
        return f"CompositionAlgebra({self.kind}, dim={self.dim})"


def _dot3(v, w):
    return v[0] * w[0] + v[1] * w[1] + v[2] * w[2]


def _cross3(v, w):
    return (
        v[1] * w[2] - v[2] * w[1],
        v[2] * w[0] - v[0] * w[2],
        v[0] * w[1] - v[1] * w[0],
    )


def _zorn_mul(x, y):
    # coordinates are (a, b, v0, v1, v2, w0, w1, w2) for the element (a, v; w, b)
    a1, b1 = x[0], x[1]
    v1, w1 = x[2:5], x[5:8]
    a2, b2 = y[0], y[1]
    v2, w2 = y[2:5], y[5:8]
    cu = _cross3(w1, w2)
    cl = _cross3(v1, v2)
    a = a1 * a2 + _dot3(v1, w2)
    b = b1 * b2 + _dot3(w1, v2)
    v = tuple(a1 * p + b2 * q + r for p, q, r in zip(v2, v1, cu))
    w = tuple(a2 * p + b1 * q - r for p, q, r in zip(w1, w2, cl))
    return (a, b) + v + w


def _zorn_norm(x):
    return x[0] * x[1] - _dot3(x[2:5], x[5:8])


def build_composition(kind: str) -> CompositionAlgebra:
    """Structure constants for the standard model of each kind, computed
    on integer coordinates."""
    if kind == "unarion":
        unit = (1,)
        mul_fn = lambda x, y: (x[0] * y[0],)
        conj_fn = lambda x: x
        norm_fn = lambda x: x[0] * x[0]
    elif kind == "binarion":
        unit = (1, 1)
        mul_fn = lambda x, y: (x[0] * y[0], x[1] * y[1])
        conj_fn = lambda x: (x[1], x[0])
        norm_fn = lambda x: x[0] * x[1]
    elif kind == "quaternion":
        unit = (1, 0, 0, 1)

        def mul_fn(x, y):  # matrix product in coordinates (E11, E12, E21, E22)
            return (
                x[0] * y[0] + x[1] * y[2],
                x[0] * y[1] + x[1] * y[3],
                x[2] * y[0] + x[3] * y[2],
                x[2] * y[1] + x[3] * y[3],
            )

        conj_fn = lambda x: (x[3], -x[1], -x[2], x[0])  # adjugate
        norm_fn = lambda x: x[0] * x[3] - x[1] * x[2]  # determinant
    elif kind == "octonion":
        unit = (1, 1, 0, 0, 0, 0, 0, 0)
        mul_fn = _zorn_mul
        conj_fn = lambda x: (x[1], x[0]) + tuple(-c for c in x[2:8])
        norm_fn = _zorn_norm
    else:
        raise ValueError(f"unknown composition algebra kind {kind!r}")

    dim = len(unit)
    basis = [tuple(int(k == i) for k in range(dim)) for i in range(dim)]
    mul, mul_den = canonical({
        (i, j): {k: (v, 0) for k, v in enumerate(mul_fn(basis[i], basis[j]))}
        for i in range(dim) for j in range(dim)
    }, 1)
    conj = Matrix.from_rows([conj_fn(b) for b in basis]).transpose()
    # N(e_i, e_j) = (n(e_i + e_j) - n(e_i) - n(e_j)) / 2
    gram = Matrix.from_numerators(dim, dim, {
        i: {j: (norm_fn(tuple(a + b for a, b in zip(basis[i], basis[j])))
                - norm_fn(basis[i]) - norm_fn(basis[j]), 0) for j in range(dim)}
        for i in range(dim)
    }, 2)
    return CompositionAlgebra(kind, dim, vec(unit), mul, mul_den, conj, gram)


def unit_multiple(x, unit) -> GaussianRational:
    """Scalar c with x = c * unit; raises if x is not such a multiple."""
    c = None
    for xi, ui in zip(x, unit):
        if ui:
            c = xi / ui
            break
    if c is None or any(xi != c * ui for xi, ui in zip(x, unit)):
        raise ValidationError("element is not a multiple of the unit")
    return c
