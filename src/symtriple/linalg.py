"""Exact dense-semantics linear algebra over the Gaussian rationals.

Matrices store only nonzero entries (row-major dicts) but behave as dense
exact matrices.  Elimination works on one vector type, the sparse vector
``{index: nonzero GaussianRational}`` of a ``Matrix.data`` row, and on one
routine, ``Subspace.insert``: a canonical reduced-row-echelon basis, with
pivots normalized to 1 and eliminated from every other row, so two equal
subspaces always carry identical rows.  Rank, kernel, inverse and center
are all computed by it.
"""

from __future__ import annotations

from math import isqrt
from typing import Iterable, Sequence

from .errors import DimensionError, ValidationError
from .scalars import GaussianRational, ONE, ZERO, qi

__all__ = [
    "Matrix",
    "Subspace",
    "comm_minus",
    "combination",
    "rank",
    "kernel",
    "inverse",
    "bracket_closure",
    "center_of",
    "vec",
]

Vector = tuple


def vec(values: Iterable) -> Vector:
    return tuple(qi(v) for v in values)


class Matrix:
    """Exact rows x cols matrix; equality is entrywise."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: dict | None = None):
        self.rows = rows
        self.cols = cols
        # data: {row_index: {col_index: nonzero GaussianRational}}
        self.data = data if data is not None else {}

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(rows: int, cols: int) -> "Matrix":
        return Matrix(rows, cols)

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(n, n, {i: {i: ONE} for i in range(n)})

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "Matrix":
        nr = len(rows)
        nc = len(rows[0]) if nr else 0
        data: dict = {}
        for i, row in enumerate(rows):
            if len(row) != nc:
                raise DimensionError("ragged rows")
            r = {}
            for j, x in enumerate(row):
                x = qi(x)
                if x:
                    r[j] = x
            if r:
                data[i] = r
        return Matrix(nr, nc, data)

    @staticmethod
    def from_flat(v: dict, rows: int, cols: int) -> "Matrix":
        """The matrix whose row-major flattening is the sparse vector ``v``."""
        if v and (min(v) < 0 or max(v) >= rows * cols):
            raise DimensionError(f"flat index outside {rows}x{cols}")
        data: dict = {}
        for p, x in v.items():
            i, j = divmod(p, cols)
            data.setdefault(i, {})[j] = x
        return Matrix(rows, cols, data)

    # -- access -----------------------------------------------------------

    def __getitem__(self, key) -> GaussianRational:
        i, j = key
        return self.data.get(i, _EMPTY).get(j, ZERO)

    def set_entry(self, i: int, j: int, x) -> None:
        x = qi(x)
        row = self.data.get(i)
        if x:
            if row is None:
                self.data[i] = {j: x}
            else:
                row[j] = x
        elif row is not None:
            row.pop(j, None)
            if not row:
                del self.data[i]

    def entries(self):
        for i, row in self.data.items():
            for j, x in row.items():
                yield i, j, x

    def to_lists(self) -> list:
        return [[self[i, j] for j in range(self.cols)] for i in range(self.rows)]

    def is_zero(self) -> bool:
        return not self.data

    def nnz(self) -> int:
        return sum(len(r) for r in self.data.values())

    # -- algebra ------------------------------------------------------------

    def _check_same_shape(self, other: "Matrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionError("matrix shape mismatch")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        data = {i: dict(r) for i, r in self.data.items()}
        for i, row in other.data.items():
            tr = data.setdefault(i, {})
            for j, x in row.items():
                s = tr.get(j, ZERO) + x
                if s:
                    tr[j] = s
                else:
                    tr.pop(j, None)
            if not tr:
                del data[i]
        return Matrix(self.rows, self.cols, data)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __neg__(self) -> "Matrix":
        return Matrix(
            self.rows,
            self.cols,
            {i: {j: -x for j, x in r.items()} for i, r in self.data.items()},
        )

    def scale(self, c) -> "Matrix":
        c = qi(c)
        if not c:
            return Matrix(self.rows, self.cols)
        return Matrix(
            self.rows,
            self.cols,
            {i: {j: c * x for j, x in r.items()} for i, r in self.data.items()},
        )

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionError("matmul shape mismatch")
        acc: dict = {}
        _add_product(acc, self, other, False)
        return _collect(self.rows, other.cols, acc)

    def apply(self, v: Vector) -> Vector:
        if len(v) != self.cols:
            raise DimensionError("matrix-vector length mismatch")
        out = [ZERO] * self.rows
        for i, row in self.data.items():
            acc = ZERO
            for j, x in row.items():
                vj = v[j]
                if vj:
                    acc = acc + x * vj
            out[i] = acc
        return tuple(out)

    def transpose(self) -> "Matrix":
        data: dict = {}
        for i, row in self.data.items():
            for j, x in row.items():
                data.setdefault(j, {})[i] = x
        return Matrix(self.cols, self.rows, data)

    def trace(self) -> GaussianRational:
        t = ZERO
        for i, row in self.data.items():
            x = row.get(i)
            if x is not None:
                t = t + x
        return t

    def flatten(self) -> dict:
        """Row-major flattening as a sparse vector."""
        nc = self.cols
        return {
            i * nc + j: x for i, row in self.data.items() for j, x in row.items()
        }

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash(
            (self.rows, self.cols, tuple(sorted((i, j, x) for i, j, x in self.entries())))
        )

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, nnz={self.nnz()})"


_EMPTY: dict = {}


def comm(a: Matrix, b: Matrix) -> Matrix:
    """Commutator [a, b] = ab - ba."""
    return comm_minus(a, b, ())


def comm_minus(a: Matrix, b: Matrix, terms: Iterable) -> Matrix:
    """[a, b] - sum c M over the pairs (c, M) in ``terms``.

    Every derivation and curvature identity of the package has this form.
    Both products and every term are summed into one sparse accumulator,
    so no intermediate matrix is built.
    """
    n = a.rows
    if not (a.cols == b.rows == b.cols == n):
        raise DimensionError("comm_minus needs square matrices of one size")
    acc: dict = {}
    _add_product(acc, a, b, False)
    _add_product(acc, b, a, True)
    _add_terms(acc, n, ((-qi(c), m) for c, m in terms))
    return _collect(n, n, acc)


def combination(terms: Iterable, n: int) -> Matrix:
    """sum c M over the pairs (c, M) of n x n matrices in ``terms``."""
    acc: dict = {}
    _add_terms(acc, n, terms)
    return _collect(n, n, acc)


def _accumulate(acc: dict, i: int, c: GaussianRational, row: dict) -> None:
    """In place, row i of ``acc`` += c * row, keeping entries that cancel."""
    out = acc.get(i)
    if out is None:
        acc[i] = {j: c * y for j, y in row.items()}
        return
    for j, y in row.items():
        z = out.get(j)
        out[j] = c * y if z is None else z + c * y


def _add_product(acc: dict, a: Matrix, b: Matrix, subtract: bool) -> None:
    """In place, acc += ab, or acc -= ab when ``subtract`` is set."""
    bdata = b.data
    for i, row in a.data.items():
        for k, x in row.items():
            brow = bdata.get(k)
            if brow is not None:
                _accumulate(acc, i, -x if subtract else x, brow)


def _add_terms(acc: dict, n: int, terms) -> None:
    """In place, acc += c M for each pair (c, M) of n x n ``terms``."""
    for c, m in terms:
        if m.rows != n or m.cols != n:
            raise DimensionError(f"term of shape {m.rows}x{m.cols}, expected {n}x{n}")
        c = qi(c)
        if c:
            for i, row in m.data.items():
                _accumulate(acc, i, c, row)


def _collect(rows: int, cols: int, acc: dict) -> Matrix:
    """The matrix of an accumulator, without the entries that cancelled."""
    data = {}
    for i, row in acc.items():
        row = {j: x for j, x in row.items() if x}
        if row:
            data[i] = row
    return Matrix(rows, cols, data)


def trace_product(a: Matrix, b: Matrix) -> GaussianRational:
    """trace(a @ b) without forming the product."""
    if a.cols != b.rows or b.cols != a.rows:
        raise DimensionError("trace_product shape mismatch")
    t = ZERO
    bdata = b.data
    for i, row in a.data.items():
        for j, x in row.items():
            y = bdata.get(j, _EMPTY).get(i)
            if y is not None:
                t = t + x * y
    return t


# ---------------------------------------------------------------------------
# Echelon bases
# ---------------------------------------------------------------------------


def _add_scaled(w: dict, c: GaussianRational, v: dict) -> None:
    """In place, w += c * v on sparse vectors, dropping entries that cancel."""
    for k, x in v.items():
        y = w.get(k)
        if y is None:
            w[k] = c * x
        else:
            y = y + c * x
            if y:
                w[k] = y
            else:
                del w[k]


def _sparse(v, ambient: int) -> dict:
    """A fresh sparse copy of ``v``, given sparse or as a dense sequence of
    length ``ambient``, with entries in Q(i) and zeros dropped."""
    if isinstance(v, dict):
        if v and (min(v) < 0 or max(v) >= ambient):
            raise DimensionError(f"vector index outside ambient {ambient}")
        items = v.items()
    else:
        if len(v) != ambient:
            raise DimensionError(f"vector length {len(v)} != ambient {ambient}")
        items = enumerate(v)
    w = {}
    for k, x in items:
        if type(x) is not GaussianRational:
            x = qi(x)
        if x:
            w[k] = x
    return w


class Subspace:
    """A linear subspace held as a canonical reduced-row-echelon basis.

    ``basis`` maps each pivot to its row, in increasing pivot order.  A row
    is a sparse vector ``{index: nonzero GaussianRational}`` whose least
    index is its pivot, with value 1, and which is zero at every other
    pivot; so two equal subspaces always carry identical bases.  Vectors
    may be passed sparse or as dense sequences of length ``ambient``.
    """

    __slots__ = ("ambient", "basis")

    def __init__(self, ambient: int, basis: dict | None = None):
        self.ambient = ambient
        self.basis = basis if basis is not None else {}

    @staticmethod
    def zero_space(ambient: int) -> "Subspace":
        return Subspace(ambient)

    @staticmethod
    def span(vectors: Iterable, ambient: int | None = None) -> "Subspace":
        vectors = list(vectors)
        if ambient is None:
            if not vectors or isinstance(vectors[0], dict):
                raise DimensionError("ambient dimension required for this span")
            ambient = len(vectors[0])
        s = Subspace(ambient)
        for v in vectors:
            s, _ = s.insert(v)
        return s

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def pivots(self) -> tuple:
        return tuple(self.basis)

    @property
    def rows(self) -> tuple:
        return tuple(self.basis.values())

    def _reduce(self, w: dict) -> None:
        """In place, eliminate every pivot coordinate from ``w``.  One pass
        over the pivots present in ``w`` suffices, since each row is zero
        at every other pivot."""
        basis = self.basis
        for p in [k for k in w if k in basis]:
            _add_scaled(w, -w[p], basis[p])

    def insert(self, v) -> tuple["Subspace", bool]:
        """Echelonized span of this basis plus ``v``; flag reports growth."""
        w = _sparse(v, self.ambient)
        self._reduce(w)
        if not w:
            return self, False
        p = min(w)
        c = w[p]
        if c != ONE:
            inv = c.inverse()
            w = {k: inv * x for k, x in w.items()}
        # Eliminate the new pivot from the other rows, keeping pivot order.
        basis = {}
        for q, r in self.basis.items():
            if p < q and p not in basis:
                basis[p] = w
            c = r.get(p)
            if c is not None:
                r = dict(r)
                _add_scaled(r, -c, w)
            basis[q] = r
        basis.setdefault(p, w)
        return Subspace(self.ambient, basis), True

    def contains(self, v) -> bool:
        w = _sparse(v, self.ambient)
        self._reduce(w)
        return not w

    def coords_of(self, v) -> tuple | None:
        """Coordinates of ``v`` in this basis, or None if outside the span."""
        w = _sparse(v, self.ambient)
        coords = tuple(w.get(p, ZERO) for p in self.basis)
        self._reduce(w)
        if w:
            return None
        return coords

    def sum(self, other: "Subspace") -> "Subspace":
        if self.ambient != other.ambient:
            raise DimensionError("ambient mismatch")
        s = self
        for r in other.basis.values():
            s, _ = s.insert(r)
        return s

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient == other.ambient and self.basis == other.basis

    def __hash__(self):
        return hash((self.ambient, self.pivots))

    def __repr__(self):
        return f"Subspace(ambient={self.ambient}, dim={self.dim})"


def _augmented(vectors: Sequence[dict], offset: int) -> Subspace:
    """Echelon basis of [V | I]: the rows v_s + e_{offset+s}, for sparse
    vectors v_s indexed below ``offset``."""
    s = Subspace(offset + len(vectors))
    for i, v in enumerate(vectors):
        s, _ = s.insert({**v, offset + i: ONE})
    return s


def _null_space(vectors: Sequence[dict], offset: int) -> Subspace:
    """All coefficient rows c with sum c_s v_s = 0: the rows of the echelon
    form of [V | I] whose pivots lie in the identity block."""
    s = _augmented(vectors, offset)
    return Subspace(len(vectors), {
        p - offset: {k - offset: x for k, x in r.items()}
        for p, r in s.basis.items()
        if p >= offset
    })


# ---------------------------------------------------------------------------
# Rank / kernel / inverse
# ---------------------------------------------------------------------------


def rank(m: Matrix) -> int:
    """Row rank over Q(i), exact."""
    return Subspace.span(m.data.values(), ambient=m.cols).dim


def kernel(m: Matrix) -> Subspace:
    """Subspace of all v with m @ v = 0."""
    cols = m.transpose().data
    return _null_space([cols.get(j, _EMPTY) for j in range(m.cols)], m.rows)


def inverse(m: Matrix) -> Matrix:
    """m^-1, read off the echelon form [I | m^-1] of [m | I]."""
    if m.rows != m.cols:
        raise DimensionError("only square matrices invert")
    d = m.rows
    s = _augmented([m.data.get(i, _EMPTY) for i in range(d)], d)
    if any(p >= d for p in s.basis):
        raise ValidationError("matrix is singular")
    return Matrix(d, d, {
        p: {k - d: x for k, x in r.items() if k >= d} for p, r in s.basis.items()
    })


# ---------------------------------------------------------------------------
# Lie-closure machinery
# ---------------------------------------------------------------------------


def bracket_closure(
    gens: Sequence[Matrix],
    multipliers: Sequence[Matrix] = (),
    stop_dim: int | None = None,
) -> Subspace:
    """Smallest subspace containing ``gens``, closed under mutual commutators
    and under commutators with each multiplier, by worklist iteration.

    ``stop_dim`` may be set when the caller knows a Lie algebra of that
    dimension which contains every generator and multiplier bracket; reaching
    it proves the closure equals that algebra, so iteration can stop early.
    """
    sizes = {m.rows for m in gens} | {m.cols for m in gens}
    sizes |= {m.rows for m in multipliers} | {m.cols for m in multipliers}
    if len(sizes) > 1:
        raise DimensionError("bracket_closure inputs must share one square size")
    if not gens:
        return Subspace(0)
    d = gens[0].rows
    space = Subspace(d * d)
    pool: list[Matrix] = []  # inserted matrices spanning the space
    work: list[Matrix] = []

    def push(mat: Matrix) -> bool:
        nonlocal space
        space, grew = space.insert(mat.flatten())
        if grew:
            pool.append(mat)
            work.append(mat)
        return grew

    for g in gens:
        push(g)
        if stop_dim is not None and space.dim >= stop_dim:
            return space
    while work:
        x = work.pop()
        for mu in multipliers:
            push(comm(mu, x))
            if stop_dim is not None and space.dim >= stop_dim:
                return space
        # pool grows during iteration; new entries are queued themselves,
        # so bracketing against the pool snapshot at pop time suffices.
        for y in pool:
            push(comm(x, y))
            if stop_dim is not None and space.dim >= stop_dim:
                return space
    return space


def matrices_of(space: Subspace) -> list[Matrix]:
    """Reinterpret the rows of a subspace of flattened d x d matrices."""
    d = isqrt(space.ambient)
    if d * d != space.ambient:
        raise DimensionError("ambient dimension is not a perfect square")
    return [Matrix.from_flat(r, d, d) for r in space.rows]


def center_of(space: Subspace) -> Subspace:
    """{x in space : [x, y] = 0 for every y in the space}.

    Computed by intersecting, one basis constraint at a time, the kernels of
    c -> [sum c_i X_i, B_j] over the current candidates X_i; the candidate
    space shrinks quickly, which keeps large inputs tractable.
    """
    mats = matrices_of(space)
    if not mats:
        return space
    d = mats[0].rows
    cand = list(space.rows)  # flattened candidate matrices
    for bj in mats:
        if not cand:
            break
        images = [comm(Matrix.from_flat(x, d, d), bj).flatten() for x in cand]
        if not any(images):
            continue
        new_cand = []
        for lam in _null_space(images, d * d).basis.values():
            x: dict = {}
            for s, c in lam.items():
                _add_scaled(x, c, cand[s])
            new_cand.append(x)
        cand = new_cand
    return Subspace.span(cand, ambient=space.ambient)
