"""Exact dense-semantics linear algebra over the Gaussian rationals.

Matrices store only nonzero entries (row-major dicts) but behave as dense
exact matrices.  Every structure-constant table of the package, from the
composition algebras to g(T), works on one vector type, the sparse vector
``{index: nonzero GaussianRational}`` of a ``Matrix.data`` row, and
elimination takes and gives such vectors: ``add_scaled`` is its one in-place
axpy and ``table_product`` evaluates a table of such vectors on dense
elements.  Elimination has one routine,
``Subspace.insert``, which extends a canonical reduced-row-echelon basis in
place: pivots are normalized to 1 and eliminated from every other row, so two
equal subspaces always carry identical rows.  Rank, kernel, inverse, closure
and center are all computed by it.  Inside ``Subspace`` a row is Gaussian-
integer numerators over one shared denominator, eliminated fraction-free on
plain ints with one gcd per normalized row, and a column index finds the rows
a new pivot must be cleared from; ``GaussianRational`` values are built only
where rows leave it.

Every accumulator here, from ``add_scaled`` and the matrix products to
``apply``, ``bilinear``, ``dot`` and ``trace_product``, sums y + c*x through
the fused ``GaussianRational.add_mul``.
"""

from __future__ import annotations

from itertools import chain
from math import gcd, isqrt
from typing import Iterable, Sequence

from .errors import DimensionError, ValidationError
from .scalars import GaussianRational, ONE, ZERO, qi

__all__ = [
    "Matrix",
    "Subspace",
    "add_scaled",
    "table_product",
    "comm_minus",
    "combination",
    "dot",
    "rank",
    "kernel",
    "inverse",
    "bracket_closure",
    "close_under",
    "lie_generators",
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
            r = data.setdefault(i, {})
            add_scaled(r, ONE, row)
            if not r:
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
                    acc = acc.add_mul(x, vj)
            out[i] = acc
        return tuple(out)

    def bilinear(self, x: Vector, y: Vector) -> GaussianRational:
        """x^T M y for dense vectors x and y."""
        if len(x) != self.rows or len(y) != self.cols:
            raise DimensionError("bilinear form argument length mismatch")
        acc = ZERO
        for i, row in self.data.items():
            xi = x[i]
            if xi:
                for j, v in row.items():
                    yj = y[j]
                    if yj:
                        acc = acc.add_mul(xi * v, yj)
        return acc

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
        out[j] = c * y if z is None else z.add_mul(c, y)


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
                t = t.add_mul(x, y)
    return t


def dot(x: Vector, y: Vector) -> GaussianRational:
    """sum x_i y_i for dense vectors of one length."""
    if len(x) != len(y):
        raise DimensionError("dot product length mismatch")
    t = ZERO
    for xi, yi in zip(x, y):
        if xi and yi:
            t = t.add_mul(xi, yi)
    return t


# ---------------------------------------------------------------------------
# Sparse vectors and structure-constant tables
# ---------------------------------------------------------------------------


def add_scaled(w: dict, c: GaussianRational, v: dict) -> None:
    """In place, w += c * v on sparse vectors, dropping entries that cancel.

    ``c`` must be nonzero: an index new to ``w`` takes c * v[k] unchecked.
    """
    for k, x in v.items():
        y = w.get(k)
        if y is None:
            w[k] = c * x
        else:
            y = y.add_mul(c, x)
            if y:
                w[k] = y
            else:
                del w[k]


def table_product(table, x: Vector, y: Vector) -> Vector:
    """sum x_i y_j table[i][j] for dense x and y, where ``table[i][j]`` is
    the sparse vector of the product of basis elements e_i and e_j in an
    algebra of dimension ``len(table)``."""
    out = [ZERO] * len(table)
    for i, xi in enumerate(x):
        if xi:
            row = table[i]
            for j, yj in enumerate(y):
                if yj:
                    c = xi * yj
                    for k, v in row[j].items():
                        out[k] = out[k].add_mul(c, v)
    return tuple(out)


# ---------------------------------------------------------------------------
# Echelon bases
# ---------------------------------------------------------------------------


def _numerators(v, ambient: int) -> tuple[dict, int]:
    """The Gaussian-integer numerators ``{index: (re, im)}`` of the nonzero
    entries of ``v`` over their least common denominator L, and L.  ``v``
    is sparse or a dense sequence of length ``ambient``, with entries in
    Q(i)."""
    if isinstance(v, dict):
        if v and (min(v) < 0 or max(v) >= ambient):
            raise DimensionError(f"vector index outside ambient {ambient}")
        items = v.items()
    else:
        if len(v) != ambient:
            raise DimensionError(f"vector length {len(v)} != ambient {ambient}")
        items = enumerate(v)
    w = {}
    den = 1
    for k, x in items:
        if type(x) is not GaussianRational:
            x = qi(x)
        if x.a or x.b:
            w[k] = x
            d = x.d
            if d != 1 and den % d:
                den = den // gcd(den, d) * d
    if den == 1:
        return {k: (x.a, x.b) for k, x in w.items()}, 1
    return {k: (x.a * (den // x.d), x.b * (den // x.d)) for k, x in w.items()}, den


def _sub_multiple(w: dict, a: int, b: int, tail: dict, cols: dict | None = None,
                  r: int = 0) -> None:
    """In place, w -= (a + bi) * tail on Gaussian-integer rows, dropping the
    entries that cancel.  With ``cols``, w is the tail of the row of pivot r
    and the column index ``cols`` follows each column w gains or loses."""
    get = w.get
    for k, (x, y) in tail.items():
        if b:
            pr, pi = a * x - b * y, a * y + b * x
        else:
            pr, pi = a * x, a * y
        z = get(k)
        if z is None:
            w[k] = (-pr, -pi)
            if cols is not None:
                cols[k].add(r)
        else:
            zr, zi = z
            zr -= pr
            zi -= pi
            if zr or zi:
                w[k] = (zr, zi)
            else:
                del w[k]
                if cols is not None:
                    cols[k].remove(r)


def _lowest_terms(den: int, tail: dict) -> int:
    """Divide ``den`` and the numerators of ``tail`` (in place) by their gcd,
    one C-level ``math.gcd`` over the row; return the new denominator."""
    if den != 1:
        g = gcd(den, *chain.from_iterable(tail.values()))
        if g != 1:
            for k, (x, y) in tail.items():
                tail[k] = (x // g, y // g)
            return den // g
    return den


def _row_vector(p: int, den: int, tail: dict) -> dict:
    """The canonical row of pivot p as a sparse vector of GaussianRational."""
    row = {p: ONE}
    for k, (x, y) in tail.items():
        row[k] = GaussianRational(x, y, den)
    return row


class Subspace:
    """A linear subspace held as a canonical reduced-row-echelon basis,
    which ``insert`` extends in place.

    The canonical row of pivot p is 1 at p, zero at every other pivot and
    zero below p, so two equal subspaces always carry identical rows.  It is
    stored on plain ints as a pair ``(D, tail)``: ``tail`` maps each other
    index where the row is nonzero to the Gaussian-integer numerator
    ``(re, im)`` of its entry over the one positive denominator D, which is
    also the numerator of the pivot, and D and all numerators have gcd 1.
    The pair is as unique as the row.  A column index maps each non-pivot
    column to the pivots of the rows that hold it, so a new pivot is
    eliminated from exactly those rows.

    ``pivots``, ``rows`` and ``coords_of`` read the rows in increasing
    pivot order; ``rows`` gives each as a sparse vector ``{index: nonzero
    GaussianRational}``.  Rows enter only through ``insert``.  Vectors may
    be passed sparse or as dense sequences of length ``ambient``.
    """

    __slots__ = ("ambient", "_rows", "_cols")

    def __init__(self, ambient: int):
        self.ambient = ambient
        self._rows: dict = {}  # pivot -> (D, tail), in insertion order
        self._cols: dict = {}  # non-pivot column -> pivots whose tail holds it

    @staticmethod
    def span(vectors: Iterable, ambient: int | None = None) -> "Subspace":
        vectors = list(vectors)
        if ambient is None:
            if not vectors or isinstance(vectors[0], dict):
                raise DimensionError("ambient dimension required for this span")
            ambient = len(vectors[0])
        s = Subspace(ambient)
        for v in vectors:
            s.insert(v)
        return s

    @property
    def dim(self) -> int:
        return len(self._rows)

    @property
    def pivots(self) -> tuple:
        return tuple(sorted(self._rows))

    @property
    def rows(self) -> tuple:
        rows = self._rows
        return tuple(_row_vector(p, *rows[p]) for p in self.pivots)

    def _reduce(self, w: dict) -> None:
        """In place, eliminate every pivot coordinate from the Gaussian-
        integer vector ``w``, up to a nonzero integer factor.  Each row is
        zero at every other pivot, so the coefficient of the row of pivot p
        is w's own entry w_p: w becomes L w - sum_p (L w_p / D_p) tail_p,
        with the least L that makes every coefficient integral."""
        rows = self._rows
        hits = [p for p in w if p in rows]
        scale = 1
        for p in hits:
            den = rows[p][0]
            if den != 1:
                den //= gcd(den, *w[p])
                if scale % den:
                    scale = scale // gcd(scale, den) * den
        if scale != 1:
            for k, (x, y) in w.items():
                w[k] = (x * scale, y * scale)
        for p in hits:
            den, tail = rows[p]
            a, b = w.pop(p)
            _sub_multiple(w, a // den, b // den, tail)

    def insert(self, v) -> tuple["Subspace", bool]:
        """In place, extend the basis to span ``v`` too; the flag reports
        growth.  The pair ``(self, grew)`` is what the benchmark's tracer
        reads (``perfbench/tracing.py`` counts growth from item 1)."""
        w, _ = _numerators(v, self.ambient)
        self._reduce(w)
        if not w:
            return self, False
        q = min(w)
        a, b = w.pop(q)
        if b:  # times the conjugate, the pivot a^2 + b^2 is real
            w = {k: (x * a + y * b, y * a - x * b) for k, (x, y) in w.items()}
            den = a * a + b * b
        elif a < 0:
            w = {k: (-x, -y) for k, (x, y) in w.items()}
            den = -a
        else:
            den = a
        den = _lowest_terms(den, w)
        rows, cols = self._rows, self._cols
        for k in w:
            cols.setdefault(k, set()).add(q)
        # back-eliminate q: row r becomes (D/g) row_r - (c/g) w, c its entry at q
        for r in cols.pop(q, ()):
            rden, tail = rows[r]
            a, b = tail.pop(q)
            g = gcd(den, a, b)
            s = den // g
            if s != 1:
                for k, (x, y) in tail.items():
                    tail[k] = (x * s, y * s)
            _sub_multiple(tail, a // g, b // g, w, cols, r)
            rows[r] = (_lowest_terms(rden * s, tail), tail)
        rows[q] = (den, w)
        return self, True

    def contains(self, v) -> bool:
        w, _ = _numerators(v, self.ambient)
        self._reduce(w)
        return not w

    def coords_of(self, v) -> tuple | None:
        """Coordinates of ``v`` in this basis, or None if outside the span."""
        w, den = _numerators(v, self.ambient)
        coords = tuple(
            GaussianRational(*w[p], den) if p in w else ZERO for p in self.pivots
        )
        self._reduce(w)
        if w:
            return None
        return coords

    def sum(self, other: "Subspace") -> "Subspace":
        if self.ambient != other.ambient:
            raise DimensionError("ambient mismatch")
        return Subspace.span([*self.rows, *other.rows], self.ambient)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient == other.ambient and self._rows == other._rows

    def __hash__(self):
        return hash((self.ambient, self.pivots))

    def __repr__(self):
        return f"Subspace(ambient={self.ambient}, dim={self.dim})"


def _augmented(vectors: Sequence[dict], offset: int) -> Subspace:
    """Echelon basis of [V | I]: the rows v_s + e_{offset+s}, for sparse
    vectors v_s indexed below ``offset``."""
    s = Subspace(offset + len(vectors))
    for i, v in enumerate(vectors):
        s.insert({**v, offset + i: ONE})
    return s


def _null_space(vectors: Sequence[dict], offset: int) -> Subspace:
    """All coefficient rows c with sum c_s v_s = 0: the rows of the echelon
    form of [V | I] whose pivots lie in the identity block, shifted onto it."""
    null = Subspace(len(vectors))
    rows, cols = null._rows, null._cols
    for p, (den, tail) in _augmented(vectors, offset)._rows.items():
        if p >= offset:
            tail = {k - offset: x for k, x in tail.items()}
            rows[p - offset] = (den, tail)
            for k in tail:
                cols.setdefault(k, set()).add(p - offset)
    return null


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
    if any(p >= d for p in s._rows):
        raise ValidationError("matrix is singular")
    # every column below d is a pivot, so each tail lies in the identity block
    return Matrix(d, d, {
        p: {k - d: GaussianRational(x, y, den) for k, (x, y) in tail.items()}
        for p, (den, tail) in sorted(s._rows.items())
    })


# ---------------------------------------------------------------------------
# Lie-closure machinery
# ---------------------------------------------------------------------------


def close_under(space: Subspace, vectors: Iterable, images,
                stop_dim: int | None = None) -> Subspace:
    """Extend ``space`` in place by ``vectors`` until it contains
    ``images(x)``, an iterable of vectors linear in x, for each x in it: the
    closure of a span under a set of linear maps.  Each vector that grows
    the space is queued, and the last queued is taken first.  ``stop_dim``
    may be set when the caller knows a subspace of that dimension which
    contains the result; reaching it proves the two equal.
    """
    work: list = []
    pending = iter(vectors)
    while True:
        for y in pending:
            if space.insert(y)[1]:
                work.append(y)
            if stop_dim is not None and space.dim >= stop_dim:
                return space
        if not work:
            return space
        pending = images(work.pop())


def lie_generators(candidates: Sequence[dict], act, ambient: int, weights: Sequence) -> list:
    """Indices S of the sparse ``candidates`` such that the closure of
    span{c_s : s in S} under act(c_s, .), s in S, contains every candidate.

    The walk takes candidates in order of (weights[k], k) and puts one in S
    only when it is not yet in the closure of the earlier ones, which it
    then extends.  For a Lie bracket act, that closure is the Lie algebra
    generated by S.
    """
    closure = Subspace(ambient)
    gens: list = []
    for k in sorted(range(len(candidates)), key=lambda k: (weights[k], k)):
        v = candidates[k]
        if not closure.contains(v):
            gens.append(k)
            mus = [candidates[s] for s in gens]
            # the closure so far is already invariant under the earlier gens
            close_under(
                closure, [v, *(act(v, w) for w in closure.rows)],
                lambda x: (act(mu, x) for mu in mus), ambient,
            )
    return gens


def bracket_closure(
    gens: Sequence[Matrix],
    multipliers: Sequence[Matrix],
    stop_dim: int | None = None,
) -> Subspace:
    """Smallest subspace containing ``gens`` and invariant under [mu, .] for
    each multiplier mu, by ``close_under`` on the flattened matrices.

    ``bracket_closure(S, S)`` is the Lie algebra generated by S, since the
    right-normed brackets [s_1, [s_2, ..., [s_k-1, s_k]]] span it.
    ``stop_dim`` is that of ``close_under``.
    """
    sizes = {m.rows for m in gens} | {m.cols for m in gens}
    sizes |= {m.rows for m in multipliers} | {m.cols for m in multipliers}
    if len(sizes) > 1:
        raise DimensionError("bracket_closure inputs must share one square size")
    if not gens:
        return Subspace(0)
    d = gens[0].rows

    def images(x: dict):
        x = Matrix.from_flat(x, d, d)
        return (comm(mu, x).flatten() for mu in multipliers)

    return close_under(Subspace(d * d), [g.flatten() for g in gens], images, stop_dim)


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
        return Subspace(space.ambient)
    d = mats[0].rows
    cand = [m.flatten() for m in mats]  # flattened candidate matrices
    for bj in mats:
        if not cand:
            break
        images = [comm(Matrix.from_flat(x, d, d), bj).flatten() for x in cand]
        if not any(images):
            continue
        # each null-space row is 1 at its pivot p and (re + im i)/D elsewhere
        new_cand = []
        for p, (den, tail) in sorted(_null_space(images, d * d)._rows.items()):
            x = dict(cand[p])
            for s, (re, im) in tail.items():
                add_scaled(x, GaussianRational(re, im, den), cand[s])
            new_cand.append(x)
        cand = new_cand
    return Subspace.span(cand, ambient=space.ambient)
