"""Exact dense-semantics linear algebra over the Gaussian rationals.

A ``Matrix`` is Gaussian-integer numerator rows ``{i: {j: (re, im)}}`` over
one positive denominator, in canonical form, the representation of FLINT's
``fmpq_mat``.  ``@`` and ``trace_product`` sum over the product of the
two denominators, ``+`` and ``-`` over their lcm, all on plain ints, and
each result is reduced once, with one gcd over the matrix.
``GaussianRational`` values are built only at the edge, by ``__getitem__``,
``row`` and ``entries``; a ``Matrix`` has no dense-vector evaluator.
``flatten`` and ``from_flat`` only remap indices: the flattening is a
sparse Gaussian-integer vector, the matrix times its denominator.
Operators enter the commutator kernel in that one format: ``ad_flat(a,
n)`` maps the flattening of an n x n X to that of [A, X], for a the
flattening of A, summed on plain ints.  Closures, centers, curvature
operators, admissibility residues, the identity (3) and Jacobi residues
of the verifiers and g(T)'s h-h brackets take their commutators through
it, so none is built as a ``Matrix``.  No pipeline stage calls ``comm``,
``a @ b - b @ a``.  A ``Matrix`` is not changed once built.
Every structure-constant table, from the composition algebras upward, is
held the same way, sparse Gaussian-integer columns over one denominator
per table: ``numerators`` and ``canonical`` bring a table to that form,
and ``add_numerators`` sums on it.  ``table_product`` evaluates such a
table on dense elements; no pipeline stage does, only
``CubicJordan.linearized_cross`` and the tests.

Elimination has one routine, ``Subspace.insert``, which extends a canonical
reduced-row-echelon basis in place: pivots are normalized to 1 and
eliminated from every other row, so two equal subspaces always carry
identical rows.  Rank, kernel, inverse, closure and center are all computed
by it.  A ``Subspace`` row is a ``Matrix`` row too, Gaussian-integer
numerators over one denominator, eliminated fraction-free with one gcd per
normalized row, and a column index finds the rows a new pivot must be
cleared from.  ``Subspace`` takes one vector format, such an integer vector
``{index: (re, im)}`` as ``Matrix.flatten`` gives: a span does not change
under scaling, so closures and centers stay on ints, and ``coords_of``
gives integer coordinates too.  ``independent_fp`` eliminates mod a prime
P only to prove vectors independent, on images in F_P.
"""

from __future__ import annotations

from bisect import bisect_left
from heapq import heapify, heappop, heappush
from itertools import chain
from math import gcd, isqrt, lcm
from typing import Iterable, Sequence

from .errors import DimensionError, ValidationError
from .scalars import GaussianRational, ONE, ZERO, qi

__all__ = [
    "Matrix",
    "Subspace",
    "numerators",
    "canonical",
    "add_numerators",
    "table_product",
    "ad_flat",
    "rank",
    "kernel",
    "inverse",
    "independent_fp",
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
    """Exact rows x cols matrix over Q(i): Gaussian-integer numerator rows
    over one positive denominator.

    ``num`` maps each row index to a sparse row ``{j: (re, im)}`` of nonzero
    Gaussian-integer numerators, and the entry at (i, j) is
    (re + im i) / ``den``.  The form is canonical: den >= 1, den and all
    numerators have gcd 1, and den = 1 for the zero matrix, so equality is
    entrywise.  The constructor takes entries ``{i: {j: scalar}}``;
    ``__getitem__``, ``row`` and ``entries`` give ``GaussianRational``.
    """

    __slots__ = ("rows", "cols", "den", "num")

    def __init__(self, rows: int, cols: int, entries: dict | None = None):
        self.rows = rows
        self.cols = cols
        self.num, self.den = numerators(entries or _EMPTY)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def identity(n: int) -> "Matrix":
        return _matrix(n, n, 1, {i: {i: (1, 0)} for i in range(n)})

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "Matrix":
        nr = len(rows)
        nc = len(rows[0]) if nr else 0
        if any(len(row) != nc for row in rows):
            raise DimensionError("ragged rows")
        return Matrix(nr, nc, {i: dict(enumerate(row)) for i, row in enumerate(rows)})

    @staticmethod
    def from_numerators(rows: int, cols: int, num: dict, den: int = 1) -> "Matrix":
        """The matrix ``num / den`` in canonical form, for a positive
        ``den`` and Gaussian-integer rows ``{i: {j: (re, im)}}`` that may
        hold zeros.  Rows of ``num`` without zeros are taken over, not
        copied."""
        num, den = canonical(num, den)
        return _matrix(rows, cols, den, num)

    @staticmethod
    def from_flat(v: dict, rows: int, cols: int, den: int = 1) -> "Matrix":
        """The matrix ``w / den`` whose row-major flattening ``w`` is the
        sparse Gaussian-integer vector ``v`` (``flatten``'s inverse)."""
        if v and (min(v) < 0 or max(v) >= rows * cols):
            raise DimensionError(f"flat index outside {rows}x{cols}")
        num: dict = {}
        for p, z in v.items():
            i, j = divmod(p, cols)
            row = num.get(i)
            if row is None:
                num[i] = {j: z}
            else:
                row[j] = z
        return Matrix.from_numerators(rows, cols, num, den)

    # -- access -----------------------------------------------------------

    def __getitem__(self, key) -> GaussianRational:
        i, j = key
        z = self.num.get(i, _EMPTY).get(j)
        return ZERO if z is None else GaussianRational(z[0], z[1], self.den)

    def row(self, i: int) -> dict:
        """Row i as a sparse vector ``{j: nonzero GaussianRational}``."""
        den = self.den
        return {j: GaussianRational(x, y, den) for j, (x, y) in self.num.get(i, _EMPTY).items()}

    def entries(self):
        den = self.den
        for i, row in self.num.items():
            for j, (x, y) in row.items():
                yield i, j, GaussianRational(x, y, den)

    def is_zero(self) -> bool:
        return not self.num

    def nnz(self) -> int:
        return sum(len(r) for r in self.num.values())

    # -- algebra ------------------------------------------------------------

    def _check_same_shape(self, other: "Matrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionError("matrix shape mismatch")

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._sum(other, 1)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._sum(other, -1)

    def _sum(self, other: "Matrix", sign: int) -> "Matrix":
        """self + sign * other, both scaled to the lcm of their denominators
        and summed on plain ints; ``from_numerators`` reduces the sum once."""
        self._check_same_shape(other)
        den = lcm(self.den, other.den)
        s, t = den // self.den, sign * (den // other.den)
        acc = {i: _times(s, 0, row) for i, row in self.num.items()}
        for i, row in other.num.items():
            out = acc.get(i)
            if out is None:
                acc[i] = _times(t, 0, row)
            else:
                add_numerators(out, t, 0, row)
        return Matrix.from_numerators(self.rows, self.cols, acc, den)

    def __neg__(self) -> "Matrix":
        return _matrix(self.rows, self.cols, self.den, {
            i: {j: (-x, -y) for j, (x, y) in r.items()} for i, r in self.num.items()
        })

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionError("matmul shape mismatch")
        # row i sums a_ik times row k of other, over self.den * other.den
        acc: dict = {}
        bget = other.num.get
        for i, row in self.num.items():
            out = None
            for k, (cr, ci) in row.items():
                brow = bget(k)
                if brow is None:
                    continue
                if out is None:
                    acc[i] = out = _times(cr, ci, brow)
                else:
                    add_numerators(out, cr, ci, brow)
        return Matrix.from_numerators(self.rows, other.cols, acc, self.den * other.den)

    def transpose(self) -> "Matrix":
        num: dict = {}
        for i, row in self.num.items():
            for j, z in row.items():
                r = num.get(j)
                if r is None:
                    num[j] = {i: z}
                else:
                    r[i] = z
        return _matrix(self.cols, self.rows, self.den, num)

    def trace(self) -> GaussianRational:
        re = im = 0
        for i, row in self.num.items():
            z = row.get(i)
            if z is not None:
                re += z[0]
                im += z[1]
        return GaussianRational(re, im, self.den)

    def flatten(self) -> dict:
        """The row-major flattening of the numerators, a sparse Gaussian-
        integer vector: the matrix times ``den``."""
        nc = self.cols
        return {i * nc + j: z for i, row in self.num.items() for j, z in row.items()}

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.den, frozenset(
            (i, j, z) for i, row in self.num.items() for j, z in row.items()
        )))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, nnz={self.nnz()})"


_EMPTY: dict = {}
_ZZ = (0, 0)
# one shared object per small numerator, for the matrices built from entries
_SMALL = {(a, b): (a, b) for a in range(-4, 5) for b in range(-4, 5)}
_object_new = object.__new__


def numerators(entries: dict) -> tuple[dict, int]:
    """(num, den) with num / den the sparse scalar table ``{key: {l:
    scalar}}``, in the canonical form of ``canonical``."""
    vals = {i: [(j, x if type(x) is GaussianRational else qi(x)) for j, x in row.items()]
            for i, row in entries.items()}
    # each entry is in lowest terms, so the lcm of theirs is canonical
    den = lcm(*{x.d for row in vals.values() for _, x in row})
    small = _SMALL.get
    num = {}
    for i, row in vals.items():
        r = {j: small(z, z) for j, x in row
             if (z := (x.a * (den // x.d), x.b * (den // x.d))) != _ZZ}
        if r:
            num[i] = r
    return num, den


def canonical(num: dict, den: int) -> tuple[dict, int]:
    """The table ``num / den`` of sparse Gaussian-integer rows ``{key: {l:
    (re, im)}}``, which may hold zeros, in canonical form: no zero entry or
    empty row, den >= 1, gcd(den, all numerators) = 1, and den = 1 for the
    empty table.  Rows without zeros are taken over, not copied."""
    if den < 1:
        raise ValueError(f"denominator {den} is not positive")
    nonzero = {}
    for i, row in num.items():
        if _ZZ in row.values():
            row = {j: z for j, z in row.items() if z != _ZZ}
        if row:
            nonzero[i] = row
    num = nonzero
    if den != 1:
        if not num:
            den = 1
        else:
            g = gcd(den, *chain.from_iterable(chain.from_iterable(
                row.values() for row in num.values())))
            if g != 1:
                den //= g
                small = _SMALL.get
                num = {
                    i: {j: small(z, z) for j, (x, y) in row.items() for z in ((x // g, y // g),)}
                    for i, row in num.items()
                }
    return num, den


def _matrix(rows: int, cols: int, den: int, num: dict) -> Matrix:
    """The Matrix ``num / den`` for a pair already in canonical form."""
    m = _object_new(Matrix)
    m.rows = rows
    m.cols = cols
    m.den = den
    m.num = num
    return m


def comm(a: Matrix, b: Matrix) -> Matrix:
    """Commutator [a, b] = ab - ba."""
    return a @ b - b @ a


def ad_flat(a: dict, n: int):
    """The map x -> flatten([A, X]) for the row-major flattenings a of A
    and x of X, n x n Gaussian-integer matrices, sparse vectors ``{index:
    (re, im)}`` as ``Subspace`` takes.  The image is summed on plain ints
    without its zeros, with no ``Matrix``; a's rows and columns are
    indexed once, here, where an index outside n x n raises."""
    if a and (min(a) < 0 or max(a) >= n * n):
        raise DimensionError(f"ad_flat index outside {n}x{n}")
    left: dict = {}  # k -> ((i n, a_ik)), the terms a_ik X_kl of (aX)_il
    right: dict = {}  # l -> ((j, a_lj)), the terms X_kl a_lj of (Xa)_kj
    for p, z in a.items():
        i, k = divmod(p, n)
        right.setdefault(i, []).append((k, z))
        left.setdefault(k, []).append((i * n, z))
    get_left, get_right = left.get, right.get

    def image(x: dict) -> dict:
        out: dict = {}
        get = out.get
        for p, (xr, xi) in x.items():
            k, l = divmod(p, n)
            for i, (ar, ai) in get_left(k, ()):
                zr, zi = get(i + l, _ZZ)
                out[i + l] = (zr + ar * xr - ai * xi, zi + ar * xi + ai * xr)
            k *= n
            for j, (ar, ai) in get_right(l, ()):
                zr, zi = get(k + j, _ZZ)
                out[k + j] = (zr - ar * xr + ai * xi, zi - ar * xi - ai * xr)
        return {q: z for q, z in out.items() if z != _ZZ}

    return image


def add_numerators(out: dict, cr: int, ci: int, row: dict) -> None:
    """In place, out += (cr + ci i) * row on sparse Gaussian-integer
    vectors ``{j: (re, im)}``.  Entries that cancel stay as (0, 0), which
    ``Matrix.from_numerators`` drops."""
    get = out.get
    if ci:
        for j, (x, y) in row.items():
            zr, zi = get(j, _ZZ)
            out[j] = (zr + cr * x - ci * y, zi + cr * y + ci * x)
    else:
        for j, (x, y) in row.items():
            zr, zi = get(j, _ZZ)
            out[j] = (zr + cr * x, zi + cr * y)


def _times(cr: int, ci: int, row: dict) -> dict:
    """(cr + ci i) * row for a sparse Gaussian-integer vector row."""
    if ci:
        return {j: (cr * x - ci * y, cr * y + ci * x) for j, (x, y) in row.items()}
    return {j: (cr * x, cr * y) for j, (x, y) in row.items()}


def trace_product(a: Matrix, b: Matrix) -> GaussianRational:
    """trace(a @ b) without forming the product."""
    if a.cols != b.rows or b.cols != a.rows:
        raise DimensionError("trace_product shape mismatch")
    re = im = 0
    bnum = b.num
    for i, row in a.num.items():
        for j, (x, y) in row.items():
            z = bnum.get(j, _EMPTY).get(i)
            if z is not None:
                p, q = z
                re += x * p - y * q
                im += x * q + y * p
    return GaussianRational(re, im, a.den * b.den)


def table_product(table: dict, den: int, x: Vector, y: Vector) -> Vector:
    """sum x_i y_j e_i e_j for dense x and y of one algebra, where
    ``table[(i, j)]`` holds the product of basis elements e_i e_j as
    Gaussian-integer numerators ``{k: (re, im)}`` over ``den``.  The sum
    runs on ints over one common denominator and each entry is reduced
    once."""
    (xs, dx), (ys, dy) = (numerators({0: dict(enumerate(v))}) for v in (x, y))
    ys = ys.get(0, {}).items()
    acc: dict = {}
    get = table.get
    for i, (xr, xi) in xs.get(0, {}).items():
        for j, (yr, yi) in ys:
            col = get((i, j))
            if col:
                add_numerators(acc, xr * yr - xi * yi, xr * yi + xi * yr, col)
    out = [ZERO] * len(x)
    d = dx * dy * den
    for k, (re, im) in acc.items():
        out[k] = GaussianRational(re, im, d)
    return tuple(out)


# ---------------------------------------------------------------------------
# Echelon bases
# ---------------------------------------------------------------------------


def _numerators(v: dict, ambient: int) -> dict:
    """A copy of the sparse Gaussian-integer vector ``v``, ``{index: (re,
    im)}``, without its zeros.  Anything but a dict of int pairs raises
    before a row is stored, and so does an index outside ``ambient``."""
    if not isinstance(v, dict):
        raise TypeError(f"expected a sparse vector {{index: (re, im)}}, got {type(v).__name__}")
    if v and (min(v) < 0 or max(v) >= ambient):
        raise DimensionError(f"vector index outside ambient {ambient}")
    w = {k: (a, b) for k, (a, b) in v.items() if a or b}
    gcd(*chain.from_iterable(w.values()))  # TypeError for a non-int numerator
    return w


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
    GaussianRational}``.  Rows enter only through ``insert``.  Every vector
    passed in is a sparse Gaussian-integer vector ``{index: (re, im)}``,
    such as ``Matrix.flatten`` gives: a span does not change under scaling,
    so it needs no denominator.
    """

    __slots__ = ("ambient", "_rows", "_cols")

    def __init__(self, ambient: int):
        self.ambient = ambient
        self._rows: dict = {}  # pivot -> (D, tail), in insertion order
        self._cols: dict = {}  # non-pivot column -> pivots whose tail holds it

    @staticmethod
    def span(vectors: Iterable, ambient: int) -> "Subspace":
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

    def vectors(self) -> list:
        """The basis rows in increasing pivot order as Gaussian-integer
        vectors, each row times its denominator D, its entry at the pivot."""
        rows = self._rows
        return [{p: (rows[p][0], 0), **rows[p][1]} for p in self.pivots]

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

    def insert(self, v: dict) -> tuple["Subspace", bool]:
        """In place, extend the basis to span ``v`` too; the flag reports
        growth.  The pair ``(self, grew)`` is what the benchmark's tracer
        reads (``perfbench/tracing.py`` counts growth from item 1)."""
        w = _numerators(v, self.ambient)
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

    def contains(self, v: dict) -> bool:
        w = _numerators(v, self.ambient)
        self._reduce(w)
        return not w

    def coords_of(self, v: dict) -> dict | None:
        """Coordinates of ``v`` in this basis, in increasing pivot order, as
        a sparse Gaussian-integer vector ``{position: (re, im)}``, or None
        if outside the span: each row is 1 at its pivot and 0 at the others,
        so they are the entries of ``v`` at the pivots."""
        w = _numerators(v, self.ambient)
        pivots = self.pivots
        coords = {bisect_left(pivots, p): w[p] for p in sorted(p for p in w if p in self._rows)}
        self._reduce(w)
        if w:
            return None
        return coords

    def sum(self, other: "Subspace") -> "Subspace":
        if self.ambient != other.ambient:
            raise DimensionError("ambient mismatch")
        return Subspace.span([*self.vectors(), *other.vectors()], self.ambient)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient == other.ambient and self._rows == other._rows

    def __hash__(self):
        return hash((self.ambient, self.pivots))

    def __repr__(self):
        return f"Subspace(ambient={self.ambient}, dim={self.dim})"


# P = 2^30 - 35, a prime = 1 mod 4, and s with s^2 = -1 mod P
MODULUS = (1073741789, 140687844)


def independent_fp(vectors: Iterable) -> bool:
    """True only if vectors over Q(i) with the images ``{index: x}`` in F_P,
    x any int, are independent: a maximal minor of the images is nonzero,
    hence so is its preimage.  False, at the first dependency or zero vector
    mod P, proves nothing.  Each vector is reduced mod P in the pass that
    collects the pivots it hits; no rows are kept after the call."""
    p = MODULUS[0]
    rows: dict = {}  # pivot -> [(index, x)], the row past its pivot, where it is 1
    for v in vectors:
        w: dict = {}
        todo = []
        for k, y in v.items():
            if x := y % p:
                w[k] = x
                if k in rows:
                    todo.append(k)
        # rows reach only past their pivots, so clear pivots in increasing order
        heapify(todo)
        while todo:
            q = heappop(todo)
            c = w.pop(q)
            if c:
                for k, x in rows[q]:
                    if k not in w and k in rows:
                        heappush(todo, k)
                    w[k] = (w.get(k, 0) - c * x) % p
        w = {k: x for k, x in w.items() if x}
        if not w:
            return False
        q = min(w)
        inv = pow(w.pop(q), -1, p)
        rows[q] = [(k, x * inv % p) for k, x in w.items()]
    return True


def _augmented(vectors: Sequence[dict], offset: int) -> Subspace:
    """Echelon basis of [V | I]: the rows v_s + e_{offset+s}, for sparse
    vectors v_s indexed below ``offset``."""
    s = Subspace(offset + len(vectors))
    for i, v in enumerate(vectors):
        s.insert({**v, offset + i: (1, 0)})
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
    return Subspace.span(m.num.values(), ambient=m.cols).dim


def kernel(m: Matrix) -> Subspace:
    """Subspace of all v with m @ v = 0."""
    cols = m.transpose().num
    return _null_space([cols.get(j, _EMPTY) for j in range(m.cols)], m.rows)


def inverse(m: Matrix) -> Matrix:
    """m^-1, read off the echelon form [I | m^-1] of [m | I]."""
    if m.rows != m.cols:
        raise DimensionError("only square matrices invert")
    d = m.rows
    s = _augmented([m.num.get(i, _EMPTY) for i in range(d)], d)
    if any(p >= d for p in s._rows):
        raise ValidationError("matrix is singular")
    # every column below d is a pivot, so each tail lies in the identity
    # block and the tails form (D m)^-1, with D = m.den; m^-1 = D (D m)^-1
    den = lcm(*(rden for rden, _ in s._rows.values()))
    num = {}
    for p, (rden, tail) in sorted(s._rows.items()):
        c = m.den * (den // rden)
        num[p] = {k - d: (x * c, y * c) for k, (x, y) in tail.items()}
    return Matrix.from_numerators(d, d, num, den)


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
    """Indices S of the ``candidates`` such that the closure of
    span{c_s : s in S} under act(s, .), s in S, contains every candidate.
    The candidates, and every vector ``act(k, w)`` is handed or returns, are
    sparse Gaussian-integer vectors ``{index: (re, im)}``.  ``act(k, w)`` is
    linear in w up to a nonzero scalar factor, such as a denominator, since
    a span does not change under scaling.

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
            # the closure so far is already invariant under the earlier gens
            close_under(
                closure, [v, *(act(k, w) for w in closure.vectors())],
                lambda x: (act(s, x) for s in gens), ambient,
            )
    return gens


def bracket_closure(gens: Iterable[dict], multipliers: Sequence[dict], side: int,
                    stop_dim: int | None = None) -> Subspace:
    """Smallest subspace of flattened side x side matrices containing
    ``gens`` and invariant under [mu, .] for each multiplier mu, by
    ``close_under``.  The generators and multipliers are flattenings,
    sparse Gaussian-integer vectors, the format ``Subspace.insert`` takes;
    the generators are read lazily, and each image is ``ad_flat(mu, side)``
    of one, so a multiplier may be any nonzero multiple of its matrix.

    With S both the generators and the multipliers, this is the Lie algebra
    generated by S, since the right-normed brackets [s_1, [s_2, ..., [s_k-1,
    s_k]]] span it.  ``stop_dim`` is that of ``close_under``.
    """
    ads = [ad_flat(mu, side) for mu in multipliers]
    return close_under(Subspace(side * side), gens, lambda x: (ad(x) for ad in ads), stop_dim)


def center_of(space: Subspace) -> Subspace:
    """{x in space : [x, y] = 0 for every y in the space}.

    Computed by intersecting, one basis constraint at a time, the kernels of
    c -> [B_j, sum c_i X_i] over the current candidates X_i, each image
    ``ad_flat(B_j, d)`` of a flat vector, one map per basis element; the
    candidate space shrinks quickly, which keeps large inputs tractable.
    """
    d = isqrt(space.ambient)
    if d * d != space.ambient:
        raise DimensionError("ambient dimension is not a perfect square")
    # the rows scaled to Gaussian integers: the same span and the same
    # constraints, and every commutator below is exact on plain ints
    basis = cand = space.vectors()  # flattened candidate matrices
    for bj in basis:
        if not cand:
            break
        ad = ad_flat(bj, d)
        images = [ad(x) for x in cand]
        if not any(images):
            continue
        # each null-space row, times its D, is D at its pivot p and re + im i
        # at each other s
        new_cand = []
        for p, (den, tail) in sorted(_null_space(images, d * d)._rows.items()):
            x: dict = {}
            add_numerators(x, den, 0, cand[p])
            for s, (re, im) in tail.items():
                add_numerators(x, re, im, cand[s])
            x = {k: z for k, z in x.items() if z != _ZZ}
            g = gcd(*chain.from_iterable(x.values()))
            if g != 1:
                x = {k: (re // g, im // g) for k, (re, im) in x.items()}
            new_cand.append(x)
        cand = new_cand
    return Subspace.span(cand, ambient=space.ambient)
