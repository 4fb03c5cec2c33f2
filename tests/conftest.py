import os
from math import isqrt, lcm

import pytest

from symtriple import connections
from symtriple.connections import Connection, connection_by_name
from symtriple.enveloping import build_model
from symtriple.errors import DimensionError
from symtriple.families import build_triple
from symtriple.linalg import Matrix, combination, independent_fp, mod_p, vec
from symtriple.scalars import ZERO, GaussianRational, qi
from symtriple.triples import _flat_d

# the quick tier exercised by most suites (tangent dimension <= 19)
LIGHT_CASES = (
    ("symplectic", 1),
    ("symplectic", 2),
    ("special", 1),
    ("special", 2),
    ("orthogonal", 3),
    ("orthogonal", 4),
    ("exceptional", "scalar"),
)

# families whose axioms the acceptance suite must verify
AXIOM_CASES = (
    ("symplectic", 1),
    ("symplectic", 2),
    ("symplectic", 3),
    ("orthogonal", 3),
    ("orthogonal", 4),
    ("orthogonal", 5),
    ("special", 1),
    ("special", 2),
    ("special", 3),
    ("exceptional", "scalar"),
    ("exceptional", "unarion"),
)

HEAVY_ENABLED = os.environ.get("SYMTRIPLE_HEAVY") == "1"


def cleared(v) -> tuple[dict, int]:
    """A Gaussian-rational vector, dense or sparse ``{index: scalar}``, with
    its denominators cleared: the sparse Gaussian-integer vector L v that
    ``Subspace`` takes, with L the least common denominator, and L."""
    items = [(k, x) for k, x in (v.items() if isinstance(v, dict) else enumerate(v))
             if x.a or x.b]
    den = lcm(*{x.d for _, x in items})
    return {k: (x.a * (den // x.d), x.b * (den // x.d)) for k, x in items}, den


def integer_terms(terms) -> tuple[list, int]:
    """Pairs (c, M) of a scalar c and a matrix M as the pairs ((re, im), M)
    of Gaussian-integer numerators over their least common denominator, the
    form ``comm_minus`` takes, and that denominator."""
    terms = [(qi(c), m) for c, m in terms]
    den = lcm(*(c.d for c, _ in terms))
    return [((c.a * (den // c.d), c.b * (den // c.d)), m) for c, m in terms], den


def basis(dim: int) -> list:
    """The basis e_0, ..., e_{dim-1} as the dense vectors that
    ``table_product``, ``apply`` and ``bilinear`` take."""
    return [vec([int(k == i) for k in range(dim)]) for i in range(dim)]


def _dot(row: dict, w: dict) -> tuple:
    """sum_j row[j] w[j] for a numerator row and a Gaussian-integer vector."""
    re = im = 0
    for j, (p, q) in row.items():
        z = w.get(j)
        if z is not None:
            re += p * z[0] - q * z[1]
            im += p * z[1] + q * z[0]
    return re, im


def apply(m: Matrix, y) -> tuple:
    """m y for a dense vector y, summed on m's numerator rows."""
    if len(y) != m.cols:
        raise DimensionError("matrix-vector length mismatch")
    w, den = cleared(y)
    den *= m.den
    out = [ZERO] * m.rows
    for i, row in m.num.items():
        re, im = _dot(row, w)
        if re or im:
            out[i] = GaussianRational(re, im, den)
    return tuple(out)


def bilinear(m: Matrix, x, y) -> GaussianRational:
    """x^T m y for dense vectors x and y, summed on m's numerator rows."""
    if len(x) != m.rows or len(y) != m.cols:
        raise DimensionError("bilinear form argument length mismatch")
    (u, du), (w, dw) = cleared(x), cleared(y)
    re = im = 0
    for i, (a, b) in u.items():
        row = m.num.get(i)
        if row:
            p, q = _dot(row, w)
            re += a * p - b * q
            im += a * q + b * p
    return GaussianRational(re, im, du * dw * m.den)


# id(obj) -> (obj, {key: value}) for the reference matrices below; each
# entry holds its object alive, so no id is reused while the session runs
_MEMO: dict = {}


def _memo(obj, key, build):
    """build(), computed once per session for the object and key."""
    entry = _MEMO.get(id(obj))
    if entry is None:
        entry = _MEMO[id(obj)] = (obj, {})
    values = entry[1]
    if key not in values:
        values[key] = build()
    return values[key]


def dmat(t, i: int, j: int) -> Matrix:
    """The operator d_{e_i, e_j} = [e_i, e_j, .] of the triple system t as a
    matrix, from the flattening of t.den d_ij that ``triples._flat_d`` reads."""
    flat = _memo(t, "flat", lambda: _flat_d(t))
    return _memo(t, (i, j), lambda: Matrix.from_flat(flat.get((i, j), {}), t.dim, t.dim, t.den))


def ad(L, i: int) -> Matrix:
    """The matrix of ad(e_i) on the Lie algebra L, whose column j is
    [e_i, e_j] as ``bracket_basis`` gives it, over L.den."""
    d = L.dim
    return _memo(L, i, lambda: Matrix.from_flat(
        {l * d + j: z for j in range(d) for l, z in L.bracket_basis(i, j).items()}, d, d, L.den))


def matrices_of(space) -> list:
    """The rows of a subspace of flattened d x d matrices as matrices."""
    d = isqrt(space.ambient)
    return [Matrix.from_flat(v, d, d, v[p][0]) for p, v in zip(space.pivots, space.vectors())]


def triple_product(t, x, y, z) -> tuple:
    """[x, y, z] = d_{x,y}(z) in the triple system t, for dense vectors, with
    d_{x,y} = sum x_i y_j d_{e_i, e_j}."""
    return apply(combination((
        (xi * yj, dmat(t, i, j))
        for i, xi in enumerate(x) if xi for j, yj in enumerate(y) if yj
    ), t.dim), z)


def independent_mod_p(vectors) -> bool:
    """True only if the sparse Gaussian-integer vectors are independent."""
    return independent_fp(map(mod_p, vectors))


# (connection, i, j) -> R(e_i, e_j), i <= j.  The suites read each operator
# about three times; the key holds the connection alive, so no object id is
# reused for another connection while the session runs
_CURVATURE: dict = {}


def curvature(conn, i: int, j: int) -> Matrix:
    """R(e_i, e_j) of the connection, ``connections.curvature`` computed once
    per session for each pair i <= j; R(e_j, e_i) is its negation."""
    if i > j:
        return -curvature(conn, j, i)
    key = (conn, i, j)
    r = _CURVATURE.get(key)
    if r is None:
        r = _CURVATURE[key] = connections.curvature(conn.model, conn.alpha, i, j)
    return r


def curvature_pairs(conn):
    """((i, j), R(e_i, e_j)) over the pairs i < j."""
    md = conn.model.m_dim
    for i in range(md):
        for j in range(i + 1, md):
            yield (i, j), curvature(conn, i, j)


def scalars(v: dict, den: int) -> dict:
    """The sparse Gaussian-integer vector ``{k: (re, im)}`` over ``den``, the
    format of the structure-constant tables, as ``{k: GaussianRational}``."""
    return {k: GaussianRational(x, y, den) for k, (x, y) in v.items()}


def scalar_cols(t) -> dict:
    """The columns ``{(i, j, k): {l: scalar}}`` of the triple system t, the
    format its constructor takes, read off ``t.entries()``."""
    cols: dict = {}
    for i, j, k, l, v in t.entries():
        cols.setdefault((i, j, k), {})[l] = v
    return cols


def scalar_table(L) -> dict:
    """The brackets ``{(i, j): {l: scalar}}``, i < j, of the Lie algebra L,
    read off the matrices ad(e_i)."""
    table: dict = {}
    for i in range(L.dim):
        for l, j, v in ad(L, i).entries():
            if i < j:
                table.setdefault((i, j), {})[l] = v
    return table


@pytest.fixture(scope="session")
def triple_cache():
    cache = {}

    def get(family, param):
        key = (family, param)
        if key not in cache:
            cache[key] = build_triple(family, param)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def model_cache(triple_cache):
    cache = {}

    def get(family, param):
        key = (family, param)
        if key not in cache:
            cache[key] = build_model(triple_cache(family, param))
        return cache[key]

    return get


@pytest.fixture(scope="session")
def connection_cache(model_cache):
    cache = {}

    def get(family, param, name) -> Connection:
        key = (family, param, name)
        if key not in cache:
            cache[key] = connection_by_name(model_cache(family, param), name)
        return cache[key]

    return get


def pytest_collection_modifyitems(config, items):
    if HEAVY_ENABLED:
        return
    skip = pytest.mark.skip(reason="heavy case; set SYMTRIPLE_HEAVY=1 to run")
    for item in items:
        if "heavy" in item.keywords:
            item.add_marker(skip)
