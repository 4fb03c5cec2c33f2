"""Golden digests of the structure constants of every layer.

The tables of the composition algebras, the cubic Jordan algebras, the
triple systems and g(T) must not change, however they are stored or
evaluated.  Each layer's constants are listed with ``str()`` scalars in
sorted order and pinned by their sha256; the table digest in
``test_cli.py`` sees only dimensions and centers, which a wrong constant
can leave unchanged.
"""

import hashlib
import json

import pytest

from symtriple.composition import KINDS, build_composition
from symtriple.families import ALL_LIGHT_TABLE_CASES
from symtriple.jordan import build_jordan
from symtriple.linalg import table_product

from conftest import LIGHT_CASES, basis, scalar_table


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def _strs(v):
    return [str(x) for x in v]


def _composition_record(kind):
    c = build_composition(kind)
    e = basis(c.dim)
    return {
        "mul": [[i, j, _strs(table_product(c.mul, c.mul_den, e[i], e[j]))]
                for i in range(c.dim) for j in range(c.dim)],
        "conj": [[i, _strs(c.conj.apply(e[i]))] for i in range(c.dim)],
    }


def _jordan_record(kind):
    J = build_jordan("hermitian", build_composition(kind))
    e = basis(J.dim)
    pairs = [(i, j) for i in range(J.dim) for j in range(J.dim)]
    return {
        "t": [[i, j, str(J.trace_form.bilinear(e[i], e[j]))] for i, j in pairs],
        "cross": [[i, j, _strs(table_product(J.cross_table, J.cross_den, e[i], e[j]))]
                  for i, j in pairs],
        "linearized_cross": [[i, j, _strs(J.linearized_cross(e[i], e[j]))] for i, j in pairs],
        "dot": [[i, j, _strs(table_product(J.dot_table, J.dot_den, e[i], e[j]))]
                for i, j in pairs],
    }


def _triple_record(T):
    return {
        "entries": [[i, j, k, l, str(v)] for i, j, k, l, v in T.entries()],
        "omega": sorted([i, j, str(x)] for i, j, x in T.omega.entries()),
    }


def _model_record(model):
    table = scalar_table(model.algebra)
    return {
        "table": [
            [i, j, l, str(v)] for (i, j) in sorted(table) for l, v in sorted(table[(i, j)].items())
        ],
        "kappa": sorted([i, j, str(x)] for i, j, x in model.kappa.entries()),
    }


COMPOSITION_DIGESTS = {
    "unarion":
        "83a57c907e1d8fdbc46d5f1b4f976c8925645e5d6690e4ff96ed6ed5a95398af",
    "binarion":
        "593f42341f809dbcc4cb82aade8de255d37453d548845b979f633167b2e3809b",
    "quaternion":
        "a031df48851a09bf31f040293763f0c3c5f372e7907e5275fdb6774e9498154c",
    "octonion":
        "f3755637dfb10f49c8c8bfcedfb56c96ada731f7b8700352e5a180c676af7e5f",
}

JORDAN_DIGESTS = {
    "unarion":
        "a4327cb4a68c2359836d2a1fe8e84e9bbaf7558517e9b91347e500a900e94a33",
    "binarion":
        "f6779bf4e2c2c6bfdcd3d4f9276c0eed0af8861b56f87f0ddd170021c175579d",
    "quaternion":
        "ed9b60a2dfc21fb100057a87084523622efdf0e6d38930933177023d56078f4c",
    "octonion":
        "d2ffb9f07f6f040308093a5b1de3f245e5e2f8a35651e92dac7cb8f3b956b362",
}

TRIPLE_DIGESTS = {
    ("symplectic", 1):
        "9a7eb8e595350ea78770ff97f05f06a9ef9410a33c1af8f64907b0cb5efa876b",
    ("symplectic", 2):
        "698786270d1daac28072bf5ef10280caf15fd63164a20a7362ba44575c3025c9",
    ("special", 1):
        "7d6ba222676204c384ddf765e6972a169e58c2257d134ad9eb81852b443b07c2",
    ("special", 2):
        "8fd44cc99aa18fd9ad5d374ac39c60ad7be6130f5f8bbcf8960f974002c4b07a",
    ("orthogonal", 3):
        "0d9cabc6ee3306372b68cacd72e69e5d0d4dc8bb10dae385b0c9557afb088a9b",
    ("orthogonal", 4):
        "30bfdbfd6c41a91fe9281b9e964007e88705126743b60221df5d2e46d533c329",
    ("exceptional", "scalar"):
        "c27145d58f4e28fe71a8d918a6eca527716d629467920fd86d1277d978d94322",
    ("symplectic", 3):
        "4ffc3ac8384d0f9c6103e95fcfbc9cc223abba738849a96255dd4d9bf807361d",
    ("special", 3):
        "0d6ff5a80f1a2be50841687fac4c25b58f3431175b7b2c2003462d12dc217ee9",
    ("orthogonal", 5):
        "fe3b9138d226cf1fd524a12cee5624e51261297410b248c876ffaef43279d3ac",
    ("exceptional", "unarion"):
        "286f7b25cf720c3652271d79989ff4aca0e338bdcc7d87759e86df406f723195",
    ("exceptional", "binarion"):
        "ef1eac1a562b2c48fea4f84ffad8b47cedec2c9f80d517cdabff3f77182962e4",
    ("exceptional", "quaternion"):
        "d591bf1eefaf934bbe29bc6250be882b973cb2cf467ccd2ec516e306e5e3055c",
    ("exceptional", "octonion"):
        "36242555036e86265d9d169c1de300332609a760ef7de6c2dc4b7bbb7611db8a",
}

MODEL_DIGESTS = {
    ("symplectic", 1):
        "416992b8d10a77bea28fe6284db3cc283b2d6fcc8dea19334583061c81cadb19",
    ("symplectic", 2):
        "53076281b13de110d6ee055dfc12c6d4d577e1941b00d8ec53b3a3669caebd5b",
    ("special", 1):
        "3cbf2e1528713161f07ed0e63f3159acfb8eb64e4fb98bcf89843031450c0181",
    ("special", 2):
        "47493fcd55ef9873203c308a2cf63f23df2bdd8c116ab289697d27f1b83a40ab",
    ("orthogonal", 3):
        "048b52b2574cd808ba12521202464fad144d2ca7aa7d749489d253e2eefb3048",
    ("orthogonal", 4):
        "85da17c715d3a0c5e2ac83104324d4cbb4415dcb36e99ecde8e7e447ff821708",
    ("exceptional", "scalar"):
        "707887de19ac74a9eb1ad5c9bdd5f9b2c8e80153f7fca9fa361df6e9b2755a0e",
}

HEAVY_TRIPLES = (("exceptional", "binarion"), ("exceptional", "quaternion"), ("exceptional", "octonion"))


@pytest.mark.parametrize("kind", KINDS)
def test_composition_digest(kind):
    assert _digest(_composition_record(kind)) == COMPOSITION_DIGESTS[kind]


@pytest.mark.parametrize("kind", KINDS)
def test_jordan_digest(kind):
    assert _digest(_jordan_record(kind)) == JORDAN_DIGESTS[kind]


@pytest.mark.parametrize("case", [
    *ALL_LIGHT_TABLE_CASES,
    *(pytest.param(c, marks=pytest.mark.heavy) for c in HEAVY_TRIPLES),
])
def test_triple_digest(case, triple_cache):
    assert _digest(_triple_record(triple_cache(*case))) == TRIPLE_DIGESTS[case]


@pytest.mark.parametrize("case", LIGHT_CASES)
def test_model_digest(case, model_cache):
    assert _digest(_model_record(model_cache(*case))) == MODEL_DIGESTS[case]
