"""Golden digests of the canonical echelon rows that ``linalg.Subspace`` holds.

Two equal subspaces carry identical reduced-row-echelon rows, so the rows
of every closure are an output of the package, whatever the elimination
stores inside.  For each case the holonomy algebras of the three named
connections, the centers of the distinguished and canonical ones, inder(T)
and the inverse of the metric are listed with ``str()`` scalars in sorted
order and pinned by their sha256.  The dimensions and centers in the table
digest of ``test_cli.py`` can hold while a row changes.
"""

import hashlib
import json

import pytest

from symtriple.families import ALL_LIGHT_TABLE_CASES
from symtriple.holonomy import holonomy_algebra
from symtriple.linalg import center_of

HEAVY_CASES = (("exceptional", "binarion"), ("exceptional", "quaternion"), ("exceptional", "octonion"))


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def _rows(space):
    return [
        [p, sorted([k, str(x)] for k, x in row.items())]
        for p, row in zip(space.pivots, space.rows)
    ]


def _echelon_record(family, param, connection_cache):
    record = {}
    model = None
    for name in ("levi-civita", "distinguished", "canonical"):
        conn = connection_cache(family, param, name)
        model = conn.model
        algebra = holonomy_algebra(conn, compute_center=False).algebra
        record[name] = _rows(algebra)
        if name != "levi-civita":
            record[f"center {name}"] = _rows(center_of(algebra))
    record["inder"] = _rows(model.inder)
    record["metric inverse"] = sorted(
        [i, j, str(x)] for i, j, x in model.metric.inverse().entries()
    )
    return record


ECHELON_DIGESTS = {
    ("symplectic", 1):
        "25513b2cfd76831b1e211f482f911c23294579a590d2695aafe6d2ce8f1630c5",
    ("symplectic", 2):
        "5da5a0d83a4b84c12f24889cc1e0d659e745dde3d2e72161c5577ab409491053",
    ("special", 1):
        "42dc27e95ef83d3299b04b286eb9150f66d3e553ca3c88b0a95ca05d59a0337c",
    ("special", 2):
        "810c104562769f653ad89fe33758313da96171db911ed056d5c3a59cfe7d38fb",
    ("orthogonal", 3):
        "7ac05593c04d0a9fac62b953f8de635d827f1c76dc775e649a830489b993d7db",
    ("orthogonal", 4):
        "59884ba769926689b47034cdac9666ca4f0b6c020ddd85ebe7f19ac56b2f9542",
    ("exceptional", "scalar"):
        "1085f938dce8dfbffba9c92d0e58d446cc0328f72a7a610602ca042b2f5790bc",
    ("symplectic", 3):
        "ab168ea1c2e295040923c0fb4212fa1508f9c84d0e016c5dc3fe83bd0d64e7a2",
    ("special", 3):
        "ce5bad969be82a64298cc3f6f52224a001055f6fabbe43fa9ae5285dd506cb0c",
    ("orthogonal", 5):
        "a0444a7daf4e90fc771613332c12ae5d165aa18b9b657abfe6194dd79b112fb0",
    ("exceptional", "unarion"):
        "fd8e856704ca00a9e682e10414753e025d1767ae3809bb40b26942ad717d77f2",
    ("exceptional", "binarion"):
        "c5e1e31949b64a83163dedd4f5f8baf17e48a11805e1279950c41dc0fd21d062",
    ("exceptional", "quaternion"):
        "8dc75ebb3351b60970a55994293c0d0e252eb34c53588c3e958b6c7a0d3ee473",
    ("exceptional", "octonion"):
        "29464c02ad80694603170bf797b2bd3ffd66f6c9073469c9c9a6a82998bb7c60",
}


@pytest.mark.parametrize("case", [
    *ALL_LIGHT_TABLE_CASES,
    *(pytest.param(c, marks=pytest.mark.heavy) for c in HEAVY_CASES),
])
def test_echelon_rows_digest(case, connection_cache):
    assert _digest(_echelon_record(*case, connection_cache)) == ECHELON_DIGESTS[case]
