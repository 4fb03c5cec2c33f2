import os
from math import lcm

import pytest

from symtriple.connections import Connection, connection_by_name
from symtriple.enveloping import build_model
from symtriple.families import build_triple

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
    items = [(k, x) for k, x in (v.items() if isinstance(v, dict) else enumerate(v)) if x]
    den = lcm(*(x.d for _, x in items))
    return {k: (x.a * (den // x.d), x.b * (den // x.d)) for k, x in items}, den


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
