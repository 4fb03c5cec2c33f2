"""Case catalog: named families, parameter validation, closed-form expected
dimensions, and the light/heavy split used by the CLI and the test suite.

Family parameters follow the constructions in ``triples``:

* ``symplectic`` n >= 1 (tangent dimension 4n+3),
* ``orthogonal`` w >= 3 (the ambient orthogonal algebra has rank k = w+4),
* ``special``   w >= 1 (the ambient special linear group has m = w+2),
* ``exceptional`` J-kind in scalar | unarion | binarion | quaternion |
  octonion, giving the five exceptional enveloping algebras.
"""

from __future__ import annotations

from .composition import build_composition
from .errors import ValidationError
from .jordan import build_jordan
from .triples import (
    SymplecticTripleSystem,
    build_exceptional_type,
    build_orthogonal_type,
    build_special_type,
    build_symplectic_type,
    load_sts,
)

__all__ = [
    "FAMILIES",
    "J_KINDS",
    "build_triple",
    "case_m_dim",
    "is_heavy",
    "expected_hol",
    "DEFAULT_TABLE_CASES",
    "ALL_LIGHT_TABLE_CASES",
]

FAMILIES = ("symplectic", "orthogonal", "special", "exceptional", "file")
J_KINDS = ("scalar", "unarion", "binarion", "quaternion", "octonion")

# tangent dimension 4n+3 above which a case needs --allow-heavy
LIGHT_M_DIM_LIMIT = 35

_EXC_T_DIM = {"scalar": 4, "unarion": 14, "binarion": 20, "quaternion": 32, "octonion": 56}
_EXC_INDER = {"scalar": 3, "unarion": 21, "binarion": 35, "quaternion": 66, "octonion": 133}


def build_triple(family: str, param) -> SymplecticTripleSystem:
    if family == "symplectic":
        return build_symplectic_type(_positive(param, "n"))
    if family == "orthogonal":
        return build_orthogonal_type(_positive(param, "w"))
    if family == "special":
        return build_special_type(_positive(param, "w"))
    if family == "exceptional":
        if param == "scalar":
            return build_exceptional_type(build_jordan("scalar"))
        if param in J_KINDS:
            return build_exceptional_type(
                build_jordan("hermitian", build_composition(param))
            )
        raise ValidationError(f"unknown J-kind {param!r}; choose one of {J_KINDS}")
    if family == "file":
        return load_sts(param)
    raise ValidationError(f"unknown family {family!r}; choose one of {FAMILIES}")


def _positive(param, name: str) -> int:
    if type(param) is not int or param < 1:
        raise ValidationError(f"{name} must be a positive integer, got {param!r}")
    return param


def case_t_dim(family: str, param) -> int:
    """dim T without building anything (used by the heavy gate)."""
    if family == "symplectic":
        return 2 * _positive(param, "n")
    if family in ("orthogonal", "special"):
        return 2 * _positive(param, "w")
    if family == "exceptional":
        if param not in _EXC_T_DIM:
            raise ValidationError(f"unknown J-kind {param!r}")
        return _EXC_T_DIM[param]
    raise ValidationError(f"no closed-form size for family {family!r}")


def case_m_dim(family: str, param) -> int:
    return 2 * case_t_dim(family, param) + 3


def is_heavy(m_dim: int) -> bool:
    """True for cases beyond the light tier (tangent dimension > 35)."""
    return m_dim > LIGHT_M_DIM_LIMIT


def expected_hol(family: str, param, name: str) -> int | None:
    """The table's closed form for the holonomy of a named connection:
    dim so(4n+3) = 8n^2 + 10n + 3 for Levi-Civita, 3 + dim inder for the
    distinguished and canonical ones; None for a file or any other name."""
    if family == "file":
        return None
    if name == "levi-civita":
        m = case_m_dim(family, param)
        return m * (m - 1) // 2
    if name not in ("distinguished", "canonical"):
        return None
    if family == "symplectic":
        return 2 * param * param + param + 3
    if family == "special":
        return param * param + 3
    if family == "orthogonal":
        return param * (param - 1) // 2 + 6
    if family == "exceptional":
        return 3 + _EXC_INDER[param]
    raise ValidationError(f"no closed-form holonomy dimension for {family!r}")


# Table selections.  The default list is the quick tier; --all-light adds the
# remaining cases of tangent dimension <= 35 (unarion, the largest, takes
# about 0.3 s).
DEFAULT_TABLE_CASES = (
    ("symplectic", 1),
    ("symplectic", 2),
    ("special", 1),
    ("special", 2),
    ("orthogonal", 3),
    ("orthogonal", 4),
    ("exceptional", "scalar"),
)

ALL_LIGHT_TABLE_CASES = DEFAULT_TABLE_CASES + (
    ("symplectic", 3),
    ("special", 3),
    ("orthogonal", 5),
    ("exceptional", "unarion"),
)
