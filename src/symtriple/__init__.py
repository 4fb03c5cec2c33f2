"""Exact constructions of simple complex symplectic triple systems, their
graded enveloping Lie algebras, the invariant connections of the associated
homogeneous models, and holonomy / curvature invariants, all over the
Gaussian rationals with no floating point anywhere."""

from .scalars import GaussianRational, qi
from .linalg import Matrix, Subspace, bracket_closure, center_of, kernel, rank
from .composition import CompositionAlgebra, build_composition
from .jordan import CubicJordan, build_jordan
from .triples import (
    SymplecticTripleSystem,
    build_exceptional_type,
    build_orthogonal_type,
    build_special_type,
    build_symplectic_type,
    inder_basis,
    is_simple,
    load_sts,
    save_sts,
    verify_axioms,
)
from .enveloping import (
    GradedLieAlgebra,
    HomogeneousModel,
    InvariantMetric,
    ReductiveSplit,
    build_enveloping,
    build_model,
    killing_form,
    metric_g,
    verify_jacobi,
)
from .connections import (
    NAMED,
    Connection,
    NomizuMap,
    alpha_family,
    connection_by_name,
    curvature,
    is_metric,
    is_skew_torsion,
    named_alpha,
)
from .holonomy import (
    HolonomyResult,
    RicciData,
    holonomy_algebra,
    holonomy_identity_check,
    ricci,
    scalar_curvature_formula,
    table_report,
)

__version__ = "1.0.0"
