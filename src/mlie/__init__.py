"""Curvature of left-invariant pseudo-Riemannian metrics at the Lie-algebra
level: signatures and degeneracy classes, Ricci operators by several routes,
the double-extension construction of Ricci-flat Lorentzian nilpotent
algebras, an executable catalog of the low-dimensional classification, and a
random-restart search for Einstein metrics."""

from .catalog import (
    ALGEBRA_NAMES,
    DERIVATION_TABLE,
    METRIC_VARIANTS,
    make_algebra,
    make_metric,
    table1_derivation,
)
from .curvature import VERDICT_TOL, CurvatureReport, MetricLieAlgebra, Verdict
from .doubleext import (
    Admissibility,
    Decomposition,
    ExtensionData,
    check_admissible,
    decompose,
    extend,
    guediri_2step,
    kd_generate,
    model_residual,
    random_admissible,
    ricci_ebar,
)
from .errors import (
    BadParams,
    ConstraintViolation,
    DegenerateGram,
    InvalidInput,
    NotApplicable,
    NotLie,
    NotNilpotent,
    SingularK0,
    UnknownName,
)
from .fileio import read_algebra, read_extension, write_algebra
from .liealg import LieAlgebra
from .pseudolin import (
    DEFAULT_TOL,
    Gram,
    Signature,
    Subspace,
    SubspaceClass,
    SubspaceTag,
    classify_subspace,
    find_isotropic_in,
    orthonormal_basis,
    signature,
)
from .search import SearchResult, SearchSpec, einstein_residual, run_search
from .verify import CHECK_NAMES, CheckResult, run_checks

__version__ = "0.1.0"

__all__ = [
    "ALGEBRA_NAMES",
    "Admissibility",
    "BadParams",
    "CHECK_NAMES",
    "CheckResult",
    "ConstraintViolation",
    "CurvatureReport",
    "DEFAULT_TOL",
    "DERIVATION_TABLE",
    "Decomposition",
    "DegenerateGram",
    "ExtensionData",
    "Gram",
    "InvalidInput",
    "LieAlgebra",
    "METRIC_VARIANTS",
    "MetricLieAlgebra",
    "NotApplicable",
    "NotLie",
    "NotNilpotent",
    "SearchResult",
    "SearchSpec",
    "Signature",
    "SingularK0",
    "Subspace",
    "SubspaceClass",
    "SubspaceTag",
    "UnknownName",
    "VERDICT_TOL",
    "Verdict",
    "check_admissible",
    "classify_subspace",
    "decompose",
    "einstein_residual",
    "extend",
    "find_isotropic_in",
    "guediri_2step",
    "kd_generate",
    "make_algebra",
    "make_metric",
    "model_residual",
    "orthonormal_basis",
    "random_admissible",
    "read_algebra",
    "read_extension",
    "ricci_ebar",
    "run_checks",
    "run_search",
    "signature",
    "table1_derivation",
    "write_algebra",
]
