"""Exact Schur-function and Schubert-calculus toolkit.

Schur and supersymmetric Schur functions, Q-tilde functions, the
cohomology rings of Grassmannians and Lagrangian Grassmannians with
Poincare duality, and Schur-positivity certification of Chern-class
polynomials, all over arbitrary-precision integers.
"""

from .partitions import (
    Partition,
    SemistandardTableau,
    StrictPartition,
    conjugate,
    enumerate_partitions,
    enumerate_ssyt,
    enumerate_strict_partitions,
    hook_contains,
    rectangle_dual,
    staircase,
    strict_complement,
)
from .polynomial import (
    FAMILY_C,
    FAMILY_CPRIME,
    FAMILY_V1,
    FAMILY_V2,
    CPolynomial,
    specialize,
    truncate_family,
)
from .linalg import (
    InconsistentSystemError,
    NonUniqueSolutionError,
    solve_exact,
)
from .schur import (
    BundleSymbol,
    Expansion,
    complete_from_elementary,
    from_schur,
    lr_multiply,
    lr_oracle,
    schur_dual_jt,
    schur_jt,
    super_split,
    supersymmetric_s,
    to_schur,
    to_schur_oracle,
)
from .qtilde import qtilde
from .rings import GrassmannianRing, LagrangianRing
from .positivity import (
    CLASSICAL_THOM_TABLE,
    PositivityReport,
    certify,
    schur_bundle_class,
    verify_thom_table,
)
from .legendrian import (
    LEGENDRIAN_TABLE,
    LegendrianClass,
    lagrangian_part,
    legendrian_parse,
    legendrian_positivity,
)
from .parsing import ParseError, evaluate_text, parse

__version__ = "0.1.0"

__all__ = [
    "Partition", "StrictPartition", "SemistandardTableau",
    "conjugate", "rectangle_dual", "strict_complement", "staircase",
    "enumerate_partitions", "enumerate_strict_partitions", "enumerate_ssyt",
    "hook_contains",
    "CPolynomial", "specialize", "truncate_family",
    "FAMILY_C", "FAMILY_CPRIME", "FAMILY_V1", "FAMILY_V2",
    "solve_exact", "InconsistentSystemError", "NonUniqueSolutionError",
    "BundleSymbol", "Expansion", "complete_from_elementary",
    "supersymmetric_s", "schur_jt", "schur_dual_jt", "to_schur",
    "to_schur_oracle", "from_schur", "lr_multiply", "lr_oracle",
    "super_split",
    "qtilde",
    "GrassmannianRing", "LagrangianRing",
    "PositivityReport", "certify", "verify_thom_table", "schur_bundle_class",
    "CLASSICAL_THOM_TABLE",
    "LegendrianClass", "legendrian_parse", "lagrangian_part",
    "legendrian_positivity", "LEGENDRIAN_TABLE",
    "parse", "evaluate_text", "ParseError",
]
