"""corrset: membership, decomposition and realization for bipartite
correlation vectors.

The package decides whether a vector of four correlators belongs to the
classical or the quantum correlation set, decomposes quantum-set members
into at most three extremal generators, synthesizes explicit states and
observables realizing them, and ships independent brute-force oracles and
grid scans to verify its own claims.  See README.md for a tour.
"""

from .checks import (
    ScanResult,
    angle_sum_max_scan,
    curvature_positivity_scan,
    deterministic_strategy_vectors,
    ghz_contradiction,
    lvt_oracle_batch,
)
from .corrvec import (
    DEFAULT_TOLERANCE,
    CorrelationVector,
    SymmetryOp,
    canonicalize,
    full_symmetry_group,
)
from .errors import (
    CorrSetError,
    DimensionError,
    DomainError,
    InternalCheckError,
    InvariantViolationError,
    NonFiniteInputError,
    NotInQuantumSetError,
    OutOfBoxError,
    PreconditionError,
)
from .geometry import (
    Decomposition,
    GeneratorPoint,
    angle_transport,
    decompose,
    generator_values,
    reduce_angle,
)
from .membership import (
    CLASSICAL_BOUND,
    QUANTUM_BOUND,
    TSIRELSON_BOUND,
    MembershipReport,
    arcsine_combinations,
    chsh_combinations,
    chsh_max,
    classical_margins,
    evaluate,
    mu,
    mu_array,
    mu_inverse,
    quantum_margins,
)
from .quantum import (
    Realization,
    expectation,
    realize_mixture,
    sample_correlations,
    sample_quantum,
)

__version__ = "0.1.0"

__all__ = [
    "CLASSICAL_BOUND",
    "CorrSetError",
    "CorrelationVector",
    "DEFAULT_TOLERANCE",
    "Decomposition",
    "DimensionError",
    "DomainError",
    "GeneratorPoint",
    "InternalCheckError",
    "InvariantViolationError",
    "MembershipReport",
    "NonFiniteInputError",
    "NotInQuantumSetError",
    "OutOfBoxError",
    "PreconditionError",
    "QUANTUM_BOUND",
    "Realization",
    "ScanResult",
    "SymmetryOp",
    "TSIRELSON_BOUND",
    "angle_sum_max_scan",
    "angle_transport",
    "arcsine_combinations",
    "canonicalize",
    "chsh_combinations",
    "chsh_max",
    "classical_margins",
    "curvature_positivity_scan",
    "decompose",
    "deterministic_strategy_vectors",
    "evaluate",
    "expectation",
    "full_symmetry_group",
    "generator_values",
    "ghz_contradiction",
    "lvt_oracle_batch",
    "mu",
    "mu_array",
    "mu_inverse",
    "quantum_margins",
    "realize_mixture",
    "reduce_angle",
    "sample_correlations",
    "sample_quantum",
]
