"""Dual pairs on unit balls of polyhedral norms.

Given positive weights alpha summing to 1 and a norm equivalent to the sup
norm, there is a point w on the unit sphere and a functional phi of dual
norm 1 with w_k * phi_k = alpha_k.  This package computes such pairs by
primal-dual log-barrier ascent on the weighted log utility, certifies them
by recomputing all defining identities, and probes the truncation
asymptotics that govern when the construction survives passage to sequence
spaces.
"""

from .core import (
    DimensionMismatch,
    NonPositiveWeight,
    SumMismatch,
    TailVector,
    ZengerError,
    as_vector,
    project_PN,
    validate_weights,
)
from .norms import (
    Block,
    CompositeNorm,
    EquivalenceConstants,
    Example1TailNorm,
    Example2Norm,
    GeneratorBlowup,
    LPFailure,
    NotPolyhedral,
    RankDeficientNorm,
    SupNorm,
    dual_norm_lmo,
    equivalence_constants,
    eval_norm,
    generators,
    norm_dimension,
    projection_norm,
)
from .solver import (
    Certificate,
    NonConvergence,
    ZengerPair,
    ZengerProblem,
    certify,
    log_utility,
    solve_zenger,
)
from .asymptotics import (
    LiminfReport,
    PnRow,
    PnTable,
    RefutationWitness,
    SearchLimitExceeded,
    example1_refute,
    example2_family,
    geometric_alpha,
    geometric_rule,
    liminf_check,
    pn_table,
)
from .numrange import (
    HullCheck,
    NotTriangular,
    SupportCurve,
    as_complex_matrix,
    spectrum_hull_check,
    support_curve,
)

__version__ = "0.1.0"

__all__ = [
    "Block",
    "Certificate",
    "CompositeNorm",
    "DimensionMismatch",
    "EquivalenceConstants",
    "Example1TailNorm",
    "Example2Norm",
    "GeneratorBlowup",
    "HullCheck",
    "LPFailure",
    "LiminfReport",
    "NonConvergence",
    "NonPositiveWeight",
    "NotPolyhedral",
    "NotTriangular",
    "PnRow",
    "PnTable",
    "RefutationWitness",
    "SearchLimitExceeded",
    "SumMismatch",
    "SupNorm",
    "SupportCurve",
    "TailVector",
    "ZengerError",
    "ZengerPair",
    "ZengerProblem",
    "as_complex_matrix",
    "as_vector",
    "certify",
    "dual_norm_lmo",
    "equivalence_constants",
    "eval_norm",
    "example1_refute",
    "example2_family",
    "generators",
    "geometric_alpha",
    "geometric_rule",
    "liminf_check",
    "log_utility",
    "norm_dimension",
    "pn_table",
    "project_PN",
    "projection_norm",
    "solve_zenger",
    "spectrum_hull_check",
    "support_curve",
    "validate_weights",
]
