"""divmax: max-sum diversification under matroid constraints.

Solves max f(S) = sum of pairwise distances within S (plus optional linear
scores) over the bases of a matroid, for distances of negative type.  The
pipeline certifies the distance, maximizes the concave relaxation on the
base polytope of the matroid, and deterministically rounds the fractional
point to a basis with a 1 - (4 + 2 ln k)/k guarantee.
"""

from .baselines import (
    BRUTE_FORCE_MAX_N,
    LocalSearchResult,
    SubsetResult,
    brute_force_opt,
    local_search_half,
)
from .errors import (
    CertificationError,
    DivmaxError,
    InternalInvariantError,
    InvalidInputError,
)
from .geometry import (
    DISTANCE_KINDS,
    TRANSFORM_NAMES,
    DistanceMatrix,
    NegTypeCertificate,
    SchoenbergForm,
    UnionInequalityCheck,
    build_distance,
    certify_negative_type,
    check_union_inequality,
    cite_or_certify,
    is_metric,
    schoenberg_form,
    transform_distance,
)
from .instances import (
    gen_dks_reduction,
    gen_integrality_gap,
    gen_random_graph,
    gen_random_points,
    integrality_gap_fractional_value,
    integrality_gap_opt_value,
)
from .io import (
    InstanceDoc,
    canonical_dumps,
    doc_from_json,
    doc_to_json,
    materialize,
)
from .matroids import (
    ExplicitRankMatroid,
    FractionalPoint,
    GraphicMatroid,
    Matroid,
    PartitionMatroid,
    UniformMatroid,
    greedy_basis_lmo,
    slack_minimize,
    validate_rank_table,
)
from .relaxation import RelaxationResult, SliceSolution, solve_slice, sweep_slices
from .rounding import (
    ChainState,
    RoundResult,
    RoundingTrace,
    StepRecord,
    build_chain,
    guarantee_factor,
    round,
    round_step,
    select_pair,
)

__version__ = "0.1.0"

__all__ = [
    "BRUTE_FORCE_MAX_N",
    "CertificationError",
    "ChainState",
    "DISTANCE_KINDS",
    "DistanceMatrix",
    "DivmaxError",
    "ExplicitRankMatroid",
    "FractionalPoint",
    "GraphicMatroid",
    "InstanceDoc",
    "InternalInvariantError",
    "InvalidInputError",
    "LocalSearchResult",
    "Matroid",
    "NegTypeCertificate",
    "PartitionMatroid",
    "RelaxationResult",
    "RoundResult",
    "RoundingTrace",
    "SchoenbergForm",
    "SliceSolution",
    "StepRecord",
    "SubsetResult",
    "TRANSFORM_NAMES",
    "UniformMatroid",
    "UnionInequalityCheck",
    "brute_force_opt",
    "build_chain",
    "build_distance",
    "canonical_dumps",
    "certify_negative_type",
    "check_union_inequality",
    "cite_or_certify",
    "doc_from_json",
    "doc_to_json",
    "gen_dks_reduction",
    "gen_integrality_gap",
    "gen_random_graph",
    "gen_random_points",
    "greedy_basis_lmo",
    "guarantee_factor",
    "integrality_gap_fractional_value",
    "integrality_gap_opt_value",
    "is_metric",
    "local_search_half",
    "materialize",
    "round",
    "round_step",
    "schoenberg_form",
    "select_pair",
    "slack_minimize",
    "solve_slice",
    "sweep_slices",
    "transform_distance",
    "validate_rank_table",
]
