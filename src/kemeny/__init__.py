"""Kemeny rank aggregation over partially ordered votes: exact optima and
diverse solution sets via dynamic programming on order-consistent path
decompositions, with brute-force oracles for desk-scale verification."""

from .errors import CapabilityError, InputError, InternalError, KemenyError
from .orders import (
    CandidateSet,
    CostInstance,
    LinearOrder,
    PartialOrder,
    Profile,
    diversity,
    kemeny_score,
    kt_distance,
    reduce_to_co,
    unanimity_order,
)
from .pco import PcoInstance, PcoResult, solve_pco
from .solver_diverse import (
    DiverseOutcome,
    DiverseQuery,
    DiverseState,
    KraDiverseOutcome,
    MaxDiversityResult,
    find_distinct_optima,
    solve_diverse,
    solve_diverse_kra,
    solve_max_diversity,
)
from .solver_single import SingleSolution, solve_single
from .width import (
    ConsistentPathDecomposition,
    Graph,
    PathDecomposition,
    cocomparability_graph,
    consistent_path_decomposition,
    exact_pathwidth,
    interval_order_from_fill,
    make_nice,
    minimal_triangulation,
)

__all__ = [
    "CandidateSet",
    "CapabilityError",
    "ConsistentPathDecomposition",
    "CostInstance",
    "DiverseOutcome",
    "DiverseQuery",
    "DiverseState",
    "Graph",
    "InputError",
    "InternalError",
    "KemenyError",
    "KraDiverseOutcome",
    "LinearOrder",
    "MaxDiversityResult",
    "PartialOrder",
    "PathDecomposition",
    "PcoInstance",
    "PcoResult",
    "Profile",
    "SingleSolution",
    "cocomparability_graph",
    "consistent_path_decomposition",
    "diversity",
    "exact_pathwidth",
    "find_distinct_optima",
    "interval_order_from_fill",
    "kemeny_score",
    "kt_distance",
    "make_nice",
    "minimal_triangulation",
    "reduce_to_co",
    "solve_diverse",
    "solve_diverse_kra",
    "solve_max_diversity",
    "solve_pco",
    "solve_single",
    "unanimity_order",
]

__version__ = "0.1.0"
