"""Kemeny rank aggregation over partially ordered votes: exact optima, and
the first r of them in lexicographic order, by dynamic programming over
the ideals of the unanimity order, diverse solution sets by dynamic
programming on order-consistent path decompositions, with brute-force
oracles for desk-scale verification."""

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
    solve_diverse,
    solve_diverse_kra,
    solve_max_diversity,
)
from .solver_single import SingleSolution, solve_single
from .width import (
    ConsistentPathDecomposition,
    PathDecomposition,
    cocomparability_graph,
    consistent_path_decomposition,
)

__all__ = [
    "CandidateSet",
    "CapabilityError",
    "ConsistentPathDecomposition",
    "CostInstance",
    "DiverseOutcome",
    "DiverseQuery",
    "DiverseState",
    "InputError",
    "InternalError",
    "KemenyError",
    "KraDiverseOutcome",
    "LinearOrder",
    "PartialOrder",
    "PathDecomposition",
    "PcoInstance",
    "PcoResult",
    "Profile",
    "SingleSolution",
    "cocomparability_graph",
    "consistent_path_decomposition",
    "diversity",
    "kemeny_score",
    "kt_distance",
    "reduce_to_co",
    "solve_diverse",
    "solve_diverse_kra",
    "solve_max_diversity",
    "solve_pco",
    "solve_single",
    "unanimity_order",
]

__version__ = "0.1.0"
