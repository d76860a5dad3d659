"""Budgeted completion with strictly positive costs on incomparable pairs.

Positivity buys a structural early exit: every edge of the cocomparability
graph joins a pair that any completion must charge at least 1 for, so an
instance whose graph has more than k edges cannot be completed within
budget k, and on YES-instances the graph stays sparse enough that its
pathwidth grows only like the square root of the budget. ``solve_pco``
applies that bound, then runs the single-solution program and compares its
optimum against the budget.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError, check_deadline
from .orders import CostInstance, LinearOrder
from .solver_single import solve_single
from .width import cocomparability_graph


@dataclass(frozen=True)
class PcoInstance:
    """A completion instance whose incomparable pairs all cost at least 1."""

    instance: CostInstance

    def __post_init__(self) -> None:
        if not self.instance.is_positive:
            raise InputError(
                "not a positive instance: some incomparable pair has zero cost"
            )


@dataclass(frozen=True)
class PcoResult:
    feasible: bool
    edges: int
    optimum: int | None  # None when the edge bound rejected before solving
    witness: LinearOrder | None
    width: int | None


def solve_pco(
    inst: PcoInstance, k: int, deadline: float | None = None
) -> PcoResult:
    """YES with a witness extension of cost at most k, or NO.

    Rejects without solving when the incomparability graph has more than k
    edges, since each edge costs at least 1 in any completion.
    """
    if k < 0:
        raise InputError("budget must be non-negative")
    check_deadline(deadline)
    rows = cocomparability_graph(inst.instance.base)
    edges = sum(row.bit_count() for row in rows) // 2
    if edges > k:
        return PcoResult(False, edges, None, None, None)
    solution = solve_single(inst.instance, deadline=deadline)
    feasible = solution.cost <= k
    return PcoResult(
        feasible,
        edges,
        solution.cost,
        solution.extension if feasible else None,
        solution.width,
    )
