"""Single-solution completion solver: the ideal lattice of the base order.

``optimal_rankings`` is an exact dynamic program over the ideals
(downsets) of the base order, the subset program of Betzler et al.
(*Fixed-parameter algorithms for Kemeny rankings*, TCS 2009). A state is
the bitmask of the vertices already placed; placing a minimal remaining
vertex v pays cost[v][u] for every u still unplaced after it. The ideals
are built once, in order of size, each mapped to its moves, taken from
its parent's (``width.ideal_lattice``), and a backward pass over that
mapping gives every ideal's exact cost to go. A move is tight when it
keeps to that cost, and the optimal rankings are exactly the paths of
tight moves from the empty ideal to the full one (De Loof, De Meyer and
De Baets, Fundamenta Informaticae 2006). Walked depth first in ascending
vertex index, they come in lexicographic order, a function of the input
alone: ``solve`` and ``pco`` take the first, ``optima`` the first r.

The unanimity width w is read off the same lattice: it is the least vertex
separation of the cocomparability graph over the ideals
(``width.ideal_widths``), so no path decomposition is built. An ideal is
fixed by its antichain of maximal elements, a clique of that graph; in a
layout of vertex separation w a non-empty clique's last vertex has at most
w earlier neighbours, so there are at most n * 2^w + 1 ideals:
fixed-parameter in the unanimity width. ``optimal_rankings`` checks the
ideal count against that bound (``errors.check_bound``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import InternalError, check_bound, check_deadline
from .orders import CostInstance, LinearOrder, _bits
from .width import ideal_lattice, ideal_widths


@dataclass(frozen=True)
class SingleSolution:
    extension: LinearOrder
    cost: int
    width: int


def optimal_rankings(
    instance: CostInstance,
    deadline: float | None = None,
) -> tuple[int, int, Iterator[LinearOrder]]:
    """The optimum, the unanimity width, and every optimal linear extension of
    the instance's base order, lazily and in lexicographic order by vertex
    index: the tight-move paths of the ideal lattice, depth first. Each is
    checked to cost the optimum before it is yielded."""
    base = instance.base
    moves = ideal_lattice(base, deadline)
    width = ideal_widths(base, moves, deadline)[0]
    n = instance.n
    check_bound("ideal", len(moves) + 1, n * 2**width + 1)
    full = (1 << n) - 1
    # (bit of u, cost[v][u]) over the incomparable u that v pays for when
    # u is placed after it; pairs comparable in the base order never pay.
    pays = [
        [(1 << u, cost[u]) for u in _bits(base.incomparable_to(v)) if cost[u]]
        for v, cost in enumerate(instance.cost)
    ]

    to_go = {full: 0}
    for ideal, vs in reversed(moves.items()):
        check_deadline(deadline)
        to_go[ideal] = min(
            sum([c for bit, c in pays[v] if not ideal & bit]) + to_go[ideal | 1 << v] for v in vs
        )

    def walk() -> Iterator[LinearOrder]:
        # Depth first over the tight moves, smallest vertex popped first;
        # every ideal on a tight path has a tight move out, so no dead ends.
        stack: list[tuple[int, tuple[int, ...]]] = [(0, ())]
        while stack:
            check_deadline(deadline)
            ideal, prefix = stack.pop()
            if ideal == full:
                ranking = LinearOrder(prefix)
                if instance.extension_cost(ranking) != to_go[0]:
                    raise InternalError("tight path does not cost the optimum")
                yield ranking
                continue
            left = to_go[ideal]
            for v in reversed(moves[ideal]):
                nxt = ideal | 1 << v
                if sum([c for bit, c in pays[v] if not ideal & bit]) + to_go[nxt] == left:
                    stack.append((nxt, prefix + (v,)))

    return to_go[0], width, walk()


def solve_single(
    instance: CostInstance,
    deadline: float | None = None,
) -> SingleSolution:
    """Optimal linear extension of the instance's base order and its cost;
    of several optima, the lexicographically smallest by vertex index."""
    opt, width, rankings = optimal_rankings(instance, deadline)
    return SingleSolution(next(rankings), opt, width)
