"""Cocomparability graphs and order-consistent path decompositions.

Every routine here takes the order itself: its cocomparability graph is
read off it as the incomparability rows (``cocomparability_graph``), one
bitmask per vertex. The order's ideal lattice is one mapping from every
ideal but the full one to its moves, the minimal vertices outside it,
with the ideals in order of size (``ideal_lattice``), each built from its
parent's moves rather than a scan of the vertices outside it. A backward
pass over it gives each ideal the least vertex separation in the
cocomparability graph of a layout continuing it (``ideal_widths``): at
the empty ideal, the pathwidth (Habib and Möhring, Order 1994), which the
single solver reads without building bags. A greedy walk over those
widths picks a width-optimal linear extension, whose nice decomposition
introduces every element before any larger one, so it never forgets an
element while a smaller one is still waiting to be introduced, which is
exactly what the tail-order dynamic programs need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import InputError, InternalError, check_deadline
from .orders import PartialOrder, _bits, _full_mask


def cocomparability_graph(order: PartialOrder) -> tuple[int, ...]:
    """The order's cocomparability graph as bitmask adjacency rows: row v
    holds the elements incomparable to v."""
    return tuple(map(order.incomparable_to, range(order.n)))


# ---------------------------------------------------------------------------
# The ideal lattice and a width-optimal linear extension
# ---------------------------------------------------------------------------


def ideal_lattice(order: PartialOrder, deadline: float | None = None) -> dict[int, list[int]]:
    """Every ideal (downset) of the order but the full one, mapped to its
    minimal remaining vertices in ascending index. Ideals are inserted in
    order of size, breadth first from the empty one, so a backward pass
    over the items meets every ideal after all the larger ones. A new ideal
    I | x takes the moves of the first parent I that reaches it: I's moves
    but x, which stay minimal since two minimal vertices are incomparable,
    plus each upper cover of x whose strict down-set I | x now holds. The
    deadline is checked once per ideal."""
    n = order.n
    down = [order.strict_down(v) for v in range(n)]
    # per vertex x, (u, strict down-set of u) over the u that cover x
    covers: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for x, u in order.cover_pairs():
        covers[x].append((u, down[u]))
    moves = {0: [v for v in range(n) if not down[v]]}
    queue = [0]
    for ideal in queue:
        check_deadline(deadline)
        vs = moves[ideal]
        for x in vs:
            child = ideal | 1 << x
            if child in moves:
                continue
            rest = vs.copy()
            rest.remove(x)
            freed = [u for u, below in covers[x] if not below & ~child]
            moves[child] = sorted(rest + freed) if freed else rest
            queue.append(child)
    del moves[_full_mask(n)]
    return moves


def ideal_widths(
    order: PartialOrder, lattice: dict[int, list[int]], deadline: float | None = None
) -> dict[int, int]:
    """w[I] for every ideal I of the order, given its ``lattice``: the least
    vertex separation in the order's cocomparability graph of a layout that
    continues I. w[empty] is the graph's pathwidth, reached by some linear
    extension (Habib and Möhring, *Treewidth of cocomparability graphs and
    a new order-theoretic parameter*, Order 1994). Backwards, w[I] =
    max(cut(I), min over moves v of w[I | v]), where cut(I) counts the
    vertices of I with a neighbour outside I; the neighbours of the outside,
    reach[I], are those of I | v's outside plus those of v, for any move v."""
    adj = cocomparability_graph(order)
    full = _full_mask(order.n)
    w = {full: 0}
    reach = {full: 0}
    for ideal, vs in reversed(lattice.items()):
        check_deadline(deadline)
        near = reach[ideal] = reach[ideal | 1 << vs[0]] | adj[vs[0]]
        w[ideal] = max((ideal & near).bit_count(), min(w[ideal | 1 << v] for v in vs))
    return w


def width_optimal_extension(
    order: PartialOrder, lattice: dict[int, list[int]], deadline: float | None = None
) -> list[int]:
    """A linear extension of least vertex separation in the order's
    cocomparability graph: from the empty ideal, always the smallest-index
    move that keeps to w[empty]."""
    w = ideal_widths(order, lattice, deadline)
    full = _full_mask(order.n)
    layout = []
    ideal = 0
    while ideal != full:
        v = next(v for v in lattice[ideal] if w[ideal | 1 << v] <= w[0])
        layout.append(v)
        ideal |= 1 << v
    return layout


def nice_decomposition(order: PartialOrder, layout: Sequence[int]) -> "PathDecomposition":
    """The nice path decomposition of a layout of the order's
    cocomparability graph, from an empty bag to an empty bag: before each
    vertex is introduced, and once after the last, every bag vertex with
    no neighbour left to place is forgotten, in ascending index. Its width
    is the layout's vertex separation: the bag that introduces a vertex
    holds it and every earlier vertex with a neighbour among it and the
    later ones."""
    adj = cocomparability_graph(order)
    bags = [0]
    left = _full_mask(order.n)
    for v in (*layout, None):
        for u in _bits(bags[-1]):
            if not adj[u] & left:
                bags.append(bags[-1] & ~(1 << u))
        if v is not None:
            left &= ~(1 << v)
            bags.append(bags[-1] | 1 << v)
    return PathDecomposition(order.n, tuple(bags))


# ---------------------------------------------------------------------------
# Path decompositions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PathDecomposition:
    """A non-empty sequence of vertex bags (bitmasks); what a step
    introduces or forgets is read off two consecutive bags. The checks read
    each vertex's bags as one mask of bag indices."""

    n: int
    bags: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.bags:
            raise InputError("decomposition needs at least one bag")

    @property
    def width(self) -> int:
        return max(bag.bit_count() for bag in self.bags) - 1

    def validate(self, order: PartialOrder) -> list[str]:
        """All decomposition axioms against the order's cocomparability
        graph, then consistency with the order: no strict pair's larger
        element leaves before the smaller enters, where an element in no bag
        enters and leaves at -1. An empty list means valid."""
        if order.n != self.n:
            return [f"decomposition over {self.n} vertices, order has {order.n}"]
        adj = cocomparability_graph(order)
        full = _full_mask(self.n)
        problems = [
            "bag mentions vertices outside 0..n-1" for bag in self.bags if bag & ~full
        ]
        masks = [0] * self.n  # per vertex, the mask of its bags' indices
        for i, bag in enumerate(self.bags):
            for v in _bits(bag & full):
                masks[v] |= 1 << i
        if not all(masks):
            problems.append("bags do not cover every vertex")
        for u, mask in enumerate(masks):
            for v in _bits(adj[u] & ~_full_mask(u + 1)):
                if not mask & masks[v]:
                    problems.append(f"edge ({u},{v}) not covered by any bag")
        for v, mask in enumerate(masks):
            # adding its lowest bit clears a run of consecutive bits
            if (mask + (mask & -mask)) & mask:
                problems.append(f"bags containing {v} are not consecutive")
        # a mask's bit length is its last bag + 1, its lowest bit's its first + 1
        for x, y in order.strict_pairs():
            if masks[y].bit_length() < (masks[x] & -masks[x]).bit_length():
                problems.append(
                    f"element {y} is forgotten before smaller element {x} is introduced"
                )
        return problems

    @property
    def is_nice(self) -> bool:
        bags = self.bags
        return all((a ^ b).bit_count() == 1 for a, b in zip(bags, bags[1:]))


@dataclass(frozen=True)
class ConsistentPathDecomposition:
    """A nice path decomposition, starting and ending with an empty bag,
    that never forgets an element of the order while a smaller element is
    still waiting to be introduced."""

    decomposition: PathDecomposition
    order: PartialOrder

    @property
    def width(self) -> int:
        return self.decomposition.width

    def validate(self) -> list[str]:
        problems = self.decomposition.validate(self.order)
        if not self.decomposition.is_nice:
            problems.append("decomposition is not nice")
        return problems


def consistent_path_decomposition(
    order: PartialOrder, deadline: float | None = None
) -> ConsistentPathDecomposition:
    """Nice order-consistent path decomposition of the cocomparability
    graph, of optimal width: the nice decomposition of a width-optimal
    linear extension. A linear extension introduces x before y whenever
    x < y, so the result is consistent by construction."""
    layout = width_optimal_extension(order, ideal_lattice(order, deadline), deadline)
    result = ConsistentPathDecomposition(nice_decomposition(order, layout), order)
    problems = result.validate()
    if problems:
        raise InternalError("decomposition invalid: " + "; ".join(problems))
    return result
