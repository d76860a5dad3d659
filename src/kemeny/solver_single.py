"""Single-solution completion solver, and the tail-order registers the
diverse solver builds on.

``optimal_rankings`` is an exact dynamic program over the ideals
(downsets) of the base order, the subset program of Betzler et al.
(*Fixed-parameter algorithms for Kemeny rankings*, TCS 2009). A state is
the bitmask of the vertices already placed; placing a minimal remaining
vertex v pays charge[v][u] for every u still unplaced after it. The ideals
are built once, layer by layer by size (``width.ideal_lattice``), and the
same lattice yields the decomposition; a backward pass gives every ideal's
exact cost to go. A move is tight when it keeps to that cost, and the
optimal rankings are exactly the paths of tight moves from the empty ideal
to the full one (De Loof, De Meyer and De Baets, Fundamenta Informaticae
2006). Walked depth first in ascending vertex index, they come in
lexicographic order, a function of the input alone: ``solve`` and ``pco``
take the first, ``optima`` the first r. An ideal is fixed by its antichain
of maximal elements, so their number stays within the sum of 2^|bag| over
the bags of any path decomposition of the cocomparability graph:
fixed-parameter in the unanimity width.

``forward_tables`` is the left-to-right tail-order program over the nice
order-consistent path decomposition, which starts and ends with an empty
bag. A tail is held as its key ``(tail mask, tail order)``: the subset S of
the current bag that sits after every forgotten vertex, and the tail's
linear order. A key's moves depend on the key alone: ``tail_successors``
gives each next key with the step, the charged cost the move adds. A
forget step commits the dropped vertex and everything tail-smaller than it,
at step 0; an introduce step inserts the new vertex at every tail position
the base order allows, paying for the pairs it forms with vertices already
placed. From the empty tail the program computes the moves of every
reachable key once; ``backward_tables`` reads them for each key's exact
cost to go, whose value at the empty tail of the first bag is the
optimum, and the diverse lockstep reads them instead of making them
again. A ranking is read back off a chain of keys, as the prefixes its
forget steps commit.

Both programs check their state counts against these fixed-parameter bounds
as they build them (``errors.check_bound``): the ideals against the bag
sum, the reachable keys of each position against ``tail_bound``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import InternalError, check_bound, check_deadline
from .orders import CostInstance, LinearOrder, PartialOrder, _bits
from .width import (
    ConsistentPathDecomposition,
    PathDecomposition,
    consistent_path_decomposition,
    ideal_lattice,
)


# Tail subset (bitmask) and tail order (vertex tuple, first = smallest).
TailKey = tuple[int, tuple[int, ...]]
# Each key of one position mapped to its moves: (next key, step) pairs.
Moves = dict[TailKey, list[tuple[TailKey, int]]]


def tail_bound(delta: int, width: int) -> int:
    """The bound e * (delta + 1) * (width + 1)! on the distinct (key, cost)
    pairs at one position of a tail-order program over a decomposition of width
    ``width``. A tail is an ordered subset of a bag of at most width + 1
    vertices, and there are sum_k (width + 1)! / k! <= e * (width + 1)! of
    those. Within a cost window of delta, a tail's cost runs from the least
    cost of reaching it to delta above that: at most delta + 1 values."""
    return int(math.e * (delta + 1) * math.factorial(width + 1))


@dataclass(frozen=True)
class SingleSolution:
    extension: LinearOrder
    cost: int
    decomposition: ConsistentPathDecomposition


def _forget_successor(key: TailKey, gone: int) -> TailKey:
    """Drop the forgotten vertex (a nice step forgets exactly one) and
    everything tail-smaller than it."""
    tail, order = key
    if not tail & gone:
        return key
    cut = order.index(gone.bit_length() - 1) + 1
    for v in order[:cut]:
        tail ^= 1 << v
    return (tail, order[cut:])


def _introduce_successors(
    key: TailKey, v: int, next_bag: int, instance: CostInstance
) -> list[tuple[TailKey, int]]:
    """Insert v at every tail position the base order allows, each with the
    cost of the pairs it forms: tail vertices on either side, plus the bag
    vertices already committed before the whole tail."""
    tail, order = key
    charge = instance.charge
    base = instance.base
    up = base.strict_up(v)
    down = base.strict_down(v)
    new_tail = tail | (1 << v)
    committed = next_bag & ~new_tail
    base_cost = sum(charge[u][v] for u in _bits(committed))
    row_v = charge[v]

    # v must sit after every tail vertex below it and before every one above.
    lo = 0
    hi = len(order)
    for i, u in enumerate(order):
        if down & (1 << u):
            lo = i + 1
        if up & (1 << u) and i < hi:
            hi = i
    out = []
    before_cost = sum(charge[u][v] for u in order[:lo])
    for slot in range(lo, hi + 1):
        extra = before_cost + sum(row_v[u] for u in order[slot:])
        new_order = order[:slot] + (v,) + order[slot:]
        out.append(((new_tail, new_order), base_cost + extra))
        if slot < len(order):
            before_cost += charge[order[slot]][v]
    return out


def tail_successors(
    key: TailKey, dec: PathDecomposition, p: int, instance: CostInstance
) -> list[tuple[TailKey, int]]:
    """The key's moves across the transition p -> p+1 of a nice
    decomposition, as (next key, step) pairs: one on a forget step, one per
    allowed slot of the new vertex on an introduce step."""
    gone = dec.forgotten(p + 1)
    if gone:
        return [(_forget_successor(key, gone), 0)]
    v = dec.introduced(p + 1).bit_length() - 1
    return _introduce_successors(key, v, dec.bags[p + 1], instance)


def forward_tables(
    instance: CostInstance,
    dec: PathDecomposition,
    width: int,
    deadline: float | None = None,
) -> list[Moves]:
    """Per transition p -> p+1, each key reachable at p from the empty tail
    mapped to its moves. ``dec`` must start and end with an empty bag."""
    moves: list[Moves] = []
    keys: dict[TailKey, None] = {(0, ()): None}
    for p in range(len(dec.bags) - 1):
        check_deadline(deadline)
        here: Moves = {key: tail_successors(key, dec, p, instance) for key in keys}
        keys = dict.fromkeys(k for succ in here.values() for k, _ in succ)
        # distinct keys only: the count of a window of delta 0
        check_bound("triple", len(keys), tail_bound(0, width))
        moves.append(here)
    return moves


def backward_tables(
    moves: Sequence[Moves], deadline: float | None = None
) -> list[dict[TailKey, int]]:
    """Each reachable key of ``forward_tables`` mapped to its exact cost to
    go, the least cost its completions add on the way to the final empty
    tail, read off the ``moves``. The to-go of the empty tail at position 0
    is the optimum, and a key's least cost to reach plus its to-go is the
    cheapest full solution through it, never below the optimum."""
    last = len(moves)
    tables: list[dict[TailKey, int]] = [{} for _ in range(last)]
    tables.append({(0, ()): 0})
    for p in range(last - 1, -1, -1):
        check_deadline(deadline)
        nxt = tables[p + 1]
        here = tables[p]
        for key, succ in moves[p].items():
            try:
                here[key] = min(step + nxt[k] for k, step in succ)
            except (KeyError, ValueError):
                raise InternalError("reachable tail has no completion") from None
    return tables


def reconstruct_extension(chain: Sequence[TailKey], base: PartialOrder) -> LinearOrder:
    """The ranking a chain of tail keys commits, from a tail with nothing
    committed before it to the final empty tail: each step that shortens the
    tail commits the prefix it drops. A ranking that misses or repeats a
    vertex, or breaks the base order, is a solver bug."""
    perm: list[int] = []
    for (_, order), (_, following) in zip(chain, chain[1:]):
        perm += order[: max(0, len(order) - len(following))]
    if sorted(perm) != list(range(base.n)):
        raise InternalError("chain does not commit every vertex exactly once")
    extension = LinearOrder(tuple(perm))
    if not extension.extends(base):
        raise InternalError("chain ranking does not extend the base order")
    return extension


def optimal_rankings(
    instance: CostInstance,
    deadline: float | None = None,
) -> tuple[int, ConsistentPathDecomposition, Iterator[LinearOrder]]:
    """The optimum, the decomposition, and every optimal linear extension of
    the instance's base order, lazily and in lexicographic order by vertex
    index: the tight-move paths of the ideal lattice, depth first. Each is
    checked to cost the optimum before it is yielded."""
    base = instance.base
    lattice = ideal_lattice(base, deadline)
    decomposition = consistent_path_decomposition(base, lattice, deadline)
    layers, moves = lattice
    # An ideal is fixed by its antichain of maximal elements, a clique of the
    # cocomparability graph and so a subset of some bag.
    ideals = sum(len(layer) for layer in layers)
    bags = decomposition.decomposition.bags
    check_bound("ideal", ideals, sum(1 << bag.bit_count() for bag in bags))
    n = instance.n
    full = (1 << n) - 1
    # (bit of u, charge[v][u]) over the incomparable u that v pays for when
    # u is placed after it; pairs comparable in the base order never pay.
    pays = [
        [
            (1 << u, c)
            for u, c in enumerate(instance.charge[v])
            if c and base.incomparable(v, u)
        ]
        for v in range(n)
    ]

    def step(ideal: int, v: int) -> int:
        return sum(c for bit, c in pays[v] if not ideal & bit)

    to_go = {full: 0}
    for layer in reversed(layers[:-1]):
        check_deadline(deadline)
        for ideal in layer:
            to_go[ideal] = min(step(ideal, v) + to_go[ideal | 1 << v] for v in moves[ideal])

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
                if step(ideal, v) + to_go[ideal | 1 << v] == left:
                    stack.append((ideal | 1 << v, prefix + (v,)))

    return to_go[0], decomposition, walk()


def solve_single(
    instance: CostInstance,
    deadline: float | None = None,
) -> SingleSolution:
    """Optimal linear extension of the instance's base order and its cost;
    of several optima, the lexicographically smallest by vertex index."""
    opt, decomposition, rankings = optimal_rankings(instance, deadline)
    return SingleSolution(next(rankings), opt, decomposition)
