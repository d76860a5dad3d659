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

``forward_tables`` is the left-to-right tail-order program over a nice
order-consistent path decomposition padded to start and end with an empty
bag. A tail is held as its key ``(tail mask, tail order)``: the subset S of
the current bag that sits after every forgotten vertex, and the tail's
linear order. A key's moves depend on the key alone: ``tail_successors``
gives each next key with the step, the charged cost the move adds. A
forget step commits the dropped vertex and everything tail-smaller than it,
at step 0; an introduce step inserts the new vertex at every tail position
the base order allows, paying for the pairs it forms with vertices already
placed. From the empty tail at cost 0 the program keeps each reachable
key's least cost, which is lossless for the optimum: the final empty
tail's. It computes each key's moves once and returns them with the
tables, so ``backward_tables`` (each key's exact cost to go) and the
diverse lockstep read them instead of making them again. A ranking is read
back off a chain of keys, as the prefixes its forget steps commit.

Both programs check their state counts against these fixed-parameter bounds
as they build them (``errors.check_bound``): the ideals against the bag
sum, each forward register against ``tail_bound``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import InternalError, check_bound, check_deadline
from .orders import CostInstance, LinearOrder, PartialOrder, _bits
from .width import (
    ConsistentPathDecomposition,
    IdealLattice,
    PathDecomposition,
    consistent_path_decomposition,
    ideal_lattice,
    pad_to_empty,
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
    those. Within a cost window of delta, a tail's cost runs from its least
    forward cost to delta above it: at most delta + 1 values."""
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


def prepare_decomposition(
    instance: CostInstance,
    lattice: IdealLattice | None = None,
    deadline: float | None = None,
) -> tuple[ConsistentPathDecomposition, PathDecomposition]:
    """The one place a decomposition is built: returns it with its bags
    padded to an empty bag at both ends. It is built from the base order's
    ideal lattice if the caller has it; ``consistent_path_decomposition``
    validates what it returns."""
    decomposition = consistent_path_decomposition(
        instance.base, lattice=lattice, deadline=deadline
    )
    return decomposition, pad_to_empty(decomposition.decomposition)


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
) -> tuple[list[dict[TailKey, int]], list[Moves]]:
    """The diverse solver's per-position registers: each reachable key
    mapped to its least accumulated cost; and per transition p -> p+1, each
    key at p mapped to its moves.

    ``dec`` must start and end with an empty bag (``pad_to_empty``): the
    first register is the empty tail alone, the last one holds the optimum.
    """
    tables: list[dict[TailKey, int]] = [{(0, ()): 0}]
    moves: list[Moves] = []
    for p in range(len(dec.bags) - 1):
        check_deadline(deadline)
        here: Moves = {}
        nxt: dict[TailKey, int] = {}
        for key, cost in tables[-1].items():
            here[key] = tail_successors(key, dec, p, instance)
            for new_key, step in here[key]:
                old = nxt.get(new_key)
                if old is None or cost + step < old:
                    nxt[new_key] = cost + step
        # one least cost per key: a window of delta 0
        check_bound("triple", len(nxt), tail_bound(0, width))
        tables.append(nxt)
        moves.append(here)
    return tables, moves


def backward_tables(
    singles: Sequence[dict[TailKey, int]],
    moves: Sequence[Moves],
    deadline: float | None = None,
) -> list[dict[TailKey, int]]:
    """The mirror of ``forward_tables``: each key of the forward registers
    ``singles`` mapped to its exact cost to go, the least cost its
    completions add on the way to the final empty tail, read off the
    forward ``moves``.

    So forward + to-go of a key is the cheapest full solution through it,
    never below the optimum, which is the to-go of the empty tail at
    position 0.
    """
    last = len(singles) - 1
    tables: list[dict[TailKey, int]] = [{} for _ in singles]
    tables[last] = dict.fromkeys(singles[last], 0)
    for p in range(last - 1, -1, -1):
        check_deadline(deadline)
        nxt = tables[p + 1]
        here = tables[p]
        for key in singles[p]:
            try:
                here[key] = min(step + nxt[k] for k, step in moves[p][key])
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
    decomposition, dec = prepare_decomposition(instance, lattice, deadline)
    layers, moves = lattice
    # An ideal is fixed by its antichain of maximal elements, a clique of the
    # cocomparability graph and so a subset of some bag.
    ideals = sum(len(layer) for layer in layers)
    check_bound("ideal", ideals, sum(1 << bag.bit_count() for bag in dec.bags))
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
