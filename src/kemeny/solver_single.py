"""Single-solution completion solver: a left-to-right dynamic program over a
nice order-consistent path decomposition padded to start and end with an
empty bag.

A state ("triple") is the tail of a partial solution, held as the plain
tuple ``(tail mask, tail order, cost)``: the subset S of the current bag
that sits after every forgotten vertex, the tail's linear order, and the
charged cost accumulated so far. The program starts from the empty tail at
cost 0. On a forget step the dropped vertex and everything tail-smaller
than it become committed; on an introduce step the new vertex is inserted
at every tail position the base order allows, paying for the pairs it
forms with vertices already placed. Keeping only the cheapest triple per
(subset, tail order) is lossless for the optimum, and the final empty
tail's cost is the optimal completion cost. The witness is read back off
the chain of tails: each forget step commits a prefix of the tail, and the
committed prefixes in order are the ranking.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Sequence

from .errors import CapabilityError, InputError, InternalError
from .orders import CostInstance, LinearOrder, PartialOrder, _bits
from .width import (
    ConsistentPathDecomposition,
    PathDecomposition,
    consistent_path_decomposition,
    pad_to_empty,
)


# Tail subset (bitmask), tail order (vertex tuple, first = smallest),
# accumulated charged cost.
TailState = tuple[int, tuple[int, ...], int]


class BoundMonitor:
    """Counts per-position state-count checks against the factorial bound
    e * (delta + 1) * (width + 1)!. Violations raise immediately; the
    counters let test suites assert that the bound never fired."""

    def __init__(self) -> None:
        self.enabled = True
        self.checks = 0
        self.violations = 0

    def check_triples(self, count: int, delta: int, width: int) -> None:
        if not self.enabled:
            return
        self.checks += 1
        bound = math.e * (delta + 1) * math.factorial(width + 1)
        if count > bound:
            self.violations += 1
            raise InternalError(
                f"triple count {count} exceeds e*(delta+1)*(w+1)! = {bound:.1f}"
            )

    def check_tuples(
        self, count: int, delta: int, width: int, r: int, s_cap: int, d_cap: int
    ) -> None:
        if not self.enabled:
            return
        self.checks += 1
        per_solution = math.e * (delta + 1) * math.factorial(width + 1)
        bound = per_solution**r * (s_cap + 1) ** (r * (r - 1) // 2) * (d_cap + 1)
        if count > bound:
            self.violations += 1
            raise InternalError(f"tuple count {count} exceeds register bound {bound:.1f}")


BOUNDS = BoundMonitor()


@dataclass(frozen=True)
class SingleSolution:
    extension: LinearOrder
    cost: int
    decomposition: ConsistentPathDecomposition


def _forget_successor(triple: TailState, gone: int) -> TailState:
    """Drop the forgotten vertex and everything tail-smaller than it."""
    tail, order, cost = triple
    if not tail & gone:
        return triple
    cut = max(order.index(v) for v in _bits(tail & gone))
    kept = order[cut + 1 :]
    new_tail = 0
    for v in kept:
        new_tail |= 1 << v
    return (new_tail, kept, cost)


def _introduce_successors(
    triple: TailState, v: int, next_bag: int, instance: CostInstance
) -> list[TailState]:
    """Insert v at every tail position the base order allows and charge the
    pairs it forms: tail vertices on either side, plus the bag vertices
    already committed before the whole tail."""
    tail, order, cost = triple
    charge = instance.charge
    base = instance.base
    up = base.strict_up(v)
    down = base.strict_down(v)
    new_tail = tail | (1 << v)
    committed = next_bag & ~new_tail
    base_cost = cost + sum(charge[u][v] for u in _bits(committed))
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
        out.append((new_tail, new_order, base_cost + extra))
        if slot < len(order):
            before_cost += charge[order[slot]][v]
    return out


def prepare_decomposition(
    instance: CostInstance, decomposition: ConsistentPathDecomposition | None = None
) -> tuple[ConsistentPathDecomposition, PathDecomposition]:
    """The one place a decomposition is built or validated: returns it with
    its bags padded to an empty bag at both ends. One built here was
    validated by its builder; a supplied one that is for another base order
    or fails ``validate()`` (niceness included) raises InputError."""
    if decomposition is None:
        decomposition = consistent_path_decomposition(instance.base)
    elif decomposition.order != instance.base:
        raise InputError("decomposition built for a different base order")
    else:
        problems = decomposition.validate()
        if problems:
            raise InputError("invalid decomposition: " + "; ".join(problems))
    return decomposition, pad_to_empty(decomposition.decomposition)


def _check_deadline(deadline: float | None) -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise CapabilityError("solve aborted: wall-clock timeout")


def forward_tables(
    instance: CostInstance,
    dec: PathDecomposition,
    width: int,
    deadline: float | None = None,
) -> list[dict[tuple[int, tuple[int, ...]], tuple[int, tuple | None]]]:
    """Per-position registers mapping each reachable (tail, order) pair to
    its minimum accumulated cost and a predecessor key for backtracking.

    ``dec`` must start and end with an empty bag (``pad_to_empty``): the
    first register is the empty tail alone, the last one holds the optimum.
    Iteration over predecessors is in ascending (order, tail) so that ties
    keep the lexicographically smallest tail order, which pins the
    reconstructed optimum.
    """
    tables: list[dict] = [{(0, ()): (0, None)}]
    for p in range(len(dec.bags) - 1):
        _check_deadline(deadline)
        prev = tables[-1]
        nxt: dict = {}
        intro = dec.introduced(p + 1)
        gone = dec.forgotten(p + 1)
        for key in sorted(prev, key=lambda k: (k[1], k[0])):
            cost = prev[key][0]
            state = (key[0], key[1], cost)
            if gone:
                succs = [_forget_successor(state, gone)]
            else:
                v = intro.bit_length() - 1
                succs = _introduce_successors(state, v, dec.bags[p + 1], instance)
            for tail, order, new_cost in succs:
                skey = (tail, order)
                old = nxt.get(skey)
                if old is None or new_cost < old[0]:
                    nxt[skey] = (new_cost, key)
        BOUNDS.check_triples(len(nxt), 0, width)
        tables.append(nxt)
    return tables


def reconstruct_extension(
    chain: Sequence[TailState | tuple[int, tuple[int, ...]]], base: PartialOrder
) -> LinearOrder:
    """The ranking a chain of tails commits, from a tail with nothing
    committed before it to the final empty tail: each step that shortens the
    tail commits the prefix it drops. A ranking that misses or repeats a
    vertex, or breaks the base order, is a solver bug."""
    perm: list[int] = []
    for entry, following in zip(chain, chain[1:]):
        order = entry[1]
        perm += order[: max(0, len(order) - len(following[1]))]
    if sorted(perm) != list(range(base.n)):
        raise InternalError("chain does not commit every vertex exactly once")
    extension = LinearOrder(tuple(perm))
    if not extension.extends(base):
        raise InternalError("chain ranking does not extend the base order")
    return extension


def solve_single(
    instance: CostInstance,
    decomposition: ConsistentPathDecomposition | None = None,
    deadline: float | None = None,
) -> SingleSolution:
    """Optimal linear extension of the instance's base order and its cost."""
    decomposition, dec = prepare_decomposition(instance, decomposition)
    tables = forward_tables(instance, dec, decomposition.width, deadline)
    final = tables[-1]
    if list(final) != [(0, ())]:
        raise InternalError("final register is not the single empty tail")
    opt = final[(0, ())][0]

    chain = []
    key = (0, ())
    for p in range(len(tables) - 1, -1, -1):
        chain.append(key)
        key = tables[p][key][1]
    chain.reverse()
    extension = reconstruct_extension(chain, instance.base)
    if instance.extension_cost(extension) != opt:
        raise InternalError("reconstructed extension cost does not match optimum")
    return SingleSolution(extension, opt, decomposition)
