"""Diverse-solution solver: r tail-order programs advanced in lockstep over
one nice consistent path decomposition, which starts and ends with an empty
bag.

A tail is held as its key ``(tail mask, tail order)``: the subset S of the
current bag that sits after every forgotten vertex, and the tail's linear
order. A key's moves depend on the key alone; each is a triple (next key,
step, below). A forget step commits the dropped vertex and everything
tail-smaller than it, at step 0 and with ``below`` 0; an introduce step
inserts the new vertex at every tail position the base order allows, its
step the cost of the pairs it forms with vertices already placed, its
``below`` the bag vertices it puts below the new one. From the empty tail
``forward_tables`` computes the moves of every reachable key once;
``backward_tables`` reads them for each key's exact cost to go, whose value
at the empty tail of the first bag is the optimum. A ranking is read back
off a chain of keys, as the prefixes its forget steps commit.

The lockstep runs from r empty tails at the first bag to r empty tails at
the last. Each solution slot of a state is a tail key with its cost,
advanced by the same moves, with two kinds of saturating registers riding
along every state:

* one register per unordered solution pair holding min(distance so far, s),
* one register holding min(total diversity so far, d).

A pair of placed vertices is counted the moment the later of the two is
introduced: a bag vertex is below the new vertex in one solution and above
it in the other exactly when one move's ``below`` holds it and the other's
does not, so a pair of solutions gains the XOR popcount of the two masks.
Vertices forgotten earlier are below the new vertex in the base order, in
both solutions, so nothing is missed. Since increments are non-negative,
saturating addition makes every final register exactly min(true value,
cap), which is all the acceptance checks need. Slots are pruned by an exact
cost window: a slot whose cost plus its key's cost to go exceeds opt +
delta can never finish within it. A dropped state is never an ancestor of a
final state, so the final states and the backtrack are those of the
unpruned program.

States that differ only in their registers share their slot tuple, and
with it every combination of moves, the sort that makes each successor
canonical and the pair increments. So each transition groups its frontier
by slot tuple, makes each combination once, and applies it to the
registers of every state in the group.

The forward sweep and the lockstep check their state counts against the
fixed-parameter bound ``tail_bound`` as they build them
(``errors.check_bound``); both sweeps check the deadline once per key, and
the lockstep once per combination and once per successor state. The
lockstep keeps only its frontier, each state linked to its least parent's
entry for the backtrack.

The modes are ``decide`` and ``max-diversity``. Asking for r distinct
optima needs no lockstep: the ``optima`` command lists the first r optima
off the ideal lattice (``solver_single.optimal_rankings``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

from .errors import InputError, InternalError, check_bound, check_deadline
from .orders import (
    CostInstance,
    LinearOrder,
    PartialOrder,
    Profile,
    _bits,
    kemeny_score,
    kt_distance,
    reduce_to_co,
)
from .width import PathDecomposition, consistent_path_decomposition


# ---------------------------------------------------------------------------
# One tail-order program: keys, moves, cost to go, and ranking read-back
# ---------------------------------------------------------------------------

# Tail subset (bitmask) and tail order (vertex tuple, first = smallest).
TailKey = tuple[int, tuple[int, ...]]
# Each key of one position mapped to its moves, each (next key, step, below);
# on a forget step a key has the one move ((next key, 0, 0),). Tuples of
# atoms, unlike lists, drop out of the cyclic collector's tracking.
Moves = dict[TailKey, tuple[tuple[TailKey, int, int], ...]]


def tail_bound(delta: int, width: int) -> int:
    """The bound e * (delta + 1) * (width + 1)! on the distinct (key, cost)
    pairs at one position of a tail-order program over a decomposition of width
    ``width``. A tail is an ordered subset of a bag of at most width + 1
    vertices, and there are sum_k (width + 1)! / k! <= e * (width + 1)! of
    those. Within a cost window of delta, a tail's cost runs from the least
    cost of reaching it to delta above that: at most delta + 1 values."""
    return int(math.e * (delta + 1) * math.factorial(width + 1))


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
) -> tuple[tuple[TailKey, int, int], ...]:
    """Insert v at every tail position the base order allows, each with the
    cost of the pairs it forms (tail vertices on either side, plus the bag
    vertices already committed before the whole tail) and the mask of the
    bag vertices it puts below v: the committed ones and the tail before
    v's slot.

    One walk along the tail: v starts before all of it, and each step moves
    it past the next tail vertex u, which swaps the pair's charge from
    ``cost[v][u]`` to ``cost[u][v]`` and puts u below v. A slot is emitted
    once v has passed every tail vertex below it, and the walk stops at the
    first one above it."""
    tail, order = key
    cost = instance.cost
    base = instance.base
    up = base.strict_up(v)
    pending = base.strict_down(v) & tail
    new_tail = tail | (1 << v)
    below = next_bag & ~new_tail
    row_v = cost[v]
    step = sum(cost[u][v] for u in _bits(below)) + sum(row_v[u] for u in order)
    out = []
    for slot, u in enumerate((*order, None)):
        if not pending:
            out.append(((new_tail, order[:slot] + (v,) + order[slot:]), step, below))
        if u is None or up >> u & 1:
            break
        step += cost[u][v] - row_v[u]
        below |= 1 << u
        pending &= ~(1 << u)
    return tuple(out)


def forward_tables(
    instance: CostInstance,
    dec: PathDecomposition,
    deadline: float | None = None,
) -> list[Moves]:
    """Per transition p -> p+1, each key reachable at p from the empty tail
    mapped to its moves: one on a forget step, one per allowed slot of the
    new vertex on an introduce step. ``dec`` must be nice and start and end
    with an empty bag."""
    bound = tail_bound(0, dec.width)
    moves: list[Moves] = []
    keys: dict[TailKey, None] = {(0, ()): None}
    for bag, next_bag in zip(dec.bags, dec.bags[1:]):
        gone = bag & ~next_bag
        v = (next_bag & ~bag).bit_length() - 1
        here: Moves = {}
        for key in keys:
            check_deadline(deadline)
            here[key] = (
                ((_forget_successor(key, gone), 0, 0),)
                if gone
                else _introduce_successors(key, v, next_bag, instance)
            )
        keys = dict.fromkeys(k for succ in here.values() for k, _, _ in succ)
        # distinct keys only: the count of a window of delta 0
        check_bound("triple", len(keys), bound)
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
        nxt = tables[p + 1]
        here = tables[p]
        for key, succ in moves[p].items():
            check_deadline(deadline)
            try:
                here[key] = min(step + nxt[k] for k, step, _ in succ)
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


# ---------------------------------------------------------------------------
# The lockstep of r programs
# ---------------------------------------------------------------------------

MODES = ("decide", "max-diversity")


@dataclass(frozen=True)
class DiverseQuery:
    """How many solutions, how far from optimal they may be, and the
    diversity / pairwise-distance targets. Decide mode treats the answer
    as a set, which forces a pairwise distance of at least 1."""

    r: int
    delta: int = 0
    d: int = 0
    s: int = 0
    mode: str = "decide"

    def __post_init__(self) -> None:
        if self.r < 1:
            raise InputError("need at least one solution")
        if min(self.delta, self.d, self.s) < 0:
            raise InputError("delta, d and s must be non-negative")
        if self.mode not in MODES:
            raise InputError(f"unknown mode {self.mode!r}")


# One solution of a lockstep state: its tail key and accumulated cost.
Slot = tuple[TailKey, int]


class DiverseState(NamedTuple):
    slots: tuple[Slot, ...]
    div: int
    dist: tuple[int, ...]  # one entry per pair (i, j), i < j, lexicographic


@dataclass(frozen=True)
class DiverseOutcome:
    """A decision with, on YES, the witnesses sorted by permutation and each
    listed once with its cost, the diversity of the whole selection and the
    witnesses' pairwise distances. Only a max-diversity selection can repeat
    a ranking: its ``diversity`` still counts every pair of the r selected
    rankings, so repeats add 0 to it."""

    feasible: bool
    witnesses: tuple[LinearOrder, ...] | None
    costs: tuple[int, ...] | None
    diversity: int | None
    pairwise: tuple[int, ...] | None  # pairs of witnesses, lexicographic
    optimum: int
    width: int
    failed_constraint: str | None = None
    detail: str | None = None


def _slot_allowed(
    key: TailKey, cost: int, to_go: dict[TailKey, int], cost_bound: int
) -> bool:
    """Whether a slot can still finish within the cost window: its cost
    plus its key's exact cost to go stays within ``cost_bound`` (opt +
    delta)."""
    rest = to_go.get(key)
    if rest is None:
        raise InternalError("successor tail missing from the cost-to-go register")
    return cost + rest <= cost_bound


def tuple_successors(
    slots: tuple[Slot, ...],
    *,
    moves: Moves,
    to_go: dict[TailKey, int],
    cost_bound: int,
    pair_index: dict[tuple[int, int], int],
    succ_cache: dict,
) -> Iterator[tuple]:
    """Yield each combination of moves of the solution ``slots`` across one
    transition once, already canonical: the sorted successor slots (states
    are multisets of solutions), the slot map canonical -> original, the
    total increment, and per canonical pair, lexicographic, the index in
    ``pair_index`` of the original pair it came from and that pair's
    increment, the XOR popcount of its two moves' ``below`` masks.

    Each solution advances by its key's ``moves``. ``to_go`` is the
    cost-to-go register after the transition; a solution that cannot finish
    within ``cost_bound`` (``_slot_allowed``) leaves no combination at all.
    ``succ_cache`` memoises per-slot successors within one transition.
    """
    options: list[list[tuple[Slot, int]]] = []
    for slot in slots:
        opts = succ_cache.get(slot)
        if opts is None:
            key, cost = slot
            if key not in moves:
                raise InternalError("lockstep tail missing from the forward moves")
            opts = succ_cache[slot] = [
                ((k, cost + step), below)
                for k, step, below in moves[key]
                if _slot_allowed(k, cost + step, to_go, cost_bound)
            ]
        if not opts:
            return
        options.append(opts)
    identity = range(len(slots))
    for combo in itertools.product(*options):
        new = [slot for slot, _ in combo]
        order = sorted(identity, key=new.__getitem__)
        total = 0
        pair_incs = []
        for i, j in pair_index:
            a, b = order[i], order[j]
            if a > b:
                a, b = b, a
            inc = (combo[a][1] ^ combo[b][1]).bit_count()
            total += inc
            pair_incs.append((pair_index[a, b], inc))
        yield tuple(map(new.__getitem__, order)), tuple(order), total, tuple(pair_incs)


def _backtrack(state: DiverseState, entry: tuple, r: int) -> list[list[TailKey]]:
    """Each slot's chain of tail keys, from the root to the final ``state``,
    following its frontier ``entry``'s links (parent, parent's entry,
    perm) back to the root's (None, None, None)."""
    chains: list[list[TailKey]] = [[] for _ in range(r)]
    where = list(range(r))  # final slot j sits at index where[j] of state
    while True:
        for j in range(r):
            chains[j].append(state.slots[where[j]][0])
        parent, entry, perm = entry
        if parent is None:
            break
        where = [perm[where[j]] for j in range(r)]
        state = parent
    for chain in chains:
        chain.reverse()
    return chains


def _lockstep(
    moves: Sequence[Moves],
    to_go: Sequence[dict[TailKey, int]],
    r: int,
    *,
    cost_bound: int,
    d_cap: int,
    s_cap: int,
    slot_bound: int,
    deadline: float | None = None,
) -> dict[DiverseState, tuple]:
    """The final frontier of r programs advanced in lockstep from r empty
    tails, each state mapped to its entry (parent, parent's entry, perm).
    Each canonical state keeps its least parent, with the first perm that
    parent generates in product order, whatever order the frontier is
    walked in."""
    pair_index = {pair: k for k, pair in enumerate(itertools.combinations(range(r), 2))}
    # A state is r slots, a distance register in 0..s_cap per pair and the
    # diversity register in 0..d_cap.
    tuple_bound = slot_bound**r * (s_cap + 1) ** len(pair_index) * (d_cap + 1)
    root = DiverseState((((0, ()), 0),) * r, 0, (0,) * len(pair_index))
    frontier: dict[DiverseState, tuple] = {root: (None, None, None)}
    for here, after in zip(moves, to_go[1:]):
        groups: dict[tuple[Slot, ...], list] = {}
        for member in frontier.items():
            groups.setdefault(member[0].slots, []).append(member)
        succ_cache: dict = {}
        nxt: dict[DiverseState, tuple] = {}
        for slots, members in groups.items():
            for new_slots, perm, total, pair_incs in tuple_successors(
                slots, moves=here, to_go=after, cost_bound=cost_bound,
                pair_index=pair_index, succ_cache=succ_cache,
            ):
                check_deadline(deadline)
                for state, link in members:
                    check_deadline(deadline)
                    old = state.dist
                    dist = tuple([
                        x if (x := old[k] + inc) < s_cap else s_cap for k, inc in pair_incs
                    ])
                    canon = DiverseState(new_slots, min(state.div + total, d_cap), dist)
                    entry = nxt.get(canon)
                    if entry is None or state < entry[0]:
                        nxt[canon] = (state, link, perm)
        # Every frontier slot has an allowed move (the one attaining its
        # key's cost to go), so the cache holds each distinct slot once.
        check_bound("triple", len(succ_cache), slot_bound)
        check_bound("tuple", len(nxt), tuple_bound)
        frontier = nxt
    return frontier


def diversity_cap(r: int, n: int) -> int:
    """The most diversity r rankings of n candidates can have: a pair of
    candidates ordered one way in k of them and the other way in r - k
    adds k * (r - k) <= r^2 / 4 to the sum of their pairwise distances."""
    return (r * r // 4) * (n * (n - 1) // 2)


def solve_diverse(
    instance: CostInstance,
    query: DiverseQuery,
    deadline: float | None = None,
) -> DiverseOutcome:
    """Decide whether r linear extensions exist with every cost within
    delta of the optimum, diversity at least d, and pairwise distances at
    least s; reconstruct a witness set when they do.

    In max-diversity mode the diversity register is capped at
    ``diversity_cap(r, n)``, which no selection exceeds, so final registers
    carry exact diversities and the best one is returned.
    """
    decomposition = consistent_path_decomposition(instance.base, deadline=deadline)
    dec = decomposition.decomposition
    width = decomposition.width
    moves = forward_tables(instance, dec, deadline)
    to_go = backward_tables(moves, deadline)
    opt = to_go[0][(0, ())]

    r = query.r
    if query.mode == "max-diversity":
        d_cap = diversity_cap(r, instance.n)
        s_req = query.s
        d_req = 0
    else:
        d_cap = query.d
        s_req = max(query.s, 1)
        d_req = query.d
    s_cap = s_req
    # A kept slot's cost lies in the window, at most delta above the least
    # cost of reaching its key.
    frontier = _lockstep(
        moves, to_go, r,
        cost_bound=opt + query.delta, d_cap=d_cap, s_cap=s_cap,
        slot_bound=tail_bound(query.delta, width), deadline=deadline,
    )

    # Every final slot has the empty tail (backward_tables finds no completion
    # for any other final key) and a cost in the window (_slot_allowed).
    meeting = [f for f in frontier if not f.dist or min(f.dist) >= s_req]
    if not meeting:
        scatter_best = max((min(f.dist) for f in frontier), default=0)
        return DiverseOutcome(
            False, None, None, None, None, opt, width,
            failed_constraint="scatteredness",
            detail=(
                f"best achievable minimum pairwise distance within the "
                f"cost window is {scatter_best}, required {s_req}"
            ),
        )
    best_div = max(f.div for f in meeting)
    if best_div < d_req:
        return DiverseOutcome(
            False, None, None, None, None, opt, width,
            failed_constraint="diversity",
            detail=(
                f"best achievable diversity within the cost window is "
                f"{best_div}, required {d_req}"
            ),
        )
    # In decide mode the diversity register is capped at d = d_req, so the
    # smallest state of the best diversity is the first one that meets it.
    chosen = min(f for f in meeting if f.div == best_div)

    chains = _backtrack(chosen, frontier[chosen], r)
    witnesses = tuple(
        reconstruct_extension(chain, instance.base) for chain in chains
    )
    costs = tuple(cost for _, cost in chosen.slots)
    for w, c in zip(witnesses, costs):
        if instance.extension_cost(w) != c:
            raise InternalError("witness cost does not match its register")
    exact = {
        (i, j): kt_distance(witnesses[i], witnesses[j])
        for i, j in itertools.combinations(range(r), 2)
    }
    exact_div = sum(exact.values())
    if chosen.div != min(exact_div, d_cap):
        raise InternalError("diversity register disagrees with witnesses")
    for k, pair in enumerate(exact):
        if chosen.dist[k] != min(exact[pair], s_cap):
            raise InternalError("distance register disagrees with witnesses")

    # Sorted, each ranking once (a no-op in decide mode, where every pair is
    # at distance >= 1); the diversity above still counts all r.
    kept = sorted(dict(zip(witnesses, range(r))).values(), key=lambda i: witnesses[i].perm)
    pairwise = tuple(exact[min(ij), max(ij)] for ij in itertools.combinations(kept, 2))
    return DiverseOutcome(
        True, tuple(witnesses[i] for i in kept), tuple(costs[i] for i in kept),
        exact_div, pairwise, opt, width,
    )


def solve_max_diversity(
    instance: CostInstance,
    r: int,
    delta: int = 0,
    deadline: float | None = None,
) -> DiverseOutcome:
    """Selection of r within-delta extensions maximizing total diversity.

    Repeats are allowed: a base order with a single extension yields
    diversity 0. The ``diversity`` counts the pairs of all r selected
    rankings, repeats included; the witnesses are each listed once.
    """
    query = DiverseQuery(r=r, delta=delta, d=0, s=0, mode="max-diversity")
    outcome = solve_diverse(instance, query, deadline)
    if not outcome.feasible:
        raise InternalError("maximization always has a feasible selection")
    return outcome


@dataclass(frozen=True)
class KraDiverseOutcome:
    outcome: DiverseOutcome
    scores: tuple[int, ...] | None  # Kemeny scores of the witnesses


def solve_diverse_kra(
    profile: Profile,
    query: DiverseQuery,
    deadline: float | None = None,
) -> KraDiverseOutcome:
    """Diverse aggregation over a profile: reduce to completion over the
    unanimity order, solve, and recheck every witness score directly
    against the profile (the reduction keeps them equal)."""
    instance = reduce_to_co(profile, deadline)
    outcome = solve_diverse(instance, query, deadline=deadline)
    if not outcome.feasible or outcome.witnesses is None:
        return KraDiverseOutcome(outcome, None)
    scores = tuple(kemeny_score(profile, w) for w in outcome.witnesses)
    if outcome.costs != scores:
        raise InternalError("witness Kemeny scores disagree with solver costs")
    return KraDiverseOutcome(outcome, scores)
