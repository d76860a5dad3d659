"""Diverse-solution solver: r tail-order programs advanced in lockstep over
one nice consistent path decomposition, with two kinds of saturating
registers riding along every state:

* one register per unordered solution pair holding min(distance so far, s),
* one register holding min(total diversity so far, d).

A pair of placed vertices is counted the moment the later of the two is
introduced; vertices forgotten before a new vertex arrives are below it in
the base order, so both solutions agree on those pairs and nothing is
missed. Since increments are non-negative, saturating addition makes every
final register exactly min(true value, cap), which is all the acceptance
checks need. Per-solution states are pruned against the single-solution
registers: a tail whose cost exceeds its per-position optimum by more than
the allowed imperfection can never finish within it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .errors import InputError, InternalError
from .orders import (
    CostInstance,
    LinearOrder,
    Profile,
    _bits,
    kemeny_score,
    kt_distance,
    reduce_to_co,
)
from .solver_single import (
    BOUNDS,
    TailState,
    _check_deadline,
    _forget_successor,
    _introduce_successors,
    forward_tables,
    prepare_decomposition,
    reconstruct_extension,
)
from .width import ConsistentPathDecomposition, PathDecomposition

MODES = ("decide", "max-diversity", "distinct-optima")


@dataclass(frozen=True)
class DiverseQuery:
    """How many solutions, how far from optimal they may be, and the
    diversity / pairwise-distance targets. Decision modes treat the answer
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


class DiverseState(NamedTuple):
    triples: tuple[TailState, ...]
    div: int
    dist: tuple[int, ...]  # one entry per pair (i, j), i < j, lexicographic


@dataclass(frozen=True)
class DiverseOutcome:
    feasible: bool
    witnesses: tuple[LinearOrder, ...] | None
    costs: tuple[int, ...] | None
    diversity: int | None
    pairwise: tuple[int, ...] | None  # distances, pairs in lexicographic order
    optimum: int
    width: int
    failed_constraint: str | None = None
    detail: str | None = None


def _pairs(r: int) -> list[tuple[int, int]]:
    return list(itertools.combinations(range(r), 2))


def _tail_kt(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """Opposite-ordered pairs between two orders of the same vertex set."""
    pos = {v: i for i, v in enumerate(b)}
    count = 0
    for i in range(len(a)):
        for j in range(i + 1, len(a)):
            if pos[a[i]] > pos[a[j]]:
                count += 1
    return count


def scatteredness_increase(
    bag: int,
    tail_i: tuple[int, ...],
    tail_j: tuple[int, ...],
    introduced: Sequence[int],
) -> int:
    """Distance gained between two partial solutions when the given vertices
    join their tails, inserting them one at a time in the given order.

    For each new vertex v and each already-placed u, one disagreement is
    counted when u sits below v in one solution (committed before the tail,
    or tail-ordered below) but above v in the other. Every pair is counted
    exactly once, when its later vertex arrives, so the total is invariant
    under the insertion order.
    """
    pos_i = {v: k for k, v in enumerate(tail_i)}
    pos_j = {v: k for k, v in enumerate(tail_j)}
    total = 0
    placed = bag
    for v in introduced:
        if v not in pos_i or v not in pos_j:
            raise InputError("introduced vertex missing from a new tail")
        pvi = pos_i[v]
        pvj = pos_j[v]
        for u in _bits(placed):
            ui = pos_i.get(u)
            uj = pos_j.get(u)
            smaller_i = ui is None or ui < pvi
            smaller_j = uj is None or uj < pvj
            if smaller_i and uj is not None and uj > pvj:
                total += 1
            if smaller_j and ui is not None and ui > pvi:
                total += 1
        placed |= 1 << v
    return total


def _triple_allowed(
    triple: TailState, f_next: dict, delta: int, cost_bound: int
) -> bool:
    tail, order, cost = triple
    if cost > cost_bound:
        return False
    entry = f_next.get((tail, order))
    if entry is None:
        raise InternalError("successor tail missing from the optimum register")
    return cost <= entry[0] + delta


def tuple_successors(
    state: DiverseState,
    instance: CostInstance,
    dec: PathDecomposition,
    p: int,
    *,
    delta: int,
    d_cap: int,
    s_cap: int,
    f_next: dict,
    cost_bound: int,
    succ_cache: dict,
    pair_cache: dict,
) -> list[DiverseState]:
    """All register-updated successor states across the transition p -> p+1
    of a nice decomposition.

    Each solution advances by its own tail transition; on an introduce step
    the registers grow by the pairwise increases and saturate at their caps.
    Solutions whose tail falls outside the allowed cost window kill the
    whole state. ``succ_cache`` and ``pair_cache`` memoise per-solution
    successors and pairwise increases within one transition.
    """
    gone = dec.forgotten(p + 1)
    if gone:
        new_triples = []
        for t in state.triples:
            succ = _forget_successor(t, gone)
            if not _triple_allowed(succ, f_next, delta, cost_bound):
                return []
            new_triples.append(succ)
        return [DiverseState(tuple(new_triples), state.div, state.dist)]

    v = dec.introduced(p + 1).bit_length() - 1
    options: list[list[TailState]] = []
    for t in state.triples:
        opts = succ_cache.get(t)
        if opts is None:
            opts = succ_cache[t] = [
                s
                for s in _introduce_successors(t, v, dec.bags[p + 1], instance)
                if _triple_allowed(s, f_next, delta, cost_bound)
            ]
        if not opts:
            return []
        options.append(opts)

    bag = dec.bags[p]
    pairs = _pairs(len(state.triples))
    out = []
    for combo in itertools.product(*options):
        incs = []
        for i, j in pairs:
            key = (combo[i][1], combo[j][1])
            inc = pair_cache.get(key)
            if inc is None:
                inc = pair_cache[key] = scatteredness_increase(bag, *key, (v,))
            incs.append(inc)
        new_dist = tuple(
            min(state.dist[k] + incs[k], s_cap) for k in range(len(pairs))
        )
        new_div = min(state.div + sum(incs), d_cap)
        out.append(DiverseState(tuple(combo), new_div, new_dist))
    return out


def _canonical(
    state: DiverseState, pair_index: dict[tuple[int, int], int]
) -> tuple[DiverseState, tuple[int, ...]]:
    """Sort the solution slots (states are multisets of solutions); returns
    the representative and the slot map canonical -> original."""
    r = len(state.triples)
    order = sorted(range(r), key=lambda i: state.triples[i])
    if order == list(range(r)):
        return state, tuple(range(r))
    triples = tuple(state.triples[i] for i in order)
    dist = tuple(
        state.dist[pair_index[tuple(sorted((order[i], order[j])))]]
        for i, j in _pairs(r)
    )
    return DiverseState(triples, state.div, dist), tuple(order)


def _initial_states(
    register: dict,
    r: int,
    d_cap: int,
    s_cap: int,
    cost_bound: int,
    deadline: float | None,
) -> dict[DiverseState, tuple[None, None]]:
    """Every multiset of r tails from the single-solution register of the
    first full bag within the cost window, with the registers their tail
    orders already fix."""
    base = sorted(
        (tail, order, cost)
        for (tail, order), (cost, _) in register.items()
        if cost <= cost_bound
    )
    pairs = _pairs(r)
    states: dict[DiverseState, tuple[None, None]] = {}
    for combo in itertools.combinations_with_replacement(base, r):
        _check_deadline(deadline)
        kts = [_tail_kt(combo[i][1], combo[j][1]) for i, j in pairs]
        state = DiverseState(
            tuple(combo),
            min(sum(kts), d_cap),
            tuple(min(k, s_cap) for k in kts),
        )
        states.setdefault(state, (None, None))
    return states


def _backtrack(
    tables: list[dict], final: DiverseState, r: int
) -> list[list[TailState]]:
    chains: list[list[TailState]] = [[] for _ in range(r)]
    slots = list(range(r))
    key = final
    for p in range(len(tables) - 1, -1, -1):
        for j in range(r):
            chains[j].append(key.triples[slots[j]])
        parent, perm = tables[p][key]
        if parent is None:
            break
        slots = [perm[slots[j]] for j in range(r)]
        key = parent
    for chain in chains:
        chain.reverse()
    return chains


def solve_diverse(
    instance: CostInstance,
    query: DiverseQuery,
    decomposition: ConsistentPathDecomposition | None = None,
    deadline: float | None = None,
) -> DiverseOutcome:
    """Decide whether r linear extensions exist with every cost within
    delta of the optimum, diversity at least d, and pairwise distances at
    least s; reconstruct a witness set when they do.

    In max-diversity mode the diversity register cap is lifted to r * n^2
    (an upper bound on any achievable diversity at this scale), so final
    registers carry exact diversities and the best one is returned.
    """
    decomposition, dec = prepare_decomposition(instance, decomposition)
    width = decomposition.width
    singles = forward_tables(instance, dec, width, deadline)
    opt = singles[-1][(0, ())][0]

    r = query.r
    delta = query.delta
    if query.mode == "max-diversity":
        d_cap = r * instance.n * instance.n
        s_req = query.s
        d_req = 0
    else:
        d_cap = query.d
        s_req = max(query.s, 1)
        d_req = query.d
    s_cap = s_req
    cost_bound = opt + delta
    pair_index = {pair: k for k, pair in enumerate(_pairs(r))}

    # The lockstep starts at the first full bag: started at the empty tail,
    # its r identical slots would make every ordered product r!-redundant.
    start = decomposition.decomposition.bags[0].bit_count()
    frontier = _initial_states(singles[start], r, d_cap, s_cap, cost_bound, deadline)
    tables = [frontier]
    for p in range(start, len(dec.bags) - 1):
        succ_cache: dict = {}
        pair_cache: dict = {}
        nxt: dict = {}
        for key in sorted(frontier):
            _check_deadline(deadline)
            for raw in tuple_successors(
                key,
                instance,
                dec,
                p,
                delta=delta,
                d_cap=d_cap,
                s_cap=s_cap,
                f_next=singles[p + 1],
                cost_bound=cost_bound,
                succ_cache=succ_cache,
                pair_cache=pair_cache,
            ):
                canon, perm = _canonical(raw, pair_index)
                if canon not in nxt:
                    nxt[canon] = (key, perm)
        distinct = {t for state in nxt for t in state.triples}
        BOUNDS.check_triples(len(distinct), delta, width)
        BOUNDS.check_tuples(len(nxt), delta, width, r, s_cap, d_cap)
        tables.append(nxt)
        frontier = nxt

    final_keys = sorted(frontier)
    for key in final_keys:
        if any(tail or order for tail, order, _ in key.triples):
            raise InternalError("final state still carries a non-empty tail")
        if any(cost > cost_bound for _, _, cost in key.triples):
            raise InternalError("final state escaped the cost window")

    meeting = [k for k in final_keys if not k.dist or min(k.dist) >= s_req]
    if not meeting:
        scatter_best = max((min(k.dist) for k in final_keys), default=0)
        return DiverseOutcome(
            False, None, None, None, None, opt, width,
            failed_constraint="scatteredness",
            detail=(
                f"best achievable minimum pairwise distance within the "
                f"cost window is {scatter_best}, required {s_req}"
            ),
        )
    best_div = max(k.div for k in meeting)
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
    # smallest key of the best diversity is the first one that meets it.
    chosen = min(k for k in meeting if k.div == best_div)

    chains = _backtrack(tables, chosen, r)
    witnesses = tuple(
        reconstruct_extension(chain, instance.base) for chain in chains
    )
    costs = tuple(chain[-1][2] for chain in chains)
    for w, c in zip(witnesses, costs):
        if instance.extension_cost(w) != c:
            raise InternalError("witness cost does not match its register")
    exact_pairs = [
        kt_distance(witnesses[i], witnesses[j]) for i, j in _pairs(r)
    ]
    exact_div = sum(exact_pairs)
    if chosen.div != min(exact_div, d_cap):
        raise InternalError("diversity register disagrees with witnesses")
    for k, exact in enumerate(exact_pairs):
        if chosen.dist[k] != min(exact, s_cap):
            raise InternalError("distance register disagrees with witnesses")

    order = sorted(range(r), key=lambda j: witnesses[j].perm)
    witnesses = tuple(witnesses[j] for j in order)
    costs = tuple(costs[j] for j in order)
    exact_pairs = [
        kt_distance(witnesses[i], witnesses[j]) for i, j in _pairs(r)
    ]
    return DiverseOutcome(
        True, witnesses, costs, exact_div, tuple(exact_pairs), opt, width
    )


@dataclass(frozen=True)
class MaxDiversityResult:
    witnesses: tuple[LinearOrder, ...]  # deduplicated, sorted
    diversity: int  # exact, over the selected multiset
    optimum: int
    outcome: DiverseOutcome


def solve_max_diversity(
    instance: CostInstance,
    r: int,
    delta: int = 0,
    decomposition: ConsistentPathDecomposition | None = None,
    deadline: float | None = None,
) -> MaxDiversityResult:
    """Selection of r within-delta extensions maximizing total diversity.

    Repeats are allowed (a base order with a single extension yields
    diversity 0); the reported witness list is deduplicated.
    """
    query = DiverseQuery(r=r, delta=delta, d=0, s=0, mode="max-diversity")
    outcome = solve_diverse(instance, query, decomposition, deadline)
    if not outcome.feasible or outcome.witnesses is None:
        raise InternalError("maximization always has a feasible selection")
    seen = []
    for w in outcome.witnesses:
        if w not in seen:
            seen.append(w)
    assert outcome.diversity is not None
    return MaxDiversityResult(tuple(seen), outcome.diversity, outcome.optimum, outcome)


def find_distinct_optima(
    instance: CostInstance,
    r: int,
    decomposition: ConsistentPathDecomposition | None = None,
    deadline: float | None = None,
) -> DiverseOutcome:
    """Are there at least r distinct optimal extensions? Witnesses on YES."""
    query = DiverseQuery(r=r, delta=0, d=0, s=1, mode="distinct-optima")
    return solve_diverse(instance, query, decomposition, deadline)


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
    instance = reduce_to_co(profile)
    outcome = solve_diverse(instance, query, deadline=deadline)
    if not outcome.feasible or outcome.witnesses is None:
        return KraDiverseOutcome(outcome, None)
    scores = tuple(kemeny_score(profile, w) for w in outcome.witnesses)
    if outcome.costs != scores:
        raise InternalError("witness Kemeny scores disagree with solver costs")
    return KraDiverseOutcome(outcome, scores)
