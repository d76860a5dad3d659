"""Brute-force reference implementations.

Everything here enumerates exhaustively and exists to generate expected
values and to back equivalence tests for the dynamic programs. Hard size
caps keep accidental misuse loud; a test rig that needs larger instances
raises the module constants. The deadline is checked once per recursion
node, per row of the diverse oracle's distance table and per r-combination.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .errors import CapabilityError, InputError, check_deadline
from .orders import CostInstance, LinearOrder, PartialOrder, _bits, kt_distance

ORACLE_CAP = 10
DIVERSE_CAP = 6
DIVERSE_R_CAP = 3


def _require(n: int, cap: int, what: str) -> None:
    if n > cap:
        raise CapabilityError(f"{what} capped at {cap}, got {n}")


def enumerate_extensions(
    order: PartialOrder, deadline: float | None = None
) -> Iterator[LinearOrder]:
    """Every linear extension exactly once, lexicographic by vertex index."""
    _require(order.n, ORACLE_CAP, "oracle universe size")
    full = (1 << order.n) - 1

    def rec(remaining: int, prefix: list[int]) -> Iterator[LinearOrder]:
        check_deadline(deadline)
        if not remaining:
            yield LinearOrder(tuple(prefix))
            return
        for v in _bits(remaining):
            if order.strict_down(v) & remaining:
                continue
            prefix.append(v)
            yield from rec(remaining & ~(1 << v), prefix)
            prefix.pop()

    yield from rec(full, [])


def count_extensions(order: PartialOrder, deadline: float | None = None) -> int:
    """Number of linear extensions, by recursion over the remaining set."""
    _require(order.n, ORACLE_CAP, "oracle universe size")
    memo: dict[int, int] = {0: 1}

    def rec(remaining: int) -> int:
        if remaining in memo:
            return memo[remaining]
        check_deadline(deadline)
        total = 0
        for v in _bits(remaining):
            if not order.strict_down(v) & remaining:
                total += rec(remaining & ~(1 << v))
        memo[remaining] = total
        return total

    return rec((1 << order.n) - 1)


def oracle_optimum(
    instance: CostInstance, deadline: float | None = None
) -> tuple[int, tuple[LinearOrder, ...]]:
    """Exact minimum charged cost and the complete set of minimizers."""
    _require(instance.n, ORACLE_CAP, "oracle universe size")
    cost = instance.cost
    base = instance.base
    best = None
    winners: list[tuple[int, ...]] = []

    def rec(remaining: int, prefix: list[int], total: int) -> None:
        nonlocal best, winners
        check_deadline(deadline)
        if not remaining:
            if best is None or total < best:
                best = total
                winners = [tuple(prefix)]
            elif total == best:
                winners.append(tuple(prefix))
            return
        for v in _bits(remaining):
            if base.strict_down(v) & remaining:
                continue
            added = sum(cost[u][v] for u in prefix)
            prefix.append(v)
            rec(remaining & ~(1 << v), prefix, total + added)
            prefix.pop()

    rec((1 << instance.n) - 1, [], 0)
    assert best is not None
    return best, tuple(LinearOrder(w) for w in winners)


@dataclass(frozen=True)
class OracleDiverseResult:
    feasible: bool
    witnesses: tuple[LinearOrder, ...] | None
    diversity: int | None
    optimum: int


def _within_budget(
    instance: CostInstance, delta: int, deadline: float | None
) -> tuple[int, list[LinearOrder]]:
    """The optimum and, in lexicographic order, every extension costing at
    most delta more, read off one costed enumeration."""
    costed = [
        (instance.extension_cost(ext), ext)
        for ext in enumerate_extensions(instance.base, deadline)
    ]
    opt = min(cost for cost, _ in costed)
    return opt, [ext for cost, ext in costed if cost <= opt + delta]


def oracle_diverse(
    instance: CostInstance,
    r: int,
    delta: int,
    d: int,
    s: int,
    maximize: bool = False,
    deadline: float | None = None,
) -> OracleDiverseResult:
    """Exhaustive search over r-subsets of within-budget extensions.

    Decision mode asks for pairwise distance at least max(s, 1) (solution
    sets contain distinct rankings) and total diversity at least d, both
    under the unordered-pair convention. Maximize mode allows repeats and
    returns a maximum-diversity selection.
    """
    _require(instance.n, DIVERSE_CAP, "diverse oracle size")
    _require(r, DIVERSE_R_CAP, "diverse oracle solution count")
    if r < 1:
        raise InputError("need at least one solution")
    if min(delta, d, s) < 0:
        raise InputError("delta, d and s must be non-negative")
    opt, pool = _within_budget(instance, delta, deadline)
    dist = []
    for a in pool:
        check_deadline(deadline)
        dist.append([kt_distance(a, b) for b in pool])
    if maximize:
        best_div = None
        best: tuple[int, ...] | None = None
        for combo in itertools.combinations_with_replacement(range(len(pool)), r):
            check_deadline(deadline)
            if s >= 1 and any(
                dist[i][j] < s for i, j in itertools.combinations(combo, 2)
            ):
                continue
            div = sum(dist[i][j] for i, j in itertools.combinations(combo, 2))
            if best_div is None or div > best_div:
                best_div = div
                best = combo
        if best is None:
            return OracleDiverseResult(False, None, None, opt)
        return OracleDiverseResult(
            True, tuple(pool[i] for i in best), best_div, opt
        )
    s_req = max(s, 1)
    for combo in itertools.combinations(range(len(pool)), r):
        check_deadline(deadline)
        pairs = list(itertools.combinations(combo, 2))
        if any(dist[i][j] < s_req for i, j in pairs):
            continue
        div = sum(dist[i][j] for i, j in pairs)
        if div >= d:
            return OracleDiverseResult(
                True, tuple(pool[i] for i in combo), div, opt
            )
    return OracleDiverseResult(False, None, None, opt)
