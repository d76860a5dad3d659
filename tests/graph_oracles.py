"""Exhaustive graph searches the tests use as references for the
decomposition's claims, capped to the small graphs the tests build. A
graph is a tuple of bitmask adjacency rows, one per vertex, as
``width.cocomparability_graph`` returns."""

import itertools

from kemeny.errors import CapabilityError
from kemeny.orders import _bits, _full_mask

# Vertex caps of the exhaustive searches below.
EXACT_PATHWIDTH_CAP = 12
LONG_CYCLE_CAP = 13


def exact_pathwidth(adj: tuple[int, ...], cap: int = EXACT_PATHWIDTH_CAP) -> int:
    """Exact pathwidth as the least vertex separation over all layouts, by
    a program over all 2^n vertex subsets."""
    n = len(adj)
    if n > cap:
        raise CapabilityError(f"exact pathwidth capped at {cap} vertices, got {n}")
    full = _full_mask(n)

    def boundary(mask: int) -> int:
        return sum(1 for u in _bits(mask) if adj[u] & ~mask)

    dp = [0] * (full + 1)
    for mask in range(1, full + 1):
        best = min(dp[mask & ~(1 << v)] for v in _bits(mask))
        dp[mask] = max(best, boundary(mask))
    return dp[full]


def has_long_induced_cycle(adj: tuple[int, ...], cap: int = LONG_CYCLE_CAP) -> bool:
    """True iff the graph has an induced cycle on five or more vertices."""
    n = len(adj)
    if n > cap:
        raise CapabilityError(f"induced-cycle scan capped at {cap} vertices")
    for size in range(5, n + 1):
        for subset in itertools.combinations(range(n), size):
            mask = 0
            for v in subset:
                mask |= 1 << v
            degs = [(adj[v] & mask).bit_count() for v in subset]
            if any(d != 2 for d in degs):
                continue
            # all degrees two; induced subgraph is a cycle iff connected
            seen = 1 << subset[0]
            frontier = seen
            while frontier:
                nxt = 0
                for v in _bits(frontier):
                    nxt |= adj[v] & mask
                frontier = nxt & ~seen
                seen |= nxt
            if seen == mask:
                return True
    return False
