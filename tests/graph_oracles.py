"""Exhaustive graph searches the tests use as references for the
decomposition's claims, capped to the small graphs the tests build."""

import itertools

from kemeny.errors import CapabilityError
from kemeny.orders import _bits, _full_mask
from kemeny.width import Graph

# Vertex caps of the exhaustive searches below.
EXACT_PATHWIDTH_CAP = 12
LONG_CYCLE_CAP = 13


def exact_pathwidth(g: Graph, cap: int = EXACT_PATHWIDTH_CAP) -> int:
    """Exact pathwidth as the least vertex separation over all layouts, by
    a program over all 2^n vertex subsets."""
    n = g.n
    if n > cap:
        raise CapabilityError(f"exact pathwidth capped at {cap} vertices, got {n}")
    full = _full_mask(n)

    def boundary(mask: int) -> int:
        return sum(1 for u in _bits(mask) if g.adj[u] & ~mask)

    dp = [0] * (full + 1)
    for mask in range(1, full + 1):
        best = min(dp[mask & ~(1 << v)] for v in _bits(mask))
        dp[mask] = max(best, boundary(mask))
    return dp[full]


def has_long_induced_cycle(g: Graph, cap: int = LONG_CYCLE_CAP) -> bool:
    """True iff g has an induced cycle on five or more vertices."""
    if g.n > cap:
        raise CapabilityError(f"induced-cycle scan capped at {cap} vertices")
    for size in range(5, g.n + 1):
        for subset in itertools.combinations(range(g.n), size):
            mask = 0
            for v in subset:
                mask |= 1 << v
            degs = [(g.adj[v] & mask).bit_count() for v in subset]
            if any(d != 2 for d in degs):
                continue
            # all degrees two; induced subgraph is a cycle iff connected
            seen = 1 << subset[0]
            frontier = seen
            while frontier:
                nxt = 0
                for v in _bits(frontier):
                    nxt |= g.adj[v] & mask
                frontier = nxt & ~seen
                seen |= nxt
            if seen == mask:
                return True
    return False
