"""Graph and order recognisers the tests use to check the decomposition
pipeline's structural claims. They are exhaustive searches, capped to the
small graphs the tests build."""

import itertools
from typing import Sequence

from kemeny.errors import CapabilityError
from kemeny.orders import PartialOrder, _bits
from kemeny.width import Graph, is_chordal, maximal_cliques_chordal

# Vertex caps of the exhaustive searches below.
LONG_CYCLE_CAP = 13
INTERVAL_RECOGNITION_CAP = 10


def is_interval_order(order: PartialOrder) -> bool:
    """No pair of disjoint two-chains with incomparable cross pairs."""
    strict = list(order.strict_pairs())
    for (a, b), (c, d) in itertools.combinations(strict, 2):
        if len({a, b, c, d}) == 4:
            if order.incomparable(a, d) and order.incomparable(c, b):
                return False
    return True


def is_interval_graph(g: Graph, cap: int = INTERVAL_RECOGNITION_CAP) -> bool:
    """Clique-chain recognition by exhaustive ordering search."""
    if g.n > cap:
        raise CapabilityError(f"interval recognition capped at {cap} vertices")
    if not is_chordal(g):
        return False
    cliques = maximal_cliques_chordal(g)
    for perm in itertools.permutations(range(len(cliques))):
        if _consecutive_cliques(g.n, [cliques[i] for i in perm]):
            return True
    return False


def _consecutive_cliques(n: int, cliques: Sequence[int]) -> bool:
    for v in range(n):
        hits = [i for i, c in enumerate(cliques) if c & (1 << v)]
        if hits and hits[-1] - hits[0] != len(hits) - 1:
            return False
    return True


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
