"""Cocomparability graphs, minimal triangulations, and order-consistent
path decompositions.

The decomposition pipeline: triangulate the cocomparability graph of the
base order with an inclusion-minimal fill, drop the pairs matching fill
edges from the order (the remainder is an interval order), sort the maximal
cliques of the triangulation by that interval order, and refine to a nice
decomposition. The resulting bag sequence never forgets an element while a
smaller one is still waiting to be introduced, which is exactly what the
tail-order dynamic programs need.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import CapabilityError, InputError, InternalError
from .orders import PartialOrder, _bits, _full_mask

# Exhaustive search caps: subsets of 2^n states for pathwidth, vertex subsets
# for the induced-cycle scan. Beyond these the answers come from heuristics.
EXACT_PATHWIDTH_CAP = 12
LONG_CYCLE_CAP = 13
INTERVAL_RECOGNITION_CAP = 10


@dataclass(frozen=True)
class Graph:
    """Undirected graph on 0..n-1 with bitmask adjacency rows."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InputError("graph needs at least one vertex")
        if len(self.adj) != self.n:
            raise InputError("adjacency size does not match n")
        full = _full_mask(self.n)
        for v, row in enumerate(self.adj):
            if row & ~full:
                raise InputError("adjacency mentions vertices outside 0..n-1")
            if row & (1 << v):
                raise InputError(f"self-loop at {v}")
            for u in _bits(row):
                if not self.adj[u] & (1 << v):
                    raise InputError(f"adjacency not symmetric on ({v},{u})")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        adj = [0] * n
        for u, v in edges:
            if u == v or not (0 <= u < n and 0 <= v < n):
                raise InputError(f"bad edge ({u},{v})")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n, tuple(adj))

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] & (1 << v))

    def edges(self) -> list[tuple[int, int]]:
        return [
            (u, v) for u in range(self.n) for v in _bits(self.adj[u]) if u < v
        ]

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2


def cocomparability_graph(order: PartialOrder) -> Graph:
    """Graph joining exactly the incomparable pairs of the order."""
    n = order.n
    full = _full_mask(n)
    adj = tuple(
        full & ~(order.rows[x] | order._cols[x])  # type: ignore[attr-defined]
        for x in range(n)
    )
    return Graph(n, adj)


# ---------------------------------------------------------------------------
# Chordality, maximal cliques, exact pathwidth
# ---------------------------------------------------------------------------


def _mcs_elimination_order(g: Graph) -> list[int]:
    """Maximum cardinality search; returns an elimination order that is
    perfect iff the graph is chordal. Ties break toward lower index."""
    n = g.n
    weight = [0] * n
    visited = 0
    visit_order = []
    for _ in range(n):
        z = max(
            (v for v in range(n) if not visited & (1 << v)),
            key=lambda v: (weight[v], -v),
        )
        visit_order.append(z)
        visited |= 1 << z
        for y in _bits(g.adj[z] & ~visited):
            weight[y] += 1
    return visit_order[::-1]


def is_chordal(g: Graph) -> bool:
    order = _mcs_elimination_order(g)
    pos = [0] * g.n
    for i, v in enumerate(order):
        pos[v] = i
    eliminated = 0
    for v in order:
        eliminated |= 1 << v
        later = g.adj[v] & ~eliminated
        if later:
            parent = min(_bits(later), key=lambda u: pos[u])
            if (later & ~(1 << parent)) & ~g.adj[parent]:
                return False
    return True


def maximal_cliques_chordal(g: Graph) -> list[int]:
    """Maximal cliques of a chordal graph as bitmasks, one per clique."""
    if not is_chordal(g):
        raise InputError("graph is not chordal")
    order = _mcs_elimination_order(g)
    eliminated = 0
    candidates = []
    for v in order:
        eliminated |= 1 << v
        candidates.append((1 << v) | (g.adj[v] & ~eliminated))
    candidates.sort(key=lambda c: -c.bit_count())
    cliques: list[int] = []
    for c in candidates:
        if not any(c & ~kept == 0 for kept in cliques):
            cliques.append(c)
    return cliques


def exact_pathwidth(g: Graph, cap: int = EXACT_PATHWIDTH_CAP) -> int:
    """Exact pathwidth by vertex-separation search over vertex subsets."""
    return _vertex_separation(g, cap)[0]


def optimal_path_layout(g: Graph, cap: int = EXACT_PATHWIDTH_CAP) -> list[int]:
    """A vertex layout whose induced decomposition has optimal width."""
    return _vertex_separation(g, cap)[1]


def _vertex_separation(g: Graph, cap: int) -> tuple[int, list[int]]:
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

    layout: list[int] = []
    mask = full
    while mask:
        # any last vertex whose remainder is no harder than the whole set
        v = min(v for v in _bits(mask) if dp[mask & ~(1 << v)] <= dp[mask])
        layout.append(v)
        mask &= ~(1 << v)
    layout.reverse()
    return dp[full], layout


def decomposition_from_layout(g: Graph, layout: Sequence[int]) -> "PathDecomposition":
    """Path decomposition whose width equals the layout's vertex separation."""
    n = g.n
    bags = []
    placed = 0
    for v in layout:
        boundary = 0
        outside = _full_mask(n) & ~placed
        for u in _bits(placed):
            if g.adj[u] & outside:
                boundary |= 1 << u
        bags.append(boundary | (1 << v))
        placed |= 1 << v
    return PathDecomposition(n, tuple(bags))


# ---------------------------------------------------------------------------
# Minimal triangulation
# ---------------------------------------------------------------------------


def minimal_triangulation(g: Graph, exact_cap: int = EXACT_PATHWIDTH_CAP) -> Graph:
    """Chordal supergraph of g with an inclusion-minimal fill-edge set.

    Small graphs go through a width-optimal path layout whose bag cliques are
    then shrunk back edge by edge, so the triangulation is also width-optimal;
    larger graphs use a minimal-fill elimination search directly.
    """
    if is_chordal(g):
        return g
    if g.n <= exact_cap:
        layout = optimal_path_layout(g, exact_cap)
        filled = _fill_bags(g, decomposition_from_layout(g, layout))
        return _shrink_fill(g, filled)
    return _mcs_m(g)


def _fill_bags(g: Graph, dec: "PathDecomposition") -> Graph:
    adj = list(g.adj)
    for bag in dec.bags:
        for u in _bits(bag):
            adj[u] |= bag & ~(1 << u)
    return Graph(g.n, tuple(adj))


def _shrink_fill(g: Graph, h: Graph) -> Graph:
    """Delete fill edges one at a time while the graph stays chordal.

    A triangulation with no single removable fill edge is inclusion-minimal.
    """
    adj = list(h.adj)
    fill = [
        (u, v)
        for u in range(g.n)
        for v in _bits(adj[u] & ~g.adj[u])
        if u < v
    ]
    changed = True
    while changed:
        changed = False
        kept = []
        for u, v in fill:
            adj[u] &= ~(1 << v)
            adj[v] &= ~(1 << u)
            if is_chordal(Graph(g.n, tuple(adj))):
                changed = True
            else:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
                kept.append((u, v))
        fill = kept
    return Graph(g.n, tuple(adj))


def _mcs_m(g: Graph) -> Graph:
    """Minimal triangulation by maximum-cardinality search with fill.

    At each step the next vertex z is the unnumbered one of maximum weight;
    every unnumbered y reachable from z through strictly lighter unnumbered
    vertices gets its weight bumped, adding the fill edge {z, y} if missing.
    """
    n = g.n
    weight = [0] * n
    unnumbered = _full_mask(n)
    adj = list(g.adj)
    for _ in range(n):
        z = max(_bits(unnumbered), key=lambda v: (weight[v], -v))
        unnumbered &= ~(1 << z)
        updates = []
        for y in _bits(unnumbered):
            allowed = 0
            for u in _bits(unnumbered & ~(1 << y)):
                if weight[u] < weight[y]:
                    allowed |= 1 << u
            # search from z through allowed vertices for a neighbor of y
            frontier = 1 << z
            seen = frontier
            reached = bool(adj[z] & (1 << y))
            while frontier and not reached:
                nxt = 0
                for u in _bits(frontier):
                    nxt |= adj[u]
                nxt &= allowed & ~seen
                if nxt:
                    for u in _bits(nxt):
                        if adj[u] & (1 << y):
                            reached = True
                            break
                seen |= nxt
                frontier = nxt
            if reached:
                updates.append(y)
        for y in updates:
            weight[y] += 1
            if not adj[z] & (1 << y):
                adj[z] |= 1 << y
                adj[y] |= 1 << z
    return Graph(n, tuple(adj))


def interval_order_from_fill(order: PartialOrder, triangulated: Graph) -> PartialOrder:
    """Drop from the order every pair matching a fill edge of the
    triangulation; for a minimal fill the remainder is an interval order."""
    g = cocomparability_graph(order)
    if order.n != triangulated.n:
        raise InputError("triangulation over a different universe")
    if any(g.adj[v] & ~triangulated.adj[v] for v in range(g.n)):
        raise InputError("graph is not a supergraph of the order's "
                         "cocomparability graph")
    if not is_chordal(triangulated):
        raise InputError("graph is not chordal")
    rows = list(order.rows)
    for u in range(order.n):
        for v in _bits(triangulated.adj[u] & ~g.adj[u]):
            rows[u] &= ~(1 << v)
            rows[v] &= ~(1 << u)
    try:
        return PartialOrder(order.n, tuple(rows))
    except InputError as exc:
        # A minimal fill always leaves a transitive relation behind; a failure
        # here means the triangulation upstream was not inclusion-minimal.
        raise InternalError(f"fill removal broke the order: {exc}") from exc


def is_interval_order(order: PartialOrder) -> bool:
    """No pair of disjoint two-chains with incomparable cross pairs."""
    strict = list(order.strict_pairs())
    for (a, b), (c, d) in itertools.combinations(strict, 2):
        if len({a, b, c, d}) == 4:
            if order.incomparable(a, d) and order.incomparable(c, b):
                return False
    return True


def is_interval_graph(g: Graph, cap: int = INTERVAL_RECOGNITION_CAP) -> bool:
    """Clique-chain recognition by exhaustive ordering search (test utility)."""
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


# ---------------------------------------------------------------------------
# Path decompositions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PathDecomposition:
    """Sequence of vertex bags (bitmasks) with per-position change caches."""

    n: int
    bags: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.bags:
            raise InputError("decomposition needs at least one bag")
        introduced = []
        forgotten = []
        leftsets = []
        prev = 0
        left = 0
        for bag in self.bags:
            introduced.append(bag & ~prev)
            gone = prev & ~bag
            forgotten.append(gone)
            left |= gone
            leftsets.append(left)
            prev = bag
        object.__setattr__(self, "_introduced", tuple(introduced))
        object.__setattr__(self, "_forgotten", tuple(forgotten))
        object.__setattr__(self, "_leftsets", tuple(leftsets))

    @property
    def width(self) -> int:
        return max(bag.bit_count() for bag in self.bags) - 1

    def introduced(self, p: int) -> int:
        return self._introduced[p]  # type: ignore[attr-defined]

    def forgotten(self, p: int) -> int:
        return self._forgotten[p]  # type: ignore[attr-defined]

    def leftset(self, p: int) -> int:
        return self._leftsets[p]  # type: ignore[attr-defined]

    def first_bag(self, v: int) -> int:
        for i, bag in enumerate(self.bags):
            if bag & (1 << v):
                return i
        return -1

    def last_bag(self, v: int) -> int:
        for i in range(len(self.bags) - 1, -1, -1):
            if self.bags[i] & (1 << v):
                return i
        return -1

    def validate(self, g: Graph) -> list[str]:
        """All decomposition axioms against g; empty list means valid."""
        problems = []
        if g.n != self.n:
            return [f"decomposition over {self.n} vertices, graph has {g.n}"]
        union = 0
        for bag in self.bags:
            if bag & ~_full_mask(self.n):
                problems.append("bag mentions vertices outside 0..n-1")
            union |= bag
        if union != _full_mask(self.n):
            problems.append("bags do not cover every vertex")
        for u, v in g.edges():
            if not any(bag & (1 << u) and bag & (1 << v) for bag in self.bags):
                problems.append(f"edge ({u},{v}) not covered by any bag")
        for v in range(self.n):
            hits = [i for i, bag in enumerate(self.bags) if bag & (1 << v)]
            if hits and hits[-1] - hits[0] != len(hits) - 1:
                problems.append(f"bags containing {v} are not consecutive")
        # caches are derived from the bags; recompute and compare
        left = 0
        prev = 0
        for p, bag in enumerate(self.bags):
            left |= prev & ~bag
            if self.introduced(p) != bag & ~prev or self.forgotten(p) != prev & ~bag:
                problems.append(f"change caches inconsistent at position {p}")
            if self.leftset(p) != left:
                problems.append(f"leftset cache inconsistent at position {p}")
            prev = bag
        return problems

    def consistency_violations(self, order: PartialOrder) -> list[str]:
        """Strict pairs whose larger element leaves before the smaller enters."""
        problems = []
        for x, y in order.strict_pairs():
            if self.last_bag(y) < self.first_bag(x):
                problems.append(
                    f"element {y} is forgotten before smaller element {x} is introduced"
                )
        return problems

    @property
    def is_nice(self) -> bool:
        return all(
            (self.introduced(p) | self.forgotten(p)).bit_count() == 1
            for p in range(1, len(self.bags))
        )


def make_nice(dec: PathDecomposition) -> PathDecomposition:
    """Equivalent decomposition whose consecutive bags differ by exactly one
    forgotten or one introduced vertex; width unchanged. Between two original
    bags all forgets come first, then all introduces, each in ascending
    vertex index, so the output is deterministic."""
    bags = [dec.bags[0]]
    for bag in dec.bags[1:]:
        if bag == bags[-1]:
            continue
        cur = bags[-1]
        for v in _bits(cur & ~bag):
            cur &= ~(1 << v)
            bags.append(cur)
        for v in _bits(bag & ~cur):
            cur |= 1 << v
            bags.append(cur)
    return PathDecomposition(dec.n, tuple(bags))


def pad_with_forgets(dec: PathDecomposition) -> PathDecomposition:
    """Append single-forget bags until the final bag is empty."""
    bags = list(dec.bags)
    cur = bags[-1]
    for v in _bits(cur):
        cur &= ~(1 << v)
        bags.append(cur)
    return PathDecomposition(dec.n, tuple(bags))


@dataclass(frozen=True)
class ConsistentPathDecomposition:
    """A path decomposition that never forgets an element of the order while
    a smaller element is still waiting to be introduced."""

    decomposition: PathDecomposition
    order: PartialOrder

    @property
    def width(self) -> int:
        return self.decomposition.width

    def validate(self) -> list[str]:
        problems = self.decomposition.validate(cocomparability_graph(self.order))
        problems += self.decomposition.consistency_violations(self.order)
        if not self.decomposition.is_nice:
            problems.append("decomposition is not nice")
        return problems


def clique_path_decomposition(
    order: PartialOrder,
) -> tuple[PathDecomposition, PartialOrder, Graph]:
    """Maximal cliques of a minimal triangulation of the cocomparability
    graph, ordered by the extracted interval order. Returns the raw bag
    sequence together with the interval order and the triangulation."""
    g = cocomparability_graph(order)
    h = minimal_triangulation(g)
    iota = interval_order_from_fill(order, h)
    cliques = maximal_cliques_chordal(h)

    def beats(x_mask: int, y_mask: int) -> bool:
        return any(iota.strict_up(x) & y_mask for x in _bits(x_mask))

    scored = sorted(
        cliques,
        key=lambda c: (
            -sum(1 for other in cliques if other != c and beats(c, other)),
            tuple(_bits(c)),
        ),
    )
    dec = PathDecomposition(order.n, tuple(scored))
    problems = dec.validate(h) + dec.consistency_violations(iota)
    if problems:
        raise InternalError("clique ordering failed: " + "; ".join(problems))
    return dec, iota, h


def consistent_path_decomposition(order: PartialOrder) -> ConsistentPathDecomposition:
    """Nice order-consistent path decomposition of the cocomparability graph.

    For inputs within the exact-search cap the width is optimal; beyond it
    the width is whatever the minimal-fill elimination produces.
    """
    raw, _, _ = clique_path_decomposition(order)
    result = ConsistentPathDecomposition(make_nice(raw), order)
    problems = result.validate()
    if problems:
        raise InternalError("decomposition invalid: " + "; ".join(problems))
    return result
