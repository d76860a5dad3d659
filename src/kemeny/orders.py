"""Candidate sets, partial/linear orders, Kendall-Tau machinery, and the
reduction from rank aggregation to ordering completion.

Relations over n candidates are stored as n rows of integer bitmasks:
bit y of ``rows[x]`` is set iff the pair (x, y) is in the relation, read as
"x is at most y". This keeps closure, intersection and pair counting at
O(n^2 / wordsize). Everything here is immutable after construction and
side-effect free, so values can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .errors import InputError

# The tail-order dynamic programs index candidates into machine words; keep a
# documented hard cap so wide instances fail loudly instead of crawling.
MAX_CANDIDATES = 64

# Scores are kept in unsigned-64 range; a profile's worst score is n^2 * m.
MAX_SCORE = 2**64 - 1


def _full_mask(n: int) -> int:
    return (1 << n) - 1


def _bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def close_rows(rows: list[int]) -> list[int]:
    """Warshall closure of a rows-of-bitmasks relation, in place."""
    n = len(rows)
    for k in range(n):
        rk = rows[k]
        kbit = 1 << k
        for x in range(n):
            if rows[x] & kbit:
                rows[x] |= rk
    return rows


@dataclass(frozen=True)
class CandidateSet:
    """Ordered set of distinct candidate labels; index i names candidate i."""

    names: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.names:
            raise InputError("candidate set is empty")
        if any(not name for name in self.names):
            raise InputError("candidate labels must be non-empty")
        if len(set(self.names)) != len(self.names):
            raise InputError("candidate labels must be unique")

    @property
    def n(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise InputError(f"unknown candidate {name!r}") from None


@dataclass(frozen=True)
class PartialOrder:
    """A reflexive, antisymmetric, transitive relation over 0..n-1."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        n = self.n
        if n < 1:
            raise InputError("order needs at least one element")
        if len(self.rows) != n:
            raise InputError("rows size does not match n")
        full = _full_mask(n)
        for x, row in enumerate(self.rows):
            if row & ~full:
                raise InputError("relation mentions elements outside 0..n-1")
            if not row & (1 << x):
                raise InputError(f"relation not reflexive at {x}")
        for x in range(n):
            for y in _bits(self.rows[x]):
                if y != x and self.rows[y] & (1 << x):
                    raise InputError(f"antisymmetry violated on ({x},{y})")
                if self.rows[y] & ~self.rows[x]:
                    raise InputError(f"transitivity violated below ({x},{y})")
        cols = [0] * n
        for x in range(n):
            row = self.rows[x]
            for y in _bits(row):
                cols[y] |= 1 << x
        object.__setattr__(self, "_cols", tuple(cols))

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "PartialOrder":
        """Reflexive transitive closure of ``pairs``; a cycle fails the
        antisymmetry check of the constructor."""
        rows = [1 << x for x in range(n)]
        for x, y in pairs:
            if not (0 <= x < n and 0 <= y < n):
                raise InputError(f"pair ({x},{y}) outside universe of size {n}")
            rows[x] |= 1 << y
        close_rows(rows)
        return cls(n, tuple(rows))

    @classmethod
    def antichain(cls, n: int) -> "PartialOrder":
        return cls(n, tuple(1 << x for x in range(n)))

    @classmethod
    def from_buckets(cls, n: int, buckets: Sequence[Sequence[int]]) -> "PartialOrder":
        """Weak order from an ordered bucket chain; ties are incomparability."""
        seen = 0
        rows = [1 << x for x in range(n)]
        later = _full_mask(n)
        for bucket in buckets:
            bucket_mask = 0
            for x in bucket:
                if not (0 <= x < n):
                    raise InputError(f"bucket element {x} outside universe")
                bucket_mask |= 1 << x
            if bucket_mask & seen:
                raise InputError("bucket chain repeats an element")
            seen |= bucket_mask
            later &= ~bucket_mask
            for x in _bits(bucket_mask):
                rows[x] |= later | (1 << x)
        return cls(n, tuple(rows))

    # -- queries -----------------------------------------------------------

    def leq(self, x: int, y: int) -> bool:
        return bool(self.rows[x] & (1 << y))

    def lt(self, x: int, y: int) -> bool:
        return x != y and self.leq(x, y)

    def incomparable(self, x: int, y: int) -> bool:
        return x != y and not self.leq(x, y) and not self.leq(y, x)

    def strict_up(self, x: int) -> int:
        """Bitmask of elements strictly above x."""
        return self.rows[x] & ~(1 << x)

    def strict_down(self, x: int) -> int:
        """Bitmask of elements strictly below x."""
        return self._cols[x] & ~(1 << x)  # type: ignore[attr-defined]

    def strict_pairs(self) -> Iterator[tuple[int, int]]:
        for x in range(self.n):
            for y in _bits(self.strict_up(x)):
                yield (x, y)

    def strict_pair_count(self) -> int:
        return sum(self.strict_up(x).bit_count() for x in range(self.n))

    def contains(self, other: "PartialOrder") -> bool:
        """True iff every pair of ``other`` is also a pair of this order."""
        if other.n != self.n:
            raise InputError("orders over different universes")
        return all(other.rows[x] & ~self.rows[x] == 0 for x in range(self.n))

    @property
    def is_linear(self) -> bool:
        full = _full_mask(self.n)
        return all(
            self.rows[x] | self._cols[x] == full  # type: ignore[attr-defined]
            for x in range(self.n)
        )

    def to_linear(self) -> "LinearOrder":
        if not self.is_linear:
            raise InputError("order is not linear")
        perm = sorted(range(self.n), key=lambda x: self.rows[x].bit_count(), reverse=True)
        return LinearOrder(tuple(perm))


@dataclass(frozen=True)
class LinearOrder:
    """A permutation of 0..n-1; position 0 holds the smallest element."""

    perm: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.perm) != list(range(len(self.perm))):
            raise InputError("perm is not a permutation of 0..n-1")
        pos = [0] * len(self.perm)
        for i, x in enumerate(self.perm):
            pos[x] = i
        object.__setattr__(self, "_pos", tuple(pos))

    @property
    def n(self) -> int:
        return len(self.perm)

    def position(self, x: int) -> int:
        return self._pos[x]  # type: ignore[attr-defined]

    def as_partial_order(self) -> PartialOrder:
        n = self.n
        rows = [0] * n
        suffix = _full_mask(n)
        for x in self.perm:
            rows[x] = suffix
            suffix &= ~(1 << x)
        return PartialOrder(n, tuple(rows))

    def extends(self, order: PartialOrder) -> bool:
        if order.n != self.n:
            raise InputError("orders over different universes")
        pos = self._pos  # type: ignore[attr-defined]
        return all(pos[x] < pos[y] for x, y in order.strict_pairs())

    def reverse(self) -> "LinearOrder":
        return LinearOrder(tuple(reversed(self.perm)))


@dataclass(frozen=True)
class Profile:
    """A list of partial votes with positive integer multiplicities."""

    candidates: CandidateSet
    votes: tuple[tuple[PartialOrder, int], ...]

    def __post_init__(self) -> None:
        n = self.candidates.n
        if not self.votes:
            raise InputError("profile has no votes")
        for vote, mult in self.votes:
            if vote.n != n:
                raise InputError("vote over a different candidate set")
            if mult < 1:
                raise InputError("vote multiplicity must be positive")
        if self.m * n * n > MAX_SCORE:
            raise InputError("profile too large: worst-case score exceeds 64 bits")

    @property
    def n(self) -> int:
        return self.candidates.n

    @property
    def m(self) -> int:
        return sum(mult for _, mult in self.votes)


@dataclass(frozen=True)
class CostInstance:
    """An ordering-completion instance: extend ``base`` to a linear order,
    paying ``cost(x, y)`` for every pair placed x-before-y that the base
    order does not already force. Pairs comparable in ``base`` are never
    charged; the solvers and the oracle only ever sum over the remainder.
    """

    n: int
    cost: tuple[tuple[int, ...], ...]
    base: PartialOrder
    # cost with the base order's pairs zeroed: what the solvers sum over
    charge: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.n
        if n > MAX_CANDIDATES:
            raise InputError(f"at most {MAX_CANDIDATES} candidates supported")
        if self.base.n != n or len(self.cost) != n:
            raise InputError("cost matrix / base order size mismatch")
        for x, row in enumerate(self.cost):
            if len(row) != n:
                raise InputError("cost matrix is not square")
            if row[x] != 0:
                raise InputError("cost on the diagonal must be 0")
            if any(c < 0 for c in row):
                raise InputError("costs must be non-negative")
        charge = [
            [0 if self.base.leq(x, y) else self.cost[x][y] for y in range(n)]
            for x in range(n)
        ]
        object.__setattr__(self, "charge", tuple(tuple(row) for row in charge))

    @property
    def is_positive(self) -> bool:
        """True iff every base-incomparable pair has positive cost both ways."""
        return all(
            self.cost[x][y] > 0
            for x in range(self.n)
            for y in range(self.n)
            if self.base.incomparable(x, y)
        )

    def extension_cost(self, extension: LinearOrder) -> int:
        """Total charged cost of a linear extension of the base order."""
        if extension.n != self.n:
            raise InputError("extension over a different universe")
        if not extension.extends(self.base):
            raise InputError("not a linear extension of the base order")
        charge = self.charge
        total = 0
        perm = extension.perm
        for i, x in enumerate(perm):
            row = charge[x]
            for y in perm[i + 1 :]:
                total += row[y]
        return total


# ---------------------------------------------------------------------------
# Kendall-Tau distances, scores, diversity
# ---------------------------------------------------------------------------


def _as_partial(order: PartialOrder | LinearOrder) -> PartialOrder:
    if isinstance(order, LinearOrder):
        return order.as_partial_order()
    return order


def kt_distance(a: PartialOrder | LinearOrder, b: PartialOrder | LinearOrder) -> int:
    """Number of pairs the two orders rank oppositely.

    Counts pairs (x, y) with x strictly below y in ``a`` and y strictly below
    x in ``b``; the defining set is symmetric under swapping the arguments.
    """
    pa, pb = _as_partial(a), _as_partial(b)
    if pa.n != pb.n:
        raise InputError("orders over different universes")
    return sum(
        (pa.strict_up(x) & pb.strict_down(x)).bit_count() for x in range(pa.n)
    )


def kemeny_score(profile: Profile, ranking: LinearOrder) -> int:
    """Sum over votes of multiplicity times distance to ``ranking``."""
    if ranking.n != profile.n:
        raise InputError("ranking over a different candidate set")
    rp = ranking.as_partial_order()
    return sum(mult * kt_distance(rp, vote) for vote, mult in profile.votes)


def diversity(rankings: Sequence[LinearOrder]) -> int:
    """Sum of pairwise distances over unordered pairs of distinct rankings.

    The unordered-pair convention (each pair counted once) is used across
    the whole package; every diversity threshold is read under it.
    """
    seen = set()
    for r in rankings:
        if r.perm in seen:
            raise InputError("diversity is defined over a set: duplicate ranking")
        seen.add(r.perm)
    total = 0
    for i in range(len(rankings)):
        for j in range(i + 1, len(rankings)):
            total += kt_distance(rankings[i], rankings[j])
    return total


def unanimity_order(profile: Profile) -> PartialOrder:
    """Intersection of all votes: the pairs every voter agrees on."""
    n = profile.n
    rows = [_full_mask(n)] * n
    for vote, _ in profile.votes:
        rows = [rows[x] & vote.rows[x] for x in range(n)]
    # An intersection of partial orders is again a partial order.
    return PartialOrder(n, tuple(rows))


def reduce_to_co(profile: Profile) -> CostInstance:
    """Rank aggregation as ordering completion over the unanimity order.

    cost(x, y) counts the voters who place y before x, so the charged cost
    of any linear extension equals its Kemeny score against the profile.
    """
    n = profile.n
    base = unanimity_order(profile)
    cost = [[0] * n for _ in range(n)]
    for vote, mult in profile.votes:
        for x, y in vote.strict_pairs():
            cost[y][x] += mult
    return CostInstance(n, tuple(tuple(row) for row in cost), base)
