"""Candidate sets, partial/linear orders, Kendall-Tau machinery, and the
reduction from rank aggregation to ordering completion.

Relations over n candidates are stored as n rows of integer bitmasks:
bit y of ``rows[x]`` is set iff the pair (x, y) is in the relation, read as
"x is at most y". This keeps closure, intersection and pair counting at
O(n^2 / wordsize). An order stores its rows alone. Everything here is
immutable after construction and side-effect free, so values can be shared
freely across threads. The two exceptions are caches, each a function of
its value alone: a ``PartialOrder`` transposes its rows into columns (bit
x of ``_cols[y]`` iff x is at most y) on first use, and a ``Profile``
packs its votes into words on first use.

``PartialOrder(n, rows)`` and ``PartialOrder.from_pairs`` check
reflexivity, antisymmetry and transitivity over all pairs. The
constructions that are valid by how they are built skip that check:
``from_buckets`` (which still rejects elements outside the universe and
an element repeated anywhere, inside one bucket or across two),
``antichain``, ``LinearOrder.as_partial_order``, ``unanimity_order`` (an
intersection of partial orders is a partial order) and the chain-line
reader of ``kemeny.cli`` (which rejects unknown and repeated names first;
every other bucket line goes through ``from_buckets``).

``kt_distance`` counts opposed pairs with one sweep: the popcounts of row
x of one order AND column x of the other, less n.

A profile reads its votes as packed words: the n rows of a vote laid in
one integer, row x in the 64-bit lane at bit 64 * x, so that a pass over
the votes is one big-integer operation per vote. ``unanimity_order`` ANDs
the words. ``reduce_to_co`` adds each word, once per binary digit of its
multiplicity, into carry-save bit planes (plane k holds bit k of every
cell's voter count) and reads the counts only at the pairs the unanimity
order leaves incomparable. ``kemeny_score`` ANDs each word with the
complement of the ranking's rows packed the same way: a pair a vote orders
is opposed exactly when the ranking's row lacks it, so one popcount per
vote counts its distance.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from functools import cache, cached_property, reduce
from operator import and_
from typing import Iterable, Iterator, Sequence

from .errors import InputError, check_deadline

# The tail-order dynamic programs index candidates into machine words; keep a
# documented hard cap so wide instances fail loudly instead of crawling.
MAX_CANDIDATES = 64

# Scores are kept in unsigned-64 range; a profile's worst score is n^2 * m.
MAX_SCORE = 2**64 - 1


def _full_mask(n: int) -> int:
    return (1 << n) - 1


@cache
def _units(n: int) -> tuple[int, ...]:
    """``1 << x`` at index x: the rows of the antichain over 0..n-1."""
    return tuple(1 << x for x in range(n))


def _bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _pack(rows: Sequence[int]) -> int:
    """The rows of an order over at most 64 elements as one integer, row x
    at bit 64 * x."""
    return int.from_bytes(array("Q", rows).tobytes(), sys.byteorder)


def _unpack(word: int, n: int) -> list[int]:
    """The n 64-bit lanes of a packed word, lowest first."""
    return array("Q", word.to_bytes(8 * n, sys.byteorder)).tolist()


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
        object.__setattr__(
            self, "_index", {name: i for i, name in enumerate(self.names)}
        )

    @property
    def n(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._index[name]  # type: ignore[attr-defined]
        except KeyError:
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
        rows = self.rows
        full = _full_mask(n)
        for x, row in enumerate(rows):
            if row & ~full:
                raise InputError("relation mentions elements outside 0..n-1")
            if not row & (1 << x):
                raise InputError(f"relation not reflexive at {x}")
        for x, row in enumerate(rows):
            xbit = 1 << x
            for y in _bits(row):
                up = rows[y]
                if y != x and up & xbit:
                    raise InputError(f"antisymmetry violated on ({x},{y})")
                if up & ~row:
                    raise InputError(f"transitivity violated below ({x},{y})")

    @classmethod
    def _valid(cls, n: int, rows: tuple[int, ...]) -> "PartialOrder":
        """An order from rows the caller built valid: skips the O(n^2)
        check."""
        order = object.__new__(cls)
        object.__setattr__(order, "n", n)
        object.__setattr__(order, "rows", rows)
        return order

    @cached_property
    def _cols(self) -> tuple[int, ...]:
        """The transposed rows: bit x of ``_cols[y]`` iff x is at most y."""
        cols = [0] * self.n
        for x, row in enumerate(self.rows):
            xbit = 1 << x
            for y in _bits(row):
                cols[y] |= xbit
        return tuple(cols)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "PartialOrder":
        """Reflexive transitive closure of the strict ``pairs``; a pair
        (x, x) is a cycle, and a longer cycle fails the antisymmetry check
        of the constructor."""
        rows = list(_units(n))
        for x, y in pairs:
            if not (0 <= x < n and 0 <= y < n):
                raise InputError(f"pair ({x},{y}) outside universe of size {n}")
            if x == y:
                raise InputError(f"pair ({x},{x}) is a cycle")
            rows[x] |= 1 << y
        close_rows(rows)
        return cls(n, tuple(rows))

    @classmethod
    def antichain(cls, n: int) -> "PartialOrder":
        return cls._valid(n, _units(n))

    @classmethod
    def from_buckets(cls, n: int, buckets: Sequence[Sequence[int]]) -> "PartialOrder":
        """Order from an ordered bucket chain: ties, and elements in no
        bucket, are incomparable. An element outside 0..n-1, or repeated
        anywhere in the chain, is rejected."""
        masks = []
        seen = 0
        for bucket in buckets:
            bucket_mask = 0
            for x in bucket:
                if not (0 <= x < n):
                    raise InputError(f"bucket element {x} outside universe")
                bucket_mask |= 1 << x
            if bucket_mask & seen or bucket_mask.bit_count() != len(bucket):
                raise InputError("bucket chain repeats an element")
            seen |= bucket_mask
            masks.append(bucket_mask)
        rows = list(_units(n))
        later = seen
        for bucket, bucket_mask in zip(buckets, masks):
            later ^= bucket_mask
            for x in bucket:
                rows[x] |= later
        return cls._valid(n, tuple(rows))

    # -- queries -----------------------------------------------------------

    def leq(self, x: int, y: int) -> bool:
        return bool(self.rows[x] & (1 << y))

    def lt(self, x: int, y: int) -> bool:
        return x != y and self.leq(x, y)

    def strict_up(self, x: int) -> int:
        """Bitmask of elements strictly above x."""
        return self.rows[x] & ~(1 << x)

    def strict_down(self, x: int) -> int:
        """Bitmask of elements strictly below x."""
        return self._cols[x] & ~(1 << x)

    def incomparable_to(self, x: int) -> int:
        """Bitmask of elements incomparable to x."""
        return _full_mask(self.n) & ~(self.rows[x] | self._cols[x])

    def strict_pairs(self) -> Iterator[tuple[int, int]]:
        for x in range(self.n):
            for y in _bits(self.strict_up(x)):
                yield (x, y)

    def cover_pairs(self) -> Iterator[tuple[int, int]]:
        """The strict pairs with nothing between them: the transitive
        reduction, in ascending order."""
        for x in range(self.n):
            up = self.strict_up(x)
            for y in _bits(up):
                if not up & self.strict_down(y):
                    yield (x, y)


@dataclass(frozen=True)
class LinearOrder:
    """A permutation of 0..n-1; position 0 holds the smallest element."""

    perm: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.perm) != list(range(len(self.perm))):
            raise InputError("perm is not a permutation of 0..n-1")

    @property
    def n(self) -> int:
        return len(self.perm)

    def as_partial_order(self) -> PartialOrder:
        n = self.n
        rows = [0] * n
        suffix = _full_mask(n)
        for x in self.perm:
            rows[x] = suffix
            suffix ^= 1 << x
        return PartialOrder._valid(n, tuple(rows))

    def extends(self, order: PartialOrder) -> bool:
        """True iff every row of ``order`` lies inside the same row of this
        ranking: whatever the order puts above x, the ranking does too."""
        if order.n != self.n:
            raise InputError("orders over different universes")
        own = self.as_partial_order().rows
        return all(not up & ~mine for up, mine in zip(order.rows, own))


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

    def _words(self, deadline: float | None = None) -> tuple[tuple[int, int], ...]:
        """(packed rows, multiplicity) of each vote, packed on first use,
        which checks the deadline once per vote."""
        words = self.__dict__.get("_packed")
        if words is None:
            if self.n > MAX_CANDIDATES:
                raise InputError(f"at most {MAX_CANDIDATES} candidates supported")
            packed = []
            for vote, mult in self.votes:
                check_deadline(deadline)
                packed.append((_pack(vote.rows), mult))
            words = self.__dict__["_packed"] = tuple(packed)
        return words


@dataclass(frozen=True)
class CostInstance:
    """An ordering-completion instance: extend ``base`` to a linear order,
    paying ``cost[x][y]`` for every pair placed x-before-y. The pairs the
    base order forces are never charged: the stored matrix has every cell
    ``cost[x][y]`` with y in ``base.rows[x]`` set to zero, so the solvers
    and the oracle sum it as it is.
    """

    n: int
    cost: tuple[tuple[int, ...], ...]
    base: PartialOrder

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
        cost = []
        for costs, up in zip(self.cost, self.base.rows):
            row = list(costs)
            for y in _bits(up):
                row[y] = 0
            cost.append(tuple(row))
        object.__setattr__(self, "cost", tuple(cost))

    @property
    def is_positive(self) -> bool:
        """True iff every base-incomparable pair has positive cost both ways."""
        return all(
            self.cost[x][y] > 0
            for x in range(self.n)
            for y in _bits(self.base.incomparable_to(x))
        )

    def extension_cost(self, extension: LinearOrder) -> int:
        """Total charged cost of a linear extension of the base order."""
        if extension.n != self.n:
            raise InputError("extension over a different universe")
        if not extension.extends(self.base):
            raise InputError("not a linear extension of the base order")
        cost = self.cost
        total = 0
        perm = extension.perm
        for i, x in enumerate(perm):
            row = cost[x]
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


def _opposed(rows: Sequence[int], cols: Sequence[int]) -> int:
    """Pairs ranked oppositely by an order with these ``rows`` and one with
    these columns: row x of the first and column x of the second share x
    itself and exactly the y above x in the first and below it in the
    second."""
    return sum(map(int.bit_count, map(int.__and__, rows, cols))) - len(rows)


def kt_distance(a: PartialOrder | LinearOrder, b: PartialOrder | LinearOrder) -> int:
    """Number of pairs the two orders rank oppositely.

    Counts pairs (x, y) with x strictly below y in ``a`` and y strictly below
    x in ``b``; the defining set is symmetric under swapping the arguments.
    """
    pa, pb = _as_partial(a), _as_partial(b)
    if pa.n != pb.n:
        raise InputError("orders over different universes")
    return _opposed(pa.rows, pb._cols)


def kemeny_score(profile: Profile, ranking: LinearOrder) -> int:
    """Sum over votes of multiplicity times distance to ``ranking``: a pair
    (x, y) a vote orders is opposed exactly when row x of the ranking lacks
    y, so each packed vote counts its distance with one popcount."""
    if ranking.n != profile.n:
        raise InputError("ranking over a different candidate set")
    words = profile._words()  # checks the candidate cap before any packing
    lacking = ~_pack(ranking.as_partial_order().rows)
    return sum(mult * (word & lacking).bit_count() for word, mult in words)


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


def unanimity_order(profile: Profile, deadline: float | None = None) -> PartialOrder:
    """Intersection of all votes: the pairs every voter agrees on, one AND
    per packed vote; packing checks the deadline once per vote."""
    n = profile.n
    rows = _unpack(reduce(and_, [word for word, _ in profile._words(deadline)]), n)
    # An intersection of partial orders is again a partial order.
    return PartialOrder._valid(n, tuple(rows))


def reduce_to_co(profile: Profile, deadline: float | None = None) -> CostInstance:
    """Rank aggregation as ordering completion over the unanimity order.

    cost(x, y) counts the voters who place y before x, so the charged cost
    of any linear extension equals its Kemeny score against the profile.
    The deadline is checked once per vote, while packing and while adding.
    """
    n, m = profile.n, profile.m
    base = unanimity_order(profile, deadline)
    # Plane k holds, at bit 64 * x + y, bit k of the number of voters with
    # x at most y: each word is added at the planes of its multiplicity's
    # binary digits, carrying up.
    planes = [0] * m.bit_length()
    for word, mult in profile._words():
        check_deadline(deadline)
        for digit in _bits(mult):
            k, carry = digit, word
            while carry:
                plane = planes[k]
                planes[k] = plane ^ carry
                carry &= plane
                k += 1
    lanes = [_unpack(plane, n) for plane in planes]
    cost = [[0] * n for _ in range(n)]
    for x in range(n):
        # Every voter has x at most the y above x in the base order, and
        # none has it at most a y below x: only the incomparable pairs
        # read their counts off the planes.
        for y in _bits(base.strict_up(x)):
            cost[y][x] = m
        free = base.incomparable_to(x)
        for k, lane in enumerate(lanes):
            for y in _bits(lane[x] & free):
                cost[y][x] += 1 << k
    return CostInstance(n, tuple(tuple(row) for row in cost), base)
