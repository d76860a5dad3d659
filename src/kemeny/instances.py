"""Instance generation: bucket orders, noisy vote ensembles and random
orders for the equivalence suites, plus the two small worked elections used
as golden fixtures throughout the tests."""

from __future__ import annotations

import random
import string
from dataclasses import dataclass

from .errors import InputError
from .orders import (
    CandidateSet,
    LinearOrder,
    PartialOrder,
    Profile,
    _bits,
)

# The share of full linear orders among the votes of ``random_profile``.
LINEAR_SHARE = 0.3


def candidate_labels(n: int) -> tuple[str, ...]:
    """A..Z for small n, c0..c{n-1} beyond."""
    if n <= 26:
        return tuple(string.ascii_uppercase[:n])
    return tuple(f"c{i}" for i in range(n))


@dataclass(frozen=True)
class BucketSpec:
    """Ordered cluster sizes: every element of a cluster precedes every
    element of all later clusters; elements inside a cluster are unordered."""

    bucket_sizes: tuple[int, ...]
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.bucket_sizes or any(b < 1 for b in self.bucket_sizes):
            raise InputError("bucket sizes must be positive")

    @property
    def n(self) -> int:
        return sum(self.bucket_sizes)


def generate_bucket_order(spec: BucketSpec) -> PartialOrder:
    """Bucket order over 0..n-1 with consecutive index ranges as buckets.

    Its incomparability graph is a disjoint union of cliques, one per
    bucket, so its pathwidth is the largest bucket size minus one.
    """
    buckets = []
    start = 0
    for size in spec.bucket_sizes:
        buckets.append(list(range(start, start + size)))
        start += size
    return PartialOrder.from_buckets(spec.n, buckets)


def random_linear_extension(order: PartialOrder, rng: random.Random) -> LinearOrder:
    """Uniformly random-ish extension: repeatedly pick a random minimal."""
    remaining = (1 << order.n) - 1
    perm = []
    while remaining:
        minimal = [
            v for v in _bits(remaining) if not order.strict_down(v) & remaining
        ]
        v = rng.choice(minimal)
        perm.append(v)
        remaining &= ~(1 << v)
    return LinearOrder(tuple(perm))


def random_partial_order(
    n: int, rng: random.Random, density: float = 0.4
) -> PartialOrder:
    """Random order: a shuffled backbone permutation with each forward pair
    kept independently, then closed transitively."""
    backbone = list(range(n))
    rng.shuffle(backbone)
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                pairs.append((backbone[i], backbone[j]))
    return PartialOrder.from_pairs(n, pairs)


def random_profile(
    n: int,
    m: int,
    rng: random.Random,
    density: float = 0.5,
) -> Profile:
    """Random partial-vote profile: each vote is a random partial order, a
    ``LINEAR_SHARE`` of them full linear orders."""
    if not 0 <= density <= 1:
        raise InputError(f"density must lie in [0, 1], got {density}")
    candidates = CandidateSet(candidate_labels(n))
    votes = []
    for _ in range(m):
        if rng.random() < LINEAR_SHARE:
            vote = random_linear_extension(PartialOrder.antichain(n), rng)
            votes.append((vote.as_partial_order(), 1))
        else:
            votes.append((random_partial_order(n, rng, density), 1))
    return Profile(candidates, tuple(votes))


@dataclass(frozen=True)
class ProfileSample:
    profile: Profile
    votes_extend_base: tuple[bool, ...]


def generate_profile(
    base: PartialOrder, m: int, noise: int, seed: int
) -> ProfileSample:
    """m linear votes drawn as random extensions of ``base``, each perturbed
    by ``noise`` random adjacent transpositions. Perturbed votes may
    contradict the base, so whether each vote still extends it is recorded
    rather than assumed."""
    if m < 1:
        raise InputError("need at least one vote")
    if noise < 0:
        raise InputError("noise must be non-negative")
    rng = random.Random(seed)
    candidates = CandidateSet(candidate_labels(base.n))
    votes = []
    extends = []
    for _ in range(m):
        perm = list(random_linear_extension(base, rng).perm)
        for _ in range(noise):
            if base.n < 2:
                break
            i = rng.randrange(base.n - 1)
            perm[i], perm[i + 1] = perm[i + 1], perm[i]
        vote = LinearOrder(tuple(perm))
        extends.append(vote.extends(base))
        votes.append((vote.as_partial_order(), 1))
    return ProfileSample(Profile(candidates, tuple(votes)), tuple(extends))


# ---------------------------------------------------------------------------
# Golden fixtures: two small five-candidate elections
# ---------------------------------------------------------------------------

FIVE_CANDIDATES = CandidateSet(("A", "B", "C", "D", "E"))


def _weak(buckets: list[list[str]]) -> PartialOrder:
    index = {name: i for i, name in enumerate(FIVE_CANDIDATES.names)}
    return PartialOrder.from_buckets(
        5, [[index[name] for name in bucket] for bucket in buckets]
    )


def five_type_profile() -> Profile:
    """100 voters in five weak-order types over candidates A..E."""
    votes = (
        (_weak([["A", "B"], ["C", "D", "E"]]), 10),
        (_weak([["A", "B"], ["D"], ["C", "E"]]), 10),
        (_weak([["A", "B", "C"], ["D", "E"]]), 10),
        (_weak([["A", "B", "C", "D"], ["E"]]), 40),
        (_weak([["A"], ["B"], ["C", "D", "E"]]), 20),
    )
    return Profile(FIVE_CANDIDATES, votes)


def fifty_fifty_profile() -> Profile:
    """50 voters each for two strict rankings that differ by one swap."""
    votes = (
        (_weak([["A"], ["B"], ["C"], ["D"], ["E"]]), 50),
        (_weak([["A"], ["B"], ["D"], ["C"], ["E"]]), 50),
    )
    return Profile(FIVE_CANDIDATES, votes)
