"""Workload decks: which instances each workload generates and which CLI
queries it sends.

A deck is a fixed list of slots. Each slot names an instance class (bucket
sizes, voter count, noise) and a query; the run seed only picks which
generator seeds of the class's pool each slot uses. So every seed sends the
same mix of widths, voter counts and query kinds, and the pool is small
enough that ``manifest.json`` holds an oracle reference for every instance
a run can draw. A noise-0 pool keeps only seeds whose unanimity order is
the bucket order itself, so that the sizes fix the width.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

POOL = 12  # generator seeds per instance class; manifest.json lists them


@dataclass(frozen=True)
class InstanceSpec:
    """``kemeny gen buckets --sizes ... --m ... --noise ... --seed ...``"""

    sizes: tuple[int, ...]
    m: int
    noise: int = 0
    seed: int = 0

    @property
    def n(self) -> int:
        return sum(self.sizes)

    @property
    def class_key(self) -> str:
        sizes = "-".join(map(str, self.sizes))
        return f"b{sizes}_m{self.m}_z{self.noise}"

    @property
    def key(self) -> str:
        return f"{self.class_key}_s{self.seed}"

    def with_seed(self, seed: int) -> "InstanceSpec":
        return InstanceSpec(self.sizes, self.m, self.noise, seed)


@dataclass(frozen=True)
class Slot:
    """One deck entry: a command on an instance class.

    ``args`` are the query flags; for ``pco`` the budget is ``budget``
    ("reject": incomparable pairs - 1, "no": optimum - 1, "yes": optimum),
    resolved per instance from the manifest.
    """

    command: str
    spec: InstanceSpec
    args: tuple[str, ...] = ()
    budget: str | None = None

    @property
    def query_key(self) -> str:
        return " ".join((self.command,) + self.args)


def _b(*sizes: int, m: int, noise: int = 0) -> InstanceSpec:
    return InstanceSpec(tuple(sizes), m, noise)


# Widths 4-7 at m = 20, noise 0 (so the unanimity order is the bucket order
# and the tail-state count is fixed by the sizes alone). The count is
# weighted to widths 5-6 with three width-7 slots (15 %), which puts p90
# inside the width-7 group and p50 inside the one-7-bucket width-6 group.
WIDE_SINGLE = [
    Slot("solve", _b(5, 5, 5, m=20)),
    Slot("solve", _b(5, 4, 5, 3, m=20)),
    Slot("solve", _b(6, 6, 6, m=20)),
    Slot("solve", _b(6, 5, 6, 4, m=20)),
    Slot("solve", _b(5, 6, 4, 5, 6, m=20)),
    Slot("solve", _b(6, 6, 6, 6, m=20)),
    Slot("solve", _b(7, 5, m=20)),
    Slot("solve", _b(5, 7, m=20)),
    Slot("solve", _b(7, 6, m=20)),
    Slot("solve", _b(4, 7, 5, m=20)),
    Slot("solve", _b(6, 7, 3, m=20)),
    Slot("solve", _b(7, 4, 4, m=20)),
    Slot("solve", _b(7, 7, m=20)),
    Slot("solve", _b(7, 3, 7, m=20)),
    Slot("solve", _b(5, 7, 7, m=20)),
    Slot("solve", _b(7, 7, 4, m=20)),
    Slot("solve", _b(7, 5, 7, m=20)),
    Slot("solve", _b(8, m=20)),
    Slot("solve", _b(8, 5, m=20)),
    Slot("solve", _b(8, 4, 4, m=20)),
]

# n = 10-40, m = 100-400, width <= 4: parsing and reduction dominate. Each
# pco instance is asked at three budgets: below the incomparable-pair count
# (edge-count rejection), just below the optimum (solve, then NO) and at
# the optimum (solve, then YES). Per round, seven queries have n <= 12
# (exact vertex-separation search, two of them noisy). The next thirteen
# grow in cost by group: one n = 20, m = 250 solve; six queries on two
# n = 20, m = 400 instances, which hold p50; two n = 25-30 solves; and four
# queries on one n = 40, m = 300 instance, which hold p90.
def _pco(spec: InstanceSpec, budgets=("reject", "no", "yes")) -> list[Slot]:
    return [Slot("pco", spec, budget=b) for b in budgets]


_MID = _b(4, 4, 4, 4, 4, m=400)
_BIG = _b(4, 4, 4, 4, 4, 4, 4, 4, 4, 4, m=300)
MANY_VOTERS = [
    Slot("solve", _b(3, 4, 3, m=100)),
    Slot("solve", _b(4, 4, 4, m=150)),
    Slot("solve", _b(3, 3, 4, m=100, noise=1)),
    Slot("solve", _b(2, 3, 3, 2, m=120, noise=1)),
    *_pco(_b(4, 4, 3, m=200)),
    Slot("solve", _MID),
    *_pco(_MID),
    Slot("solve", _b(5, 5, 5, 5, m=250)),
    Slot("solve", _MID),
    *_pco(_MID, ("no",)),
    Slot("solve", _b(5, 5, 5, 5, 5, 5, m=200)),
    Slot("solve", _b(4, 3, 4, 4, 3, 4, 3, m=400)),
    Slot("solve", _BIG),
    *_pco(_BIG),
]

# Widths 2-4, r = 2-3, delta 0-2; decide, distinct-optima and
# max-diversity queries with YES and NO answers. The lockstep's cost depends
# on the votes (through the cost window), so each slot draws two instances.
# optima on (5,5,5) is the slowest class and varies least with the votes;
# it fills two of eleven slots, which puts p90 inside it.
_SLOW = Slot("optima", _b(5, 5, 5, m=15), ("--r", "2"))
DIVERSE = [
    Slot("diverse", _b(5, 5, m=15), ("--r", "2", "--delta", "1", "--d", "4")),
    Slot("diverse", _b(4, 4, 4, m=15), ("--r", "3", "--delta", "0", "--d", "2")),
    Slot("diverse", _b(3, 3, 3, 3, 3, m=15), ("--r", "3", "--delta", "1", "--d", "6")),
    Slot("diverse", _b(4, 4, 4, m=15), ("--r", "2", "--delta", "1", "--d", "6", "--s", "3")),
    Slot("diverse", _b(3, 3, 3, 3, m=15), ("--r", "3", "--delta", "2", "--d", "10")),
    _SLOW,
    Slot("optima", _b(4, 4, 4, m=15), ("--r", "3")),
    Slot("optima", _b(4, 4, 4, 4, m=15), ("--r", "2")),
    Slot("maxdiv", _b(5, 5, m=15), ("--r", "2", "--delta", "1")),
    Slot("maxdiv", _b(4, 4, 4, 4, m=15), ("--r", "2", "--delta", "1")),
    _SLOW,
]

# workload -> (slots, instances drawn per slot)
WORKLOADS = {
    "wide-single": (WIDE_SINGLE, 1),
    "many-voters": (MANY_VOTERS, 1),
    "diverse": (DIVERSE, 2),
}

# The ROADMAP baseline timeout case, run as it stands: it shows how far past
# its deadline a query returns.
DEADLINE_SPEC = InstanceSpec((5, 5, 5), 20, 1, 1)
DEADLINE_ARGS = ("diverse", "--r", "3", "--delta", "2", "--d", "3", "--timeout", "0.2")
DEADLINE_TIMEOUT_S = 0.2


def deck(workload: str, seed: int, pools: dict[str, list[int]]) -> list[Slot]:
    """The workload's slots with pool seeds drawn for each from the run seed.

    Slots of one instance class next to each other share their draw, so the
    three pco budgets ask about the same instance; apart, they draw distinct
    instances, so no query repeats within a round.
    """
    slots, draws = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    out: list[Slot] = []
    drawn: list[int] = []
    used: dict[str, list[int]] = {}
    for i, s in enumerate(slots):
        if i == 0 or s.spec != slots[i - 1].spec:
            taken = used.setdefault(s.spec.class_key, [])
            drawn = rng.sample([p for p in pools[s.spec.class_key] if p not in taken], draws)
            taken += drawn
        out += [Slot(s.command, s.spec.with_seed(p), s.args, s.budget) for p in drawn]
    return out


def profile_text(spec: InstanceSpec) -> str:
    """The vote file ``kemeny gen buckets`` writes for this spec."""
    from kemeny.cli import serialize_profile
    from kemeny.instances import BucketSpec, generate_bucket_order, generate_profile

    base = generate_bucket_order(BucketSpec(spec.sizes, spec.seed))
    return serialize_profile(generate_profile(base, spec.m, spec.noise, spec.seed).profile)


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
