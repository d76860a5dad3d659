"""Answer checks that share no code with the solvers under test.

Witnesses are scored with this module's own Kendall-Tau count, built from
the vote text; ``kemeny_score`` is never called. Optima come from the
oracle-backed manifest, and diverse answers are re-derived from their
definitions. A check returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass

_MULT = re.compile(r"^(\d+)\s*x\s+(.*)$")


@dataclass(frozen=True)
class Votes:
    """Pairwise preference counts of a vote file.

    ``before[x][y]`` is the number of voters who rank x strictly before y.
    """

    names: tuple[str, ...]
    m: int
    before: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.names)

    def unanimous(self, x: int, y: int) -> bool:
        return self.before[x][y] == self.m

    def incomparable_pairs(self) -> int:
        return sum(
            1
            for x, y in itertools.combinations(range(self.n), 2)
            if not self.unanimous(x, y) and not self.unanimous(y, x)
        )

    def lower_bound(self) -> int:
        """Every ranking pays at least the minority count of each pair."""
        return sum(
            min(self.before[x][y], self.before[y][x])
            for x, y in itertools.combinations(range(self.n), 2)
        )

    def score(self, perm: list[int]) -> int:
        """Kemeny score: voters ranking a later candidate strictly first."""
        return sum(
            self.before[perm[j]][perm[i]]
            for i in range(len(perm))
            for j in range(i + 1, len(perm))
        )


def parse_votes(text: str) -> Votes:
    """Weak-order vote files (``[k x ]A=B<C<D`` lines) as written by
    ``kemeny gen``; anything else raises ValueError."""
    lines = [line.split("#", 1)[0].strip() for line in text.splitlines()]
    lines = [line for line in lines if line]
    if not lines or not lines[0].startswith("candidates:"):
        raise ValueError("missing candidates header")
    names = tuple(name.strip() for name in lines[0][len("candidates:"):].split(","))
    index = {name: i for i, name in enumerate(names)}
    n = len(names)
    before = [[0] * n for _ in range(n)]
    m = 0
    for line in lines[1:]:
        mult = 1
        match = _MULT.match(line)
        if match:
            mult, line = int(match.group(1)), match.group(2)
        if line.startswith("pairs:"):
            raise ValueError("pair votes are not generated by the benchmark")
        placed: list[int] = []
        for group in line.split("<"):
            bucket = [index[name.strip()] for name in group.split("=")]
            for y in bucket:
                for x in placed:
                    before[x][y] += mult
            placed.extend(bucket)
        m += mult
    return Votes(names, m, tuple(tuple(row) for row in before))


def kt(a: list[int], b: list[int]) -> int:
    """Kendall-Tau distance between two permutations of the same set."""
    pos = {v: i for i, v in enumerate(b)}
    seq = [pos[v] for v in a]
    return sum(
        1 for i in range(len(seq)) for j in range(i + 1, len(seq)) if seq[i] > seq[j]
    )


@dataclass(frozen=True)
class Expect:
    """What the manifest says about one query (None where it has no say)."""

    optimum: int
    decision: str | None = None  # diverse and optima queries
    diversity: int | None = None  # maxdiv: the maximum total diversity
    budget: int | None = None  # pco


def _witness(votes: Votes, doc: dict, i: int, problems: list[str]) -> list[int] | None:
    text = doc.get(f"witness-{i}")
    if not isinstance(text, str):
        problems.append(f"witness-{i} missing")
        return None
    index = {name: k for k, name in enumerate(votes.names)}
    try:
        perm = [index[name] for name in text.split("<")]
    except KeyError:
        problems.append(f"witness-{i} names an unknown candidate")
        return None
    if sorted(perm) != list(range(votes.n)):
        problems.append(f"witness-{i} is not a permutation of the candidates")
        return None
    pos = {v: k for k, v in enumerate(perm)}
    for x in range(votes.n):
        for y in range(votes.n):
            if x != y and votes.unanimous(x, y) and pos[x] > pos[y]:
                problems.append(f"witness-{i} breaks the unanimity order")
                return None
    score = votes.score(perm)
    if doc.get(f"score-{i}") != score:
        problems.append(f"score-{i} is {doc.get(f'score-{i}')}, witness scores {score}")
    return perm


def _witnesses(votes: Votes, doc: dict, problems: list[str]) -> list[list[int]]:
    count = sum(1 for key in doc if key.startswith("witness-"))
    perms = [_witness(votes, doc, i, problems) for i in range(1, count + 1)]
    return [p for p in perms if p is not None]


def check(
    command: str,
    args: dict[str, int],
    votes: Votes,
    expect: Expect,
    rc: int,
    out: str,
) -> list[str]:
    """Problems with one query's exit code and JSON document."""
    try:
        doc = json.loads(out)
    except ValueError:
        return [f"exit {rc} without a JSON document"]
    problems: list[str] = []
    opt = expect.optimum
    if doc.get("n") != votes.n or doc.get("m") != votes.m:
        problems.append("n or m does not match the vote file")
    if opt < votes.lower_bound():
        problems.append("manifest optimum below the pairwise lower bound")
    decision = doc.get("decision")
    if rc != {"yes": 0, "no": 1}.get(decision):
        problems.append(f"exit {rc} with decision {decision!r}")
    if command == "pco":
        k = expect.budget
        edges = votes.incomparable_pairs()
        if doc.get("incomparable-pairs") != edges:
            problems.append(f"incomparable-pairs {doc.get('incomparable-pairs')}, expected {edges}")
        if edges > k:
            if decision != "no" or "optimum" in doc:
                problems.append("edge-count bound exceeded but the query was not rejected")
            return problems
        want = "yes" if opt <= k else "no"
        if decision != want or doc.get("optimum") != opt:
            problems.append(f"pco answered {decision}/{doc.get('optimum')}, expected {want}/{opt}")
        if decision == "yes":
            perms = _witnesses(votes, doc, problems)
            if len(perms) != 1 or votes.score(perms[0]) > k:
                problems.append("pco witness missing or over budget")
        return problems
    if doc.get("optimum") != opt:
        problems.append(f"optimum {doc.get('optimum')}, manifest says {opt}")
    if command == "solve":
        perms = _witnesses(votes, doc, problems)
        if len(perms) != 1 or votes.score(perms[0]) != opt:
            problems.append("solve witness missing or not optimal")
        return problems
    r = args["r"]
    delta = args.get("delta", 0)
    if command in ("diverse", "optima") and decision != expect.decision:
        problems.append(f"decision {decision}, manifest says {expect.decision}")
    if decision != "yes":
        return problems
    perms = _witnesses(votes, doc, problems)
    if any(votes.score(p) > opt + delta for p in perms):
        problems.append("a witness is outside the cost window")
    dist = {(i, j): kt(perms[i], perms[j]) for i, j in itertools.combinations(range(len(perms)), 2)}
    total = sum(dist.values())
    if command in ("diverse", "maxdiv"):
        for (i, j), v in dist.items():
            if doc.get(f"distance-{i + 1}-{j + 1}") != v:
                problems.append(f"distance-{i + 1}-{j + 1} does not match the witnesses")
    if command == "maxdiv":
        # A selection is a multiset: the CLI may print a witness twice.
        if not 1 <= len(perms) <= r:
            problems.append(f"maxdiv printed {len(perms)} witnesses for r = {r}")
        elif doc.get("diversity") not in _multiset_diversities(perms, r):
            problems.append("maxdiv diversity does not match its witnesses")
        if doc.get("diversity") != expect.diversity:
            problems.append(f"maxdiv diversity {doc.get('diversity')}, manifest says {expect.diversity}")
        return problems
    if len(perms) != r or len({tuple(p) for p in perms}) != r:
        problems.append(f"{len(perms)} witnesses for r = {r}, or some repeat")
    if command == "diverse":
        s = max(args.get("s", 0), 1)
        if any(v < s for v in dist.values()) or total < args.get("d", 0):
            problems.append("witness set misses the distance or diversity target")
        if doc.get("diversity") != total:
            problems.append(f"diversity {doc.get('diversity')}, witnesses give {total}")
    return problems


def _multiset_diversities(perms: list[list[int]], r: int) -> set[int]:
    """Total diversities of the size-r multisets that use every printed
    (deduplicated) witness at least once."""
    out = set()
    for combo in itertools.combinations_with_replacement(range(len(perms)), r):
        if set(combo) == set(range(len(perms))):
            out.add(sum(kt(perms[a], perms[b]) for a, b in itertools.combinations(combo, 2)))
    return out
