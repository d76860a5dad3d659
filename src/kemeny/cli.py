"""Command-line surface: vote-file parsing, result serialization, and the
solver/oracle/generator subcommands.

Vote files look like::

    # comments and blank lines are ignored
    candidates: A,B,C,D,E
    10 x A=B<D<C=E          # weak order: '=' groups a bucket, '<' orders them
    pairs: A<B, C<D         # arbitrary partial vote via its pair closure
    A<B<C<D<E               # multiplicity defaults to 1

Exit codes: 0 solved / YES, 1 NO, 2 input error, 3 capability limit or
timeout. Output is deterministic for fixed input and seed; the optional
--timing line is the one exception and is off by default.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
import time
from dataclasses import dataclass, field
from typing import IO, Sequence

from .errors import CapabilityError, InputError, InternalError
from .instances import (
    BucketSpec,
    five_type_profile,
    fifty_fifty_profile,
    generate_bucket_order,
    generate_profile,
    random_profile,
)
from .oracle import count_extensions, enumerate_extensions, oracle_diverse, oracle_optimum
from .orders import (
    CandidateSet,
    LinearOrder,
    PartialOrder,
    Profile,
    _bits,
    kemeny_score,
    kt_distance,
    reduce_to_co,
    unanimity_order,
)
from .pco import PcoInstance, solve_pco
from .solver_diverse import (
    DiverseQuery,
    find_distinct_optima,
    solve_diverse_kra,
    solve_max_diversity,
)
from .solver_single import solve_single
from .width import PathDecomposition, cocomparability_graph

EXIT_YES = 0
EXIT_NO = 1
EXIT_INPUT = 2
EXIT_CAPABILITY = 3
EXIT_INTERNAL = 70


# ---------------------------------------------------------------------------
# Vote files
# ---------------------------------------------------------------------------

_MULT_RE = re.compile(r"^(\d+)\s*x\s+(.*)$")


def _content_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((lineno, line))
    return out


def parse_votes(text: str) -> Profile:
    """Parse a vote file into a Profile, with line-precise diagnostics."""
    lines = _content_lines(text)
    if not lines:
        raise InputError("empty vote file")
    lineno, header = lines[0]
    if not header.startswith("candidates:"):
        raise InputError(f"line {lineno}: expected 'candidates:' header")
    names = [name.strip() for name in header[len("candidates:"):].split(",")]
    if any(not name for name in names):
        raise InputError(f"line {lineno}: empty candidate name")
    candidates = CandidateSet(tuple(names))
    votes = []
    for lineno, line in lines[1:]:
        mult = 1
        match = _MULT_RE.match(line)
        if match:
            mult = int(match.group(1))
            line = match.group(2).strip()
            if mult < 1:
                raise InputError(f"line {lineno}: multiplicity must be positive")
        try:
            if line.startswith("pairs:"):
                vote = _parse_pair_vote(candidates, line[len("pairs:"):])
            else:
                vote = _parse_bucket_vote(candidates, line)
        except InputError as exc:
            raise InputError(f"line {lineno}: {exc}") from None
        votes.append((vote, mult))
    if not votes:
        raise InputError("vote file has a header but no votes")
    return Profile(candidates, tuple(votes))


def _parse_pair_vote(candidates: CandidateSet, body: str) -> PartialOrder:
    pairs = []
    for chunk in body.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        sides = [side.strip() for side in chunk.split("<")]
        if len(sides) < 2:
            raise InputError(f"expected 'X<Y' in pair list, got {chunk!r}")
        for a, b in zip(sides, sides[1:]):
            pairs.append((candidates.index(a), candidates.index(b)))
    if not pairs:
        raise InputError("empty pair list")
    try:
        return PartialOrder.from_pairs(candidates.n, pairs)
    except InputError:
        raise InputError("pair set closes to a cycle") from None


def _parse_bucket_vote(candidates: CandidateSet, body: str) -> PartialOrder:
    buckets = []
    seen: set[int] = set()
    for group in body.split("<"):
        bucket = []
        for name in group.split("="):
            idx = candidates.index(name.strip())
            if idx in seen:
                raise InputError(f"candidate {name.strip()!r} repeated in vote")
            seen.add(idx)
            bucket.append(idx)
        buckets.append(bucket)
    return PartialOrder.from_buckets(candidates.n, buckets)


def _as_buckets(order: PartialOrder) -> list[list[int]] | None:
    """Bucket chain of a weak order, or None if the order is not weak."""
    groups: dict[tuple[int, int], list[int]] = {}
    for v in range(order.n):
        groups.setdefault((order.strict_down(v), order.strict_up(v)), []).append(v)
    chain = sorted(groups.values(), key=lambda g: order.strict_down(g[0]).bit_count())
    rebuilt = PartialOrder.from_buckets(order.n, chain)
    if rebuilt.rows != order.rows:
        return None
    return chain


def _transitive_reduction(order: PartialOrder) -> list[tuple[int, int]]:
    pairs = []
    for x, y in order.strict_pairs():
        if not order.strict_up(x) & order.strict_down(y):
            pairs.append((x, y))
    return pairs


def serialize_vote(order: PartialOrder, names: Sequence[str]) -> str:
    buckets = _as_buckets(order)
    if buckets is not None and sum(len(b) for b in buckets) == order.n:
        return "<".join("=".join(names[v] for v in sorted(b)) for b in buckets)
    reduction = _transitive_reduction(order)
    if not reduction:
        # an antichain has no pairs; a full bucket line says the same thing
        return "=".join(names[v] for v in range(order.n))
    return "pairs: " + ", ".join(
        f"{names[x]}<{names[y]}" for x, y in sorted(reduction)
    )


def serialize_profile(profile: Profile) -> str:
    names = profile.candidates.names
    lines = ["candidates: " + ",".join(names)]
    for vote, mult in profile.votes:
        body = serialize_vote(vote, names)
        lines.append(body if mult == 1 else f"{mult} x {body}")
    return "\n".join(lines) + "\n"


def _ranking_str(ranking: LinearOrder, names: Sequence[str]) -> str:
    return "<".join(names[v] for v in ranking.perm)


# ---------------------------------------------------------------------------
# Result documents
# ---------------------------------------------------------------------------


@dataclass
class ResultDocument:
    """Key/value result lines plus a machine-readable payload; the text and
    JSON renderings are pinned byte-for-byte for golden tests."""

    entries: list[tuple[str, object]] = field(default_factory=list)

    def add(self, key: str, value: object) -> None:
        self.entries.append((key, value))

    def to_text(self) -> str:
        return "".join(f"{key}: {value}\n" for key, value in self.entries)

    def to_json(self) -> str:
        payload: dict = {}
        for key, value in self.entries:
            payload[key] = value
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def render(self, as_json: bool) -> str:
        return self.to_json() if as_json else self.to_text()


def _instance_summary(doc: ResultDocument, profile: Profile, width: int) -> None:
    doc.add("n", profile.n)
    doc.add("m", profile.m)
    doc.add("unanimity-width", width)


def _add_witnesses(
    doc: ResultDocument,
    witnesses: Sequence[LinearOrder],
    scores: Sequence[int],
    names: Sequence[str],
) -> None:
    for i, (w, score) in enumerate(zip(witnesses, scores), start=1):
        doc.add(f"witness-{i}", _ranking_str(w, names))
        doc.add(f"score-{i}", score)


def _add_pairwise(doc: ResultDocument, witnesses: Sequence[LinearOrder]) -> None:
    for i in range(len(witnesses)):
        for j in range(i + 1, len(witnesses)):
            doc.add(f"distance-{i + 1}-{j + 1}", kt_distance(witnesses[i], witnesses[j]))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _read_profile(path: str) -> Profile:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return parse_votes(handle.read())
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _deadline(args) -> float | None:
    if args.timeout is None:
        return None
    return time.monotonic() + args.timeout


def _dump_decomposition(path: str, dec: PathDecomposition, names: Sequence[str]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for bag in dec.bags:
            handle.write(" ".join(names[v] for v in _bits(bag)) + "\n")


def _checked_score(profile: Profile, ranking: LinearOrder, cost: int) -> int:
    """The ranking's Kemeny score over the profile, which must equal the
    cost the solver reports for it."""
    score = kemeny_score(profile, ranking)
    if score != cost:
        raise InternalError("document self-check failed: score mismatch")
    return score


def _cmd_solve(args, out: IO[str]) -> int:
    profile = _read_profile(args.votes)
    instance = reduce_to_co(profile)
    solution = solve_single(instance, deadline=_deadline(args))
    score = _checked_score(profile, solution.extension, solution.cost)
    if args.dump_decomposition:
        _dump_decomposition(
            args.dump_decomposition,
            solution.decomposition.decomposition,
            profile.candidates.names,
        )
    doc = ResultDocument()
    doc.add("result", "solve")
    _instance_summary(doc, profile, solution.decomposition.width)
    doc.add("decision", "yes")
    doc.add("optimum", solution.cost)
    _add_witnesses(doc, [solution.extension], [score], profile.candidates.names)
    _emit(doc, args, out)
    return EXIT_YES


def _cmd_diverse(args, out: IO[str]) -> int:
    profile = _read_profile(args.votes)
    s = 1 if args.no_scatter else args.s
    query = DiverseQuery(r=args.r, delta=args.delta, d=args.d, s=s, mode="decide")
    result = solve_diverse_kra(profile, query, deadline=_deadline(args))
    outcome = result.outcome
    doc = ResultDocument()
    doc.add("result", "diverse")
    _instance_summary(doc, profile, outcome.width)
    doc.add("r", args.r)
    doc.add("delta", args.delta)
    doc.add("d", args.d)
    doc.add("s", max(s, 1))
    doc.add("optimum", outcome.optimum)
    if outcome.feasible:
        assert outcome.witnesses is not None and result.scores is not None
        doc.add("decision", "yes")
        doc.add("diversity", outcome.diversity)
        _add_witnesses(doc, outcome.witnesses, result.scores, profile.candidates.names)
        _add_pairwise(doc, outcome.witnesses)
        _emit(doc, args, out)
        return EXIT_YES
    doc.add("decision", "no")
    doc.add("failed-constraint", outcome.failed_constraint)
    doc.add("detail", outcome.detail)
    _emit(doc, args, out)
    return EXIT_NO


def _cmd_optima(args, out: IO[str]) -> int:
    profile = _read_profile(args.votes)
    instance = reduce_to_co(profile)
    outcome = find_distinct_optima(instance, args.r, deadline=_deadline(args))
    doc = ResultDocument()
    doc.add("result", "optima")
    _instance_summary(doc, profile, outcome.width)
    doc.add("r", args.r)
    doc.add("optimum", outcome.optimum)
    if outcome.feasible:
        assert outcome.witnesses is not None
        scores = [_checked_score(profile, w, outcome.optimum) for w in outcome.witnesses]
        doc.add("decision", "yes")
        _add_witnesses(doc, outcome.witnesses, scores, profile.candidates.names)
        _emit(doc, args, out)
        return EXIT_YES
    doc.add("decision", "no")
    doc.add("detail", outcome.detail)
    _emit(doc, args, out)
    return EXIT_NO


def _cmd_maxdiv(args, out: IO[str]) -> int:
    profile = _read_profile(args.votes)
    instance = reduce_to_co(profile)
    result = solve_max_diversity(
        instance, args.r, args.delta, deadline=_deadline(args)
    )
    outcome = result.outcome
    assert outcome.witnesses is not None and outcome.costs is not None
    costs = dict(zip(outcome.witnesses, outcome.costs))
    witnesses = result.witnesses
    scores = [_checked_score(profile, w, costs[w]) for w in witnesses]
    doc = ResultDocument()
    doc.add("result", "maxdiv")
    _instance_summary(doc, profile, outcome.width)
    doc.add("r", args.r)
    doc.add("delta", args.delta)
    doc.add("optimum", result.optimum)
    doc.add("decision", "yes")
    doc.add("diversity", result.diversity)
    _add_witnesses(doc, witnesses, scores, profile.candidates.names)
    _add_pairwise(doc, witnesses)
    _emit(doc, args, out)
    return EXIT_YES


def _cmd_pco(args, out: IO[str]) -> int:
    profile = _read_profile(args.votes)
    instance = reduce_to_co(profile)
    inst = PcoInstance(instance)  # raises InputError when costs are not positive
    result = solve_pco(inst, args.k, deadline=_deadline(args))
    doc = ResultDocument()
    doc.add("result", "pco")
    doc.add("n", profile.n)
    doc.add("m", profile.m)
    doc.add("budget", args.k)
    doc.add("incomparable-pairs", result.edges)
    if result.width is not None:
        doc.add("unanimity-width", result.width)
    if result.optimum is not None:
        doc.add("optimum", result.optimum)
    doc.add("decision", "yes" if result.feasible else "no")
    if result.feasible:
        assert result.witness is not None and result.optimum is not None
        score = _checked_score(profile, result.witness, result.optimum)
        _add_witnesses(doc, [result.witness], [score], profile.candidates.names)
    elif result.optimum is None:
        doc.add("detail", "rejected by the edge-count bound")
    _emit(doc, args, out)
    return EXIT_YES if result.feasible else EXIT_NO


def _cmd_oracle(args, out: IO[str]) -> int:
    profile = _read_profile(args.votes)
    instance = reduce_to_co(profile)
    names = profile.candidates.names
    doc = ResultDocument()
    doc.add("result", f"oracle-{args.task}")
    doc.add("n", profile.n)
    doc.add("m", profile.m)
    if args.task == "count":
        doc.add("extensions", count_extensions(instance.base))
    elif args.task == "extensions":
        exts = list(enumerate_extensions(instance.base))
        doc.add("extensions", len(exts))
        for i, ext in enumerate(exts, start=1):
            doc.add(f"extension-{i}", _ranking_str(ext, names))
    elif args.task == "optimum":
        opt, winners = oracle_optimum(instance)
        doc.add("optimum", opt)
        doc.add("minimizers", len(winners))
        for i, w in enumerate(winners, start=1):
            doc.add(f"witness-{i}", _ranking_str(w, names))
    else:  # diverse
        result = oracle_diverse(
            instance, args.r, args.delta, args.d, args.s, maximize=args.max
        )
        doc.add("optimum", result.optimum)
        doc.add("decision", "yes" if result.feasible else "no")
        if result.feasible:
            assert result.witnesses is not None
            doc.add("diversity", result.diversity)
            for i, w in enumerate(result.witnesses, start=1):
                doc.add(f"witness-{i}", _ranking_str(w, names))
        _emit(doc, args, out)
        return EXIT_YES if result.feasible else EXIT_NO
    _emit(doc, args, out)
    return EXIT_YES


def _cmd_gen(args, out: IO[str]) -> int:
    if args.kind == "fixture":
        profile = five_type_profile() if args.name == "five-type" else fifty_fifty_profile()
    elif args.kind == "buckets":
        sizes = tuple(int(s) for s in args.sizes.split(","))
        base = generate_bucket_order(BucketSpec(sizes, args.seed))
        profile = generate_profile(base, args.m, args.noise, args.seed).profile
    else:  # random
        profile = random_profile(
            args.n, args.m, random.Random(args.seed), density=args.density
        )
    text = serialize_profile(profile)
    if parse_votes(text).votes != profile.votes:
        raise InternalError("generated file does not round-trip")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        out.write(text)
    return EXIT_YES


def _cmd_validate_decomposition(args, out: IO[str]) -> int:
    profile = _read_profile(args.votes)
    base = unanimity_order(profile)
    names = profile.candidates.names
    try:
        with open(args.decomposition, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {args.decomposition}: {exc}") from None
    bags = []
    body = text.split("\n")
    if body and body[-1] == "":
        body.pop()
    for lineno, line in enumerate(body, start=1):
        mask = 0
        for token in line.split():
            mask |= 1 << profile.candidates.index(token)
        bags.append(mask)
    if not bags:
        raise InputError("decomposition file has no bags")
    dec = PathDecomposition(profile.n, tuple(bags))
    graph = cocomparability_graph(base)
    problems = dec.validate(graph) + dec.consistency_violations(base)
    doc = ResultDocument()
    doc.add("result", "validate-decomposition")
    doc.add("bags", len(bags))
    doc.add("width", dec.width)
    doc.add("nice", "yes" if dec.is_nice else "no")
    doc.add("valid", "yes" if not problems else "no")
    for i, problem in enumerate(problems, start=1):
        doc.add(f"problem-{i}", problem)
    _emit(doc, args, out)
    return EXIT_YES if not problems else EXIT_NO


def _emit(doc: ResultDocument, args, out: IO[str]) -> None:
    if args.timing:
        doc.add("timing-ms", round((time.monotonic() - args._start) * 1000.0, 1))
    out.write(doc.render(args.json))


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kemeny",
        description="Exact and diverse Kemeny rank aggregation over partial votes.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    common.add_argument(
        "--timing", action="store_true",
        help="append a wall-clock line (non-deterministic; off by default)",
    )
    common.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="abort with exit code 3 after this much wall-clock time",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", parents=[common], help="optimal ranking")
    p.add_argument("votes")
    p.add_argument("--dump-decomposition", metavar="PATH", default=None)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("diverse", parents=[common], help="diverse ranking set")
    p.add_argument("votes")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--delta", type=int, default=0)
    p.add_argument("--d", type=int, default=0)
    p.add_argument("--s", type=int, default=0)
    p.add_argument(
        "--no-scatter", action="store_true",
        help="drop the pairwise-distance requirement (sets become distinct only)",
    )
    p.set_defaults(func=_cmd_diverse)

    p = sub.add_parser("optima", parents=[common], help="r distinct optimal rankings?")
    p.add_argument("votes")
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(func=_cmd_optima)

    p = sub.add_parser("maxdiv", parents=[common], help="maximum-diversity selection")
    p.add_argument("votes")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--delta", type=int, default=0)
    p.set_defaults(func=_cmd_maxdiv)

    p = sub.add_parser("pco", parents=[common], help="budgeted completion decision")
    p.add_argument("votes")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_pco)

    p = sub.add_parser("oracle", parents=[common], help="brute-force reference")
    p.add_argument("votes")
    p.add_argument(
        "--task", choices=["optimum", "extensions", "count", "diverse"],
        default="optimum",
    )
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--delta", type=int, default=0)
    p.add_argument("--d", type=int, default=0)
    p.add_argument("--s", type=int, default=0)
    p.add_argument("--max", action="store_true", help="maximize diversity")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("gen", parents=[common], help="generate vote files")
    gen_sub = p.add_subparsers(dest="kind", required=True)
    g = gen_sub.add_parser("buckets", parents=[common])
    g.add_argument("--sizes", required=True, help="comma-separated bucket sizes")
    g.add_argument("--m", type=int, default=4)
    g.add_argument("--noise", type=int, default=0)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", default=None)
    g.set_defaults(func=_cmd_gen, kind="buckets")
    g = gen_sub.add_parser("random", parents=[common])
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--density", type=float, default=0.5)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", default=None)
    g.set_defaults(func=_cmd_gen, kind="random")
    g = gen_sub.add_parser("fixture", parents=[common])
    g.add_argument("--name", choices=["five-type", "fifty-fifty"], required=True)
    g.add_argument("--out", default=None)
    g.set_defaults(func=_cmd_gen, kind="fixture")

    p = sub.add_parser(
        "validate-decomposition", parents=[common],
        help="check a decomposition dump against a vote file's unanimity order",
    )
    p.add_argument("votes")
    p.add_argument("--decomposition", required=True, metavar="PATH")
    p.set_defaults(func=_cmd_validate_decomposition)
    return parser


def run(argv: Sequence[str], out: IO[str] | None = None, err: IO[str] | None = None) -> int:
    """Parse argv and execute; returns the exit code."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on usage errors and --help
        return int(exc.code or 0)
    args._start = time.monotonic()
    try:
        return args.func(args, out)
    except InputError as exc:
        err.write(f"error: {exc}\n")
        return EXIT_INPUT
    except CapabilityError as exc:
        err.write(f"error: {exc}\n")
        return EXIT_CAPABILITY
    except InternalError as exc:
        err.write(f"internal error: {exc}\n")
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
