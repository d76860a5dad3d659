"""Command-line surface: vote-file parsing, result documents, and the
solver/oracle/generator subcommands.

``run`` is the one path from argv to output: it sets the deadline, reads
the vote file, calls the subcommand, which returns its exit code and
document, appends the ``--timing`` line, renders the document and writes it
once. ``gen`` alone writes vote text instead of a document.

Vote files look like::

    # comments and blank lines are ignored
    candidates: A,B,C,D,E
    10 x A=B<D<C=E          # weak order: '=' groups a bucket, '<' orders them
    pairs: A<B, C<D         # arbitrary partial vote via its pair closure
    A<B<C<D<E               # multiplicity defaults to 1

Exit codes: 0 solved / YES, 1 NO, 2 input error (unreadable input or
unwritable output), 3 capability limit, timeout or out of memory (the
single line ``error: out of memory``). Output is deterministic
for fixed input and seed; the optional --timing line is the one exception
and is off by default.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import random
import re
import sys
import time
from dataclasses import dataclass, field
from typing import IO, Sequence

from .errors import CapabilityError, InputError, InternalError, check_deadline
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
    _units,
    kemeny_score,
    reduce_to_co,
    unanimity_order,
)
from .pco import PcoInstance, solve_pco
from .solver_diverse import DiverseOutcome, DiverseQuery, solve_diverse_kra, solve_max_diversity
from .solver_single import optimal_rankings, solve_single
from .width import PathDecomposition, consistent_path_decomposition

EXIT_YES = 0
EXIT_NO = 1
EXIT_INPUT = 2
EXIT_CAPABILITY = 3
EXIT_INTERNAL = 70


# ---------------------------------------------------------------------------
# Vote files
# ---------------------------------------------------------------------------

_MULT_RE = re.compile(r"^(\d+)\s*x\s+(.*)$")
# Votes split on '<' and '=', and dumped bags on whitespace.
_LABEL_BREAK_RE = re.compile(r"[\s<=]")
# Also ',' splits the header, '#' starts a comment, 'pairs:' a pair list.
_UNWRITABLE_RE = re.compile(r"[\s<=,#]|^pairs:")


def _content_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((lineno, line))
    return out


def parse_votes(text: str, deadline: float | None = None) -> Profile:
    """Parse a vote file into a Profile, with line-precise diagnostics; the
    deadline is checked once per vote line."""
    lines = _content_lines(text)
    if not lines:
        raise InputError("empty vote file")
    lineno, header = lines[0]
    if not header.startswith("candidates:"):
        raise InputError(f"line {lineno}: expected 'candidates:' header")
    names = [name.strip() for name in header[len("candidates:"):].split(",")]
    if any(not name for name in names):
        raise InputError(f"line {lineno}: empty candidate name")
    for name in names:
        if _LABEL_BREAK_RE.search(name):
            raise InputError(
                f"line {lineno}: candidate label {name!r} contains whitespace, '<' or '='"
            )
        if name.startswith("pairs:"):
            # a vote line that starts with it reads as a pair list
            raise InputError(f"line {lineno}: candidate label {name!r} starts with 'pairs:'")
    try:
        candidates = CandidateSet(tuple(names))
    except InputError as exc:
        raise InputError(f"line {lineno}: {exc}") from None
    units = _units(candidates.n)
    votes = []
    for lineno, line in lines[1:]:
        check_deadline(deadline)
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
                vote = _parse_bucket_vote(candidates, line, units)
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


def _parse_bucket_vote(
    candidates: CandidateSet, body: str, units: tuple[int, ...]
) -> PartialOrder:
    """The weak order of a bucket line; ``units`` is ``orders._units(n)``.

    A chain of singletons is read in one pass: its names are looked up at
    once, an unknown one as None, which places no bits, and the line passes
    when the sum of the placed bits has as many bits set as names were
    read (a repeated name carries). Every other line, and a chain that
    fails that check, is read name by name in reading order, raising at
    the first unknown or repeated name, and its buckets go to
    ``PartialOrder.from_buckets``."""
    if "=" not in body:
        # A chain of singletons: x is below every later name.
        get = candidates._index.get  # type: ignore[attr-defined]
        chain = [get(name.strip()) for name in body.split("<")]
        placed = 0 if None in chain else sum([units[x] for x in chain])
        if placed.bit_count() == len(chain):
            rows = list(units)
            suffix = placed
            for x in chain:
                rows[x] = suffix
                suffix ^= units[x]
            return PartialOrder._valid(candidates.n, tuple(rows))
    buckets = []
    seen = set()
    for group in body.split("<"):
        bucket = []
        for name in group.split("="):
            x = candidates.index(name.strip())
            if x in seen:
                raise InputError(f"candidate {name.strip()!r} repeated in vote")
            seen.add(x)
            bucket.append(x)
        buckets.append(bucket)
    return PartialOrder.from_buckets(candidates.n, buckets)


def _as_buckets(order: PartialOrder) -> list[list[int]] | None:
    """Bucket chain of a weak order, or None if the order is not weak. In a
    weak order the strict up-sets separate the buckets and shrink from each
    bucket to the next."""
    groups: dict[int, list[int]] = {}
    for v in range(order.n):
        groups.setdefault(order.strict_up(v), []).append(v)
    chain = [groups[up] for up in sorted(groups, key=int.bit_count, reverse=True)]
    rebuilt = PartialOrder.from_buckets(order.n, chain)
    if rebuilt.rows != order.rows:
        return None
    return chain


def serialize_vote(order: PartialOrder, names: Sequence[str]) -> str:
    """A bucket line for a weak order (an antichain is one bucket), else a
    ``pairs:`` line of the transitive reduction."""
    buckets = _as_buckets(order)
    if buckets is not None:
        return "<".join("=".join(names[v] for v in sorted(b)) for b in buckets)
    return "pairs: " + ", ".join(f"{names[x]}<{names[y]}" for x, y in order.cover_pairs())


def serialize_profile(profile: Profile) -> str:
    names = profile.candidates.names
    for name in names:
        if _UNWRITABLE_RE.search(name):
            raise InputError(f"candidate label {name!r} cannot be written to a vote file")
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

    def render(self, as_json: bool) -> str:
        if as_json:
            return json.dumps(dict(self.entries), indent=2, sort_keys=True) + "\n"
        return "".join(f"{key}: {value}\n" for key, value in self.entries)


Answer = tuple[int, ResultDocument]  # a subcommand's exit code and document


def _head(result: str, profile: Profile, width: int | None = None) -> ResultDocument:
    doc = ResultDocument()
    doc.add("result", result)
    doc.add("n", profile.n)
    doc.add("m", profile.m)
    if width is not None:
        doc.add("unanimity-width", width)
    return doc


def _witness_lines(
    doc: ResultDocument,
    profile: Profile,
    witnesses: Sequence[LinearOrder],
    costs: Sequence[int] | None = None,
    *,
    checked: bool = False,
) -> None:
    """A ``witness-i`` line per ranking; given the solver's costs, a
    ``score-i`` line after each, checked to be the ranking's Kemeny score
    over the profile unless the solver has ``checked`` that already."""
    names = profile.candidates.names
    for i, w in enumerate(witnesses, start=1):
        doc.add(f"witness-{i}", _ranking_str(w, names))
        if costs is not None:
            if not checked and kemeny_score(profile, w) != costs[i - 1]:
                raise InternalError("document self-check failed: score mismatch")
            doc.add(f"score-{i}", costs[i - 1])


def _selection(
    doc: ResultDocument,
    profile: Profile,
    outcome: DiverseOutcome,
    *,
    checked: bool = False,
) -> Answer:
    """The tail of a ``diverse`` or ``maxdiv`` document: the optimum, the
    decision and, on NO, the failed constraint and its detail, or on YES
    the diversity, the witness lines and the solver's pairwise distances;
    ``checked`` says the solver has already checked the witness scores."""
    doc.add("optimum", outcome.optimum)
    if not outcome.feasible:
        doc.add("decision", "no")
        doc.add("failed-constraint", outcome.failed_constraint)
        doc.add("detail", outcome.detail)
        return EXIT_NO, doc
    assert outcome.witnesses is not None and outcome.pairwise is not None
    doc.add("decision", "yes")
    doc.add("diversity", outcome.diversity)
    _witness_lines(doc, profile, outcome.witnesses, outcome.costs, checked=checked)
    pairs = itertools.combinations(range(1, len(outcome.witnesses) + 1), 2)
    for (i, j), distance in zip(pairs, outcome.pairwise):
        doc.add(f"distance-{i}-{j}", distance)
    return EXIT_YES, doc


# ---------------------------------------------------------------------------
# Subcommands: each takes the parsed arguments, the profile and the
# deadline and returns its exit code and document
# ---------------------------------------------------------------------------


def _read(path: str) -> str:
    try:
        # utf-8-sig drops a leading byte-order mark
        with open(path, "r", encoding="utf-8-sig") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from None


def _cmd_solve(args, profile: Profile, deadline: float | None) -> Answer:
    instance = reduce_to_co(profile, deadline)
    solution = solve_single(instance, deadline=deadline)
    names = profile.candidates.names
    if args.dump_decomposition:
        # the bags after the leading empty one, through the last introduce
        bags = consistent_path_decomposition(instance.base, deadline).decomposition.bags
        last = max(p for p in range(1, len(bags)) if bags[p] & ~bags[p - 1])
        lines = (" ".join(names[v] for v in _bits(bag)) + "\n" for bag in bags[1 : last + 1])
        _write(args.dump_decomposition, "".join(lines))
    doc = _head("solve", profile, solution.width)
    doc.add("decision", "yes")
    doc.add("optimum", solution.cost)
    _witness_lines(doc, profile, [solution.extension], [solution.cost])
    return EXIT_YES, doc


def _cmd_diverse(args, profile: Profile, deadline: float | None) -> Answer:
    query = DiverseQuery(r=args.r, delta=args.delta, d=args.d, s=args.s, mode="decide")
    result = solve_diverse_kra(profile, query, deadline=deadline)
    doc = _head("diverse", profile, result.outcome.width)
    doc.add("r", args.r)
    doc.add("delta", args.delta)
    doc.add("d", args.d)
    doc.add("s", max(args.s, 1))
    # solve_diverse_kra has checked each witness cost against its Kemeny score
    return _selection(doc, profile, result.outcome, checked=True)


def _cmd_optima(args, profile: Profile, deadline: float | None) -> Answer:
    instance = reduce_to_co(profile, deadline)
    if args.r < 1:
        raise InputError("need at least one solution")
    opt, width, rankings = optimal_rankings(instance, deadline)
    witnesses = list(itertools.islice(rankings, args.r))
    doc = _head("optima", profile, width)
    doc.add("r", args.r)
    doc.add("optimum", opt)
    if len(witnesses) < args.r:
        doc.add("decision", "no")
        doc.add("detail", f"fewer than {args.r} distinct optimal rankings")
        return EXIT_NO, doc
    doc.add("decision", "yes")
    _witness_lines(doc, profile, witnesses, [opt] * args.r)
    return EXIT_YES, doc


def _cmd_maxdiv(args, profile: Profile, deadline: float | None) -> Answer:
    outcome = solve_max_diversity(reduce_to_co(profile, deadline), args.r, args.delta, deadline)
    doc = _head("maxdiv", profile, outcome.width)
    doc.add("r", args.r)
    doc.add("delta", args.delta)
    return _selection(doc, profile, outcome)


def _cmd_pco(args, profile: Profile, deadline: float | None) -> Answer:
    inst = PcoInstance(reduce_to_co(profile, deadline))  # InputError unless costs are positive
    result = solve_pco(inst, args.k, deadline=deadline)
    doc = _head("pco", profile)
    doc.add("budget", args.k)
    doc.add("incomparable-pairs", result.edges)
    if result.width is not None:
        doc.add("unanimity-width", result.width)
    if result.optimum is not None:
        doc.add("optimum", result.optimum)
    doc.add("decision", "yes" if result.feasible else "no")
    if result.feasible:
        assert result.witness is not None and result.optimum is not None
        _witness_lines(doc, profile, [result.witness], [result.optimum])
    elif result.optimum is None:
        doc.add("detail", "rejected by the edge-count bound")
    return (EXIT_YES if result.feasible else EXIT_NO), doc


def _cmd_oracle(args, profile: Profile, deadline: float | None) -> Answer:
    instance = reduce_to_co(profile, deadline)
    doc = _head(f"oracle-{args.task}", profile)
    if args.task == "count":
        doc.add("extensions", count_extensions(instance.base, deadline))
    elif args.task == "extensions":
        exts = list(enumerate_extensions(instance.base, deadline))
        doc.add("extensions", len(exts))
        for i, ext in enumerate(exts, start=1):
            doc.add(f"extension-{i}", _ranking_str(ext, profile.candidates.names))
    elif args.task == "optimum":
        opt, winners = oracle_optimum(instance, deadline)
        doc.add("optimum", opt)
        doc.add("minimizers", len(winners))
        _witness_lines(doc, profile, winners)
    else:  # diverse
        result = oracle_diverse(
            instance, args.r, args.delta, args.d, args.s, maximize=args.max,
            deadline=deadline,
        )
        doc.add("optimum", result.optimum)
        doc.add("decision", "yes" if result.feasible else "no")
        if not result.feasible:
            return EXIT_NO, doc
        assert result.witnesses is not None
        doc.add("diversity", result.diversity)
        _witness_lines(doc, profile, result.witnesses)
    return EXIT_YES, doc


def _cmd_validate_decomposition(args, profile: Profile, deadline: float | None) -> Answer:
    body = _read(args.decomposition).split("\n")
    if body and body[-1] == "":
        body.pop()
    bags = []
    for lineno, line in enumerate(body, start=1):
        mask = 0
        for token in line.split():
            try:
                mask |= 1 << profile.candidates.index(token)
            except InputError as exc:
                raise InputError(f"line {lineno}: {exc}") from None
        bags.append(mask)
    if not bags:
        raise InputError("decomposition file has no bags")
    dec = PathDecomposition(profile.n, tuple(bags))
    problems = dec.validate(unanimity_order(profile, deadline))
    doc = ResultDocument()
    doc.add("result", "validate-decomposition")
    doc.add("bags", len(bags))
    doc.add("width", dec.width)
    doc.add("nice", "yes" if dec.is_nice else "no")
    doc.add("valid", "yes" if not problems else "no")
    for i, problem in enumerate(problems, start=1):
        doc.add(f"problem-{i}", problem)
    return (EXIT_NO if problems else EXIT_YES), doc


def _cmd_gen(args, out: IO[str]) -> int:
    if args.kind == "fixture":
        profile = five_type_profile() if args.name == "five-type" else fifty_fifty_profile()
    elif args.kind == "buckets":
        try:
            sizes = tuple(int(s) for s in args.sizes.split(","))
        except ValueError:
            raise InputError(
                f"--sizes: expected comma-separated integers, got {args.sizes!r}"
            ) from None
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
        _write(args.out, text)
    else:
        out.write(text)
    return EXIT_YES


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _seconds(text: str) -> float:
    """A ``--timeout`` value: any float but NaN, which no deadline passes."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if math.isnan(value):
        raise argparse.ArgumentTypeError(f"not a number of seconds: {text!r}")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged."""
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
        "--timeout", type=_seconds, default=None, metavar="SECONDS",
        help="abort with exit code 3 after this much wall-clock time",
    )
    voting = argparse.ArgumentParser(add_help=False, parents=[common])
    voting.add_argument("votes")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", parents=[voting], help="optimal ranking")
    p.add_argument("--dump-decomposition", metavar="PATH", default=None)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("diverse", parents=[voting], help="diverse ranking set")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--delta", type=int, default=0)
    p.add_argument("--d", type=int, default=0)
    p.add_argument("--s", type=int, default=0)
    p.set_defaults(func=_cmd_diverse)

    p = sub.add_parser("optima", parents=[voting], help="r distinct optimal rankings?")
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(func=_cmd_optima)

    p = sub.add_parser("maxdiv", parents=[voting], help="maximum-diversity selection")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--delta", type=int, default=0)
    p.set_defaults(func=_cmd_maxdiv)

    p = sub.add_parser("pco", parents=[voting], help="budgeted completion decision")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_pco)

    p = sub.add_parser("oracle", parents=[voting], help="brute-force reference")
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

    p = sub.add_parser("gen", help="generate vote files")
    gen_sub = p.add_subparsers(dest="kind", required=True)
    g = gen_sub.add_parser("buckets")
    g.add_argument("--sizes", required=True, help="comma-separated bucket sizes")
    g.add_argument("--m", type=int, default=4)
    g.add_argument("--noise", type=int, default=0)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", default=None)
    g = gen_sub.add_parser("random")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--density", type=float, default=0.5)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", default=None)
    g = gen_sub.add_parser("fixture")
    g.add_argument("--name", choices=["five-type", "fifty-fifty"], required=True)
    g.add_argument("--out", default=None)

    p = sub.add_parser(
        "validate-decomposition", parents=[voting],
        help="check a decomposition dump against a vote file's unanimity order",
    )
    p.add_argument("--decomposition", required=True, metavar="PATH")
    p.set_defaults(func=_cmd_validate_decomposition)
    return parser


def run(argv: Sequence[str], out: IO[str] | None = None, err: IO[str] | None = None) -> int:
    """Parse argv, set the deadline, read the vote file, run the subcommand,
    append ``--timing``, render its document and write it; returns the exit
    code. The deadline counts from the start, so reading and parsing the
    vote file spend from it too."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on usage errors and --help
        return int(exc.code or 0)
    start = time.monotonic()
    try:
        if args.command == "gen":
            return _cmd_gen(args, out)
        deadline = None if args.timeout is None else start + args.timeout
        profile = parse_votes(_read(args.votes), deadline)
        code, doc = args.func(args, profile, deadline)
        if args.timing:
            doc.add("timing-ms", round((time.monotonic() - start) * 1000.0, 1))
        out.write(doc.render(args.json))
        return code
    except InputError as exc:
        err.write(f"error: {exc}\n")
        return EXIT_INPUT
    except CapabilityError as exc:
        err.write(f"error: {exc}\n")
        return EXIT_CAPABILITY
    except MemoryError:
        err.write("error: out of memory\n")
        return EXIT_CAPABILITY
    except InternalError as exc:
        err.write(f"internal error: {exc}\n")
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
