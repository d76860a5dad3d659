"""Rebuild ``manifest.json``, the reference answers the benchmark checks
against. Run from the repository root: ``python3 bench/make_manifest.py``.

Optima come from ``kemeny.oracle``: directly for n <= 10, and for noise-0
bucket profiles as the sum of per-bucket oracle optima (every cross-bucket
pair is unanimous there, so the buckets are independent). Decisions of the
diverse, optima and maxdiv queries come from the solver itself and are
marked so: beyond the diverse oracle's 6 candidates nothing else can decide
them. Each instance also records a digest of its vote file, so a change to
the generator shows up as a failed check instead of a silent new input.
"""

from __future__ import annotations

import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from kemeny.cli import parse_votes, run  # noqa: E402
from kemeny.oracle import oracle_optimum  # noqa: E402
from kemeny.orders import CostInstance, PartialOrder, reduce_to_co  # noqa: E402
from kemeny.pco import PcoInstance  # noqa: E402

import check  # noqa: E402
from workloads import (  # noqa: E402
    DEADLINE_SPEC,
    POOL,
    WORKLOADS,
    profile_text,
    text_digest,
)

MANIFEST = Path(__file__).resolve().parent / "manifest.json"


def _sub_instance(instance: CostInstance, members: list[int]) -> CostInstance:
    index = {v: i for i, v in enumerate(members)}
    rows = []
    for v in members:
        row = 0
        for u in members:
            if instance.base.leq(v, u):
                row |= 1 << index[u]
        rows.append(row)
    cost = tuple(tuple(instance.cost[x][y] for y in members) for x in members)
    return CostInstance(len(members), cost, PartialOrder(len(members), tuple(rows)))


def reference_optimum(spec, text: str) -> tuple[int, str]:
    instance = reduce_to_co(parse_votes(text))
    if spec.n <= 10:
        return oracle_optimum(instance)[0], "oracle"
    if spec.noise:
        raise SystemExit(f"{spec.key}: no oracle reference for a noisy n > 10 profile")
    buckets, start = [], 0
    for size in spec.sizes:
        buckets.append(list(range(start, start + size)))
        start += size
    for i, early in enumerate(buckets):
        for late in buckets[i + 1 :]:
            if not all(instance.base.lt(x, y) for x in early for y in late):
                raise SystemExit(f"{spec.key}: a cross-bucket pair is not unanimous")
    total = sum(oracle_optimum(_sub_instance(instance, b))[0] for b in buckets)
    return total, "oracle-per-bucket"


def pool(spec) -> list[int]:
    """The first POOL generator seeds of the class; at noise 0 only those
    whose unanimity order is the bucket order (a chance unanimous pair
    inside a bucket would lower the width)."""
    seeds, seed = [], 0
    bucket_pairs = sum(b * (b - 1) // 2 for b in spec.sizes)
    while len(seeds) < POOL:
        votes = check.parse_votes(profile_text(spec.with_seed(seed)))
        if spec.noise or votes.incomparable_pairs() == bucket_pairs:
            seeds.append(seed)
        seed += 1
    return seeds


def main() -> None:
    work = ROOT / ".bench_build" / "manifest"
    work.mkdir(parents=True, exist_ok=True)
    instances: dict[str, dict] = {}
    answers: dict[str, dict] = {}
    pools: dict[str, list[int]] = {}
    for slots, _ in WORKLOADS.values():
        for slot in slots:
            if slot.spec.class_key not in pools:
                pools[slot.spec.class_key] = pool(slot.spec)
            for seed in pools[slot.spec.class_key]:
                spec = slot.spec.with_seed(seed)
                text = profile_text(spec)
                if spec.key not in instances:
                    opt, source = reference_optimum(spec, text)
                    instances[spec.key] = {
                        "digest": text_digest(text),
                        "optimum": opt,
                        "source": source,
                    }
                    print(spec.key, opt, source, flush=True)
                if slot.command == "pco":
                    PcoInstance(reduce_to_co(parse_votes(text)))  # all costs positive
                if slot.command not in ("diverse", "optima", "maxdiv"):
                    continue
                path = work / f"{spec.key}.votes"
                path.write_text(text, encoding="utf-8")
                out = io.StringIO()
                rc = run([slot.command, str(path), "--json", *slot.args], out, io.StringIO())
                doc = json.loads(out.getvalue())
                if rc not in (0, 1) or doc["optimum"] != instances[spec.key]["optimum"]:
                    raise SystemExit(f"{spec.key} {slot.query_key}: exit {rc}, {doc}")
                answers[f"{spec.key} | {slot.query_key}"] = {
                    "decision": doc["decision"],
                    "diversity": doc.get("diversity") if slot.command == "maxdiv" else None,
                    "source": "solver",
                }
    # The deadline case is noisy with n = 15, beyond both oracle routes.
    text = profile_text(DEADLINE_SPEC)
    path = work / "deadline.votes"
    path.write_text(text, encoding="utf-8")
    out = io.StringIO()
    if run(["solve", str(path), "--json"], out, io.StringIO()) != 0:
        raise SystemExit("deadline case: solve failed")
    deadline = {
        "digest": text_digest(text),
        "optimum": json.loads(out.getvalue())["optimum"],
        "source": "solver",
    }
    MANIFEST.write_text(
        json.dumps(
            {"pools": pools, "instances": instances, "answers": answers, "deadline": deadline},
            indent=1,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )


if __name__ == "__main__":
    main()
