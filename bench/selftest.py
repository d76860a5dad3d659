"""Self-tests of the benchmark itself, on decks cut to two or three queries:

    python3 bench/selftest.py

1. An untraced smoke run prints every end-to-end metric of BENCHMARK.json
   with its unit and reports exactly those metrics.
2. A traced smoke run reports exactly the per-layer metrics.
3. Answers tampered on their way out of the CLI are counted as failed, and
   the run still finishes: optimum, witness and decision of solve queries;
   decision and optimum of pco queries on both sides of the edge-count
   bound; distance and diversity fields of diverse and maxdiv answers; the
   decision of optima queries.

Exits 0 when every test passes.
"""

from __future__ import annotations

import io
import json
import sys
from pathlib import Path

import run as bench_run

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def smoke(trace: bool) -> None:
    key = "per_layer" if trace else "end_to_end"
    lines, result = bench_run.bench("diverse", 0, 0.0, trace, pick=slice(0, 2))
    names = {m["name"]: m["unit"] for m in SPEC[key]}
    assert set(result["metrics"]) == set(names), set(result["metrics"]) ^ set(names)
    text = "\n".join(lines)
    for name, unit in names.items():
        assert result["metrics"][name]["unit"] == unit, name
        assert f"metric: {name} = " in text and text.count(f" {unit}") > 0, name
    assert result["correct"] and result["failed"] == 0, lines
    print(f"ok: {'traced' if trace else 'untraced'} smoke run reports {len(names)} metrics")


def tampered(workload: str, pick: slice, edit) -> None:
    import kemeny.cli

    original = kemeny.cli.run

    def lying_run(argv, out=None, err=None):
        buffer = io.StringIO()
        rc = original(argv, buffer, err)
        text = buffer.getvalue()
        if text.startswith("{"):
            doc = json.loads(text)
            edit(doc)
            text = json.dumps(doc)
        out.write(text)
        return rc

    kemeny.cli.run = lying_run
    try:
        lines, result = bench_run.bench(workload, 0, 0.0, False, pick=pick)
    finally:
        kemeny.cli.run = original
    assert not result["correct"] and result["failed"] == result["attempted"] > 0, result
    assert any(line.startswith("FAILED:") for line in lines)
    print(f"ok: {workload} {edit.__doc__} counted as {result['failed']} of "
          f"{result['attempted']} failed")


def bump_optimum(doc: dict) -> None:
    """optimum + 1"""
    if "optimum" in doc:
        doc["optimum"] += 1


def swap_witness(doc: dict) -> None:
    """first two candidates of every witness swapped"""
    for key, value in doc.items():
        if key.startswith("witness-"):
            names = value.split("<")
            names[0], names[1] = names[1], names[0]
            doc[key] = "<".join(names)


def flip_decision(doc: dict) -> None:
    """decision flipped"""
    doc["decision"] = "no" if doc["decision"] == "yes" else "yes"


def bump_distances(doc: dict) -> None:
    """every pairwise distance + 1"""
    for key in doc:
        if key.startswith("distance-"):
            doc[key] += 1


def bump_diversity(doc: dict) -> None:
    """diversity + 1"""
    if "diversity" in doc:
        doc["diversity"] += 1


# (workload, deck slice of seed 0, edits); each edit changes every answer
# of its slice.
TAMPERED = [
    ("wide-single", slice(0, 2), (bump_optimum, swap_witness, flip_decision)),
    # pco at budgets below the incomparable-pair count, below the optimum
    # and at the optimum: the edge-count and the solve-and-compare branches
    ("many-voters", slice(4, 7), (flip_decision,)),
    ("many-voters", slice(5, 7), (bump_optimum,)),
    ("diverse", slice(0, 2), (bump_distances, bump_diversity)),  # diverse, YES
    ("diverse", slice(10, 12), (flip_decision,)),  # optima, YES and NO
    ("diverse", slice(16, 18), (bump_distances, bump_diversity)),  # maxdiv
]


def main() -> int:
    bench_run.MIN_QUERIES = 4
    bench_run.DEADLINE_PROBES = bench_run.SETUP_CHILDREN = 1
    bench_run.SETUP_CHILD_S = 0.0
    sys.path.insert(0, str(bench_run.ROOT / "src"))
    smoke(trace=False)
    smoke(trace=True)
    # Child processes run the CLI untampered, so the tamper runs start none.
    bench_run.DEADLINE_PROBES = bench_run.SETUP_CHILDREN = 0
    for workload, pick, edits in TAMPERED:
        for edit in edits:
            tampered(workload, pick, edit)
    return 0


if __name__ == "__main__":
    sys.exit(main())
