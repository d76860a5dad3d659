"""Benchmark of the kemeny CLI: seeded workloads sent through
``kemeny.cli.run`` in a closed loop, every answer checked independently.

    python3 bench/run.py --workload wide-single --seed 0 --seconds 20 --trace 0

Run it from the repository root. One client in this process sends the
next query when the previous one returns. The vote files are generated
under ``.bench_build/`` first. The deck of queries (``workloads.py``) is
replayed in rounds until the rounds have taken ``--seconds`` and at least
``MIN_QUERIES`` have completed. Between rounds, spread over that time, run
the deadline-bound queries and more cold set-ups, each in a child process
(``probe.py``). Every distinct answer is then checked (``check.py``).

Times are reported at reference speed. The speed of a shared host drifts
by up to 1.7x for seconds to minutes at a time, and every wall-clock
figure drifts with it. So a fixed pure-Python loop (``reference_s``) is
timed before each query and after the last one, and each query's wall
time is scaled by ``REFERENCE_S`` over the mean of the two loop times
around it: the time the query would take on a host where the loop takes
``REFERENCE_S``. Set-ups and deadline-bound queries, which run in child
processes and last up to seconds, are scaled by the mean of loop times
taken every ``SAMPLE_PERIOD_S`` while they run (``sampled``). The unscaled
figures are printed on the ``raw:`` line.

The last line of stdout is one JSON object:

* ``--trace 0``: the end-to-end metrics of BENCHMARK.json.
* ``--trace 1``: the per-layer metrics. Untraced rounds alternate with
  rounds that record spans around the calls into each layer (``spans.py``),
  which also gives the tracing overhead. The ``diverse`` workload adds one
  traced deadline-bound query.

The lines before it hold the environment, the instance census, per-query
median latencies, the metric table and any failed checks.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_build" / "kemeny"
MIN_QUERIES = 100  # so that at least 10 latency samples lie beyond p90
# Cold set-ups besides this process's own, at least SETUP_CHILDREN and
# enough for about SETUP_CHILD_S seconds; setup_s is the median of all.
SETUP_CHILDREN = 2
SETUP_CHILD_S = 1.5
DEADLINE_PROBES = 2
# The host-speed reference: REFERENCE_ITERS turns of a dict-lookup and
# integer loop. On a 2-vCPU x86_64 VM they take 1.2-2.1 ms as the load of
# the host's other tenants varies; REFERENCE_S is the nominal time that
# all reported times are scaled to.
REFERENCE_ITERS = 10_000
REFERENCE_S = 0.002
SAMPLE_PERIOD_S = 0.25  # reference samples in a child's set-up or query
_REFERENCE_TABLE = {i: str(i) for i in range(256)}
PROBE_LIMIT_S = 40  # a probe past this is killed and fails; keeps a run under 180 s

# Which layer each workload is built to stress, checked on every traced run.
CLAIMS = {
    "wide-single": [("solver_single.share", ">=", 0.75)],
    "many-voters": [("solver_single.share", "<=", 0.25), ("cli.share+orders.share", ">=", 0.5)],
    "diverse": [("solver_diverse.share", ">=", 0.75)],
}


@dataclass
class Query:
    command: str
    argv: list[str]
    args: dict[str, int]
    votes: object  # check.Votes
    expect: object  # check.Expect, or None when the manifest has no reference
    spec: object  # workloads.InstanceSpec


@dataclass
class Rounds:
    """What a closed loop over the deck saw. A round's time is the sum of
    its query calls; between them runs only the reference loop."""

    latencies_s: list[float] = field(default_factory=list)
    scaled_s: list[float] = field(default_factory=list)  # at reference speed
    round_walls_s: list[float] = field(default_factory=list)
    round_keys: list[list[tuple]] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(self.round_walls_s)

    @property
    def scaled_wall_s(self) -> float:
        return sum(self.scaled_s)

    def extend(self, other: "Rounds") -> None:
        self.latencies_s += other.latencies_s
        self.scaled_s += other.scaled_s
        self.round_walls_s += other.round_walls_s
        self.round_keys += other.round_keys


def reference_s() -> float:
    """Seconds of the host-speed reference loop, the faster of two passes
    (so that an interrupt in one does not count)."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        total = 0
        for i in range(REFERENCE_ITERS):
            total += len(_REFERENCE_TABLE[i & 255]) * i ^ (i >> 3)
        best = min(best, time.perf_counter() - start)
    return best


def at_reference_speed(seconds: float, references_s: list[float]) -> float:
    """``seconds`` of wall time scaled to reference speed, the host's speed
    taken from the mean of the reference loop times made around and during
    them."""
    return seconds * REFERENCE_S / statistics.fmean(references_s)


def sampled(fn, *args):
    """``fn(*args)`` in a child process, with the reference loop timed just
    before, every SAMPLE_PERIOD_S during (from a timer signal) and just
    after. Returns the result, the wall seconds less the time spent in the
    samples, and the loop times."""
    references = [reference_s()]
    sampling = [0.0]

    def sample(signum, frame) -> None:
        start = time.perf_counter()
        references.append(reference_s())
        sampling[0] += time.perf_counter() - start

    signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
    start = time.perf_counter()
    try:
        result = fn(*args)
    finally:
        wall_s = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0.0)
    references.append(reference_s())
    return result, wall_s - sampling[0], references


def environment() -> dict:
    commit = ""
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip()
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "kemeny").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "commit": commit or "unknown (not a git checkout)",
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": platform.processor() or platform.machine(),
    }


def write_instances(deck, workdir: Path) -> dict:
    """Generate every vote file of the deck; returns key -> (path, text)."""
    from workloads import profile_text

    files = {}
    for slot in deck:
        key = slot.spec.key
        if key not in files:
            text = profile_text(slot.spec)
            path = workdir / f"{key}.votes"
            path.write_text(text, encoding="utf-8")
            files[key] = (path, text)
    return files


def build_queries(deck, files: dict, manifest: dict) -> list[Query]:
    import check
    from workloads import text_digest

    queries = []
    votes_by_key: dict = {}
    for slot in deck:
        key = slot.spec.key
        path, text = files[key]
        if key not in votes_by_key:
            votes_by_key[key] = check.parse_votes(text)
        votes = votes_by_key[key]
        ref = manifest["instances"].get(key)
        expect = None
        argv = [slot.command, str(path), "--json", *slot.args]
        if ref is not None and ref["digest"] == text_digest(text):
            answer = manifest["answers"].get(f"{key} | {slot.query_key}", {})
            budget = None
            if slot.budget is not None:
                budget = {
                    "reject": votes.incomparable_pairs() - 1,
                    "no": ref["optimum"] - 1,
                    "yes": ref["optimum"],
                }[slot.budget]
                argv += ["--k", str(budget)]
            expect = check.Expect(
                ref["optimum"], answer.get("decision"), answer.get("diversity"), budget
            )
        flags = dict(zip(slot.args[::2], slot.args[1::2]))
        args = {name.lstrip("-"): int(value) for name, value in flags.items()}
        queries.append(Query(slot.command, argv, args, votes, expect, slot.spec))
    return queries


def call(cli, argv: list[str]) -> tuple:
    """One query through the CLI entry point; a crash is an outcome too."""
    out, err = io.StringIO(), io.StringIO()
    try:
        rc = cli.run(argv, out, err)
    except Exception:
        return None, out.getvalue(), traceback.format_exc(limit=3)
    return rc, out.getvalue(), err.getvalue()


def set_up(workload: str, seed: int, pick: slice = slice(None)) -> tuple:
    """The timed set-up: import ``kemeny``, generate the deck's vote files
    and send one warm-up query. Returns the CLI module, the manifest, the
    deck, the files and the seconds taken. It is cold only in a fresh
    process. ``pick`` cuts the deck short (self-tests only)."""
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import kemeny.cli as cli
    import workloads

    manifest = json.loads((BENCH / "manifest.json").read_text(encoding="utf-8"))
    deck = workloads.deck(workload, seed, manifest["pools"])[pick]
    workdir = WORK / f"{workload}-{seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    files = write_instances(deck, workdir)
    first = deck[0]
    warm = [first.command, str(files[first.spec.key][0]), "--json", *first.args]
    if first.budget is not None:
        warm += ["--k", str(manifest["instances"][first.spec.key]["optimum"])]
    call(cli, warm)
    return cli, manifest, deck, files, time.perf_counter() - start


def cold_set_up(workload: str, seed: int) -> tuple[float, float] | None:
    """Seconds of one set-up in a fresh process, at reference speed and
    raw; None if the child failed."""
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "probe.py"), "setup", workload, str(seed)],
            capture_output=True, text=True, timeout=PROBE_LIMIT_S, cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode != 0:
        return None
    found = json.loads(proc.stdout.strip().splitlines()[-1])
    return at_reference_speed(found["setup_s"], found["reference_s"]), found["setup_s"]


def one_round(cli, queries: list[Query], tracer=None) -> Rounds:
    """One pass over the deck, each query sent when the previous returns."""
    seen = Rounds()
    clock = time.perf_counter
    keys = []
    before = reference_s()
    for qi, q in enumerate(queries):
        if tracer is not None:
            tracer.query = qi
        t0 = clock()
        outcome = call(cli, q.argv)
        latency = clock() - t0
        after = reference_s()
        seen.latencies_s.append(latency)
        seen.scaled_s.append(at_reference_speed(latency, [before, after]))
        keys.append((qi,) + outcome)
        before = after
    seen.round_walls_s.append(sum(seen.latencies_s))
    seen.round_keys.append(keys)
    return seen


def verify(queries: list[Query], outcomes: set) -> dict[tuple, list[str]]:
    """Problems per distinct (query, exit code, stdout, stderr) outcome."""
    import check

    problems = {}
    for key in outcomes:
        qi, rc, out, err = key
        q = queries[qi]
        if rc is None:
            problems[key] = ["crashed: " + err.strip().splitlines()[-1]]
        elif q.expect is None:
            problems[key] = ["no manifest reference for this instance (generator changed?)"]
        else:
            problems[key] = check.check(q.command, q.args, q.votes, q.expect, rc, out)
    return problems


class DeadlineProbe:
    """The ROADMAP timeout case. A run must exit 3 with the timeout message
    or give a verified answer; no reference decision exists for it, so only
    a YES answer can be verified."""

    def __init__(self, manifest: dict, workdir: Path) -> None:
        from workloads import DEADLINE_ARGS, DEADLINE_SPEC, profile_text

        self.text = profile_text(DEADLINE_SPEC)
        path = workdir / "deadline.votes"
        path.write_text(self.text, encoding="utf-8")
        self.argv = [DEADLINE_ARGS[0], str(path), "--json", *DEADLINE_ARGS[1:]]
        self.ref = manifest["deadline"]

    def run(self, cli=None, tracer=None) -> tuple[float | None, list[str]]:
        """One query: in a child process, or traced in this one. Returns the
        overshoot past the deadline in ms at reference speed and raw (None
        if the child failed) and the problems found."""
        import check
        from workloads import DEADLINE_TIMEOUT_S, text_digest

        if tracer is None:
            try:
                proc = subprocess.run(
                    [sys.executable, str(BENCH / "probe.py"), "query", *self.argv],
                    capture_output=True, text=True, timeout=PROBE_LIMIT_S, cwd=ROOT,
                )
            except subprocess.TimeoutExpired:
                return None, [f"no answer within {PROBE_LIMIT_S} s"]
            if proc.returncode != 0:
                return None, [f"probe process failed: {proc.stderr.strip()[-200:]}"]
            found = json.loads(proc.stdout.strip().splitlines()[-1])
            rc, wall_s, out, err = found["rc"], found["wall_s"], found["out"], found["err"]
            reference = found["reference_s"]
        else:
            tracer.query = "deadline"
            before = reference_s()
            t0 = time.perf_counter()
            rc, out, err = call(cli, self.argv)
            wall_s = time.perf_counter() - t0
            reference = [before, reference_s()]
        raw_ms = max(0.0, wall_s - DEADLINE_TIMEOUT_S) * 1000.0
        overshoot_ms = (at_reference_speed(raw_ms, reference), raw_ms)
        if rc == 3 and "timeout" in err:
            return overshoot_ms, []
        if rc in (0, 1) and self.ref["digest"] == text_digest(self.text):
            expect = check.Expect(self.ref["optimum"], decision="yes")
            args = {"r": 3, "delta": 2, "d": 3}
            return overshoot_ms, check.check(
                "diverse", args, check.parse_votes(self.text), expect, rc, out
            )
        return overshoot_ms, [f"exit {rc}: {err.strip()[:200]}"]


def untraced_run(cli, queries, seconds: float, jobs: list[tuple]) -> Rounds:
    """Rounds until ``seconds`` of round time and MIN_QUERIES queries. Each
    ``(fraction, job)`` of ``jobs`` runs once between rounds, after that
    fraction of ``seconds`` of round time, so that rounds and jobs both
    sample the whole run."""
    loop = Rounds()
    pending = sorted(jobs, key=lambda job: job[0])
    while loop.wall_s < seconds or len(loop.latencies_s) < MIN_QUERIES or pending:
        loop.extend(one_round(cli, queries))
        while pending and loop.wall_s >= seconds * pending[0][0]:
            pending.pop(0)[1]()
    return loop


def census(queries: list[Query]) -> list[str]:
    """n, m, width, bags and incomparable pairs per instance, and the
    query-kind mix, so later changes can see which traffic they moved."""
    from kemeny.cli import parse_votes
    from kemeny.orders import unanimity_order
    from kemeny.width import consistent_path_decomposition

    lines, seen, kinds = [], {}, {}
    for q in queries:
        kind = q.command + (f"/{q.argv[q.argv.index('--k') + 1]}" if q.command == "pco" else "")
        kinds[q.command] = kinds.get(q.command, 0) + 1
        key = q.spec.key
        if key not in seen:
            text = Path(q.argv[1]).read_text(encoding="utf-8")
            dec = consistent_path_decomposition(unanimity_order(parse_votes(text)))
            seen[key] = (dec.width, len(dec.decomposition.bags))
        width, bags = seen[key]
        lines.append(
            f"census: {kind:<14} {key:<32} n={q.votes.n:<3} m={q.votes.m:<4} width={width} "
            f"bags={bags:<4} incomparable-pairs={q.votes.incomparable_pairs()}"
        )
    mix = ", ".join(f"{k}={v}" for k, v in sorted(kinds.items()))
    lines.append(f"census: {len(queries)} queries per round ({mix})")
    return lines


def bench(workload: str, seed: int, seconds: float, trace: bool,
          pick: slice = slice(None)) -> tuple[list[str], dict]:
    """One benchmark run; returns the report lines and the result object.
    ``pick`` cuts the deck short (self-tests only)."""
    before = reference_s()
    cli, manifest, deck, files, own_setup_s = set_up(workload, seed, pick)
    own_setup = (at_reference_speed(own_setup_s, [before, reference_s()]), own_setup_s)
    workdir = WORK / f"{workload}-{seed}"
    queries = build_queries(deck, files, manifest)
    probe = DeadlineProbe(manifest, workdir)

    lines = [f"env: {json.dumps(environment(), sort_keys=True)}"]
    lines.append(f"workload: {workload} seed={seed} seconds={seconds} trace={int(trace)}")
    lines += census(queries)

    cold_setups: list[tuple[float, float] | None] = []
    if trace:
        loops, probe_runs, metrics = traced_run(cli, queries, seconds, workload, probe, workdir, lines)
    else:
        probe_runs = []
        jobs = [(i / DEADLINE_PROBES, lambda: probe_runs.append(probe.run()))
                for i in range(DEADLINE_PROBES)]
        children = max(SETUP_CHILDREN, round(SETUP_CHILD_S / own_setup_s))
        jobs += [((i + 0.5) / children, lambda: cold_setups.append(cold_set_up(workload, seed)))
                 for i in range(children)]
        main = untraced_run(cli, queries, seconds, jobs)
        loops = [main]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    overshoots = [ms for ms, _ in probe_runs if ms is not None]

    outcomes: dict[tuple, int] = {}
    for loop in loops:
        for keys in loop.round_keys:
            for key in keys:
                outcomes[key] = outcomes.get(key, 0) + 1
    problems = verify(queries, set(outcomes))
    attempted = sum(outcomes.values()) + len(probe_runs) + len(cold_setups)
    failed = sum(count for key, count in outcomes.items() if problems[key])
    failed += sum(1 for _, found in probe_runs if found)
    failed += cold_setups.count(None)
    for key, found in problems.items():
        for problem in found:
            lines.append(f"FAILED: {queries[key[0]].argv[0]} {queries[key[0]].spec.key}: {problem}")
    lines += [f"FAILED: deadline probe: {p}" for _, found in probe_runs for p in found]
    lines += ["FAILED: a cold set-up child failed"] * cold_setups.count(None)

    samples = {}
    if not trace:
        n = len(queries)
        keys = [key for round_keys in main.round_keys for key in round_keys]
        verified = sum(1 for key in keys if not problems[key])
        setups = [own_setup] + [s for s in cold_setups if s is not None]
        # index 0: at reference speed, 1: raw wall clock
        samples = {
            "latencies_ms": [[x * 1000.0 for x in xs] for xs in (main.scaled_s, main.latencies_s)],
            "setups_s": [[s[i] for s in setups] for i in (0, 1)],
            "overshoots_ms": [[x[i] for x in overshoots] for i in (0, 1)],
        }
        figures = []
        for i in (0, 1):
            latencies_ms = samples["latencies_ms"][i]
            figures.append({
                "solves_per_s": verified / (main.scaled_wall_s, main.wall_s)[i],
                "solve_ms_p50": statistics.median(latencies_ms),
                "solve_ms_p90": statistics.quantiles(latencies_ms, n=10, method="inclusive")[8],
                "peak_rss_mb": peak_rss_mb,
                "setup_s": statistics.median(samples["setups_s"][i]),
                "deadline_overshoot_ms": statistics.median(samples["overshoots_ms"][i] or [0.0]),
            })
        metrics = figures[0]
        for qi, q in enumerate(queries):
            ms = statistics.median(samples["latencies_ms"][0][qi::n])
            lines.append(f"latency: {q.command:<8} {q.spec.key:<32} median {ms:9.2f} ms")
        lines.append(
            f"samples: {len(keys)} queries in {len(main.round_walls_s)} rounds, "
            f"{main.wall_s:.2f} s timed, host at {main.scaled_wall_s / main.wall_s:.2f}x "
            f"reference speed; "
            f"cold set-ups {[round(s[0], 3) for s in setups]} s; "
            f"deadline overshoots {[round(x[0]) for x in overshoots]} ms"
        )
        lines.append("raw: " + ", ".join(f"{k} = {v:.4f}" for k, v in figures[1].items()))
    else:
        for name, op, bound in CLAIMS[workload]:
            value = sum(metrics[part] for part in name.split("+"))
            holds = value >= bound if op == ">=" else value <= bound
            lines.append(f"claim: {name} = {value:.3f} {op} {bound}: {'holds' if holds else 'DOES NOT HOLD'}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {set(units) ^ set(metrics)}")
    lines.append(f"metric: failed_share = {failed / attempted:.4f} ratio ({failed} of {attempted})")
    for name, value in metrics.items():
        lines.append(f"metric: {name} = {value:.4f} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = {"lines": lines, "result": result, "samples": samples}
    (workdir / f"result-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8"
    )
    return lines, result


def traced_run(cli, queries, seconds, workload, probe, workdir, lines):
    """Untraced rounds alternating with traced ones, so that drift in
    machine speed falls on both sides of the overhead comparison alike. Returns the
    loops, the deadline-probe runs and the per-layer metrics, and writes the
    spans to the work directory."""
    import spans

    plain, traced = Rounds(), Rounds()
    tracer = spans.Tracer()

    def traced_round() -> None:
        tracer.install()
        try:
            traced.extend(one_round(cli, queries, tracer))
        finally:
            tracer.uninstall()

    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not plain.round_walls_s:
        # Which side goes first alternates too, so warm-up favours neither.
        if len(plain.round_walls_s) % 2:
            traced_round()
            plain.extend(one_round(cli, queries))
        else:
            plain.extend(one_round(cli, queries))
            traced_round()
    probe_runs = []
    if workload == "diverse":
        tracer.install()
        try:
            probe_runs = [probe.run(cli, tracer)]
        finally:
            tracer.uninstall()
    metrics = spans.layer_metrics(tracer.spans, traced.wall_s, set(range(len(queries))))
    metrics["solver_diverse.deadline_aborts"] = sum(
        1 for s in tracer.spans if s.name == "solver_diverse.solve" and s.error == "CapabilityError"
    )
    metrics["trace.overhead_share"] = (traced.scaled_wall_s - plain.scaled_wall_s) / plain.scaled_wall_s
    for name in tracer.absent:
        lines.append(f"trace: wrap target {name} is absent; its spans are missing")
    (workdir / "spans.json").write_text(json.dumps(tracer.dump()), encoding="utf-8")
    return [plain, traced], probe_runs, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["wide-single", "many-voters", "diverse"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "kemeny" / "__init__.py").is_file():
        print(f"error: no kemeny package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    lines, result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
