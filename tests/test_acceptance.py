"""Acceptance suite: ten criteria, one test and one printed verdict line
each. Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

Every expected number here is either computed by the brute-force oracle
inside the test or is one of the worked five-candidate elections whose
optimum (10, respectively 50), optimum count (2) and pairwise distance (1)
the fixtures reproduce.
"""

import io
import itertools
import math
import random
import time

import pytest

from kemeny.cli import run
from kemeny.instances import (
    BucketSpec,
    fifty_fifty_profile,
    five_type_profile,
    generate_bucket_order,
    random_cost_instance,
    random_partial_order,
    random_profile,
)
from kemeny.oracle import enumerate_extensions, oracle_diverse, oracle_optimum
from kemeny.orders import LinearOrder, reduce_to_co
from kemeny.pco import PcoInstance, solve_pco
from kemeny.solver_diverse import (
    DiverseQuery,
    scatteredness_increase,
    solve_diverse,
)
from kemeny.solver_single import BOUNDS, solve_single
from kemeny.width import (
    cocomparability_graph,
    consistent_path_decomposition,
    exact_pathwidth,
)

from graph_oracles import has_long_induced_cycle

import pathlib

DATA = pathlib.Path(__file__).parent / "data"
FIVE = str(DATA / "five_type.votes")
FIFTY = str(DATA / "fifty_fifty.votes")

# Documented width-quality constant: the construction is exact up to the
# search cap, so the corpus ratio is 1; the gate tolerates up to 5.
WIDTH_RATIO_LIMIT = 5.0


def _verdict(num: int, text: str) -> None:
    print(f"\nACCEPTANCE {num:02d} PASS: {text}")


def _invoke(argv):
    out = io.StringIO()
    err = io.StringIO()
    code = run(argv, out, err)
    return code, out.getvalue(), err.getvalue()


def test_criterion_01_five_type_election():
    started = time.monotonic()
    inst = reduce_to_co(five_type_profile())
    solution = solve_single(inst)
    elapsed = time.monotonic() - started
    assert solution.cost == 10
    opt, winners = oracle_optimum(inst)
    assert opt == 10
    assert solution.extension in winners
    assert LinearOrder((0, 1, 2, 3, 4)) in winners
    assert elapsed < 1.0
    code, out, _ = _invoke(["solve", FIVE])
    assert code == 0 and "optimum: 10\n" in out
    _verdict(1, f"five-type optimum 10, A<B<C<D<E among optima, {elapsed:.3f}s")


def test_criterion_02_fifty_fifty_election():
    inst = reduce_to_co(fifty_fifty_profile())
    assert solve_single(inst).cost == 50

    code, out, _ = _invoke(["optima", FIFTY, "--r", "2"])
    assert code == 0
    assert "witness-1: A<B<C<D<E\n" in out
    assert "witness-2: A<B<D<C<E\n" in out

    code, _, _ = _invoke(["optima", FIFTY, "--r", "3"])
    assert code == 1

    code, out, _ = _invoke(["maxdiv", FIFTY, "--r", "2", "--delta", "0"])
    assert code == 0 and "diversity: 1\n" in out
    _verdict(2, "cost 50, two optima exactly, r=3 refused, max diversity 1")


def test_criterion_03_single_solver_oracle_equivalence():
    started = time.monotonic()
    rng = random.Random(1003)
    agree = 0
    for trial in range(360):
        n = rng.randint(2, 7)
        m = rng.randint(1, 5)
        profile = random_profile(
            n, m, rng,
            density=rng.choice([0.15, 0.3, 0.5, 0.7]),
            linear_share=0.4,
        )
        inst = reduce_to_co(profile)
        solution = solve_single(inst)
        opt, winners = oracle_optimum(inst)
        assert solution.cost == opt, f"profile trial {trial}"
        assert solution.extension in winners
        agree += 1
    for trial in range(140):
        n = rng.randint(2, 7)
        inst = random_cost_instance(
            n, rng, density=rng.choice([0.1, 0.3, 0.5, 0.8]), max_cost=4
        )
        solution = solve_single(inst)
        opt, winners = oracle_optimum(inst)
        assert solution.cost == opt, f"cost trial {trial}"
        assert solution.extension in winners
        agree += 1
    elapsed = time.monotonic() - started
    assert agree == 500
    assert elapsed < 300.0
    _verdict(3, f"500/500 instances match the oracle optimum in {elapsed:.1f}s")


def test_criterion_04_diverse_decision_oracle_equivalence():
    rng = random.Random(1004)
    checked = 0
    while checked < 200:
        n = rng.randint(3, 6)
        m = rng.randint(1, 4)
        profile = random_profile(
            n, m, rng, density=rng.choice([0.2, 0.4, 0.6]), linear_share=0.4
        )
        inst = reduce_to_co(profile)
        r = rng.choice([2, 3])
        delta = rng.randint(0, 2)
        opt, _ = oracle_optimum(inst)
        pool = sum(
            1
            for ext in enumerate_extensions(inst.base)
            if inst.extension_cost(ext) <= opt + delta
        )
        # keep the exhaustive subset scan of the oracle tractable
        if pool > (60 if r == 3 else 200):
            continue
        d = rng.randint(0, 6)
        s = rng.randint(0, 2)
        out = solve_diverse(inst, DiverseQuery(r=r, delta=delta, d=d, s=s))
        reference = oracle_diverse(inst, r, delta, d, s)
        assert out.feasible == reference.feasible, (n, m, r, delta, d, s)
        if out.feasible:
            assert len(set(out.witnesses)) == r
            for w, c in zip(out.witnesses, out.costs):
                assert inst.extension_cost(w) == c
                assert c <= opt + delta
            assert out.diversity >= d
            assert all(p >= max(s, 1) for p in out.pairwise)
        checked += 1
    _verdict(4, "200/200 diverse decisions match the oracle, witnesses verified")


@pytest.fixture(scope="module")
def order_corpus():
    rng = random.Random(1005)
    corpus = []
    for _ in range(500):
        n = rng.randint(2, 9)
        corpus.append(
            random_partial_order(
                n, rng, density=rng.choice([0.1, 0.25, 0.4, 0.6, 0.85])
            )
        )
    return corpus


def test_criterion_05_decomposition_validity(order_corpus):
    worst = 0.0
    for order in order_corpus:
        cpd = consistent_path_decomposition(order)
        assert cpd.decomposition.is_nice
        assert cpd.validate() == []
        pw = exact_pathwidth(cocomparability_graph(order))
        assert cpd.width >= pw
        ratio = (cpd.width + 1) / (pw + 1)
        worst = max(worst, ratio)
        assert ratio <= WIDTH_RATIO_LIMIT
    _verdict(5, f"500 decompositions valid; worst width ratio {worst:.2f} <= 5")


def test_criterion_06_no_long_induced_cycles(order_corpus):
    for order in order_corpus:
        assert not has_long_induced_cycle(cocomparability_graph(order))
    _verdict(6, "no induced cycle of length >= 5 in 500 incomparability graphs")


def test_criterion_07_state_count_bounds_never_fire():
    assert BOUNDS.enabled
    checks_before = BOUNDS.checks
    rng = random.Random(1007)
    for _ in range(30):
        inst = random_cost_instance(rng.randint(2, 6), rng, rng.random())
        solve_single(inst)
    for _ in range(10):
        profile = random_profile(rng.randint(3, 5), rng.randint(1, 3), rng)
        solve_diverse(
            reduce_to_co(profile),
            DiverseQuery(r=2, delta=rng.randint(0, 2), d=3, s=1),
        )
    assert BOUNDS.checks > checks_before
    assert BOUNDS.violations == 0
    _verdict(
        7,
        f"{BOUNDS.checks} factorial-bound checks across the suites, 0 violations",
    )


def test_criterion_08_pco_pipeline():
    rng = random.Random(1008)
    for trial in range(200):
        n = rng.randint(2, 7)
        inst = random_cost_instance(
            n, rng, density=rng.choice([0.2, 0.4, 0.7]), max_cost=3, positive=True
        )
        pco = PcoInstance(inst)
        opt, _ = oracle_optimum(inst)
        k = rng.randint(max(0, opt - 3), opt + 3)
        result = solve_pco(pco, k)
        assert result.feasible == (opt <= k), trial
        if result.feasible:
            assert inst.extension_cost(result.witness) <= k
        if result.optimum is None:
            assert opt > k  # the edge bound never rejects a YES-instance

    # width versus sqrt(edge count) on the bucket corpus: logged, not asserted
    rows = []
    for sizes in [(2, 2, 2), (3, 3), (4, 2, 1), (4, 4), (5, 3), (5, 5), (6, 4)]:
        order = generate_bucket_order(BucketSpec(sizes))
        g = cocomparability_graph(order)
        width = consistent_path_decomposition(order).width
        rows.append((sizes, g.edge_count, width, width / math.sqrt(g.edge_count)))
    fitted = max(row[3] for row in rows)
    for sizes, edges, width, ratio in rows:
        print(f"  buckets {sizes}: edges={edges} width={width} w/sqrt(m)={ratio:.2f}")
    _verdict(8, f"200/200 PCO decisions match; width/sqrt(edges) <= {fitted:.2f}")


def test_criterion_09_insertion_order_invariance():
    rng = random.Random(1009)
    for trial in range(1000):
        universe = list(range(10))
        rng.shuffle(universe)
        bag_size = rng.randint(1, 5)
        intro_size = rng.randint(2, 3)
        bag_vertices = universe[:bag_size]
        introduced = universe[bag_size : bag_size + intro_size]
        bag = 0
        for v in bag_vertices:
            bag |= 1 << v
        tails = []
        for _ in range(2):
            kept = [v for v in bag_vertices if rng.random() < 0.7]
            tail = kept + list(introduced)
            rng.shuffle(tail)
            tails.append(tuple(tail))
        values = {
            scatteredness_increase(bag, tails[0], tails[1], perm)
            for perm in itertools.permutations(introduced)
        }
        assert len(values) == 1, (trial, tails, introduced)
    _verdict(9, "1000 multi-introduce steps: increase invariant under order")


def test_criterion_10_determinism(tmp_path):
    gen_target = str(tmp_path / "d.votes")
    commands = [
        ["solve", FIVE],
        ["solve", FIVE, "--json"],
        ["diverse", FIFTY, "--r", "2", "--d", "1", "--s", "1"],
        ["diverse", FIFTY, "--r", "2", "--d", "2", "--s", "1", "--json"],
        ["optima", FIFTY, "--r", "2"],
        ["optima", FIFTY, "--r", "3"],
        ["maxdiv", FIFTY, "--r", "2"],
        ["pco", FIFTY, "--k", "50"],
        ["oracle", FIVE, "--task", "optimum"],
        ["oracle", FIFTY, "--task", "diverse", "--r", "2", "--d", "1", "--s", "1"],
        ["gen", "random", "--n", "6", "--m", "4", "--seed", "77", "--out", gen_target],
        ["gen", "buckets", "--sizes", "3,3", "--m", "5", "--noise", "2", "--seed", "8"],
    ]
    for argv in commands:
        first = _invoke(argv)
        first_file = None
        if gen_target in argv:
            first_file = pathlib.Path(gen_target).read_bytes()
        second = _invoke(argv)
        assert first == second, argv
        if first_file is not None:
            assert pathlib.Path(gen_target).read_bytes() == first_file
    _verdict(10, f"{len(commands)} subcommands byte-identical across two runs")
