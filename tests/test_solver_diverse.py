"""Lockstep diverse solver: register updates, tuple transitions, and the
decision/maximization entry points."""

import itertools
import random

import pytest

from kemeny.errors import InputError
from kemeny.instances import (
    fifty_fifty_profile,
    five_type_profile,
    random_cost_instance,
    random_profile,
)
from kemeny.oracle import enumerate_extensions, oracle_diverse, oracle_optimum
from kemeny.orders import (
    CostInstance,
    LinearOrder,
    PartialOrder,
    diversity,
    kemeny_score,
    kt_distance,
    reduce_to_co,
)
from kemeny.solver_diverse import (
    DiverseQuery,
    DiverseState,
    find_distinct_optima,
    scatteredness_increase,
    solve_diverse,
    solve_diverse_kra,
    solve_max_diversity,
    tuple_successors,
)
from kemeny.solver_single import _introduce_successors, forward_tables
from kemeny.width import PathDecomposition


class TestScatterednessIncrease:
    def test_same_relative_position_adds_nothing(self):
        # v=2 inserted before u=1 in both solutions
        assert scatteredness_increase(0b010, (2, 1), (2, 1), [2]) == 0

    def test_opposite_sides_adds_one(self):
        # tails were (u,); v goes before u in one solution, after in the other
        assert scatteredness_increase(0b010, (2, 1), (1, 2), [2]) == 1

    def test_committed_vertex_counts(self):
        # u=0 committed (not in either tail) counts as below v everywhere:
        # disagreement only if some tail puts v below u, impossible here
        assert scatteredness_increase(0b001, (2,), (2,), [2]) == 0

    def test_committed_versus_tail_disagreement(self):
        # u=0 committed in solution i (below v) but above v in solution j
        assert scatteredness_increase(0b001, (2,), (2, 0), [2]) == 1

    def test_multi_vertex_insertion_counts_pairs_once(self):
        # two fresh vertices on opposite sides of each other in the two tails
        inc = scatteredness_increase(0b001, (0, 2, 3), (0, 3, 2), [2, 3])
        assert inc == 1

    def test_requires_introduced_in_tails(self):
        with pytest.raises(InputError):
            scatteredness_increase(0b001, (0,), (0, 2), [2])


def _two_vertex_setup():
    base = PartialOrder.antichain(2)
    inst = CostInstance(2, ((0, 1), (4, 0)), base)
    dec = PathDecomposition(2, (0, 0b01, 0b11))
    return inst, dec


def _successors(state, inst, dec, delta=0, d_cap=0, s_cap=0, cost_bound=99):
    # the transition 1 -> 2 introduces vertex 1 next to the tail (0,)
    f_next = forward_tables(inst, dec, dec.width)[2]
    return tuple_successors(
        state, inst, dec, 1, delta=delta, d_cap=d_cap, s_cap=s_cap,
        f_next=f_next, cost_bound=cost_bound, succ_cache={}, pair_cache={},
    )


class TestTupleSuccessors:
    def test_r1_matches_introduce_successors(self):
        inst, dec = _two_vertex_setup()
        triple = (0b01, (0,), 0)
        got = _successors(DiverseState((triple,), 0, ()), inst, dec)
        expected = _introduce_successors(triple, 1, 0b11, inst)
        assert [s.triples[0] for s in got] == expected
        assert all(s.div == 0 and s.dist == () for s in got)

    def test_r2_product_with_registers(self):
        inst, dec = _two_vertex_setup()
        triple = (0b01, (0,), 0)
        state = DiverseState((triple, triple), 0, (0,))
        got = _successors(state, inst, dec, d_cap=9, s_cap=9)
        assert len(got) == 4
        by_tails = {
            (s.triples[0][1], s.triples[1][1]): (s.div, s.dist) for s in got
        }
        assert by_tails[((0, 1), (0, 1))] == (0, (0,))
        assert by_tails[((1, 0), (1, 0))] == (0, (0,))
        assert by_tails[((0, 1), (1, 0))] == (1, (1,))
        assert by_tails[((1, 0), (0, 1))] == (1, (1,))

    def test_register_caps_saturate(self):
        inst, dec = _two_vertex_setup()
        triple = (0b01, (0,), 0)
        state = DiverseState((triple, triple), 3, (1,))
        got = _successors(state, inst, dec, d_cap=3, s_cap=1)
        for s in got:
            assert s.div == 3  # already at the cap, stays there
            assert s.dist[0] <= 1

    def test_cost_window_prunes_states(self):
        inst, dec = _two_vertex_setup()
        state = DiverseState(((0b01, (0,), 0),), 0, ())
        got = _successors(state, inst, dec, cost_bound=1)
        assert [s.triples[0][2] for s in got] == [1]

    def test_optimum_register_prunes_states(self):
        # from cost 3 each successor tail costs 3 more than its register
        inst, dec = _two_vertex_setup()
        state = DiverseState(((0b01, (0,), 3),), 0, ())
        assert _successors(state, inst, dec, delta=2) == []
        assert len(_successors(state, inst, dec, delta=3)) == 2


class TestSolveDiverse:
    def test_fifty_fifty_yes_case(self):
        inst = reduce_to_co(fifty_fifty_profile())
        out = solve_diverse(inst, DiverseQuery(r=2, delta=0, d=1, s=1))
        assert out.feasible
        assert {w.perm for w in out.witnesses} == {
            (0, 1, 2, 3, 4),
            (0, 1, 3, 2, 4),
        }
        assert out.costs == (50, 50)
        assert out.diversity == 1

    def test_fifty_fifty_diversity_two_impossible(self):
        inst = reduce_to_co(fifty_fifty_profile())
        out = solve_diverse(inst, DiverseQuery(r=2, delta=0, d=2, s=1))
        assert not out.feasible
        assert out.failed_constraint == "diversity"

    def test_r1_reduces_to_single_solve(self):
        inst = reduce_to_co(five_type_profile())
        out = solve_diverse(inst, DiverseQuery(r=1, delta=0, d=0, s=0))
        assert out.feasible
        assert out.costs == (10,)
        assert out.diversity == 0

    def test_set_semantics_forces_distinctness(self):
        # a linear base has one extension; two distinct solutions cannot exist
        base = PartialOrder.from_pairs(3, [(0, 1), (1, 2)])
        cost = tuple(tuple(0 for _ in range(3)) for _ in range(3))
        inst = CostInstance(3, cost, base)
        out = solve_diverse(inst, DiverseQuery(r=2, delta=0, d=0, s=0))
        assert not out.feasible
        assert out.failed_constraint == "scatteredness"

    def test_matches_oracle_on_random_instances(self):
        rng = random.Random(31)
        checked = 0
        while checked < 30:
            n = rng.randint(3, 6)
            profile = random_profile(n, rng.randint(1, 4), rng)
            inst = reduce_to_co(profile)
            r = rng.choice([2, 3])
            delta = rng.randint(0, 2)
            opt, _ = oracle_optimum(inst)
            pool = sum(
                1
                for e in enumerate_extensions(inst.base)
                if inst.extension_cost(e) <= opt + delta
            )
            if pool > 40:
                continue
            d = rng.randint(0, 6)
            s = rng.randint(0, 2)
            out = solve_diverse(inst, DiverseQuery(r=r, delta=delta, d=d, s=s))
            ora = oracle_diverse(inst, r, delta, d, s)
            assert out.feasible == ora.feasible, (n, r, delta, d, s)
            if out.feasible:
                assert len(set(out.witnesses)) == r
                assert all(c <= opt + delta for c in out.costs)
                assert out.diversity >= d
                assert all(p >= max(s, 1) for p in out.pairwise)
            checked += 1

    def test_registers_exact_below_caps(self):
        rng = random.Random(32)
        for _ in range(15):
            inst = random_cost_instance(rng.randint(2, 5), rng, 0.5, max_cost=2)
            out = solve_diverse(inst, DiverseQuery(r=2, delta=1, d=40, s=30))
            if out.feasible:
                # caps were far above anything reachable, so the reported
                # values are the true ones
                assert out.diversity == diversity(list(out.witnesses))
                assert out.pairwise[0] == kt_distance(*out.witnesses)


class TestMaxDiversity:
    def test_linear_base_gives_zero(self):
        base = PartialOrder.from_pairs(3, [(0, 1), (1, 2)])
        cost = tuple(tuple(0 for _ in range(3)) for _ in range(3))
        result = solve_max_diversity(CostInstance(3, cost, base), r=2)
        assert result.diversity == 0
        assert result.witnesses == (LinearOrder((0, 1, 2)),)

    def test_fifty_fifty_max_is_one(self):
        result = solve_max_diversity(reduce_to_co(fifty_fifty_profile()), r=2)
        assert result.diversity == 1
        assert len(result.witnesses) == 2

    def test_matches_exhaustive_pairs_within_budget(self):
        rng = random.Random(33)
        for _ in range(15):
            inst = random_cost_instance(rng.randint(2, 5), rng, 0.5, max_cost=3)
            result = solve_max_diversity(inst, r=2, delta=1)
            ora = oracle_diverse(inst, 2, 1, 0, 0, maximize=True)
            assert result.diversity == ora.diversity


class TestDistinctOptima:
    def test_fifty_fifty_two_yes_three_no(self):
        inst = reduce_to_co(fifty_fifty_profile())
        assert find_distinct_optima(inst, 2).feasible
        assert not find_distinct_optima(inst, 3).feasible

    def test_linear_base_has_one_extension(self):
        base = PartialOrder.from_pairs(3, [(0, 1), (1, 2)])
        cost = tuple(tuple(0 for _ in range(3)) for _ in range(3))
        assert not find_distinct_optima(CostInstance(3, cost, base), 2).feasible

    def test_matches_oracle_optimum_count(self):
        rng = random.Random(34)
        for _ in range(20):
            inst = random_cost_instance(rng.randint(2, 5), rng, 0.5)
            _, winners = oracle_optimum(inst)
            for r in (2, 3):
                got = find_distinct_optima(inst, r).feasible
                assert got == (len(winners) >= r)


class TestKraEntryPoint:
    def test_fifty_fifty_scores(self):
        result = solve_diverse_kra(
            fifty_fifty_profile(), DiverseQuery(r=2, delta=0, d=1, s=1)
        )
        assert result.outcome.feasible
        assert result.scores == (50, 50)

    def test_five_type_single(self):
        result = solve_diverse_kra(
            five_type_profile(), DiverseQuery(r=1, delta=0, d=0, s=0)
        )
        assert result.scores == (10,)

    def test_five_type_two_diverse_optima(self):
        # the oracle knows both optima at distance 1, so (d=1, s=1) is a yes
        # while any d above the achievable diversity is a no
        profile = five_type_profile()
        inst = reduce_to_co(profile)
        opt, winners = oracle_optimum(inst)
        best = max(
            kt_distance(a, b) for a, b in itertools.combinations(winners, 2)
        )
        yes = solve_diverse_kra(profile, DiverseQuery(r=2, delta=0, d=best, s=1))
        assert yes.outcome.feasible
        no = solve_diverse_kra(
            profile, DiverseQuery(r=2, delta=0, d=best + 1, s=1)
        )
        assert not no.outcome.feasible

    def test_witness_scores_recomputed(self):
        rng = random.Random(35)
        for _ in range(10):
            profile = random_profile(rng.randint(2, 5), rng.randint(1, 3), rng)
            result = solve_diverse_kra(profile, DiverseQuery(r=2, delta=1, d=0, s=1))
            if result.outcome.feasible:
                for w, score in zip(result.outcome.witnesses, result.scores):
                    assert kemeny_score(profile, w) == score
