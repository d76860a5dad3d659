"""The single-optimum solver (ideal lattice) and the tail-order register."""

import itertools
import random
import time

import pytest

from kemeny import solver_single, width
from kemeny.cli import parse_votes
from kemeny.errors import CapabilityError, InternalError
from kemeny.instances import (
    BucketSpec,
    candidate_labels,
    fifty_fifty_profile,
    five_type_profile,
    generate_bucket_order,
    generate_profile,
    random_linear_extension,
    random_partial_order,
    random_profile,
)
from kemeny.oracle import oracle_optimum
from kemeny.orders import CostInstance, LinearOrder, PartialOrder, reduce_to_co
from kemeny.solver_diverse import backward_tables, forward_tables
from kemeny.solver_single import optimal_rankings, solve_single
from kemeny.width import consistent_path_decomposition

from cost_instances import random_cost_instance


def chain(n):
    return PartialOrder.from_pairs(n, [(i, i + 1) for i in range(n - 1)])


def instance_2(cost_ab, cost_ba, base=None):
    base = base if base is not None else PartialOrder.antichain(2)
    return CostInstance(2, ((0, cost_ab), (cost_ba, 0)), base)


class TestSolve:
    def test_five_type_election(self):
        inst = reduce_to_co(five_type_profile())
        solution = solve_single(inst)
        assert solution.cost == 10
        opt, winners = oracle_optimum(inst)
        assert opt == 10
        assert solution.extension in winners
        assert LinearOrder((0, 1, 2, 3, 4)) in winners

    def test_fifty_fifty_election(self):
        solution = solve_single(reduce_to_co(fifty_fifty_profile()))
        assert solution.cost == 50

    def test_linear_base_costs_nothing(self):
        base = chain(4)
        cost = tuple(
            tuple(0 if x == y else 3 for y in range(4)) for x in range(4)
        )
        solution = solve_single(CostInstance(4, cost, base))
        assert solution.cost == 0
        assert solution.extension.perm == (0, 1, 2, 3)

    def test_matches_oracle_on_random_profiles(self):
        rng = random.Random(21)
        for _ in range(40):
            profile = random_profile(rng.randint(2, 6), rng.randint(1, 5), rng)
            inst = reduce_to_co(profile)
            solution = solve_single(inst)
            opt, winners = oracle_optimum(inst)
            assert solution.cost == opt
            assert solution.extension in winners

    def test_matches_oracle_on_random_cost_instances(self):
        rng = random.Random(22)
        for _ in range(40):
            inst = random_cost_instance(rng.randint(2, 6), rng, rng.random())
            solution = solve_single(inst)
            assert solution.cost == oracle_optimum(inst)[0]

    def test_deterministic_witness(self):
        inst = reduce_to_co(fifty_fifty_profile())
        a = solve_single(inst)
        b = solve_single(inst)
        assert a.extension == b.extension


def pairs_profile(n, m, rng, density):
    """A vote file of ``pairs:`` lines: each vote keeps the pairs of a shared
    random base order plus about half the others of one of its extensions."""
    base = random_partial_order(n, rng, density)
    names = candidate_labels(n)
    lines = ["candidates: " + ",".join(names)]
    for _ in range(m):
        ext = random_linear_extension(base, rng).perm
        pairs = [
            (ext[i], ext[j])
            for i in range(n)
            for j in range(i + 1, n)
            if base.lt(ext[i], ext[j]) or rng.random() < 0.5
        ] or [(ext[0], ext[1])]
        lines.append("pairs: " + ", ".join(f"{names[x]}<{names[y]}" for x, y in pairs))
    return parse_votes("\n".join(lines) + "\n")


def restrict(inst, vertices):
    """The sub-instance on ``vertices``, renumbered in the given order."""
    cost = tuple(tuple(inst.cost[x][y] for y in vertices) for x in vertices)
    pairs = [
        (i, j)
        for i, x in enumerate(vertices)
        for j, y in enumerate(vertices)
        if inst.base.lt(x, y)
    ]
    return CostInstance(len(vertices), cost, PartialOrder.from_pairs(len(vertices), pairs))


class TestIdealEngine:
    def test_matches_oracle_and_its_smallest_minimizer(self):
        rng = random.Random(31)
        ties = 0
        for i in range(300):
            n = rng.randint(2, 9)
            if i % 3 == 0:
                inst = random_cost_instance(n, rng, rng.uniform(0.2, 0.6), max_cost=2)
            elif i % 3 == 1:
                profile = random_profile(rng.randint(2, 7), rng.randint(1, 5), rng)
                inst = reduce_to_co(profile)
            else:
                profile = pairs_profile(n, rng.randint(1, 5), rng, rng.uniform(0.2, 0.6))
                inst = reduce_to_co(profile)
            solution = solve_single(inst)
            opt, winners = oracle_optimum(inst)
            ties += len(winners) > 1
            assert solution.cost == opt
            assert solution.extension == min(winners, key=lambda w: w.perm)
        assert ties >= 100  # the tie-break is exercised, not just the optimum

    def test_matches_tail_order_engine_above_oracle_cap(self):
        rng = random.Random(32)
        widths = []
        while len(widths) < 40:
            inst = random_cost_instance(rng.randint(11, 16), rng, rng.uniform(0.4, 0.6))
            cpd = consistent_path_decomposition(inst.base)
            if cpd.width > 5:
                continue
            widths.append(cpd.width)
            moves = forward_tables(inst, cpd.decomposition)
            tail_opt = backward_tables(moves)[0][(0, ())]
            assert solve_single(inst).cost == tail_opt
        assert max(widths) == 5

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_noiseless_buckets_split_into_bucket_optima(self, seed):
        # every vote extends the bucket order, so each bucket is its own
        # sub-problem and the optima add up
        base = generate_bucket_order(BucketSpec((8, 8, 8), seed))
        inst = reduce_to_co(generate_profile(base, 20, 0, seed).profile)
        parts = [restrict(inst, list(range(s, s + 8))) for s in (0, 8, 16)]
        assert solve_single(inst).cost == sum(oracle_optimum(p)[0] for p in parts)

    def test_ideal_bound_fires_past_n_two_to_the_width(self, monkeypatch):
        # an antichain of two has width 1 and 4 ideals, within 2 * 2^1 + 1;
        # read as width 0, its bound is 2 * 2^0 + 1 = 3 and the check fires
        inst = instance_2(1, 1)
        assert solve_single(inst).width == 1
        monkeypatch.setattr(solver_single, "ideal_widths", lambda *args: {0: 0})
        with pytest.raises(InternalError, match="ideal count 4 exceeds its bound 3"):
            solve_single(inst)


class TestEveryOptimum:
    def test_walk_yields_every_oracle_minimizer_in_order(self):
        # all the optima, not just the first r: the tight-path walk yields
        # each minimizer once, ascending by vertex sequence
        rng = random.Random(28)
        ties = 0
        for i in range(200):
            n = rng.randint(2, 8)
            if i % 2:
                inst = random_cost_instance(n, rng, rng.uniform(0.2, 0.7), max_cost=2)
            else:
                inst = reduce_to_co(random_profile(n, rng.randint(1, 4), rng))
            opt, _, rankings = optimal_rankings(inst)
            best, winners = oracle_optimum(inst)
            assert opt == best
            assert list(rankings) == sorted(winners, key=lambda w: w.perm)
            ties += len(winners) > 1
        assert ties >= 100

    def test_wide_costs_keep_their_fields_apart(self):
        # each ideal packs every vertex's unpaid cost into one integer, one
        # field per vertex as wide as the largest row sum; costs near 2^58
        # and rows summing to 2^k - 1 (a full field) or 2^k (one bit more)
        # must still give the oracle's optimum and every minimizer
        rng = random.Random(33)
        for i in range(120):
            n = rng.randint(2, 7)
            base = random_partial_order(n, rng, rng.uniform(0.0, 0.5))
            k = rng.randint(1, 59)
            top = 2**k - (i % 2)  # odd i: no row reaches 2^k, so the field is full
            cost = [[0] * n for _ in range(n)]
            for v in range(n):
                free = [x for x in range(n) if x != v and not base.lt(v, x)]
                if not free:
                    continue
                total = rng.choice([top, top - 1, rng.randint(0, top)])
                cuts = sorted(rng.randint(0, total) for _ in free[1:])
                for x, lo, hi in zip(free, [0] + cuts, cuts + [total]):
                    cost[v][x] = hi - lo
            inst = CostInstance(n, tuple(map(tuple, cost)), base)
            assert [sum(row) for row in inst.cost] == [sum(row) for row in cost]
            opt, _, rankings = optimal_rankings(inst)
            best, winners = oracle_optimum(inst)
            assert opt == best
            assert list(rankings) == sorted(winners, key=lambda w: w.perm)

    def test_wide_tied_costs_list_every_minimizer(self):
        # costs that are multiples of 2^56, so many rankings tie at the optimum
        # and the walk's tight-move test compares wide fields
        rng = random.Random(35)
        ties = 0
        for _ in range(60):
            inst = random_cost_instance(rng.randint(2, 7), rng, rng.uniform(0.1, 0.5), 2)
            wide = tuple(tuple(c << 56 for c in row) for row in inst.cost)
            inst = CostInstance(inst.n, wide, inst.base)
            opt, _, rankings = optimal_rankings(inst)
            best, winners = oracle_optimum(inst)
            assert opt == best
            assert list(rankings) == sorted(winners, key=lambda w: w.perm)
            ties += len(winners) > 1
        assert ties >= 20

    def test_one_solve_builds_one_lattice(self, monkeypatch):
        # the cost pass and the width pass share one lattice, built by
        # width.ideal_lattice and by no second builder
        assert solver_single.ideal_lattice is width.ideal_lattice
        built = []

        def counted(*args):
            built.append(args)
            return width.ideal_lattice(*args)

        monkeypatch.setattr(solver_single, "ideal_lattice", counted)
        inst = reduce_to_co(five_type_profile())
        assert solve_single(inst).cost == 10
        assert built == [(inst.base, None)]


def first_optima(inst, r):
    """What ``optima --r r`` prints: the first r rankings listed."""
    return tuple(itertools.islice(optimal_rankings(inst)[2], r))


class TestDistinctOptima:
    def test_fifty_fifty_two_yes_three_no(self):
        inst = reduce_to_co(fifty_fifty_profile())
        assert len(first_optima(inst, 2)) == 2
        assert len(first_optima(inst, 3)) == 2

    def test_linear_base_has_one_extension(self):
        base = PartialOrder.from_pairs(3, [(0, 1), (1, 2)])
        cost = tuple(tuple(0 for _ in range(3)) for _ in range(3))
        assert len(first_optima(CostInstance(3, cost, base), 2)) == 1

    def test_matches_oracle_optimum_count(self):
        rng = random.Random(34)
        for _ in range(20):
            inst = random_cost_instance(rng.randint(2, 5), rng, 0.5)
            _, winners = oracle_optimum(inst)
            for r in (2, 3):
                assert first_optima(inst, r) == winners[:r]


class TestDeadline:
    def test_cost_pass_checks_the_deadline_per_ideal(self, monkeypatch):
        # the rankings are not drawn, so every check is the cost pass's
        calls = []
        monkeypatch.setattr(solver_single, "check_deadline", calls.append)
        inst = random_cost_instance(8, random.Random(36), 0.2)
        optimal_rankings(inst, deadline=1e9)
        assert len(calls) >= len(width.ideal_lattice(inst.base))
        assert set(calls) == {1e9}

    def test_cost_pass_stops_at_a_passed_deadline(self, monkeypatch):
        # the lattice and the width pass ignore the deadline here, so the
        # abort comes from the cost pass
        monkeypatch.setattr(
            solver_single, "ideal_lattice", lambda order, _: width.ideal_lattice(order)
        )
        monkeypatch.setattr(
            solver_single, "ideal_widths", lambda order, moves, _: width.ideal_widths(order, moves)
        )
        cost = tuple(tuple(int(x != y) for y in range(6)) for x in range(6))
        inst = CostInstance(6, cost, PartialOrder.antichain(6))
        assert optimal_rankings(inst)[0] == 15
        with pytest.raises(CapabilityError):
            optimal_rankings(inst, time.monotonic() - 1)
