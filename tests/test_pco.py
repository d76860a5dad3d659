"""Positive-cost completion: edge-count rejection and budget decisions."""

import random
import time

import pytest

from kemeny.errors import CapabilityError, InputError
from kemeny.instances import fifty_fifty_profile
from kemeny.oracle import oracle_optimum
from kemeny.orders import CostInstance, PartialOrder, reduce_to_co
from kemeny.pco import PcoInstance, solve_pco

from cost_instances import random_cost_instance


def chain(n):
    return PartialOrder.from_pairs(n, [(i, i + 1) for i in range(n - 1)])


def unit_antichain(n):
    cost = tuple(tuple(0 if x == y else 1 for y in range(n)) for x in range(n))
    return PcoInstance(CostInstance(n, cost, PartialOrder.antichain(n)))


class TestPcoInstance:
    def test_rejects_zero_cost_incomparable_pair(self):
        base = PartialOrder.antichain(2)
        with pytest.raises(InputError):
            PcoInstance(CostInstance(2, ((0, 0), (1, 0)), base))

    def test_comparable_pairs_may_cost_zero(self):
        inst = CostInstance(2, ((0, 0), (0, 0)), chain(2))
        PcoInstance(inst)  # no incomparable pairs at all


class TestPreprocess:
    def test_linear_base_proceeds_with_width_zero(self):
        cost = tuple(tuple(0 for _ in range(4)) for _ in range(4))
        result = solve_pco(PcoInstance(CostInstance(4, cost, chain(4))), 0)
        assert result.optimum == 0
        assert result.edges == 0
        assert result.width == 0

    def test_edge_count_rejection(self):
        # complete incomparability on 5 vertices: 10 edges, budget 9
        result = solve_pco(unit_antichain(5), 9)
        assert result.optimum is None and not result.feasible
        assert result.edges == 10
        assert result.width is None
        assert solve_pco(unit_antichain(5), 10).optimum == 10

    def test_rejection_never_loses_a_yes_instance(self):
        rng = random.Random(41)
        for _ in range(60):
            inst = random_cost_instance(
                rng.randint(2, 7), rng, rng.random(), max_cost=3, positive=True
            )
            pco = PcoInstance(inst)
            opt, _ = oracle_optimum(inst)
            for k in (opt, opt + 2):
                assert solve_pco(pco, k).optimum == opt

    def test_negative_budget_rejected(self):
        with pytest.raises(InputError):
            solve_pco(unit_antichain(2), -1)

    def test_deadline_checked_before_the_edge_bound(self):
        # budget 0 is below the one edge, but a passed deadline comes first
        pco = PcoInstance(reduce_to_co(fifty_fifty_profile()))
        with pytest.raises(CapabilityError):
            solve_pco(pco, 0, deadline=time.monotonic() - 1)


class TestSolve:
    def test_linear_base_zero_budget(self):
        cost = tuple(tuple(0 for _ in range(3)) for _ in range(3))
        result = solve_pco(PcoInstance(CostInstance(3, cost, chain(3))), 0)
        assert result.feasible
        assert result.witness.perm == (0, 1, 2)

    def test_unit_antichain_three(self):
        # any extension pays all three pairs
        assert not solve_pco(unit_antichain(3), 2).feasible
        result = solve_pco(unit_antichain(3), 3)
        assert result.feasible and result.optimum == 3

    def test_matches_oracle_on_random_instances(self):
        rng = random.Random(42)
        for _ in range(60):
            inst = random_cost_instance(
                rng.randint(2, 7), rng, rng.random(), max_cost=3, positive=True
            )
            pco = PcoInstance(inst)
            opt, _ = oracle_optimum(inst)
            k = rng.randint(max(0, opt - 3), opt + 3)
            result = solve_pco(pco, k)
            assert result.feasible == (opt <= k)
            if result.feasible:
                assert inst.extension_cost(result.witness) <= k
