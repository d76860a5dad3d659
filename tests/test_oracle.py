"""The exhaustive reference implementations themselves."""

import math
import random

import pytest

from kemeny import oracle
from kemeny.errors import CapabilityError
from kemeny.instances import fifty_fifty_profile, five_type_profile, random_partial_order
from kemeny.oracle import (
    count_extensions,
    enumerate_extensions,
    oracle_diverse,
    oracle_optimum,
)
from kemeny.orders import PartialOrder, reduce_to_co, unanimity_order


def chain(n):
    return PartialOrder.from_pairs(n, [(i, i + 1) for i in range(n - 1)])


class TestEnumeration:
    def test_linear_base_has_one_extension(self):
        assert [e.perm for e in enumerate_extensions(chain(3))] == [(0, 1, 2)]

    def test_antichain_has_factorial_many(self):
        exts = list(enumerate_extensions(PartialOrder.antichain(3)))
        assert len(exts) == math.factorial(3)
        assert len({e.perm for e in exts}) == 6

    def test_lexicographic_order(self):
        perms = [e.perm for e in enumerate_extensions(PartialOrder.antichain(3))]
        assert perms == sorted(perms)

    def test_count_matches_enumeration(self):
        rng = random.Random(51)
        for _ in range(40):
            order = random_partial_order(rng.randint(1, 6), rng, rng.random())
            exts = list(enumerate_extensions(order))
            assert len(exts) == count_extensions(order)
            assert len({e.perm for e in exts}) == len(exts)
            assert all(e.extends(order) for e in exts)

    def test_five_type_unanimity_count(self):
        una = unanimity_order(five_type_profile())
        # A and B below E, C and D free: count by direct recursion
        assert count_extensions(una) == len(list(enumerate_extensions(una)))

    def test_cap(self):
        with pytest.raises(CapabilityError):
            list(enumerate_extensions(PartialOrder.antichain(11)))

    def test_cap_override(self, monkeypatch):
        monkeypatch.setattr(oracle, "ORACLE_CAP", 11)
        assert count_extensions(chain(11)) == 1


class TestOptimum:
    def test_five_type_reduction(self):
        opt, winners = oracle_optimum(reduce_to_co(five_type_profile()))
        assert opt == 10
        assert {w.perm for w in winners} == {(0, 1, 2, 3, 4), (0, 1, 3, 2, 4)}

    def test_fifty_fifty_reduction(self):
        opt, winners = oracle_optimum(reduce_to_co(fifty_fifty_profile()))
        assert opt == 50
        assert len(winners) == 2

    def test_linear_base_single_minimizer(self):
        from kemeny.orders import CostInstance

        cost = tuple(tuple(0 for _ in range(4)) for _ in range(4))
        opt, winners = oracle_optimum(CostInstance(4, cost, chain(4)))
        assert opt == 0 and len(winners) == 1

    def test_deterministic(self):
        inst = reduce_to_co(fifty_fifty_profile())
        assert oracle_optimum(inst) == oracle_optimum(inst)


class TestDiverse:
    def test_fifty_fifty_max_diversity_pair(self):
        inst = reduce_to_co(fifty_fifty_profile())
        result = oracle_diverse(inst, 2, 0, 0, 0, maximize=True)
        assert result.diversity == 1

    def test_r_exceeding_pool_is_no(self):
        inst = reduce_to_co(fifty_fifty_profile())
        assert not oracle_diverse(inst, 3, 0, 0, 1).feasible

    def test_cap(self):
        from kemeny.orders import CostInstance

        cost = tuple(tuple(0 for _ in range(7)) for _ in range(7))
        inst = CostInstance(7, cost, chain(7))
        with pytest.raises(CapabilityError):
            oracle_diverse(inst, 2, 0, 0, 0)
