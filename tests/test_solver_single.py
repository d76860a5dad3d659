"""The tail-order dynamic program for a single optimal completion."""

import random

import pytest

from kemeny.errors import InputError, InternalError
from kemeny.instances import (
    fifty_fifty_profile,
    five_type_profile,
    random_cost_instance,
    random_profile,
)
from kemeny.oracle import oracle_optimum
from kemeny.orders import CostInstance, LinearOrder, PartialOrder, reduce_to_co
from kemeny.solver_diverse import DiverseQuery, solve_diverse
from kemeny.solver_single import (
    _forget_successor,
    _introduce_successors,
    forward_tables,
    prepare_decomposition,
    reconstruct_extension,
    solve_single,
)
from kemeny.width import (
    ConsistentPathDecomposition,
    PathDecomposition,
    consistent_path_decomposition,
    pad_to_empty,
)


def chain(n):
    return PartialOrder.from_pairs(n, [(i, i + 1) for i in range(n - 1)])


def instance_2(cost_ab, cost_ba, base=None):
    base = base if base is not None else PartialOrder.antichain(2)
    return CostInstance(2, ((0, cost_ab), (cost_ba, 0)), base)


# Both solvers share prepare_decomposition and must refuse the same inputs.
SOLVERS = (
    solve_single,
    lambda inst, cpd: solve_diverse(inst, DiverseQuery(r=2), cpd),
)


def assert_supplied_rejected(inst, dec, reason):
    cpd = ConsistentPathDecomposition(dec, inst.base)
    for solve in SOLVERS:
        with pytest.raises(InputError, match=reason):
            solve(inst, cpd)


def first_bag_states(inst, bag):
    """The states of the register at the first full bag: every extension of
    the base order on the bag, costed over the pairs inside it."""
    dec = pad_to_empty(PathDecomposition(inst.n, (bag,)))
    table = forward_tables(inst, dec, dec.width)[bag.bit_count()]
    return {(tail, order, cost) for (tail, order), (cost, _) in table.items()}


class TestInitialTriples:
    def test_single_vertex_bag(self):
        inst = instance_2(2, 3)
        assert first_bag_states(inst, 0b01) == {(0b01, (0,), 0)}

    def test_incomparable_pair_both_orders(self):
        inst = instance_2(2, 3)
        triples = first_bag_states(inst, 0b11)
        assert triples == {(0b11, (0, 1), 2), (0b11, (1, 0), 3)}

    def test_forced_pair_single_extension_zero_cost(self):
        inst = instance_2(9, 9, base=chain(2))
        assert first_bag_states(inst, 0b11) == {(0b11, (0, 1), 0)}


class TestTripleSuccessors:
    def test_forget_keeps_suffix(self):
        # forget vertex 1 from tail (1, 0): survivor 0 sits after it
        assert _forget_successor((0b11, (1, 0), 3), 0b10) == (0b01, (0,), 3)

    def test_forget_drops_smaller_survivors(self):
        # forget vertex 1 from tail (0, 1): 0 precedes it and commits too
        assert _forget_successor((0b11, (0, 1), 2), 0b10) == (0, (), 2)

    def test_forget_outside_tail_changes_nothing(self):
        # forget vertex 0, which is committed rather than in the tail
        state = (0b110, (1, 2), 5)
        assert _forget_successor(state, 0b001) == state

    def test_introduce_charges_both_slots(self):
        base = PartialOrder.antichain(2)
        inst = CostInstance(2, ((0, 1), (4, 0)), base)
        succ = set(_introduce_successors((0b01, (0,), 7), 1, 0b11, inst))
        assert succ == {(0b11, (0, 1), 8), (0b11, (1, 0), 11)}

    def test_introduce_respects_base_order(self):
        inst = instance_2(9, 9, base=chain(2))
        succ = _introduce_successors((0b01, (0,), 0), 1, 0b11, inst)
        assert succ == [(0b11, (0, 1), 0)]

    def test_introduce_charges_committed_bag_vertices(self):
        # vertex 0 is in the bag but not in the tail: it is committed before
        # the new vertex and the pair (0, v) is charged once
        base = PartialOrder.antichain(3)
        cost = ((0, 0, 2), (0, 0, 3), (5, 7, 0))
        inst = CostInstance(3, cost, base)
        succ = set(_introduce_successors((0b010, (1,), 0), 2, 0b111, inst))
        assert succ == {
            (0b110, (1, 2), 2 + 3),  # 2 after 1: pay c(1,2); plus c(0,2)
            (0b110, (2, 1), 2 + 7),  # 2 before 1: pay c(2,1); plus c(0,2)
        }

    def test_non_nice_transition_rejected(self):
        # valid for the chain 0 < 1, but one step forgets 0 and introduces 1
        dec = PathDecomposition(2, (0b01, 0b10))
        assert_supplied_rejected(instance_2(1, 1, base=chain(2)), dec, "not nice")


class TestSuppliedDecomposition:
    def test_other_base_order_rejected(self):
        inst = instance_2(1, 1)
        cpd = consistent_path_decomposition(chain(2))
        for solve in SOLVERS:
            with pytest.raises(InputError, match="different base order"):
                solve(inst, cpd)

    def test_invalid_decomposition_rejected(self):
        # the incomparable pair (0, 1) never shares a bag
        dec = PathDecomposition(2, (0b01, 0b00, 0b10))
        assert_supplied_rejected(instance_2(1, 1), dec, "not covered")

    def test_valid_supplied_decomposition_is_used(self):
        inst = instance_2(2, 3)
        cpd = ConsistentPathDecomposition(PathDecomposition(2, (0b11,)), inst.base)
        solution = solve_single(inst, cpd)
        assert solution.decomposition is cpd
        assert solution.cost == 2


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


class TestReconstruction:
    def test_single_bag_chain(self):
        chain_ = [(0, ()), (0b01, (0,)), (0b11, (1, 0)), (0b01, (0,)), (0, ())]
        ext = reconstruct_extension(chain_, PartialOrder.antichain(2))
        assert ext.perm == (1, 0)

    def test_hand_built_two_bag_chain(self):
        # tails (1, 0), then forgetting 1 commits it and (0, 2) follows
        chain_ = [
            (0, ()), (0b01, (0,)), (0b11, (1, 0)), (0b01, (0,)),
            (0b101, (0, 2)), (0b100, (2,)), (0, ()),
        ]
        ext = reconstruct_extension(chain_, PartialOrder.antichain(3))
        assert ext.perm == (1, 0, 2)

    def test_chain_that_skips_a_vertex_rejected(self):
        # vertex 1 never enters a tail, so it is never committed
        chain_ = [(0, ()), (0b001, (0,)), (0b101, (0, 2)), (0, ())]
        with pytest.raises(InternalError, match="exactly once"):
            reconstruct_extension(chain_, PartialOrder.antichain(3))

    def test_chain_against_the_base_order_rejected(self):
        chain_ = [(0, ()), (0b01, (0,)), (0b11, (1, 0)), (0, ())]
        with pytest.raises(InternalError, match="base order"):
            reconstruct_extension(chain_, chain(2))

    def test_chain_cost_matches_register(self):
        rng = random.Random(23)
        for _ in range(20):
            inst = random_cost_instance(rng.randint(2, 6), rng, rng.random())
            solution = solve_single(inst)
            assert inst.extension_cost(solution.extension) == solution.cost


class TestProjectionRoundTrip:
    def test_optimal_solutions_project_onto_dp_states(self):
        # the tail of any oracle optimum at any position is a generated state
        # whose register equals the projected partial cost
        rng = random.Random(24)
        for _ in range(25):
            inst = random_cost_instance(rng.randint(2, 6), rng, rng.random())
            cpd, dec = prepare_decomposition(inst)
            tables = forward_tables(inst, dec, cpd.width)
            opt, winners = oracle_optimum(inst)
            charge = inst.charge
            for ext in winners:
                pos = {v: i for i, v in enumerate(ext.perm)}
                seen = 0
                for p in range(len(dec.bags)):
                    seen |= dec.bags[p]
                    left = seen & ~dec.bags[p]
                    cut = max((pos[v] for v in bits(left)), default=-1)
                    tail = [v for v in bits(dec.bags[p]) if pos[v] > cut]
                    tail.sort(key=lambda v: pos[v])
                    placed = sorted(
                        bits(left | dec.bags[p]), key=lambda v: pos[v]
                    )
                    cost = sum(
                        charge[x][y]
                        for i, x in enumerate(placed)
                        for y in placed[i + 1 :]
                    )
                    mask = 0
                    for v in tail:
                        mask |= 1 << v
                    key = (mask, tuple(tail))
                    assert key in tables[p]
                    assert tables[p][key][0] == cost

    def test_costs_monotone_along_backtracked_chain(self):
        rng = random.Random(25)
        for _ in range(20):
            inst = random_cost_instance(rng.randint(2, 6), rng, rng.random())
            cpd, dec = prepare_decomposition(inst)
            tables = forward_tables(inst, dec, cpd.width)
            key = (0, ())
            costs = []
            for p in range(len(tables) - 1, -1, -1):
                cost, parent = tables[p][key]
                costs.append(cost)
                if parent is None:
                    break
                key = parent
            costs.reverse()
            assert all(a <= b for a, b in zip(costs, costs[1:]))


def bits(mask):
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out
