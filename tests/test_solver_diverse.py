"""Lockstep diverse solver: register updates, tuple transitions, and the
decision/maximization entry points."""

import itertools
import math
import random

import pytest

from kemeny import solver_diverse
from kemeny.errors import InternalError
from kemeny.instances import (
    fifty_fifty_profile,
    five_type_profile,
    random_linear_extension,
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
    _forget_successor,
    _introduce_successors,
    backward_tables,
    forward_tables,
    reconstruct_extension,
    solve_diverse,
    solve_diverse_kra,
    solve_max_diversity,
    tail_bound,
    tuple_successors,
)
from kemeny.solver_single import solve_single
from kemeny.width import (
    ConsistentPathDecomposition,
    PathDecomposition,
    consistent_path_decomposition,
)

from cost_instances import least_costs, random_cost_instance


def chain(n):
    return PartialOrder.from_pairs(n, [(i, i + 1) for i in range(n - 1)])


def instance_2(cost_ab, cost_ba, base=None):
    base = base if base is not None else PartialOrder.antichain(2)
    return CostInstance(2, ((0, cost_ab), (cost_ba, 0)), base)


def _zero_instance(n):
    cost = tuple(tuple(0 for _ in range(n)) for _ in range(n))
    return CostInstance(n, cost, PartialOrder.antichain(n))


def _below(key, v, next_bag, order):
    """The ``below`` mask of the move that introduces v into ``key`` and
    leaves the tail order ``order``."""
    moves = _introduce_successors(key, v, next_bag, _zero_instance(3))
    return {k[1]: below for k, _, below in moves}[order]


def first_bag_states(inst, bag):
    """The (key, least cost) pairs reachable at the first full bag: every
    extension of the base order on the bag, costed over the pairs inside
    it. The bag alone is introduced and then forgotten one vertex at a
    time, ascending."""
    vertices = [v for v in range(inst.n) if bag >> v & 1]
    bags = [0]
    for v in vertices:
        bags.append(bags[-1] | 1 << v)
    for v in vertices:
        bags.append(bags[-1] & ~(1 << v))
    dec = PathDecomposition(inst.n, tuple(bags))
    return set(least_costs(forward_tables(inst, dec))[bag.bit_count()].items())


def introduce_by_definition(key, v, next_bag, inst):
    """Every slot of the tail whose new order keeps to the base order, in
    slot order, each with the cost of v's pairs with the committed bag
    vertices and the tail, and with the committed vertices and the tail
    before v as its ``below``."""
    tail, order = key
    new_tail = tail | 1 << v
    committed = [u for u in range(inst.n) if (next_bag & ~new_tail) >> u & 1]
    out = []
    for slot in range(len(order) + 1):
        new_order = order[:slot] + (v,) + order[slot:]
        if any(inst.base.rows[b] >> a & 1 for a, b in itertools.combinations(new_order, 2)):
            continue
        step = sum(inst.cost[u][v] for u in committed + list(order[:slot]))
        step += sum(inst.cost[v][u] for u in order[slot:])
        below = sum(1 << u for u in committed + list(order[:slot]))
        out.append(((new_tail, new_order), step, below))
    return tuple(out)


class TestTripleSuccessors:
    def test_forget_keeps_suffix(self):
        # forget vertex 1 from tail (1, 0): survivor 0 sits after it
        assert _forget_successor((0b11, (1, 0)), 0b10) == (0b01, (0,))

    def test_forget_drops_smaller_survivors(self):
        # forget vertex 1 from tail (0, 1): 0 precedes it and commits too
        assert _forget_successor((0b11, (0, 1)), 0b10) == (0, ())

    def test_forget_outside_tail_changes_nothing(self):
        # forget vertex 0, which is committed rather than in the tail
        key = (0b110, (1, 2))
        assert _forget_successor(key, 0b001) == key

    def test_introduce_charges_both_slots(self):
        base = PartialOrder.antichain(2)
        inst = CostInstance(2, ((0, 1), (4, 0)), base)
        succ = set(_introduce_successors((0b01, (0,)), 1, 0b11, inst))
        assert succ == {((0b11, (0, 1)), 1, 0b01), ((0b11, (1, 0)), 4, 0)}

    def test_introduce_respects_base_order(self):
        inst = instance_2(9, 9, base=chain(2))
        succ = _introduce_successors((0b01, (0,)), 1, 0b11, inst)
        assert succ == (((0b11, (0, 1)), 0, 0b01),)

    def test_introduce_before_a_larger_tail_vertex(self):
        # 1 enters first, so 0 (below it in the base order) can only take the
        # slot before it; the empty tail's cost to go is still the optimum
        base = PartialOrder.from_pairs(3, [(0, 1)])
        inst = CostInstance(3, ((0, 0, 2), (0, 0, 3), (5, 7, 0)), base)
        succ = _introduce_successors((0b010, (1,)), 0, 0b011, inst)
        assert succ == (((0b011, (0, 1)), 0, 0),)
        dec = PathDecomposition(3, (0, 0b010, 0b011, 0b111, 0b101, 0b100, 0))
        assert ConsistentPathDecomposition(dec, base).validate() == []
        to_go = backward_tables(forward_tables(inst, dec))
        assert to_go[0][(0, ())] == oracle_optimum(inst)[0] == 5

    def test_introduce_charges_committed_bag_vertices(self):
        # vertex 0 is in the bag but not in the tail: it is committed before
        # the new vertex and the pair (0, v) is charged once
        base = PartialOrder.antichain(3)
        cost = ((0, 0, 2), (0, 0, 3), (5, 7, 0))
        inst = CostInstance(3, cost, base)
        succ = set(_introduce_successors((0b010, (1,)), 2, 0b111, inst))
        assert succ == {
            ((0b110, (1, 2)), 2 + 3, 0b011),  # 2 after 1: pay c(1,2); plus c(0,2)
            ((0b110, (2, 1)), 2 + 7, 0b001),  # 2 before 1: pay c(2,1); plus c(0,2)
        }

    def test_introduce_matches_the_definition_on_reachable_keys(self):
        rng = random.Random(27)
        checked = 0
        for _ in range(40):
            inst = random_cost_instance(rng.randint(2, 8), rng, rng.random())
            dec = consistent_path_decomposition(inst.base).decomposition
            for p, here in enumerate(forward_tables(inst, dec)):
                bag, next_bag = dec.bags[p], dec.bags[p + 1]
                if next_bag & ~bag:
                    v = (next_bag & ~bag).bit_length() - 1
                    for key in here:
                        assert _introduce_successors(key, v, next_bag, inst) == (
                            introduce_by_definition(key, v, next_bag, inst)
                        )
                        checked += 1
        assert checked > 1000

    def test_introduce_matches_the_definition_on_hand_made_keys(self):
        # tails in base order that may hold vertices above v, which a
        # width-optimal decomposition never introduces before v
        rng = random.Random(28)
        above_first = 0
        for _ in range(600):
            n = rng.randint(2, 8)
            inst = random_cost_instance(n, rng, rng.random())
            v = rng.randrange(n)
            perm = random_linear_extension(inst.base, rng).perm
            order = tuple(u for u in perm if u != v and rng.random() < 0.6)
            tail = sum(1 << u for u in order)
            others = [u for u in range(n) if u != v and not tail >> u & 1]
            next_bag = tail | 1 << v | sum(1 << u for u in others if rng.random() < 0.5)
            key = (tail, order)
            assert _introduce_successors(key, v, next_bag, inst) == (
                introduce_by_definition(key, v, next_bag, inst)
            )
            above_first += bool(order) and inst.base.rows[v] >> order[0] & 1
        assert above_first > 30

    def test_tail_bound_counts_ordered_subsets_of_a_bag(self):
        # at delta 0 the bound is exact: a bag of w + 1 vertices has
        # sum_k (w + 1)! / k! ordered subsets, 5 for two vertices
        for w in range(8):
            ordered = sum(math.factorial(w + 1) // math.factorial(k) for k in range(w + 2))
            assert tail_bound(0, w) == ordered
        assert tail_bound(2, 1) == 16  # e * 3 * 2! = 16.3


class TestInitialTriples:
    def test_single_vertex_bag(self):
        inst = CostInstance(2, ((0, 2), (3, 0)), PartialOrder.antichain(2))
        assert first_bag_states(inst, 0b01) == {((0b01, (0,)), 0)}

    def test_incomparable_pair_both_orders(self):
        inst = CostInstance(2, ((0, 2), (3, 0)), PartialOrder.antichain(2))
        states = first_bag_states(inst, 0b11)
        assert states == {((0b11, (0, 1)), 2), ((0b11, (1, 0)), 3)}

    def test_forced_pair_single_extension_zero_cost(self):
        inst = CostInstance(2, ((0, 9), (9, 0)), PartialOrder.from_pairs(2, [(0, 1)]))
        assert first_bag_states(inst, 0b11) == {((0b11, (0, 1)), 0)}


class TestBelowMasks:
    # a pair of solutions gains the XOR popcount of its moves' below masks

    def test_same_relative_position_adds_nothing(self):
        # v=2 inserted before u=1 in both solutions: equal masks
        assert _below((0b010, (1,)), 2, 0b110, (2, 1)) == 0

    def test_opposite_sides_adds_one(self):
        # tails were (u,); v goes before u in one solution, after in the other
        before = _below((0b010, (1,)), 2, 0b110, (2, 1))
        after = _below((0b010, (1,)), 2, 0b110, (1, 2))
        assert (before, after) == (0, 0b010)
        assert (before ^ after).bit_count() == 1

    def test_committed_vertex_counts(self):
        # u=0 committed (not in the tail) is below v
        assert _below((0, ()), 2, 0b101, (2,)) == 0b001

    def test_committed_versus_tail_disagreement(self):
        # u=0 committed in solution i (below v) but above v in solution j
        committed = _below((0, ()), 2, 0b101, (2,))
        above = _below((0b001, (0,)), 2, 0b101, (2, 0))
        assert (committed ^ above).bit_count() == 1

    def test_below_is_committed_plus_tail_before_slot(self):
        # bag {0, 1, 3} with 0 committed and tail (1, 3); v=2 takes each slot
        moves = _introduce_successors((0b1010, (1, 3)), 2, 0b1111, _zero_instance(4))
        assert [(k[1], below) for k, _, below in moves] == [
            ((2, 1, 3), 0b0001),
            ((1, 2, 3), 0b0011),
            ((1, 3, 2), 0b1011),
        ]

    def test_forget_moves_carry_no_below(self):
        inst, dec = _two_vertex_setup()
        moves = forward_tables(inst, dec)
        for p in (2, 3):  # the two forgets
            assert {below for succ in moves[p].values() for _, _, below in succ} == {0}


def _two_vertex_setup():
    # padded to empty bags at both ends; placing 1 before 0 costs 4, after 1
    base = PartialOrder.antichain(2)
    inst = CostInstance(2, ((0, 1), (4, 0)), base)
    dec = PathDecomposition(2, (0, 0b01, 0b11, 0b10, 0))
    return inst, dec


def _pair_index(r):
    return {pair: k for k, pair in enumerate(itertools.combinations(range(r), 2))}


def _successors(slots, inst, dec, cost_bound=99):
    # the transition 1 -> 2 introduces vertex 1 next to the tail (0,)
    moves = forward_tables(inst, dec)
    to_go = backward_tables(moves)[2]
    return list(tuple_successors(
        slots, moves=moves[1], to_go=to_go, cost_bound=cost_bound,
        pair_index=_pair_index(len(slots)), succ_cache={},
    ))


class TestTupleSuccessors:
    def test_r1_matches_introduce_successors(self):
        inst, dec = _two_vertex_setup()
        key = (0b01, (0,))
        got = _successors(((key, 0),), inst, dec)
        # from cost 0, each successor slot's cost is its move's step
        expected = [(k, step) for k, step, _ in _introduce_successors(key, 1, 0b11, inst)]
        assert [slots[0] for slots, _, _, _ in got] == expected
        assert all(tuple(rest) == ((0,), 0, ()) for _, *rest in got)

    def test_r2_product_with_registers(self):
        # vertex 1 before 0 (cost 4, nothing below it) or after (cost 1,
        # 0 below it): each of the four combinations once, in product
        # order, its slots sorted, its perm mapping them back and its
        # register increments
        inst, dec = _two_vertex_setup()
        slot = ((0b01, (0,)), 0)
        before, after = ((0b11, (1, 0)), 4), ((0b11, (0, 1)), 1)
        assert _successors((slot, slot), inst, dec) == [
            ((before, before), (0, 1), 0, ((0, 0),)),
            ((after, before), (1, 0), 1, ((0, 1),)),
            ((after, before), (0, 1), 1, ((0, 1),)),
            ((after, after), (0, 1), 0, ((0, 0),)),
        ]

    def test_source_pairs_follow_the_perm(self):
        # the third slot's successor sorts first: canonical pair (0, 1) is
        # the original pair (0, 2), (0, 2) is (1, 2) and (1, 2) is (0, 1);
        # only the moves of the first two slots share their below mask
        a, b = (0b11, (0, 1)), (0b11, (1, 0))
        x, y = (0b10, (0,)), (0b10, (1,))
        got = list(tuple_successors(
            ((a, 1), (a, 1), (b, 4)), moves={a: [(y, 0, 1)], b: [(x, 0, 0)]},
            to_go={x: 0, y: 0}, cost_bound=99, pair_index=_pair_index(3),
            succ_cache={},
        ))
        assert got == [(((x, 4), (y, 1), (y, 1)), (2, 0, 1), 2, ((1, 1), (2, 1), (0, 0)))]

    def test_cost_window_prunes_states(self):
        inst, dec = _two_vertex_setup()
        got = _successors((((0b01, (0,)), 0),), inst, dec, cost_bound=1)
        assert [slots[0][1] for slots, _, _, _ in got] == [1]

    def test_window_prunes_from_expensive_start(self):
        # from cost 3 the successors cost 4 and 7 with nothing left to pay
        inst, dec = _two_vertex_setup()
        slots = (((0b01, (0,)), 3),)
        assert _successors(slots, inst, dec, cost_bound=3) == []
        assert [s[0][1] for s, _, _, _ in _successors(slots, inst, dec, cost_bound=4)] == [4]
        assert len(_successors(slots, inst, dec, cost_bound=7)) == 2

    def test_forget_keeps_the_registers(self):
        # the transition 2 -> 3 forgets vertex 0 from either tail: one
        # combination, no increment, the two slots swapped by the sort
        inst, dec = _two_vertex_setup()
        moves = forward_tables(inst, dec)
        slots = (((0b11, (0, 1)), 1), ((0b11, (1, 0)), 4))
        got = list(tuple_successors(
            slots, moves=moves[2], to_go=backward_tables(moves)[3],
            cost_bound=99, pair_index=_pair_index(2), succ_cache={},
        ))
        assert got == [((((0, ()), 4), ((0b10, (1,)), 1)), (1, 0), 0, ((0, 0),))]

    def test_single_moves_with_different_below_gain(self):
        # each solution has one move, but vertex 0 lands below the new vertex
        # 2 in the first and above it in the second
        a, b = (0b011, (0, 1)), (0b011, (1, 0))
        a2, b2 = (0b111, (0, 1, 2)), (0b111, (1, 2, 0))
        moves = {a: [(a2, 0, 0b011)], b: [(b2, 0, 0b010)]}
        got = list(tuple_successors(
            ((a, 0), (b, 0)), moves=moves, to_go={a2: 0, b2: 0}, cost_bound=0,
            pair_index=_pair_index(2), succ_cache={},
        ))
        assert got == [(((a2, 0), (b2, 0)), (0, 1), 1, ((0, 1),))]

    def test_missing_successor_raises(self):
        inst, dec = _two_vertex_setup()
        moves = forward_tables(inst, dec)
        with pytest.raises(InternalError):
            list(tuple_successors(
                (((0b01, (0,)), 0),), moves=moves[1], to_go={},
                cost_bound=99, pair_index={}, succ_cache={},
            ))

    def test_key_missing_from_moves_raises(self):
        inst, dec = _two_vertex_setup()
        moves = forward_tables(inst, dec)
        with pytest.raises(InternalError, match="forward moves"):
            list(tuple_successors(
                (((0b10, (1,)), 0),), moves=moves[1],
                to_go=backward_tables(moves)[2],
                cost_bound=99, pair_index={}, succ_cache={},
            ))


def reference_lockstep(moves, to_go, r, cost_bound, d_cap, s_cap):
    """The lockstep with each state expanded on its own: the raw product of
    its slots' allowed moves, registers added pair by pair, then the slots
    sorted and the distance registers permuted with them. Each canonical
    state keeps its least parent and that parent's first perm."""
    pairs = list(itertools.combinations(range(r), 2))
    root = DiverseState((((0, ()), 0),) * r, 0, (0,) * len(pairs))
    frontier = {root: (None, None, None)}
    for here, after in zip(moves, to_go[1:]):
        nxt = {}
        for state, link in frontier.items():
            options = [
                [
                    ((k, cost + step), below)
                    for k, step, below in here[key]
                    if cost + step + after[k] <= cost_bound
                ]
                for key, cost in state.slots
            ]
            for combo in itertools.product(*options):
                slots = [slot for slot, _ in combo]
                incs = [(combo[i][1] ^ combo[j][1]).bit_count() for i, j in pairs]
                dist = [min(state.dist[k] + inc, s_cap) for k, inc in enumerate(incs)]
                perm = tuple(sorted(range(r), key=lambda i: slots[i]))
                canon = DiverseState(
                    tuple(slots[i] for i in perm),
                    min(state.div + sum(incs), d_cap),
                    tuple(
                        dist[pairs.index(tuple(sorted((perm[i], perm[j]))))]
                        for i, j in pairs
                    ),
                )
                entry = nxt.get(canon)
                if entry is None or state < entry[0]:
                    nxt[canon] = (state, link, perm)
        frontier = nxt
    return frontier


class TestLockstep:
    @staticmethod
    def _both(inst, r, delta, d_cap, s_cap):
        decomposition = consistent_path_decomposition(inst.base)
        moves = forward_tables(inst, decomposition.decomposition)
        to_go = backward_tables(moves)
        cost_bound = to_go[0][(0, ())] + delta
        got = solver_diverse._lockstep(
            moves, to_go, r, cost_bound=cost_bound, d_cap=d_cap, s_cap=s_cap,
            slot_bound=tail_bound(delta, decomposition.width),
        )
        return got, reference_lockstep(moves, to_go, r, cost_bound, d_cap, s_cap)

    def test_matches_per_state_expansion_on_random_instances(self):
        # same states, same (parent, parent's entry, perm) entries
        rng = random.Random(38)
        for trial in range(80):
            n = rng.randint(2, 5)
            r = rng.randint(1, 4)
            inst = random_cost_instance(n, rng, rng.random() * 0.6, max_cost=2)
            delta = rng.randint(0, 2 if r <= 2 else 1)
            if trial % 2:
                caps = (solver_diverse.diversity_cap(r, n), rng.randint(0, 2))
            else:
                caps = (rng.randint(0, 6), rng.randint(1, 3))
            got, want = self._both(inst, r, delta, *caps)
            assert got == want, (trial, n, r, delta, caps)

    @pytest.mark.parametrize("r", range(1, 9))
    def test_matches_per_state_expansion_on_fifty_fifty(self, r):
        inst = reduce_to_co(fifty_fifty_profile())
        for caps in ((r, 1), (solver_diverse.diversity_cap(r, 5), 0)):
            got, want = self._both(inst, r, 0, *caps)
            assert got == want
        # k copies of one optimum and r - k of the other end in the same
        # slots, told apart by their exact diversities k * (r - k)
        assert sorted(f.div for f in got) == sorted({k * (r - k) for k in range(r + 1)})

    def test_register_caps_saturate(self):
        # two solutions of two free vertices differ by at most 1
        inst, dec = _two_vertex_setup()
        moves = forward_tables(inst, dec)
        to_go = backward_tables(moves)
        final = {}
        for caps in ((9, 9), (0, 0)):
            frontier = solver_diverse._lockstep(
                moves, to_go, 2, cost_bound=99, d_cap=caps[0], s_cap=caps[1],
                slot_bound=tail_bound(3, 1),
            )
            final[caps] = sorted((f.div, f.dist, tuple(c for _, c in f.slots)) for f in frontier)
        assert final[9, 9] == [(0, (0,), (1, 1)), (0, (0,), (4, 4)), (1, (1,), (1, 4))]
        assert final[0, 0] == [(0, (0,), (1, 1)), (0, (0,), (1, 4)), (0, (0,), (4, 4))]


def _count_vectors(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _count_vectors(total - first, parts - 1):
            yield (first,) + rest


def test_diversity_cap_is_the_brute_force_maximum():
    # every multiset of r rankings of n <= 3 candidates, as counts per
    # ranking: its diversity sums the distance of every pair of its members
    for n in (1, 2, 3):
        rankings = [LinearOrder(p) for p in itertools.permutations(range(n))]
        weighted = [
            (a, b, kt_distance(rankings[a], rankings[b]))
            for a, b in itertools.combinations(range(len(rankings)), 2)
        ]
        for r in range(1, 21):
            best = max(
                sum(c[a] * c[b] * kt for a, b, kt in weighted)
                for c in _count_vectors(r, len(rankings))
            )
            assert solver_diverse.diversity_cap(r, n) == best, (n, r)


class TestBackwardTables:
    def test_two_vertex_costs_to_go(self):
        inst, dec = _two_vertex_setup()
        to_go = backward_tables(forward_tables(inst, dec))
        assert to_go[0] == {(0, ()): 1}
        assert to_go[1] == {(0b01, (0,)): 1}
        assert to_go[2] == {(0b11, (0, 1)): 0, (0b11, (1, 0)): 0}
        assert to_go[4] == {(0, ()): 0}

    def test_window_sums_on_random_instances(self):
        rng = random.Random(36)
        for _ in range(25):
            inst = random_cost_instance(rng.randint(1, 6), rng, 0.5, max_cost=4)
            opt, _ = oracle_optimum(inst)
            decomposition = consistent_path_decomposition(inst.base)
            dec = decomposition.decomposition
            moves = forward_tables(inst, dec)
            reach = least_costs(moves)
            to_go = backward_tables(moves)
            assert [m.keys() for m in moves] == [t.keys() for t in reach[:-1]]
            assert to_go[0][(0, ())] == opt
            for forward, rest in zip(reach, to_go):
                assert forward.keys() == rest.keys()
                sums = [forward[key] + rest[key] for key in forward]
                assert min(sums) == opt
                assert all(total >= opt for total in sums)

    def test_key_without_completion_raises(self):
        # the keys at 2 lead to keys that have no entry at 3
        inst, dec = _two_vertex_setup()
        moves = forward_tables(inst, dec)
        moves[3] = {}
        with pytest.raises(InternalError):
            backward_tables(moves)

    def test_key_without_moves_raises(self):
        inst, dec = _two_vertex_setup()
        moves = forward_tables(inst, dec)
        moves[2] = dict.fromkeys(moves[2], [])
        with pytest.raises(InternalError):
            backward_tables(moves)


class TestDeadline:
    def test_sweeps_check_the_deadline_per_key(self, monkeypatch):
        # one position of a wide decomposition holds many keys, so a check per
        # position alone can run long past the deadline
        calls = []
        monkeypatch.setattr(solver_diverse, "check_deadline", calls.append)
        inst = random_cost_instance(8, random.Random(37), 0.2)
        dec = consistent_path_decomposition(inst.base).decomposition
        moves = forward_tables(inst, dec, deadline=1e9)
        keys = sum(len(here) for here in moves)
        assert max(len(here) for here in moves) > 1
        assert len(calls) >= keys
        calls.clear()
        backward_tables(moves, deadline=1e9)
        assert len(calls) >= keys
        assert set(calls) == {1e9}


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

    def test_pairwise_floor_matches_oracle(self):
        # s >= 1 drops every selection with a pair closer than s, and can
        # leave none
        rng = random.Random(34)
        infeasible = 0
        for _ in range(60):
            n = rng.randint(2, 5)
            r = rng.randint(2, 3 if n <= 4 else 2)
            delta, s = rng.randint(0, 2), rng.randint(1, 4)
            inst = random_cost_instance(n, rng, rng.random(), max_cost=3)
            query = DiverseQuery(r=r, delta=delta, s=s, mode="max-diversity")
            out = solve_diverse(inst, query)
            ora = oracle_diverse(inst, r, delta, 0, s, maximize=True)
            assert (out.feasible, out.diversity) == (ora.feasible, ora.diversity)
            infeasible += not ora.feasible
        assert 0 < infeasible < 60


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
        # the tail of any oracle optimum at any position is a reachable key
        # whose least cost to reach is the projected partial cost, and whose
        # cost to go is the optimum less that
        rng = random.Random(24)
        for _ in range(25):
            inst = random_cost_instance(rng.randint(2, 6), rng, rng.random())
            cpd = consistent_path_decomposition(inst.base)
            dec = cpd.decomposition
            moves = forward_tables(inst, dec)
            reach, to_go = least_costs(moves), backward_tables(moves)
            opt, winners = oracle_optimum(inst)
            charge = inst.cost
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
                    assert key in to_go[p]
                    assert reach[p][key] == cost
                    assert to_go[p][key] == opt - cost


def bits(mask):
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out
