"""Cocomparability graphs, the ideal lattice, and consistent decompositions."""

import itertools
import random
import time

import pytest

from kemeny.errors import CapabilityError
from kemeny.instances import random_partial_order
from kemeny.orders import LinearOrder, PartialOrder, unanimity_order
from kemeny.instances import five_type_profile
from kemeny.oracle import enumerate_extensions
from kemeny.width import (
    PathDecomposition,
    cocomparability_graph,
    consistent_path_decomposition,
    ideal_lattice,
    ideal_widths,
    nice_decomposition,
    width_optimal_extension,
)

from graph_oracles import exact_pathwidth, has_long_induced_cycle


def chain(n):
    return PartialOrder.from_pairs(n, [(i, i + 1) for i in range(n - 1)])


def graph_from_edges(n, edges):
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return tuple(adj)


def has_edge(g, u, v):
    return bool(g[u] >> v & 1)


def edge_count(g):
    return sum(row.bit_count() for row in g) // 2


def cycle_graph(n):
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n):
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n):
    return graph_from_edges(
        n, [(i, j) for i in range(n) for j in range(i + 1, n)]
    )


def has_induced_four_cycle(g):
    """Two non-adjacent vertices with two non-adjacent common neighbours.
    A cocomparability graph has no longer induced cycle, so for it this is
    exactly a failure of chordality."""
    for u, v in itertools.combinations(range(len(g)), 2):
        if has_edge(g, u, v):
            continue
        common = [w for w in range(len(g)) if has_edge(g, u, w) and has_edge(g, v, w)]
        if any(not has_edge(g, a, b) for a, b in itertools.combinations(common, 2)):
            return True
    return False


def layout_of(order):
    return cocomparability_graph(order), width_optimal_extension(order, ideal_lattice(order))


FIVE_TYPE_UNANIMITY = unanimity_order(five_type_profile())


class TestCocomparability:
    def test_linear_order_gives_edgeless_graph(self):
        g = cocomparability_graph(chain(5))
        assert edge_count(g) == 0

    def test_antichain_gives_complete_graph(self):
        g = cocomparability_graph(PartialOrder.antichain(4))
        assert edge_count(g) == 6

    def test_five_type_unanimity_graph(self):
        g = cocomparability_graph(FIVE_TYPE_UNANIMITY)
        assert len(g) == 5
        assert edge_count(g) == 8
        assert not has_edge(g, 0, 4) and not has_edge(g, 1, 4)


class TestExactPathwidth:
    def test_edgeless_graph_has_pathwidth_zero(self):
        assert exact_pathwidth((0, 0, 0, 0)) == 0

    def test_complete_graph(self):
        assert exact_pathwidth(complete_graph(5)) == 4

    def test_path_graph(self):
        assert exact_pathwidth(path_graph(5)) == 1

    def test_cycle_graph(self):
        assert exact_pathwidth(cycle_graph(5)) == 2

    def test_cap_enforced(self):
        with pytest.raises(CapabilityError):
            exact_pathwidth((0,) * 13)

    def test_layout_decomposition_achieves_optimum(self):
        rng = random.Random(11)
        for _ in range(40):
            order = random_partial_order(rng.randint(2, 8), rng, rng.random())
            g, layout = layout_of(order)
            assert LinearOrder(tuple(layout)).extends(order)
            pw = exact_pathwidth(g)
            dec = nice_decomposition(order, layout)
            assert dec.validate(order) == []
            assert dec.width == pw


class TestNiceDecomposition:
    def test_forgets_precede_each_introduce(self):
        # 0 < 2 alone, so the graph is the path 0 - 1 - 2: vertex 0 has no
        # neighbour left once 1 is placed, so it goes before 2 comes in;
        # 1 and 2 go at the end, ascending
        dec = nice_decomposition(PartialOrder.from_pairs(3, [(0, 2)]), [0, 1, 2])
        assert dec.bags == (0, 0b001, 0b011, 0b010, 0b110, 0b100, 0)

    def test_single_vertex(self):
        assert nice_decomposition(chain(1), [0]).bags == (0, 0b1, 0)

    def test_random_decompositions_stay_valid_same_width(self):
        rng = random.Random(15)
        for _ in range(40):
            order = random_partial_order(rng.randint(2, 8), rng, rng.random())
            g, layout = layout_of(order)
            dec = nice_decomposition(order, layout)
            assert dec.is_nice
            assert dec.bags[0] == 0 and dec.bags[-1] == 0
            assert dec.validate(order) == []  # consistency included
            assert dec.width == exact_pathwidth(g)


class TestLongInducedCycle:
    def test_five_cycle_detected(self):
        assert has_long_induced_cycle(cycle_graph(5))

    def test_six_cycle_detected(self):
        assert has_long_induced_cycle(cycle_graph(6))

    def test_complete_graphs_are_free(self):
        assert not has_long_induced_cycle(complete_graph(6))

    def test_four_cycle_is_short(self):
        assert not has_long_induced_cycle(cycle_graph(4))

    def test_cap_enforced(self):
        with pytest.raises(CapabilityError):
            has_long_induced_cycle((0,) * 14)

    def test_cocomparability_graphs_are_free(self):
        rng = random.Random(16)
        for _ in range(60):
            order = random_partial_order(rng.randint(2, 9), rng, rng.random())
            assert not has_long_induced_cycle(cocomparability_graph(order))


class TestConsistentDecomposition:
    def test_linear_order_clique_bags(self):
        # every bag of a chain is a single vertex, in chain order
        cpd = consistent_path_decomposition(chain(4))
        assert cpd.width == 0
        assert [b for b in cpd.decomposition.bags if b] == [0b0001, 0b0010, 0b0100, 0b1000]

    def test_antichain_single_bag(self):
        # the one maximal clique of an antichain fills a single bag
        cpd = consistent_path_decomposition(PartialOrder.antichain(4))
        assert cpd.width == 3
        assert cpd.decomposition.bags.count(0b1111) == 1

    def test_five_type_unanimity_decomposition(self):
        cpd = consistent_path_decomposition(FIVE_TYPE_UNANIMITY)
        assert cpd.validate() == []
        pw = exact_pathwidth(cocomparability_graph(FIVE_TYPE_UNANIMITY))
        assert cpd.width == pw == 3

    def test_random_orders_validate_and_match_exact_width(self):
        rng = random.Random(17)
        for _ in range(60):
            order = random_partial_order(rng.randint(2, 9), rng, rng.random())
            cpd = consistent_path_decomposition(order)
            assert cpd.decomposition.is_nice
            assert cpd.validate() == []
            pw = exact_pathwidth(cocomparability_graph(order))
            assert cpd.width >= pw
            assert cpd.width == pw

    def test_non_chordal_orders_beyond_twelve_match_exact_width(self):
        # the decomposition is width-optimal at every size, also where the
        # cocomparability graph needs fill to become an interval graph
        rng = random.Random(19)
        checked = 0
        while checked < 12:
            order = random_partial_order(rng.randint(13, 14), rng, 0.45)
            g = cocomparability_graph(order)
            if not has_induced_four_cycle(g):
                continue
            checked += 1
            cpd = consistent_path_decomposition(order)
            assert cpd.validate() == []
            assert cpd.width == exact_pathwidth(g, cap=14)

    def test_width_pass_checks_the_deadline(self):
        order = PartialOrder.antichain(6)
        lattice = ideal_lattice(order)
        with pytest.raises(CapabilityError):
            ideal_widths(order, lattice, time.monotonic() - 1)

    def test_consistency_violation_detected(self):
        # forget element 1 before introducing element 0 although 0 < 1
        order = chain(2)
        dec = PathDecomposition(2, (0b10, 0b01))
        assert dec.validate(order) == [
            "element 1 is forgotten before smaller element 0 is introduced"
        ]
        assert PathDecomposition(2, (0b01, 0b10)).validate(order) == []

    def test_element_in_no_bag_enters_and_leaves_at_minus_one(self):
        # of 0 < 1 < 2, vertex 1 is in no bag: 1 leaves (-1) before 0 enters
        # (0), but 2 leaves (1) after 1 enters (-1), so only (0, 1) fails
        dec = PathDecomposition(3, (0b001, 0b100))
        assert dec.validate(chain(3)) == [
            "bags do not cover every vertex",
            "element 1 is forgotten before smaller element 0 is introduced",
        ]


def problems_by_axioms(dec, g, order):
    """``validate``, read naively off the axioms and the consistency rule:
    bag by bag, vertex by vertex and pair by pair."""
    n, bags = dec.n, dec.bags
    problems = [
        "bag mentions vertices outside 0..n-1"
        for bag in bags
        if any(bag >> v & 1 for v in range(n, bag.bit_length()))
    ]
    hits = [[i for i, bag in enumerate(bags) if bag >> v & 1] for v in range(n)]
    if not all(hits):
        problems.append("bags do not cover every vertex")
    for u, v in itertools.combinations(range(n), 2):
        if has_edge(g, u, v) and not set(hits[u]) & set(hits[v]):
            problems.append(f"edge ({u},{v}) not covered by any bag")
    for v in range(n):
        if hits[v] and hits[v] != list(range(hits[v][0], hits[v][-1] + 1)):
            problems.append(f"bags containing {v} are not consecutive")
    for x, y in itertools.product(range(n), repeat=2):
        if x != y and order.rows[x] >> y & 1:
            if max(hits[y], default=-1) < min(hits[x], default=-1):
                problems.append(
                    f"element {y} is forgotten before smaller element {x} is introduced"
                )
    return problems


class TestDecompositionChecks:
    KINDS = ("outside", "do not cover", "not covered", "not consecutive", "forgotten")

    def test_out_of_range_bag_still_covers(self):
        # bit 2 lies outside 0..1, but bits 0 and 1 cover both vertices
        dec = PathDecomposition(2, (0b111,))
        assert dec.validate(chain(2)) == ["bag mentions vertices outside 0..n-1"]

    def test_random_bag_sequences_match_the_axioms(self):
        # each vertex held over a run of bags, with gaps, missing vertices,
        # empty bags and bits past n thrown in
        rng = random.Random(27)
        kinds = set()
        for _ in range(1500):
            n = rng.randint(1, 9)
            order = random_partial_order(n, rng, rng.random())
            bags = [0] * rng.randint(1, 12)
            for v in range(n):
                if rng.random() < 0.9:
                    a = rng.randrange(len(bags))
                    for i in range(a, rng.randint(a, len(bags) - 1) + 1):
                        bags[i] |= 1 << v
                if rng.random() < 0.1:
                    bags[rng.randrange(len(bags))] ^= 1 << v
            if rng.random() < 0.1:
                bags[rng.randrange(len(bags))] |= 1 << rng.randint(n, n + 3)
            if rng.random() < 0.2:
                bags.insert(rng.randrange(len(bags) + 1), 0)
            dec = PathDecomposition(n, tuple(bags))
            g = cocomparability_graph(order)
            found = dec.validate(order)
            assert found == problems_by_axioms(dec, g, order)
            kinds.update(kind for kind in self.KINDS for problem in found if kind in problem)
            kinds.add("invalid" if found else "valid")
        assert kinds == {*self.KINDS, "invalid", "valid"}


class TestLatticeWidth:
    """The single solver reads the width off the lattice as w[empty] and
    bounds the ideals by n * 2^w + 1, with no decomposition built."""

    @staticmethod
    def width_and_ideals(order):
        lattice = ideal_lattice(order)
        width = ideal_widths(order, lattice)[0]
        return width, len(lattice) + 1

    def test_random_orders_match_the_decomposition_and_the_bound(self):
        rng = random.Random(23)
        tight = 0
        for _ in range(150):
            n = rng.randint(1, 13)
            order = random_partial_order(n, rng, rng.random())
            width, ideals = self.width_and_ideals(order)
            assert width == consistent_path_decomposition(order).width
            assert ideals <= n * 2**width + 1
            tight += ideals == n * 2**width + 1
        assert tight > 0

    @pytest.mark.parametrize("order", [chain(1), chain(7)], ids=["one", "chain7"])
    def test_bound_is_exact_on_chains(self, order):
        assert self.width_and_ideals(order) == (0, order.n + 1)


class TestIdealLattice:
    """``ideal_lattice`` against brute force over all subsets: the keys are
    the downsets but the full set, inserted in nondecreasing size (both
    backward passes rely on it), each mapped to the vertices it can add in
    ascending order."""

    @staticmethod
    def assert_contract(order):
        n = order.n
        full = (1 << n) - 1
        downsets = {
            s
            for s in range(full + 1)
            if all(s >> y & 1 for x in range(n) if s >> x & 1 for y in range(n) if order.leq(y, x))
        }
        lattice = ideal_lattice(order)
        assert set(lattice) == downsets - {full}
        sizes = [ideal.bit_count() for ideal in lattice]
        assert sizes == sorted(sizes)
        for ideal, moves in lattice.items():
            assert moves == [
                v for v in range(n) if not ideal >> v & 1 and ideal | 1 << v in downsets
            ]

    def test_random_orders(self):
        rng = random.Random(26)
        for _ in range(60):
            self.assert_contract(random_partial_order(rng.randint(1, 10), rng, rng.random()))

    def test_random_orders_up_to_twelve(self):
        # sparse, so that most have hundreds to thousands of ideals
        rng = random.Random(28)
        for _ in range(30):
            order = random_partial_order(rng.randint(11, 12), rng, rng.uniform(0, 0.4))
            self.assert_contract(order)

    @pytest.mark.parametrize(
        "order", [PartialOrder.antichain(10), chain(10)], ids=["antichain10", "chain10"]
    )
    def test_extremes(self, order):
        self.assert_contract(order)

    def test_vertex_freed_by_its_last_lower_cover(self):
        # 0 < 2 and 1 < 2: placing 0 or 1 alone frees nothing, placing the
        # other one too frees 2
        order = PartialOrder.from_pairs(3, [(0, 2), (1, 2)])
        assert ideal_lattice(order) == {0b000: [0, 1], 0b001: [1], 0b010: [0], 0b011: [2]}
        self.assert_contract(order)

    def test_strict_upper_element_that_is_no_cover(self):
        # in 0 < 1 < 2, 2 is above 0 but freed by 1 only
        assert ideal_lattice(chain(3)) == {0b000: [0], 0b001: [1], 0b011: [2]}
        self.assert_contract(chain(3))

    def test_past_deadline_aborts(self):
        with pytest.raises(CapabilityError):
            ideal_lattice(PartialOrder.antichain(6), time.monotonic() - 1)


class TestBadTripleProperty:
    def test_no_bad_triple_under_any_extension(self):
        # with vertices laid out by any linear extension, two comparabilities
        # x-y and y-z always force the comparability x-z
        rng = random.Random(18)
        for _ in range(20):
            order = random_partial_order(rng.randint(2, 6), rng, rng.random())
            for ext in enumerate_extensions(order):
                perm = ext.perm
                for i in range(len(perm)):
                    for j in range(i + 1, len(perm)):
                        for k in range(j + 1, len(perm)):
                            x, y, z = perm[i], perm[j], perm[k]
                            if not (
                                order.incomparable_to(y) >> x & 1
                                or order.incomparable_to(y) >> z & 1
                            ):
                                assert not order.incomparable_to(x) >> z & 1
