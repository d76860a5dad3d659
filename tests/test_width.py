"""Cocomparability graphs, triangulation, and consistent decompositions."""

import random

import pytest

from kemeny.errors import CapabilityError, InputError
from kemeny.instances import random_partial_order
from kemeny.orders import PartialOrder, unanimity_order
from kemeny.instances import five_type_profile
from kemeny.oracle import enumerate_extensions
from kemeny.width import (
    Graph,
    PathDecomposition,
    clique_path_decomposition,
    cocomparability_graph,
    consistent_path_decomposition,
    decomposition_from_layout,
    exact_pathwidth,
    has_long_induced_cycle,
    interval_order_from_fill,
    is_chordal,
    is_interval_graph,
    is_interval_order,
    make_nice,
    minimal_triangulation,
    optimal_path_layout,
    pad_with_forgets,
)


def chain(n):
    return PartialOrder.from_pairs(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n):
    return Graph.from_edges(
        n, [(i, j) for i in range(n) for j in range(i + 1, n)]
    )


def fill_edges(g, h):
    return [e for e in h.edges() if e not in set(g.edges())]


FIVE_TYPE_UNANIMITY = unanimity_order(five_type_profile())


class TestCocomparability:
    def test_linear_order_gives_edgeless_graph(self):
        g = cocomparability_graph(chain(5))
        assert g.edge_count == 0

    def test_antichain_gives_complete_graph(self):
        g = cocomparability_graph(PartialOrder.antichain(4))
        assert g.edge_count == 6

    def test_five_type_unanimity_graph(self):
        g = cocomparability_graph(FIVE_TYPE_UNANIMITY)
        assert g.n == 5
        assert g.edge_count == 8
        assert not g.has_edge(0, 4) and not g.has_edge(1, 4)


class TestExactPathwidth:
    def test_edgeless_graph_has_pathwidth_zero(self):
        assert exact_pathwidth(Graph(4, (0, 0, 0, 0))) == 0

    def test_complete_graph(self):
        assert exact_pathwidth(complete_graph(5)) == 4

    def test_path_graph(self):
        assert exact_pathwidth(path_graph(5)) == 1

    def test_cycle_graph(self):
        assert exact_pathwidth(cycle_graph(5)) == 2

    def test_cap_enforced(self):
        with pytest.raises(CapabilityError):
            exact_pathwidth(Graph(13, (0,) * 13))

    def test_layout_decomposition_achieves_optimum(self):
        rng = random.Random(11)
        for _ in range(40):
            order = random_partial_order(rng.randint(2, 8), rng, rng.random())
            g = cocomparability_graph(order)
            pw = exact_pathwidth(g)
            dec = decomposition_from_layout(g, optimal_path_layout(g))
            assert dec.validate(g) == []
            assert dec.width == pw


class TestMinimalTriangulation:
    def test_chordal_input_unchanged(self):
        g = path_graph(5)
        assert minimal_triangulation(g).adj == g.adj

    def test_four_cycle_gets_one_chord(self):
        g = cycle_graph(4)
        h = minimal_triangulation(g)
        assert is_chordal(h)
        assert len(fill_edges(g, h)) == 1

    def test_fill_is_inclusion_minimal(self):
        rng = random.Random(12)
        for _ in range(30):
            order = random_partial_order(rng.randint(3, 8), rng, rng.random())
            g = cocomparability_graph(order)
            h = minimal_triangulation(g)
            assert is_chordal(h)
            for u, v in fill_edges(g, h):
                adj = list(h.adj)
                adj[u] &= ~(1 << v)
                adj[v] &= ~(1 << u)
                assert not is_chordal(Graph(h.n, tuple(adj)))

    def test_cocomparability_triangulation_is_interval(self):
        rng = random.Random(13)
        for _ in range(30):
            order = random_partial_order(rng.randint(2, 8), rng, rng.random())
            h = minimal_triangulation(cocomparability_graph(order))
            assert is_interval_graph(h)

    def test_elimination_route_beyond_exact_cap(self):
        # above 12 vertices the minimal-fill elimination takes over; the fill
        # must still be inclusion-minimal and the decomposition valid
        rng = random.Random(19)
        seen_nonchordal = 0
        while seen_nonchordal < 5:
            order = random_partial_order(rng.randint(13, 16), rng, 0.65)
            g = cocomparability_graph(order)
            if is_chordal(g):
                continue
            seen_nonchordal += 1
            h = minimal_triangulation(g)
            assert is_chordal(h)
            for u, v in fill_edges(g, h):
                adj = list(h.adj)
                adj[u] &= ~(1 << v)
                adj[v] &= ~(1 << u)
                assert not is_chordal(Graph(h.n, tuple(adj)))
            cpd = consistent_path_decomposition(order)
            assert cpd.validate() == []


class TestIntervalOrderFromFill:
    def test_zero_fill_keeps_order(self):
        order = chain(4)
        g = cocomparability_graph(order)
        assert interval_order_from_fill(order, g).rows == order.rows

    def test_antichain_has_nothing_to_remove(self):
        order = PartialOrder.antichain(4)
        h = minimal_triangulation(cocomparability_graph(order))
        assert interval_order_from_fill(order, h).rows == order.rows

    def test_result_is_contained_transitive_interval_order(self):
        rng = random.Random(14)
        for _ in range(40):
            order = random_partial_order(rng.randint(2, 8), rng, rng.random())
            h = minimal_triangulation(cocomparability_graph(order))
            iota = interval_order_from_fill(order, h)
            assert order.contains(iota)
            assert is_interval_order(iota)

    def test_rejects_non_triangulation(self):
        bogus = Graph.from_edges(3, [(0, 1)])  # misses two edges of K3
        with pytest.raises(InputError):
            interval_order_from_fill(PartialOrder.antichain(3), bogus)
        with pytest.raises(InputError):
            interval_order_from_fill(chain(4), cycle_graph(4))  # not chordal


class TestMakeNice:
    def test_already_nice_untouched_modulo_duplicates(self):
        dec = PathDecomposition(3, (0b001, 0b011, 0b011, 0b010, 0b110))
        nice = make_nice(dec)
        assert nice.bags == (0b001, 0b011, 0b010, 0b110)
        assert nice.is_nice

    def test_forget_then_introduce(self):
        dec = PathDecomposition(3, (0b011, 0b110))  # {a,b}, {b,c}
        nice = make_nice(dec)
        assert nice.bags == (0b011, 0b010, 0b110)

    def test_random_decompositions_stay_valid_same_width(self):
        rng = random.Random(15)
        for _ in range(40):
            order = random_partial_order(rng.randint(2, 8), rng, rng.random())
            g = cocomparability_graph(order)
            raw, _, _ = clique_path_decomposition(order)
            nice = make_nice(raw)
            assert nice.is_nice
            assert nice.width == raw.width
            assert nice.validate(g) == []
            padded = pad_with_forgets(nice)
            assert padded.is_nice
            assert padded.bags[-1] == 0


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
            has_long_induced_cycle(Graph(14, (0,) * 14))

    def test_cocomparability_graphs_are_free(self):
        rng = random.Random(16)
        for _ in range(60):
            order = random_partial_order(rng.randint(2, 9), rng, rng.random())
            assert not has_long_induced_cycle(cocomparability_graph(order))


class TestConsistentDecomposition:
    def test_linear_order_clique_bags(self):
        raw, iota, _ = clique_path_decomposition(chain(4))
        assert raw.bags == (0b0001, 0b0010, 0b0100, 0b1000)
        assert raw.width == 0
        assert iota.rows == chain(4).rows

    def test_antichain_single_bag(self):
        raw, _, _ = clique_path_decomposition(PartialOrder.antichain(4))
        assert raw.bags == (0b1111,)
        assert raw.width == 3

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
            # the exact-search route is width-optimal at this scale
            assert cpd.width == pw

    def test_consistency_violation_detected(self):
        # forget element 1 before introducing element 0 although 0 < 1
        order = chain(2)
        dec = PathDecomposition(2, (0b10, 0b01))
        assert dec.consistency_violations(order)
        assert not PathDecomposition(2, (0b01, 0b10)).consistency_violations(order)


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
                            if (
                                not order.incomparable(x, y)
                                and not order.incomparable(y, z)
                            ):
                                assert not order.incomparable(x, z)
