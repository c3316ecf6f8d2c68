"""Forest counting and enumeration against the deletion-contraction oracle."""

import inspect
import sys
import time
import tracemalloc

import pytest

from forestgraph import (BudgetError, ForestGraph, Graph, GraphInputError,
                         MaximalForest, brute_force_maximal_forests,
                         bridges, build_forest_graph, cartesian_product,
                         complete_graph, components,
                         count_maximal_forests, cycle_graph,
                         enumerate_graphs, exchange_path, extend_to_maximal,
                         maximal_forests, path_graph)
from forestgraph import forests
from forestgraph.forests import _det_bareiss

from .oracles import cyclomatic_number, dc_spanning_trees

BOWTIE = Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
TWO_TRIANGLES = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])

# confirmed independently by deletion-contraction and a symbolic determinant
ROOK_3_3_FOREST_COUNT = 11664
F_K4_FOREST_COUNT = 223304744960


def small_corpus(max_n=5):
    out = []
    for n in range(1, max_n + 1):
        out.extend(enumerate_graphs(n))
    return out


class TestCount:
    def test_cayley(self):
        for n in range(2, 9):
            assert count_maximal_forests(complete_graph(n)) == n ** (n - 2)

    def test_forest_counts_one(self):
        assert count_maximal_forests(path_graph(5)) == 1
        assert count_maximal_forests(Graph(4, [])) == 1

    def test_k5(self):
        assert count_maximal_forests(complete_graph(5)) == 125

    def test_cycle_blocks_agree_with_the_determinant(self):
        for n in range(3, 41):
            # the Laplacian of C_n without vertex 0
            cofactor = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n - 1)]
                        for i in range(n - 1)]
            assert count_maximal_forests(cycle_graph(n)) == _det_bareiss(cofactor) == n
        # a C_5 and a K_4 block sharing vertex 4: one count by each path
        g = Graph(8, [(i, (i + 1) % 5) for i in range(5)]
                  + [(u, v) for u in (4, 5, 6, 7) for v in (4, 5, 6, 7) if u < v])
        assert count_maximal_forests(g) == 5 * 16

    def test_k5_minus_edge(self):
        g = Graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)
                      if (u, v) != (3, 4)])
        assert count_maximal_forests(g) == 75

    def test_rook_graph_frozen_constant(self):
        rook = cartesian_product(cycle_graph(3), cycle_graph(3))
        assert count_maximal_forests(rook) == ROOK_3_3_FOREST_COUNT

    def test_disconnected_product(self):
        assert count_maximal_forests(TWO_TRIANGLES) == 9
        assert count_maximal_forests(BOWTIE) == 9

    def test_against_deletion_contraction(self):
        for g in small_corpus(5):
            comps = components(g)
            want = 1
            for comp in comps:
                sub_edges = [(u, v) for u, v in g.edges if u in set(comp)]
                relabel = {v: i for i, v in enumerate(comp)}
                want *= dc_spanning_trees(len(comp),
                                          [(relabel[u], relabel[v])
                                           for u, v in sub_edges])
            assert count_maximal_forests(g) == want, g


class TestEnumeration:
    def test_k3(self):
        family = maximal_forests(complete_graph(3))
        assert len(family) == 3
        assert [f.edge_ids() for f in family] == [(0, 1), (0, 2), (1, 2)]

    def test_k4(self):
        assert len(maximal_forests(complete_graph(4))) == 16

    def test_bowtie(self):
        family = maximal_forests(BOWTIE)
        assert len(family) == 9

    def test_matches_brute_force(self):
        for g in small_corpus(5):
            family = maximal_forests(g)
            brute = brute_force_maximal_forests(g)
            assert [f.bits for f in family] == [f.bits for f in brute], g

    def test_count_matches_enumeration_k6(self):
        assert len(maximal_forests(complete_graph(6))) == 1296

    def test_lexicographic_order(self):
        for g in (complete_graph(4), BOWTIE, cycle_graph(5)):
            ids = [f.edge_ids() for f in maximal_forests(g)]
            assert ids == sorted(ids)
            assert len(set(ids)) == len(ids)

    def test_member_invariants(self):
        for g in small_corpus(5):
            beta = cyclomatic_number(g)
            must_have = sum(1 << i for i in bridges(g))
            for f in maximal_forests(g):
                assert len(f.edge_ids()) == g.vertex_count - len(components(g))
                assert f.bits & must_have == must_have
                # maximality: every non-member edge closes a cycle
                assert (len(g.edges) - len(f.edge_ids())) == beta

    def test_no_nonbridge_in_all_members(self):
        for g in small_corpus(5):
            family = maximal_forests(g)
            if len(family) < 2:
                continue
            shared = family[0].bits
            for f in family:
                shared &= f.bits
            assert shared == sum(1 << i for i in bridges(g))

    def test_cycle_block_trees_drop_one_edge_each(self):
        start = time.perf_counter()
        family = maximal_forests(cycle_graph(400))
        assert time.perf_counter() - start < 1
        full = (1 << 400) - 1
        assert [f.bits for f in family] == [full ^ (1 << i) for i in reversed(range(400))]

    def test_block_enumeration_recurses_no_deeper_than_its_caller(self):
        # C_120 with the chord 0-2: one 121-edge block that is not a cycle
        g = Graph(120, list(cycle_graph(120).edges) + [(0, 2)])
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 50)
        try:
            family = maximal_forests(g)
        finally:
            sys.setrecursionlimit(limit)
        # theta graph with paths of 1, 2 and 118 edges: 1*2 + 2*118 + 118*1
        assert len(family) == 356
        for f in family:
            MaximalForest(g, f.bits)

    def test_long_path_keeps_no_tree_per_bridge(self):
        # a bridge is crossed in as its edge id, not as a one-bit int as wide
        # as its id: those ints would take about 27 MB here
        tracemalloc.start()
        try:
            family = maximal_forests(path_graph(20000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert family[0].bits == (1 << 19999) - 1
        assert peak < 10 * 2**20

    def test_budget_carries_exact_count(self):
        with pytest.raises(BudgetError) as info:
            maximal_forests(complete_graph(6), budget=100)
        assert info.value.count == 1296
        assert info.value.budget == 100

    def test_family_index(self):
        fg = build_forest_graph(complete_graph(4))
        for i, f in enumerate(maximal_forests(complete_graph(4))):
            assert fg.forest_index(f) == i
        other = MaximalForest(complete_graph(4), (0, 1, 2))
        assert fg.forest_index(other) == 0

    def test_family_index_checks_host(self):
        # the same edge ids, so the same bits, but a C_4 forest is another edge set
        on_cycle = MaximalForest(cycle_graph(4), (0, 1, 2))
        with pytest.raises(GraphInputError, match="forest belongs to a different graph"):
            build_forest_graph(complete_graph(4)).forest_index(on_cycle)

    def test_family_index_refuses_a_non_member(self):
        # every maximal forest of g is in its family, so only a family built
        # short can lack one: here the first one and the last
        family = maximal_forests(BOWTIE)
        fg = ForestGraph(BOWTIE, family[1:-1], None)
        for f in (family[0], family[-1]):
            with pytest.raises(GraphInputError, match="forest is not a member of this family"):
                fg.forest_index(f)

    def test_family_is_a_tuple(self):
        family = maximal_forests(BOWTIE)
        assert type(family) is tuple and len(family) == 9
        assert all(type(f) is MaximalForest for f in family)
        assert build_forest_graph(BOWTIE).family == family

    def test_listing_k7_stays_small(self):
        # with a dict from forest bits to index beside the family it peaked at 5.2 MB
        tracemalloc.start()
        try:
            family = maximal_forests(complete_graph(7))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(family) == 16807
        assert peak < 4 * 2**20


class TestMaximalForestType:
    def test_rejects_cycle(self):
        with pytest.raises(GraphInputError):
            MaximalForest(complete_graph(3), (0, 1, 2))

    def test_rejects_wrong_size(self):
        with pytest.raises(GraphInputError):
            MaximalForest(complete_graph(3), (0,))

    def test_accepts_spanning_tree(self):
        f = MaximalForest(complete_graph(3), (0, 1))
        assert f.pairs() == ((0, 1), (0, 2))

    def test_ids_and_bits_roundtrip(self):
        g = complete_graph(4)
        f = MaximalForest(g, [0, 3, 5])
        assert f.edge_ids() == (0, 3, 5) and f.bits == 0b101001
        assert f.pairs() == (g.edges[0], g.edges[3], g.edges[5])
        assert MaximalForest(g, 0b101001) == f == MaximalForest(g, (5, 3, 0))

    def test_long_path_validates_in_linear_time(self):
        g = path_graph(300001)
        start = time.perf_counter()
        f = MaximalForest(g, range(300000))
        assert time.perf_counter() - start < 1
        assert f.bits == (1 << 300000) - 1

    @pytest.mark.parametrize("edges, message", [
        ((0, 1, 2, 3), "not a forest: edge set contains a cycle"),
        ((0, 1, 2, 3, 4), "not a maximal forest: 5 edges, expected 4"),
        ((0, 3), "not a maximal forest: 2 edges, expected 4"),
        ((0, 6), "edge index 6 outside the host edge table"),
    ], ids=["cyclic-rank-many", "cyclic-too-many", "acyclic-too-few", "out-of-range"])
    def test_messages_from_one_union_find_pass(self, monkeypatch, edges, message):
        def refuse(g):
            raise AssertionError("components walk")

        # the rank, 4 here across two components, comes from the same pass
        monkeypatch.setattr(forests, "components", refuse)
        with pytest.raises(GraphInputError, match=f"^{message}$"):
            MaximalForest(TWO_TRIANGLES, edges)

    def test_ids_range_checked(self):
        g = complete_graph(3)
        for build in (MaximalForest, extend_to_maximal):
            for i in (3, -1):
                with pytest.raises(GraphInputError,
                                   match=f"^edge index {i} outside the host edge table$"):
                    build(g, (0, i))

    def test_bits_range_checked(self):
        g = complete_graph(3)
        for build in (MaximalForest, extend_to_maximal):
            for bits in (1 << 3, 0b1001, -1):
                with pytest.raises(GraphInputError,
                                   match="^edge subset bits outside the host edge table$"):
                    build(g, bits)


class TestExtend:
    def test_empty_in_k3(self):
        f = extend_to_maximal(complete_graph(3), ())
        assert f.edge_ids() == (0, 1)

    def test_single_edge_of_c4(self):
        g = cycle_graph(4)
        f = extend_to_maximal(g, (2,))
        assert 2 in f.edge_ids() and len(f.edge_ids()) == 3

    def test_cycle_minus_edge(self):
        g = complete_graph(5)
        ring = [g.edge_index(i, (i + 1) % 5) for i in range(5)]
        partial = ring[1:]
        f = extend_to_maximal(g, partial)
        assert set(partial) <= set(f.edge_ids())
        assert len(f.edge_ids()) == 4

    def test_rejects_cyclic_partial(self):
        with pytest.raises(GraphInputError):
            extend_to_maximal(complete_graph(3), (0, 1, 2))

    def test_deterministic_greedy(self):
        g = complete_graph(5)
        assert extend_to_maximal(g, ()).edge_ids() == (0, 1, 2, 3)


class TestTrustedConstruction:
    """Forests the package builds maximal by construction skip the checks;
    each must still pass the validating constructor."""

    def test_built_forests_pass_validation(self):
        for g in small_corpus():
            family = maximal_forests(g)
            built = list(family)
            for i in range(len(g.edges)):
                built.append(extend_to_maximal(g, (i,)))
            for f in family:
                built.append(extend_to_maximal(g, f.edge_ids()[1:]))
            for start in (family[0], family[len(family) - 1]):
                for f in family:
                    built += exchange_path(g, start, f)
            for f in built:
                assert f.host is g
                assert MaximalForest(g, f.bits) == f

    def test_no_validating_constructor_calls(self, monkeypatch):
        def refuse(self, host, edges):
            raise AssertionError("MaximalForest.__init__ called")

        monkeypatch.setattr(MaximalForest, "__init__", refuse)
        for g in (BOWTIE, complete_graph(4), TWO_TRIANGLES):
            family = maximal_forests(g)
            exchange_path(g, family[0], family[len(family) - 1])
            extend_to_maximal(g, ())
            extend_to_maximal(g, 1)
        with pytest.raises(AssertionError):
            MaximalForest(BOWTIE, (0, 1, 3, 4))


class TestBruteForce:
    def test_k4(self):
        assert len(brute_force_maximal_forests(complete_graph(4))) == 16

    def test_two_triangles(self):
        assert len(brute_force_maximal_forests(TWO_TRIANGLES)) == 9

    def test_edge_limit(self):
        with pytest.raises(BudgetError):
            brute_force_maximal_forests(complete_graph(7))
