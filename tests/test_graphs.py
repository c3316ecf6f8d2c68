"""Core graph type and algorithms against brute-force oracles."""

import itertools

import pytest

from forestgraph import (BudgetError, Cycle, EdgeSubset, Graph, GraphInputError,
                         blocks, bridges, canonical_form, cartesian_product,
                         complete_graph, components, cycle_graph,
                         cyclomatic_number, enumerate_graphs, find_isomorphism,
                         hamiltonian_cycle, is_bipartite, is_isomorphic,
                         max_clique, path_graph, unique_cycle)
from forestgraph.graphs import find_long_cycle

from .oracles import (brute_force_blocks, brute_force_bridges,
                      brute_force_cycles, brute_force_isomorphic,
                      brute_force_max_clique_size)

BOWTIE = Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])


def small_corpus(max_n=5):
    out = []
    for n in range(1, max_n + 1):
        out.extend(enumerate_graphs(n))
    return out


class TestGraph:
    def test_build_triangle(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        assert g.edges == ((0, 1), (0, 2), (1, 2))

    def test_duplicates_merged(self):
        g = Graph(4, [(0, 1), (1, 0)])
        assert g.edges == ((0, 1),)

    def test_loop_rejected(self):
        with pytest.raises(GraphInputError):
            Graph(2, [(0, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphInputError):
            Graph(2, [(0, 2)])

    def test_edge_index_matches_position(self):
        g = complete_graph(4)
        for i, (u, v) in enumerate(g.edges):
            assert g.edge_index(u, v) == i
            assert g.edge_index(v, u) == i

    def test_names(self):
        g = Graph(2, [(0, 1)], vertex_names=["a", "b"])
        assert g.name_of(0) == "a" and g.name_of(1) == "b"
        assert Graph(2, [(0, 1)]).name_of(1) == "1"


class TestEdgeSubset:
    def test_roundtrip(self):
        g = complete_graph(4)
        sub = EdgeSubset.from_ids(g, [0, 3, 5])
        assert sub.ids() == (0, 3, 5)
        assert sub.pairs() == (g.edges[0], g.edges[3], g.edges[5])
        assert len(sub) == 3 and 3 in sub and 1 not in sub

    def test_set_ops(self):
        g = complete_graph(4)
        a = EdgeSubset.from_ids(g, [0, 1])
        b = EdgeSubset.from_ids(g, [1, 2])
        assert (a | b).ids() == (0, 1, 2)
        assert (a & b).ids() == (1,)
        assert (a ^ b).ids() == (0, 2)
        assert (a - b).ids() == (0,)

    def test_host_mismatch(self):
        with pytest.raises(GraphInputError):
            EdgeSubset.from_ids(complete_graph(4), [0]) | \
                EdgeSubset.from_ids(complete_graph(3), [0])

    def test_bits_range_checked(self):
        with pytest.raises(GraphInputError):
            EdgeSubset(complete_graph(3), 1 << 3)


class TestComponents:
    def test_triangle_one_block(self):
        assert components(complete_graph(3)) == [[0, 1, 2]]

    def test_two_disjoint_edges(self):
        assert components(Graph(4, [(0, 1), (2, 3)])) == [[0, 1], [2, 3]]

    def test_edgeless(self):
        assert components(Graph(3, [])) == [[0], [1], [2]]


class TestCyclomatic:
    def test_triangle(self):
        assert cyclomatic_number(complete_graph(3)) == 1

    def test_bowtie(self):
        assert cyclomatic_number(BOWTIE) == 2

    def test_forests(self):
        for g in small_corpus(4):
            if not brute_force_cycles(g):
                assert cyclomatic_number(g) == 0


class TestBridges:
    def test_path_both_edges(self):
        assert bridges(path_graph(3)).ids() == (0, 1)

    def test_cycle_none(self):
        assert not bridges(cycle_graph(4))

    def test_triangle_pendant(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
        assert set(bridges(g).ids()) == brute_force_bridges(g) == {g.edge_index(2, 3)}

    def test_against_oracle_exhaustively(self):
        for g in small_corpus(5):
            assert set(bridges(g).ids()) == brute_force_bridges(g), g

    def test_edge_on_no_enumerated_cycle(self):
        for g in small_corpus(5):
            on_cycle = set()
            for cyc in brute_force_cycles(g):
                on_cycle |= cyc
            assert set(bridges(g).ids()) == set(range(len(g.edges))) - on_cycle


class TestBlocks:
    def test_bowtie_two_blocks(self):
        assert blocks(BOWTIE) == [(0, 1, 2), (3, 4, 5)]

    def test_against_oracle_exhaustively(self):
        for g in small_corpus(6):
            got = blocks(g)
            assert got == sorted(got) and all(list(b) == sorted(b) for b in got)
            assert {frozenset(b) for b in got} == brute_force_blocks(g), g
            assert sum(len(b) for b in got) == len(g.edges)


class TestCycles:
    def test_unique_cycle_c5(self):
        cyc = unique_cycle(cycle_graph(5))
        assert cyc.length == 5 and set(cyc.edge_ids) == set(range(5))

    def test_unique_cycle_absent(self):
        assert unique_cycle(path_graph(4)) is None
        assert unique_cycle(BOWTIE) is None

    def test_unique_cycle_iff_beta_one(self):
        for g in small_corpus(5):
            assert (unique_cycle(g) is not None) == (cyclomatic_number(g) == 1)

    def test_cycle_normalization(self):
        g = cycle_graph(4)
        a = Cycle(g, (2, 3, 0, 1))
        b = Cycle(g, (0, 3, 2, 1))
        assert a == b and a.vertices[0] == 0

    def test_cycle_validation(self):
        with pytest.raises(GraphInputError):
            Cycle(complete_graph(4), (0, 1))
        with pytest.raises(GraphInputError):
            Cycle(complete_graph(4), (0, 1, 2, 1))

    def test_find_long_cycle(self):
        g = complete_graph(5)
        cyc = find_long_cycle(g, 5)
        assert cyc.length >= 5
        assert find_long_cycle(cycle_graph(4), 5) is None
        with pytest.raises(GraphInputError):
            find_long_cycle(g, 2)


class TestBipartite:
    def test_c4(self):
        report = is_bipartite(cycle_graph(4))
        assert report.bipartite
        for u, v in cycle_graph(4).edges:
            assert report.coloring[u] != report.coloring[v]

    def test_k3_witness(self):
        report = is_bipartite(complete_graph(3))
        assert not report.bipartite
        assert report.odd_cycle.length % 2 == 1

    def test_rook_graph_not_bipartite(self):
        rook = cartesian_product(cycle_graph(3), cycle_graph(3))
        assert not is_bipartite(rook).bipartite

    def test_exhaustive_witnesses(self):
        for g in small_corpus(5):
            report = is_bipartite(g)
            if report.bipartite:
                for u, v in g.edges:
                    assert report.coloring[u] != report.coloring[v]
            else:
                assert report.odd_cycle.length % 2 == 1
                for i in report.odd_cycle.edge_ids:
                    assert 0 <= i < len(g.edges)


class TestMaxClique:
    def test_k5(self):
        assert len(max_clique(complete_graph(5))) == 5

    def test_c6(self):
        assert len(max_clique(cycle_graph(6))) == 2

    def test_rook_graph_is_k4_free(self):
        rook = cartesian_product(cycle_graph(3), cycle_graph(3))
        assert len(max_clique(rook)) == brute_force_max_clique_size(rook) == 3

    def test_against_oracle_exhaustively(self):
        for g in small_corpus(5):
            clique = max_clique(g)
            for a, b in itertools.combinations(clique, 2):
                assert g.has_edge(a, b)
            assert len(clique) == brute_force_max_clique_size(g), g

    def test_size_guard(self):
        with pytest.raises(BudgetError):
            max_clique(Graph(201, []))


class TestHamiltonian:
    def test_k4(self):
        cyc = hamiltonian_cycle(complete_graph(4))
        assert cyc is not None and cyc.length == 4

    def test_path_proven_absent(self):
        assert hamiltonian_cycle(path_graph(4)) is None

    def test_c5(self):
        assert hamiltonian_cycle(cycle_graph(5)).length == 5

    def test_rook_graph(self):
        rook = cartesian_product(cycle_graph(3), cycle_graph(3))
        cyc = hamiltonian_cycle(rook)
        assert cyc is not None and cyc.length == 9

    def test_size_guard(self):
        with pytest.raises(BudgetError):
            hamiltonian_cycle(Graph(31, []))


class TestIsomorphism:
    def test_c4_equals_k4_minus_matching(self):
        h = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        k4mm = Graph(4, [(0, 2), (2, 1), (1, 3), (3, 0)])
        assert is_isomorphic(h, k4mm)

    def test_k3_vs_p3(self):
        assert not is_isomorphic(complete_graph(3), path_graph(3))

    def test_canonical_respects_iso_exhaustively(self):
        corpus = small_corpus(5)
        by_size = {}
        for g in corpus:
            by_size.setdefault((g.vertex_count, len(g.edges)), []).append(g)
        for group in by_size.values():
            for g, h in itertools.combinations(group, 2):
                same = canonical_form(g) == canonical_form(h)
                assert same == brute_force_isomorphic(g, h), (g, h)
                assert same == is_isomorphic(g, h)

    def test_canonical_invariant_under_relabeling(self):
        for g in small_corpus(4):
            for perm in itertools.permutations(range(g.vertex_count)):
                relabeled = Graph(g.vertex_count,
                                  [(perm[u], perm[v]) for u, v in g.edges])
                assert canonical_form(relabeled) == canonical_form(g)

    def test_find_isomorphism_is_valid_map(self):
        g = cycle_graph(6)
        h = Graph(6, [(0, 2), (2, 4), (4, 1), (1, 3), (3, 5), (5, 0)])
        mapping = find_isomorphism(g, h)
        assert sorted(tuple(sorted((mapping[u], mapping[v]))) for u, v in g.edges) \
            == sorted(h.edges)

    def test_complete_shortcut_any_size(self):
        assert is_isomorphic(complete_graph(40), complete_graph(40))
        assert canonical_form(Graph(50, [])) == ()

    def test_size_guard(self):
        g = Graph(13, [(0, 1)])
        with pytest.raises(BudgetError):
            canonical_form(g)


class TestCartesianProduct:
    def test_k1_identity(self):
        h = BOWTIE
        prod = cartesian_product(complete_graph(1), h)
        assert prod.edges == h.edges and prod.vertex_count == h.vertex_count

    def test_k2_k2_is_c4(self):
        prod = cartesian_product(complete_graph(2), complete_graph(2))
        assert is_isomorphic(prod, cycle_graph(4))

    def test_c3_c3_shape(self):
        rook = cartesian_product(cycle_graph(3), cycle_graph(3))
        assert rook.vertex_count == 9 and len(rook.edges) == 18
        assert all(rook.degree(v) == 4 for v in range(9))
