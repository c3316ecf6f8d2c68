"""Forest graph construction, the exchange metric, and constructive paths."""

import itertools
import random

import pytest

from forestgraph import (Graph, GraphInputError, MaximalForest,
                         brute_force_maximal_forests, build_forest_graph,
                         bridges, cartesian_product, complete_graph,
                         components, count_maximal_forests, cycle_graph,
                         enumerate_graphs, exchange_path,
                         finite_connectivity_check, forest_distance,
                         is_isomorphic, maximal_forests, path_graph)

from .oracles import bfs_distances, bucket_join_edges, dc_spanning_trees

BOWTIE = Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])


def small_corpus(max_n=5):
    out = []
    for n in range(1, max_n + 1):
        out.extend(enumerate_graphs(n))
    return out


class TestConstruction:
    def test_cycles_give_complete_graphs(self):
        for n in range(3, 8):
            fg = build_forest_graph(cycle_graph(n))
            assert is_isomorphic(fg.graph, complete_graph(n))

    def test_bowtie_gives_rook_graph(self):
        fg = build_forest_graph(BOWTIE)
        rook = cartesian_product(cycle_graph(3), cycle_graph(3))
        assert is_isomorphic(fg.graph, rook)

    def test_forest_gives_k1(self):
        for g in (path_graph(4), Graph(3, []), Graph(1, [])):
            fg = build_forest_graph(g)
            assert fg.graph.vertex_count == 1 and not fg.graph.edges

    def test_adjacency_is_definitional(self):
        for g in small_corpus(4):
            fg = build_forest_graph(g)
            n = len(fg.family)
            for i in range(n):
                for j in range(i + 1, n):
                    diff = (fg.family[i].bits ^ fg.family[j].bits).bit_count()
                    assert fg.graph.has_edge(i, j) == (diff == 2)

    def test_vertex_order_is_family_order(self):
        g = complete_graph(4)
        fg = build_forest_graph(g)
        plain = maximal_forests(g)
        assert [f.bits for f in fg.family] == [f.bits for f in plain]
        assert fg.forest_index(plain[7]) == 7

    def test_k4_shape(self):
        fg = build_forest_graph(complete_graph(4))
        assert fg.graph.vertex_count == 16
        assert len(fg.graph.edges) == 54

    def test_min_degree_and_no_isthmus(self):
        for g in small_corpus(5):
            fg = build_forest_graph(g)
            if fg.graph.vertex_count == 1:
                continue
            assert min(fg.graph.degree(v) for v in range(fg.graph.vertex_count)) >= 2
            assert not bridges(fg.graph)


BLOCK_SHAPES = (complete_graph(3), cycle_graph(4), cycle_graph(5), complete_graph(4))
GLUED_EDGE_CAP = 14


def glued_block_graph(rng):
    """K_3, C_4, C_5 and K_4 blocks glued at cut vertices or hung from
    bridges, over one to three components, with shuffled vertex labels.

    Blocks are added while they fit under GLUED_EDGE_CAP edges, which keeps
    the brute-force subset scan small.
    """
    comps = [[v] for v in range(rng.randint(1, 3))]
    n = len(comps)
    edges = []
    for _ in range(rng.randint(1, 3)):
        block = rng.choice(BLOCK_SHAPES)
        bridge = rng.random() < 0.4
        if len(edges) + len(block.edges) + bridge > GLUED_EDGE_CAP:
            break
        comp = rng.choice(comps)
        anchor = rng.choice(comp)
        if bridge:
            edges.append((anchor, n))
            comp.append(n)
            anchor = n
            n += 1
        names = [anchor] + list(range(n, n + block.vertex_count - 1))
        n += block.vertex_count - 1
        comp.extend(names[1:])
        edges.extend((names[u], names[v]) for u, v in block.edges)
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph(n, [(perm[u], perm[v]) for u, v in edges])


def product_corpus():
    rng = random.Random(4)
    return small_corpus(5) + [glued_block_graph(rng) for _ in range(40)]


class TestBlockProduct:
    """F(G) as the product of the blocks' forest graphs, against oracles
    that never split G into blocks."""

    def test_seeded_graphs_have_several_blocks(self):
        glued = product_corpus()[len(small_corpus(5)):]
        assert max(len(components(g)) for g in glued) == 3
        assert sum(count_maximal_forests(g) > 16 for g in glued) >= 10

    def test_edges_match_whole_family_bucket_join(self):
        for g in product_corpus():
            fg = build_forest_graph(g)
            assert fg.graph.edges == bucket_join_edges([f.bits for f in fg.family]), g

    def test_family_matches_brute_force_in_order(self):
        for g in product_corpus():
            assert list(maximal_forests(g)) == brute_force_maximal_forests(g), g

    def test_count_matches_deletion_contraction(self):
        for g in product_corpus():
            want = 1
            for comp in components(g):
                relabel = {v: i for i, v in enumerate(comp)}
                want *= dc_spanning_trees(len(comp), [(relabel[u], relabel[v])
                                                      for u, v in g.edges if u in relabel])
            assert count_maximal_forests(g) == want, g


class TestMetric:
    def test_identical(self):
        family = maximal_forests(complete_graph(4))
        assert forest_distance(family[0], family[0]) == 0

    def test_adjacent(self):
        f1 = MaximalForest(complete_graph(4), (0, 1, 2))
        f2 = MaximalForest(complete_graph(4), (0, 1, 5))
        assert forest_distance(f1, f2) == 1

    def test_k4_spec_pair(self):
        g = complete_graph(4)
        f1 = MaximalForest(g, [g.edge_index(0, 1), g.edge_index(0, 2), g.edge_index(0, 3)])
        f2 = MaximalForest(g, [g.edge_index(0, 1), g.edge_index(1, 2), g.edge_index(2, 3)])
        assert forest_distance(f1, f2) == 2

    def test_symmetry(self):
        for g in small_corpus(4):
            family = maximal_forests(g)
            for f1, f2 in itertools.combinations(family, 2):
                assert forest_distance(f1, f2) == forest_distance(f2, f1)

    def test_equals_bfs_distance(self):
        for g in small_corpus(4):
            fg = build_forest_graph(g)
            for i in range(len(fg.family)):
                dist = bfs_distances(fg.graph, i)
                for j in range(len(fg.family)):
                    assert dist[j] == forest_distance(fg.family[i], fg.family[j])

    def test_base_mismatch(self):
        f1 = MaximalForest(complete_graph(3), (0, 1))
        f2 = MaximalForest(complete_graph(4), (0, 1, 2))
        with pytest.raises(GraphInputError):
            forest_distance(f1, f2)


class TestExchangePath:
    def test_trivial(self):
        g = complete_graph(4)
        f = MaximalForest(g, (0, 1, 2))
        assert exchange_path(g, f, f) == [f]

    def test_adjacent_pair(self):
        g = complete_graph(4)
        f1 = MaximalForest(g, (0, 1, 2))
        f2 = MaximalForest(g, (0, 1, 5))
        assert exchange_path(g, f1, f2) == [f1, f2]

    def test_k4_spec_pair_three_terms(self):
        g = complete_graph(4)
        f1 = MaximalForest(g, [g.edge_index(0, 1), g.edge_index(0, 2), g.edge_index(0, 3)])
        f2 = MaximalForest(g, [g.edge_index(0, 1), g.edge_index(1, 2), g.edge_index(2, 3)])
        walk = exchange_path(g, f1, f2)
        assert len(walk) == 3
        for a, b in zip(walk, walk[1:]):
            assert (a.bits ^ b.bits).bit_count() == 2

    def test_every_pair_realizes_distance(self):
        for g in small_corpus(4):
            family = maximal_forests(g)
            for f1 in family:
                for f2 in family:
                    walk = exchange_path(g, f1, f2)
                    assert walk[0] == f1 and walk[-1] == f2
                    assert len(walk) == forest_distance(f1, f2) + 1
                    for a, b in zip(walk, walk[1:]):
                        assert (a.bits ^ b.bits).bit_count() == 2
                    for f in walk:
                        assert isinstance(f, MaximalForest)

    def test_deterministic(self):
        g = complete_graph(5)
        family = maximal_forests(g)
        first = exchange_path(g, family[0], family[100])
        second = exchange_path(g, family[0], family[100])
        assert [f.bits for f in first] == [f.bits for f in second]


class TestConnectivity:
    def test_k4(self):
        report = finite_connectivity_check(complete_graph(4))
        assert report.order == 16 and report.connected and report.diameter <= 3

    def test_bowtie(self):
        report = finite_connectivity_check(BOWTIE)
        assert report.order == 9 and report.connected and report.diameter == 2

    def test_forest(self):
        report = finite_connectivity_check(path_graph(3))
        assert report.order == 1 and report.connected

    def test_exhaustive_connected(self):
        for g in small_corpus(5):
            assert finite_connectivity_check(g).connected
