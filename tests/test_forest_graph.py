"""Forest graph construction, the exchange metric, and constructive paths."""

import gc
import itertools
import math
import random
import sys
from io import StringIO

import pytest

from forestgraph import (BudgetError, Graph, GraphInputError, MaximalForest,
                         brute_force_maximal_forests, build_forest_graph,
                         bridges, cartesian_product, classify, complete_graph,
                         components, count_maximal_forests, cycle_graph,
                         enumerate_graphs, exchange_path, forest_distance,
                         is_isomorphic, iterate_F, maximal_forests, parse_dot,
                         parse_edge_list, path_graph)
from forestgraph import checks, cli, forest_graph, forests, graphs, io

from .oracles import (bfs_distances, brute_force_exchange_path, bucket_join_edges,
                      dc_spanning_trees, neighbour_tuples)

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
        for g in (path_graph(4), Graph(3, []), Graph(1, []), Graph(0, [])):
            fg = build_forest_graph(g)
            assert fg.graph.vertex_count == 1 and not fg.graph.edges
            assert fg.family[0].bits == (1 << len(g.edges)) - 1

    def test_adjacency_is_definitional(self):
        for g in small_corpus(4):
            fg = build_forest_graph(g)
            n = len(fg.family)
            for i in range(n):
                for j in range(i + 1, n):
                    diff = (fg.family[i].bits ^ fg.family[j].bits).bit_count()
                    assert fg.graph.has_edge(i, j) == (diff == 2)

    def test_vertex_order_is_family_order(self):
        for g in product_corpus():
            fg = build_forest_graph(g)
            assert [f.bits for f in fg.family] == [f.bits for f in maximal_forests(g)], g
        g = complete_graph(4)
        assert build_forest_graph(g).forest_index(maximal_forests(g)[7]) == 7

    def test_forest_index_inverts_the_family(self):
        for g in product_corpus():
            fg = build_forest_graph(g)
            assert [fg.forest_index(f) for f in fg.family] == list(range(len(fg.family))), g

    def test_budget_refused_before_enumeration(self, monkeypatch):
        def enumerate_trees(g, block):
            raise AssertionError("enumerated over budget")

        monkeypatch.setattr(forests, "_spanning_trees", enumerate_trees)
        with pytest.raises(BudgetError) as info:
            build_forest_graph(complete_graph(7), budget=16806)
        assert info.value.count == 16807
        assert info.value.budget == 16806

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
        n = hang_block(n, edges, comp, rng.choice(comp), block, bridge)
    return shuffled_graph(rng, n, edges)


def hang_block(n, edges, comp, anchor, block, bridge):
    """Add `block` to the component `comp` (a list of its vertices) of the
    graph on n vertices with `edges`, glued at `anchor` or hung from it by a
    bridge; returns the new vertex count."""
    if bridge:
        edges.append((anchor, n))
        comp.append(n)
        anchor = n
        n += 1
    names = [anchor] + list(range(n, n + block.vertex_count - 1))
    comp.extend(names[1:])
    edges.extend((names[u], names[v]) for u, v in block.edges)
    return n + block.vertex_count - 1


def shuffled_graph(rng, n, edges):
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

    def test_built_graph_is_well_formed(self):
        # F(g) skips Graph's validation: its edge table must be what Graph
        # would normalize it to, and the adjacency it derives on first use
        # what the edges give and what Graph builds at once
        extra = [complete_graph(6), triangle_chain(6), path_graph(50), Graph(1, []), Graph(0, [])]
        for g in product_corpus() + extra:
            fg = build_forest_graph(g)
            n = len(fg.family)
            eager = Graph(n, fg.graph.edges)
            assert fg.graph == eager, g
            got = [fg.graph.neighbors(v) for v in range(n)]
            assert got == [eager.neighbors(v) for v in range(n)] == neighbour_tuples(fg.graph), g
            assert fg.graph.vertex_names is None

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

    def test_divergent_min_degree_clears_the_exchange_bound(self, monkeypatch):
        # why divergence_growth_evidence counts no forests of F(g): F(g) of a
        # divergent g has minimum degree 3, so m >= 3N/2 and the exchange
        # bound 1 + 2(m - N + 1) is at least N + 3
        def refuse(g):
            raise AssertionError("growth evidence counted forests")

        monkeypatch.setattr(forests, "count_maximal_forests", refuse)
        divergent = 0
        for g in product_corpus():
            if classify(g).status == "convergent":
                continue
            fg = build_forest_graph(g)
            n, m = fg.graph.vertex_count, len(fg.graph.edges)
            assert min(fg.graph.degree(v) for v in range(n)) >= 3, g
            assert 1 + 2 * (m - n + 1) >= n + 3, g
            assert checks.divergence_growth_evidence(g, fg)["grew"], g
            divergent += 1
        assert divergent == 56


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
        # every distance is finite, so F(g) is connected, as the paper proves
        for g in product_corpus():
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

    def test_matches_lowest_edge_reference(self):
        for g in small_corpus(5):
            family = maximal_forests(g)
            for f1 in family:
                for f2 in family:
                    walk = [frozenset(f.edge_ids()) for f in exchange_path(g, f1, f2)]
                    assert walk == brute_force_exchange_path(
                        g.edges, f1.edge_ids(), f2.edge_ids()), (g, f1, f2)

    def test_deterministic(self):
        g = complete_graph(5)
        family = maximal_forests(g)
        first = exchange_path(g, family[0], family[100])
        second = exchange_path(g, family[0], family[100])
        assert [f.bits for f in first] == [f.bits for f in second]


# the block multisets of the 288-, 600-, 1,920- and 7,680-forest builds
BUILD_MULTISETS = {288: ("C6", "K3", "K4"), 600: ("C4", "C5", "C5", "C6"),
                   1920: ("C4", "C5", "C6", "K4"), 7680: ("C4", "C4", "C5", "C6", "K4")}
NAMED_BLOCKS = {"K3": complete_graph(3), "C4": cycle_graph(4), "C5": cycle_graph(5),
                "C6": cycle_graph(6), "K4": complete_graph(4)}


def multiset_graph(rng, names, parts=2):
    """The named blocks over `parts` components, the i-th in component i mod
    parts, each glued at a random vertex of it or hung from one by a bridge,
    with shuffled vertex labels."""
    comps = [[v] for v in range(parts)]
    n = parts
    edges = []
    for i, name in enumerate(names):
        comp = comps[i % parts]
        n = hang_block(n, edges, comp, rng.choice(comp), NAMED_BLOCKS[name], rng.random() < 0.3)
    return shuffled_graph(rng, n, edges)


class TestProductWalk:
    """The product walk and the integer sort keys at the benchmark's scale
    and past the width of a machine word, against oracles that never split
    the family into blocks."""

    def assert_exact(self, g):
        fg = build_forest_graph(g)
        assert list(fg.family) == sorted(fg.family, key=MaximalForest.edge_ids), g
        assert fg.graph.edges == bucket_join_edges([f.bits for f in fg.family]), g
        assert [fg.graph.neighbors(v) for v in range(len(fg.family))] \
            == neighbour_tuples(fg.graph), g
        return fg

    def test_benchmark_block_multisets(self):
        rng = random.Random(28)
        interleaved = 0
        for count, names in BUILD_MULTISETS.items():
            g = multiset_graph(rng, names)
            assert len(components(g)) == 2
            assert len(self.assert_exact(g).family) == count
            positions = forests._forest_product(g, count)[1]
            # blocks whose edge ids interleave put the family out of product order
            interleaved += positions != sorted(positions)
        assert interleaved

    def test_keys_wider_than_a_word(self):
        # a 100-edge path with a triangle at each end and a C_5 in the middle:
        # the cycle blocks hold the lowest and the highest edge ids
        n = 101
        g = Graph(n, [(i, i + 1) for i in range(n - 1)] + [(0, 2), (50, 54), (n - 3, n - 1)])
        assert len(g.edges) == 103
        assert g.edges[:3] == ((0, 1), (0, 2), (1, 2))
        assert g.edges[-3:] == ((n - 3, n - 2), (n - 3, n - 1), (n - 2, n - 1))
        fg = self.assert_exact(g)
        assert len(fg.family) == 45
        assert fg.family[0].edge_ids()[:2] == (0, 1)
        assert fg.family[-1].edge_ids()[-2:] == (101, 102)


class TestEdgeTable:
    """Every graph keeps its edge table and derives its adjacency only when
    something reads it: F(g) as built, and every input graph."""

    @pytest.fixture
    def adjacency_cap(self, monkeypatch):
        """Make deriving an adjacency for more than `limit[0]` vertices fail;
        no cap until the test sets one."""
        limit = [math.inf]
        derive = graphs._adjacency

        def guarded(n, edges):
            if n > limit[0]:
                raise AssertionError(f"adjacency built for {n} vertices")
            return derive(n, edges)

        monkeypatch.setattr(graphs, "_adjacency", guarded)
        return limit

    @pytest.fixture
    def derived(self, monkeypatch):
        """The vertex count of each adjacency derived, in order."""
        counts = []
        derive = graphs._adjacency

        def counted(n, edges):
            counts.append(n)
            return derive(n, edges)

        monkeypatch.setattr(graphs, "_adjacency", counted)
        return counts

    def test_edges_order_and_family_need_no_adjacency(self, adjacency_cap):
        rng = random.Random(29)
        inputs = [multiset_graph(rng, names) for names in BUILD_MULTISETS.values()]
        for g, count in zip(inputs, BUILD_MULTISETS):
            # `blocks` reads the input's own adjacency, and nothing reads F(g)'s
            adjacency_cap[0] = g.vertex_count
            fg = build_forest_graph(g)
            assert fg.graph.vertex_count == len(fg.family) == count
            assert fg.graph.edges == bucket_join_edges([f.bits for f in fg.family])

    @pytest.mark.parametrize("fmt", ["human", "structured", "dot"])
    def test_fgraph_subcommand_needs_no_adjacency(self, monkeypatch, capsys, adjacency_cap, fmt):
        # only the input graph's own adjacency is derived, by `blocks`
        for g in (triangle_chain(3), complete_graph(5)):
            text = io.format_edge_list(g)
            outputs = []
            for limit in (math.inf, g.vertex_count):
                adjacency_cap[0] = limit
                monkeypatch.setattr(sys, "stdin", StringIO(text))
                assert cli.main(["fgraph", "-", "--format", fmt]) == 0
                outputs.append(capsys.readouterr().out)
            assert outputs[0] == outputs[1]
            # one line per forest, and more
            assert len(outputs[1].splitlines()) > count_maximal_forests(g)

    def test_first_read_makes_a_plain_graph(self):
        fg = build_forest_graph(BOWTIE).graph
        assert type(fg) is Graph
        assert fg.neighbors(0) == Graph(9, fg.edges).neighbors(0)
        assert type(fg) is Graph
        assert "__getattr__" not in vars(Graph)
        assert not hasattr(build_forest_graph(BOWTIE).graph, "vertex_labels")

    @pytest.mark.parametrize("make", [
        lambda: Graph(5, BOWTIE.edges),
        lambda: parse_edge_list(io.format_edge_list(BOWTIE)),
        lambda: parse_dot(io.format_dot(BOWTIE)),
    ], ids=["Graph", "parse_edge_list", "parse_dot"])
    @pytest.mark.parametrize("read", [
        lambda g: g.neighbors(2), lambda g: g.degree(2), graphs.blocks,
    ], ids=["neighbors", "degree", "blocks"])
    def test_first_read_derives_the_adjacency_once(self, derived, make, read):
        g = make()
        assert derived == []
        first = read(g)
        assert derived == [5]
        assert read(g) == first and g.neighbors(2) == (0, 1, 3, 4)
        assert derived == [5]

    def test_first_read_pauses_the_collector(self):
        collector_on = []

        class Edges:
            def __iter__(self):
                collector_on.append(gc.isenabled())
                return iter(BOWTIE.edges)

        g = Graph._from_edges(5, Edges())
        assert gc.isenabled()
        assert g.degree(2) == 4
        assert collector_on == [False] and gc.isenabled()

    def test_second_iterate_matches_a_validated_build(self):
        fg = build_forest_graph(BOWTIE).graph
        second = build_forest_graph(Graph(fg.vertex_count, fg.edges)).graph
        got = iterate_F(BOWTIE, 2)
        assert got == second and got.vertex_count == 11664
        assert all(got.neighbors(v) == second.neighbors(v) for v in range(got.vertex_count))


def triangle_chain(k):
    """k triangles in a row, each sharing one cut vertex with the next."""
    return Graph(2 * k + 1, [e for i in range(0, 2 * k, 2)
                             for e in ((i, i + 1), (i, i + 2), (i + 1, i + 2))])


class TestConnectivity:
    """F(g) is connected (`TestMetric.test_equals_bfs_distance`); its order
    is the product of the blocks' tree counts, listed only within budget."""

    def test_triangle_chain_over_budget(self):
        with pytest.raises(BudgetError) as err:
            maximal_forests(triangle_chain(13))
        assert err.value.count == 3 ** 13 == 1594323


class TestOneBlockPass:
    @pytest.mark.parametrize("build", [maximal_forests, build_forest_graph])
    def test_blocks_run_once(self, monkeypatch, build):
        calls = []

        def counted(g):
            calls.append(g)
            return graphs.blocks(g)

        for module in (forests, forest_graph):
            monkeypatch.setattr(module, "blocks", counted, raising=False)
        for g in (complete_graph(4), BOWTIE, triangle_chain(3), path_graph(3)):
            calls.clear()
            build(g)
            assert calls == [g]


EDGE_LIST_TEXT = "# a bowtie and a pendant\nvertices 7\na b\na c\nb c\nc d\nc e\nd e\ne f\n"
DOT_TEXT = 'graph G { a -- b -- c -- a; c -- d -- e -- c [color=red]; e -- "f g"; }'

# each bulk builder, an input, and a name it looks up inside its paused body
PAUSED_BUILDERS = [
    (build_forest_graph, BOWTIE, forest_graph, "_forest_product"),
    (maximal_forests, BOWTIE, forests, "_forest_product"),
    (parse_edge_list, EDGE_LIST_TEXT, io, "Graph"),
    (parse_dot, DOT_TEXT, io, "Graph"),
]


class TestCollectorPause:
    """The bulk builders pause the cyclic collector for one call and leave it
    as the caller had it, on return and on a refusal alike."""

    @pytest.fixture(autouse=True)
    def collector_enabled(self):
        gc.enable()
        yield
        gc.enable()

    @pytest.mark.parametrize("build, arg, module, name", PAUSED_BUILDERS,
                             ids=[build.__name__ for build, *_ in PAUSED_BUILDERS])
    def test_paused_inside_and_enabled_after(self, monkeypatch, build, arg, module, name):
        seen = []
        inner = getattr(module, name)

        def spy(*args, **kwargs):
            seen.append(gc.isenabled())
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
        build(arg)
        assert seen == [False]
        assert gc.isenabled()

    def test_enabled_after_a_refusal(self):
        with pytest.raises(BudgetError):
            maximal_forests(triangle_chain(13))
        assert gc.isenabled()
        with pytest.raises(BudgetError):
            build_forest_graph(triangle_chain(3), budget=20)
        assert gc.isenabled()

    def test_caller_disabled_collector_stays_disabled(self):
        gc.disable()
        for build, arg, _, _ in PAUSED_BUILDERS:
            build(arg)
            assert not gc.isenabled(), build
        with pytest.raises(BudgetError):
            maximal_forests(triangle_chain(13))
        assert not gc.isenabled()

    def test_nested_builds(self, monkeypatch):
        # a builder called inside a paused one leaves the pause in place
        seen = []
        product = forest_graph._forest_product

        def nested(g, budget):
            maximal_forests(g)
            seen.append(gc.isenabled())
            return product(g, budget)

        monkeypatch.setattr(forest_graph, "_forest_product", nested)
        build_forest_graph(BOWTIE)
        assert seen == [False]
        assert gc.isenabled()
        monkeypatch.undo()
        assert iterate_F(BOWTIE, 2).vertex_count == 11664
        assert gc.isenabled()

    def test_builds_leave_no_cyclic_garbage(self):
        # why the pause is safe: what the builders make holds no reference
        # cycle, so reference counts free all of it and nothing is left over
        corpus = product_corpus() + [complete_graph(6), triangle_chain(6)]
        gc.collect()
        built = [build_forest_graph(g) for g in corpus]
        built += [parse_edge_list(EDGE_LIST_TEXT), parse_dot(DOT_TEXT)]
        del built
        assert gc.collect() == 0
