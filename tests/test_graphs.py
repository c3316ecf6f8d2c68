"""Core graph type and algorithms against brute-force oracles."""

import itertools
import random

import pytest

from forestgraph import (BudgetError, Cycle, Graph, GraphInputError,
                         blocks, bridges, build_forest_graph, cartesian_product,
                         complete_graph, components, cycle_graph,
                         enumerate_graphs, find_isomorphism, is_bipartite,
                         is_isomorphic, path_graph)
from forestgraph.graphs import _ids, _mask

from .oracles import (brute_force_blocks, brute_force_bridges,
                      brute_force_cycles, brute_force_isomorphic,
                      cyclomatic_number,
                      hamiltonian_cycle, union_find_bipartite,
                      union_find_components, unique_cycle)

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


class TestConstructionOracle:
    """Graph(...) on reordered and repeated edge lists against a set-and-sort
    oracle, on every graph up to 5 vertices and on F of each."""

    @staticmethod
    def oracle(n, pairs):
        edges = sorted({(min(u, v), max(u, v)) for u, v in pairs})
        ids = {e: i for i, e in enumerate(edges)}
        adj = [[] for _ in range(n)]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(edges), [tuple(sorted(a)) for a in adj], ids

    def test_matches_oracle(self):
        rng = random.Random(7)
        graphs = small_corpus()
        graphs += [build_forest_graph(g).graph for g in graphs]
        for g in graphs:
            n = g.vertex_count
            pairs = list(g.edges)
            shuffled = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in pairs]
            rng.shuffle(shuffled)
            reversed_pairs = [(v, u) for u, v in reversed(pairs)]
            for edges in (shuffled, reversed_pairs, shuffled + reversed_pairs + pairs):
                h = Graph(n, edges)
                want_edges, want_adj, want_ids = self.oracle(n, edges)
                assert h.edges == want_edges
                assert [h.neighbors(v) for v in range(n)] == want_adj
                # -1 and n sort before the first edge and after the last
                for a in range(-1, n + 1):
                    for b in range(-1, n + 1):
                        key = (min(a, b), max(a, b))
                        assert h.has_edge(a, b) == (key in want_ids)
                        if key in want_ids:
                            assert h.edge_index(a, b) == want_ids[key]
                        else:
                            with pytest.raises(GraphInputError):
                                h.edge_index(a, b)


class TestBitWalks:
    """The set-bit walk and the id-to-bits build against one-bit-at-a-time loops."""

    def test_agree_with_naive_walks(self):
        rng = random.Random(15)
        for width in (0, 1, 2, 7, 61, 62, 64, 1000, 10**5):
            sparse = sum(1 << i for i in rng.sample(range(width), width // 50))
            for bits in (0, sparse, rng.getrandbits(width), (1 << width) - 1):
                ids = tuple(i for i in range(width) if bits >> i & 1)
                assert _ids(bits) == ids
                assert _mask(ids, width) == bits
                assert _mask(reversed(ids), width) == bits
        assert _ids(0) == () and _mask((), 0) == 0

    def test_mask_refuses_ids_outside_the_width(self):
        for i in (-1, 3, 4):
            with pytest.raises(GraphInputError,
                               match=f"^edge index {i} outside the host edge table$"):
                _mask((0, i), 3)


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
        assert bridges(path_graph(3)) == (0, 1)

    def test_cycle_none(self):
        assert not bridges(cycle_graph(4))

    def test_triangle_pendant(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
        assert set(bridges(g)) == brute_force_bridges(g) == {g.edge_index(2, 3)}

    def test_against_oracle_exhaustively(self):
        for g in small_corpus(5):
            assert bridges(g) == tuple(sorted(brute_force_bridges(g))), g

    def test_edge_on_no_enumerated_cycle(self):
        for g in small_corpus(5):
            on_cycle = set()
            for cyc in brute_force_cycles(g):
                on_cycle |= cyc
            assert set(bridges(g)) == set(range(len(g.edges))) - on_cycle


class TestBlocks:
    def test_bowtie_two_blocks(self):
        assert blocks(BOWTIE) == [(0, 1, 2), (3, 4, 5)]

    def test_against_oracle_exhaustively(self):
        for g in small_corpus(6):
            got = blocks(g)
            assert got == sorted(got) and all(list(b) == sorted(b) for b in got)
            assert {frozenset(b) for b in got} == brute_force_blocks(g), g
            assert sum(len(b) for b in got) == len(g.edges)

    SHAPES = [list(itertools.combinations(range(3), 2)),
              *([(i, (i + 1) % k) for i in range(k)] for k in (4, 5, 6)),
              list(itertools.combinations(range(4), 2))]

    @classmethod
    def glued(cls, rng):
        """K_3, C_4-C_6 and K_4 blocks glued at cut vertices or hung from
        bridges, in several components with isolated vertices between them.
        Returns the vertex count and the blocks as lists of edges."""
        n, found = 0, []
        for _ in range(rng.randint(2, 4)):
            n += rng.randint(0, 2)
            members = [n]
            n += 1
            for step in range(rng.randint(2, 7)):
                at = rng.choice(members)
                if step and rng.random() < 0.3:
                    found.append([(at, n)])
                    members.append(n)
                    at, n = n, n + 1
                    if rng.random() < 0.5:
                        continue
                shape = rng.choice(cls.SHAPES)
                names = [at] + list(range(n, n + max(map(max, shape))))
                n += len(names) - 1
                members += names[1:]
                found.append([(names[u], names[v]) for u, v in shape])
        return n + rng.randint(0, 2), found

    def test_glued_blocks_relabelled_and_shuffled(self):
        rng = random.Random(13)
        for _ in range(60):
            n, found = self.glued(rng)
            cut = next(v for v in range(n)
                       if sum(v in {x for e in b for x in e} for b in found) > 1)
            label = list(range(n))
            rng.shuffle(label)
            # the smallest label goes to a cut vertex, so that DFS starts there
            zero = label.index(0)
            label[zero], label[cut] = label[cut], 0
            found = [[(label[u], label[v]) for u, v in b] for b in found]
            pairs = [(v, u) if rng.random() < 0.5 else (u, v) for b in found for u, v in b]
            rng.shuffle(pairs)
            g = Graph(n, pairs)
            want = sorted(tuple(sorted(g.edge_index(u, v) for u, v in b)) for b in found)
            assert blocks(g) == want
            assert len({b for b in want if any(0 in g.edges[i] for i in b)}) > 1

    def test_deep_path_and_cycle(self):
        assert blocks(path_graph(5000)) == [(i,) for i in range(4999)]
        assert blocks(cycle_graph(5000)) == [tuple(range(5000))]


class TestCycles:
    def test_unique_cycle_c5(self):
        cyc = unique_cycle(cycle_graph(5))
        assert cyc.length == 5 and set(cyc.edge_ids) == set(range(5))

    def test_unique_cycle_absent(self):
        assert unique_cycle(path_graph(4)) is None
        assert unique_cycle(BOWTIE) is None

    def test_unique_cycle_iff_beta_one(self):
        for g in small_corpus(5):
            cyc = unique_cycle(g)
            cycles = brute_force_cycles(g)
            assert (cyc is not None) == (cyclomatic_number(g) == 1) == (len(cycles) == 1)
            if cyc is not None:
                assert cycles == {frozenset(cyc.edge_ids)}

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


class TestOneBfs:
    """components and is_bipartite share one breadth-first search; both are
    checked against union-find on every graph on at most 6 vertices and on
    F of every graph on at most 4."""

    @pytest.fixture(scope="class")
    def corpus(self):
        return small_corpus(6) + [build_forest_graph(g).graph for g in small_corpus(4)]

    def test_components_match_union_find(self, corpus):
        for g in corpus:
            assert components(g) == union_find_components(g), g

    def test_coloring_or_odd_cycle(self, corpus):
        for g in corpus:
            report = is_bipartite(g)
            assert report.bipartite == union_find_bipartite(g), g
            if report.bipartite:
                assert report.odd_cycle is None
                assert len(report.coloring) == g.vertex_count
                assert all(report.coloring[u] != report.coloring[v] for u, v in g.edges)
            else:
                # the Cycle constructor checked each edge of the walk in g
                assert report.coloring is None
                assert report.odd_cycle.host is g and report.odd_cycle.length % 2 == 1


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

    def test_verdict_matches_brute_force_exhaustively(self):
        by_size = {}
        for g in small_corpus(5):
            by_size.setdefault((g.vertex_count, len(g.edges)), []).append(g)
        for group in by_size.values():
            for g, h in itertools.combinations(group, 2):
                assert is_isomorphic(g, h) == brute_force_isomorphic(g, h), (g, h)

    def test_distinct_enumerated_classes_have_no_map(self):
        # enumerate_graphs keeps one graph per S_n orbit, so no two are isomorphic
        for n in range(1, 7):
            for g, h in itertools.combinations(enumerate_graphs(n), 2):
                assert find_isomorphism(g, h) is None, (g, h)

    def test_random_relabelling_gets_exact_map(self):
        rng = random.Random(12)
        lifted = [build_forest_graph(g).graph for g in small_corpus(4)]
        for g in small_corpus(6) + [f for f in lifted if f.vertex_count <= 12]:
            perm = list(range(g.vertex_count))
            rng.shuffle(perm)
            h = Graph(g.vertex_count, [(perm[u], perm[v]) for u, v in g.edges])
            mapping = find_isomorphism(g, h)
            assert sorted(mapping) == list(range(g.vertex_count)), g
            assert sorted(tuple(sorted((mapping[u], mapping[v]))) for u, v in g.edges) \
                == list(h.edges), g

    def test_find_isomorphism_is_valid_map(self):
        g = cycle_graph(6)
        h = Graph(6, [(0, 2), (2, 4), (4, 1), (1, 3), (3, 5), (5, 0)])
        mapping = find_isomorphism(g, h)
        assert sorted(tuple(sorted((mapping[u], mapping[v]))) for u, v in g.edges) \
            == sorted(h.edges)

    def test_edgeless_and_complete_map_by_identity_any_size(self):
        assert find_isomorphism(Graph(50, []), Graph(50, [])) == tuple(range(50))
        assert find_isomorphism(complete_graph(40), complete_graph(40)) == tuple(range(40))

    def test_size_guard(self):
        g = Graph(13, [(0, 1), (2, 3)])
        h = Graph(13, [(0, 12), (5, 7)])
        with pytest.raises(BudgetError, match="isomorphism limited to 12 vertices"):
            find_isomorphism(g, h)


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
