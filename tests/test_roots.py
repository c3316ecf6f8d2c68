"""Root existence, depth chains, forest-preserving rewrites, corpus generator."""

import hashlib

import pytest

from forestgraph import (BudgetError, Graph, GraphInputError, bridges,
                         brute_force_maximal_forests, build_forest_graph,
                         complete_graph, components, count_maximal_forests,
                         cycle_graph, depth_lower_bound, enumerate_graphs,
                         find_roots, forest_distance, forests, is_isomorphic,
                         maximal_forests, no_root_prune, path_graph, roots,
                         whitney_identify, whitney_split, whitney_twist)
from forestgraph import checks
from forestgraph.checks import run_all, whitney_invariance_trials
from forestgraph.roots import (REASON_BIPARTITE, REASON_DEGREE_BOUND,
                               REASON_DISCONNECTED, REASON_EXHAUSTED,
                               REASON_ISTHMUS_OR_ISOLATED, REASON_ORDER_MISMATCH)

from .oracles import bucket_join_edges, unlabeled_graph_count

BOWTIE = Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
TWO_TRIANGLES = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])

# SHA-256 of repr([g.edges for g in enumerate_graphs(n)]): pins the output order
ENUMERATION_DIGESTS = {
    1: "b18a48f02566e6150fce7a3ece72478f44afc0341489d43f01f25f0351984bab",
    2: "2c3d6db69bdab62f45d2f552b42b208efbaaf3a0c03399cc7cfbd286286e59ab",
    3: "86c83a62b142a3d3719f935375e16a96f2dd82c7112866033dc87bebdeddce1a",
    4: "8bfdc2f330b87ea443f97a4d6ea46405c4ae988b6f6b22738a2fbdcf47e940b2",
    5: "237d871825523dc1beb76c431758bbd12676e64bf5a54a81e201f10b12fe2181",
    6: "88b6dc659a6ff0fec681f892caad0d3410e4ac53d9779b29eb1135dd0ed8505c",
}
K33 = Graph(6, [(a, b) for a in range(3) for b in range(3, 6)])
K5_MINUS_EDGE = Graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5) if (u, v) != (3, 4)])


class TestPrune:
    def test_c4_bipartite(self):
        cert = no_root_prune(cycle_graph(4))
        assert cert.reason == REASON_BIPARTITE and cert.proof_grade
        coloring = cert.witness
        for u, v in cycle_graph(4).edges:
            assert coloring[u] != coloring[v]

    def test_k33_bipartite(self):
        assert no_root_prune(K33).reason == REASON_BIPARTITE

    def test_isthmus(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
        cert = no_root_prune(g)
        assert cert.reason == REASON_ISTHMUS_OR_ISOLATED
        kind, eid = cert.witness
        assert kind == "edge" and g.edges[eid] == (2, 3)

    def test_isolated_vertex(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 0)])
        cert = no_root_prune(g)
        assert cert.reason == REASON_ISTHMUS_OR_ISOLATED
        assert cert.witness == ("vertex", 3)

    def test_disconnected(self):
        cert = no_root_prune(TWO_TRIANGLES)
        assert cert.reason == REASON_DISCONNECTED
        assert cert.witness == ((0, 1, 2), (3, 4, 5))

    def test_k1_not_pruned(self):
        assert no_root_prune(Graph(1, [])) is None

    def test_k3_not_pruned(self):
        assert no_root_prune(complete_graph(3)) is None

    def test_empty_graph_order_mismatch(self):
        assert no_root_prune(Graph(0, [])).reason == REASON_ORDER_MISMATCH

    def test_prune_is_sound(self):
        # no forest graph of any graph on <= 4 vertices is ever pruned
        for n in range(1, 5):
            for g in enumerate_graphs(n):
                fg = build_forest_graph(g).graph
                assert no_root_prune(fg) is None, g


class TestFindRoots:
    def test_k4_root_is_c4(self):
        result = find_roots(complete_graph(4))
        assert len(result.roots) == 1
        assert is_isomorphic(result.roots[0], cycle_graph(4))

    def test_k3_has_k3(self):
        result = find_roots(complete_graph(3))
        assert any(is_isomorphic(r, complete_graph(3)) for r in result.roots)

    def test_root_soundness(self):
        for target in (complete_graph(3), complete_graph(4)):
            for root in find_roots(target).roots:
                assert is_isomorphic(build_forest_graph(root).graph, target)

    def test_k5_minus_edge_degree_bound(self):
        # minimum degree 3: a root has at most 4 vertices and corank at most 1,
        # so it is K_1, K_3 or C_4, with 1, 3 and 4 forests; K_5 - e has 5 vertices
        result = find_roots(K5_MINUS_EDGE)
        assert not result.found()
        assert result.certificate.reason == REASON_DEGREE_BOUND
        assert result.certificate.proof_grade
        assert result.certificate.witness == ("vertex", 3, 3)

    def test_pruned_graph_returns_certificate(self):
        result = find_roots(cycle_graph(4))
        assert not result.found()
        assert result.certificate.reason == REASON_BIPARTITE

    def test_iso_maps_carry_f_of_each_root_onto_g(self):
        g = build_forest_graph(BOWTIE).graph
        result = find_roots(g)
        assert result.found() and len(result.iso_maps) == len(result.roots)
        for h, mapping in zip(result.roots, result.iso_maps):
            fg = build_forest_graph(h).graph
            assert sorted(tuple(sorted((mapping[u], mapping[v]))) for u, v in fg.edges) \
                == sorted(g.edges)

    def test_k5_minus_edge_exhausted(self):
        # the degree bound allows 4 vertices; a budget of 3 proves nothing
        result = find_roots(K5_MINUS_EDGE, max_vertices=3)
        assert not result.found()
        assert result.certificate.reason == REASON_EXHAUSTED
        assert not result.certificate.proof_grade


class TestDegreeBound:
    """Every root H of g has |V(H)| <= d + 1 and corank <= d // 2, where d is
    the minimum degree of g."""

    def test_lemma_on_small_bridgeless_graphs(self):
        # a spanning tree of H has degree >= max(rank, 2 * corank) in F(H);
        # the degrees come from the oracle's bucket join over all edge subsets
        tried = 0
        for n in range(3, 7):
            for h in enumerate_graphs(n):
                if len(components(h)) != 1 or bridges(h):
                    continue
                family = [f.bits for f in brute_force_maximal_forests(h)]
                degree = [0] * len(family)
                for a, b in bucket_join_edges(family):
                    degree[a] += 1
                    degree[b] += 1
                rank = n - 1
                assert min(degree) >= max(rank, 2 * (len(h.edges) - rank)), h
                tried += 1
        assert tried == 75

    def test_pruning_keeps_every_root(self):
        # the bounded search against a plain filter over every candidate on
        # <= 5 vertices, with no degree bound
        candidates = [(h, count_maximal_forests(h)) for n in range(1, 6)
                      for h in enumerate_graphs(n)
                      if len(components(h)) == 1 and (n == 1 or not bridges(h))]
        f_of = {}

        def plain_roots(g):
            found = []
            for h, count in candidates:
                if count != g.vertex_count:
                    continue
                if id(h) not in f_of:
                    f_of[id(h)] = build_forest_graph(h).graph
                if is_isomorphic(f_of[id(h)], g):
                    found.append(h)
            return found

        def outcome(search, g):
            try:
                return [(h.vertex_count, h.edges) for h in search(g)]
            except BudgetError:
                return "refused"

        targets = [g for n in range(1, 6) for g in enumerate_graphs(n)]
        targets += [build_forest_graph(g).graph for n in range(1, 5)
                    for g in enumerate_graphs(n)]
        for g in targets:
            assert outcome(lambda x: find_roots(x, max_vertices=5).roots, g) \
                == outcome(plain_roots, g), g

    def test_cold_and_warm_table_agree(self):
        cold = []
        for g in (build_forest_graph(BOWTIE).graph, K5_MINUS_EDGE):
            roots._graphs_on.cache_clear()
            roots._candidates.cache_clear()
            cold.append(find_roots(g))
            assert find_roots(g) == cold[-1]
        assert [len(result.roots) for result in cold] == [1, 0]
        assert cold[1].certificate.reason == REASON_DEGREE_BOUND


class TestDepth:
    def test_k5_depth_one_degree_bound(self):
        # F(C_5) = K_5, and C_5 has no root on <= 3 vertices
        report = depth_lower_bound(complete_graph(5))
        assert report.kind == "chain" and report.depth == 1
        assert report.stop.reason == REASON_DEGREE_BOUND and report.provable_stop
        assert is_isomorphic(report.chain.graphs[0], cycle_graph(5))
        assert report.chain.verify()

    def test_k5_minus_edge_pruned(self):
        report = depth_lower_bound(K5_MINUS_EDGE)
        assert report.kind == "pruned" and report.depth == 0
        assert report.stop.reason == REASON_DEGREE_BOUND

    def test_k4_depth_one_provable(self):
        report = depth_lower_bound(complete_graph(4))
        assert report.kind == "chain" and report.depth == 1
        assert report.provable_stop
        assert report.stop.reason == REASON_BIPARTITE
        assert report.chain.depth == 1
        assert is_isomorphic(report.chain.graphs[0], cycle_graph(4))
        assert is_isomorphic(report.chain.graphs[1], complete_graph(4))
        assert report.chain.verify()

    def test_stable_graphs(self):
        assert depth_lower_bound(Graph(1, [])).kind == "stable"
        assert depth_lower_bound(complete_graph(3)).kind == "stable"

    def test_c4_depth_zero(self):
        report = depth_lower_bound(cycle_graph(4))
        assert report.kind == "pruned" and report.depth == 0
        assert report.stop.reason == REASON_BIPARTITE

    def test_stable_graphs_search_nothing(self, monkeypatch):
        monkeypatch.setattr(roots, "enumerate_graphs", None)
        for g in (Graph(1, []), complete_graph(3)):
            report = depth_lower_bound(g)
            assert report.kind == "stable" and report.search is None

    def test_report_carries_the_root_search(self):
        for g in (complete_graph(4), complete_graph(5), cycle_graph(4)):
            assert depth_lower_bound(g).search == find_roots(g)

    def test_roots_shrink_until_a_cycle(self):
        # what ends the chase: a root H of a graph on N vertices has N forests,
        # and a connected isthmus-free H has at least |V(H)| of them, with
        # equality exactly for a cycle
        tried = 0
        for n in range(3, 7):
            for h in enumerate_graphs(n):
                if len(components(h)) != 1 or bridges(h):
                    continue
                count = count_maximal_forests(h)
                is_cycle = all(h.degree(v) == 2 for v in range(n))
                assert count >= n and (count == n) == is_cycle, h
                tried += 1
        assert tried == 75

    def test_chain_certificate_rejects_a_non_bijection(self):
        # three triangles in a chain: F(h) is K_3 x K_3 x K_3 on 27 forests.
        # Merge two forests three exchanges apart (they share no neighbour, so
        # no edge is lost) and add an isolated vertex: the edge images match
        # g's edges exactly, but the map is not onto and g is disconnected
        h = Graph(7, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4),
                      (4, 5), (4, 6), (5, 6)])
        fg = build_forest_graph(h)
        far = next(j for j in range(27) if forest_distance(fg.family[0], fg.family[j]) == 3)
        mapping = tuple(range(far)) + (0,) + tuple(range(far, 26))
        g = Graph(27, [(mapping[u], mapping[v]) for u, v in fg.graph.edges])
        assert len(components(g)) == 2
        assert not roots.RootChainCertificate((h, g), (mapping,)).verify()
        assert not roots.RootChainCertificate((h, g), (mapping[:26],)).verify()
        assert not roots.RootChainCertificate((h, g), ()).verify()

    def test_chain_certificate_counts_before_building(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("F built for a link whose count is wrong")

        monkeypatch.setattr(roots, "build_forest_graph", refuse)
        chain = roots.RootChainCertificate((cycle_graph(4), complete_graph(5)),
                                           (tuple(range(5)),))
        assert not chain.verify()

    def test_chain_certificate_checks_the_edges(self):
        # C_4 has four maximal forests and the map is a bijection onto its
        # vertices, but F(C_4) = K_4 has six edges to C_4's four
        chain = roots.RootChainCertificate((cycle_graph(4), cycle_graph(4)), ((0, 1, 2, 3),))
        assert not chain.verify()

    def test_chain_certificate_maps_check_edges(self):
        report = depth_lower_bound(complete_graph(4))
        mapping = report.chain.iso_maps[0]
        fg = build_forest_graph(report.chain.graphs[0]).graph
        target = report.chain.graphs[1]
        assert sorted(tuple(sorted((mapping[u], mapping[v]))) for u, v in fg.edges) \
            == sorted(target.edges)


class TestEnumerateGraphs:
    def test_known_counts(self):
        for n, want in ((1, 1), (2, 2), (3, 4), (4, 11), (5, 34), (6, 156)):
            assert len(enumerate_graphs(n)) == want

    def test_against_orbit_counting_oracle(self):
        for n in range(1, 6):
            assert len(enumerate_graphs(n)) == unlabeled_graph_count(n)

    def test_pairwise_non_isomorphic(self):
        graphs = enumerate_graphs(4)
        for i in range(len(graphs)):
            for j in range(i + 1, len(graphs)):
                assert not is_isomorphic(graphs[i], graphs[j])

    def test_deterministic_order(self):
        first = [g.edges for g in enumerate_graphs(4)]
        second = [g.edges for g in enumerate_graphs(4)]
        assert first == second

    def test_k1(self):
        assert [g.edges for g in enumerate_graphs(1)] == [()]

    def test_order_pinned(self):
        for n, digest in ENUMERATION_DIGESTS.items():
            edges = [g.edges for g in enumerate_graphs(n)]
            assert hashlib.sha256(repr(edges).encode()).hexdigest() == digest, n

    def test_size_guard(self):
        with pytest.raises(BudgetError):
            enumerate_graphs(8)

    @pytest.mark.parametrize("scan", [lambda: find_roots(complete_graph(9), 9),
                                      lambda: run_all(max_n=9)])
    def test_scan_past_limit_refused_at_its_first_order_past_it(self, scan):
        with pytest.raises(BudgetError, match=r"limited to 7 vertices \(got 8\)$") as err:
            scan()
        assert (err.value.count, err.value.budget) == (8, 7)

    def test_run_all_caps_the_quadratic_checks(self, monkeypatch):
        calls = {}
        for name in [name for name in vars(checks) if name.startswith("check_")]:
            monkeypatch.setattr(checks, name,
                                lambda *args, name=name: calls.setdefault(name, args))
        run_all(max_n=7, seed=3, whitney_count=9)
        assert calls == {"check_forest_counts": (7,), "check_exchange_metric": (6,),
                         "check_forest_graph_shape": (5,), "check_convergence": (7,),
                         "check_stability": (7,), "check_root_exclusions": (),
                         "check_exact_depth": (), "check_whitney_invariance": (9, 3),
                         "check_cycle_clique": (), "check_clique_path_swap": (),
                         "check_triangle_grid": ()}

    def test_returned_list_is_a_copy(self):
        graphs = enumerate_graphs(4)
        want = list(graphs)
        graphs.reverse()
        graphs.pop()
        assert enumerate_graphs(4) == want


def forest_edge_sets(g):
    return {frozenset(f.edge_ids()) for f in maximal_forests(g)}


def mapped_forest_edge_sets(g, edge_map):
    return {frozenset(edge_map[i] for i in f.edge_ids())
            for f in maximal_forests(g)}


class TestWhitneyIdentify:
    def test_two_triangles_to_bowtie(self):
        result = whitney_identify(TWO_TRIANGLES, [(2, 3)])
        assert is_isomorphic(result.graph, BOWTIE)
        assert mapped_forest_edge_sets(TWO_TRIANGLES, result.edge_map) \
            == forest_edge_sets(result.graph)

    def test_k1_plus_k3(self):
        g = Graph(4, [(1, 2), (1, 3), (2, 3)])
        result = whitney_identify(g, [(0, 1)])
        assert is_isomorphic(result.graph, complete_graph(3))

    def test_chain_of_three_components(self):
        g = Graph(9, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5),
                      (6, 7), (6, 8), (7, 8)])
        result = whitney_identify(g, [(0, 3), (4, 6)])
        assert len(components(result.graph)) == 1
        assert mapped_forest_edge_sets(g, result.edge_map) \
            == forest_edge_sets(result.graph)

    def test_same_component_rejected(self):
        with pytest.raises(GraphInputError):
            whitney_identify(complete_graph(3), [(0, 1)])

    def test_sequential_semantics(self):
        # second pair lands in the component merged by the first
        g = Graph(6, [(0, 1), (2, 3), (4, 5)])
        whitney_identify(g, [(0, 2), (3, 4)])
        with pytest.raises(GraphInputError):
            whitney_identify(g, [(0, 2), (1, 3)])


class TestWhitneySplit:
    def test_bowtie_to_two_triangles(self):
        result = whitney_split(BOWTIE, 2, [3, 4])
        assert is_isomorphic(result.graph, TWO_TRIANGLES)
        assert mapped_forest_edge_sets(BOWTIE, result.edge_map) \
            == forest_edge_sets(result.graph)

    def test_split_then_identify_restores(self):
        split = whitney_split(BOWTIE, 2, [3, 4])
        new_v = split.graph.vertex_count - 1
        back = whitney_identify(split.graph, [(2, new_v)])
        assert is_isomorphic(back.graph, BOWTIE)

    def test_triangle_with_pendant_path(self):
        g = Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)])
        result = whitney_split(g, 2, [3, 4])
        assert len(components(result.graph)) == 2
        assert mapped_forest_edge_sets(g, result.edge_map) \
            == forest_edge_sets(result.graph)

    def test_non_cut_vertex_rejected(self):
        with pytest.raises(GraphInputError):
            whitney_split(complete_graph(4), 0, [1])

    def test_side_must_split_neighbors(self):
        with pytest.raises(GraphInputError):
            whitney_split(BOWTIE, 2, [0, 1, 3, 4])

    def test_side_must_be_whole_components(self):
        with pytest.raises(GraphInputError, match="union of components"):
            whitney_split(BOWTIE, 2, [0])

    @pytest.mark.parametrize("x", [99, -1])
    def test_side_out_of_range(self, x):
        with pytest.raises(GraphInputError, match=f"^vertex {x} out of range$"):
            whitney_split(BOWTIE, 2, [0, 1, x])


class TestWhitneyTwist:
    def test_diamond(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        result = whitney_twist(g, 0, 1, [2])
        assert is_isomorphic(result.graph, g)
        assert mapped_forest_edge_sets(g, result.edge_map) \
            == forest_edge_sets(result.graph)

    def test_c6_antipodal(self):
        g = cycle_graph(6)
        result = whitney_twist(g, 0, 3, [1, 2])
        assert is_isomorphic(result.graph, g)
        assert mapped_forest_edge_sets(g, result.edge_map) \
            == forest_edge_sets(result.graph)

    def test_asymmetric_with_pendant_triangle(self):
        # u=0, v=1 joined by a 2-path (through 2) and a 3-path (through 3, 4)
        # with a triangle hanging on vertex 4
        g = Graph(7, [(0, 2), (1, 2), (0, 3), (3, 4), (4, 1),
                      (4, 5), (4, 6), (5, 6)])
        result = whitney_twist(g, 0, 1, [3, 4, 5, 6])
        assert mapped_forest_edge_sets(g, result.edge_map) \
            == forest_edge_sets(result.graph)
        assert result.edge_map != tuple(range(len(g.edges)))

    def test_crossing_edge_rejected(self):
        with pytest.raises(GraphInputError):
            whitney_twist(complete_graph(4), 0, 1, [2])

    @pytest.mark.parametrize("x", [99, -1])
    def test_side_vertex_out_of_range(self, x):
        with pytest.raises(GraphInputError, match=f"^vertex {x} out of range$"):
            whitney_twist(cycle_graph(4), 0, 2, [x])

    def test_symmetric_paths_swap_cleanly(self):
        # edges u-x and v-x inside the side swap with each other, no clash
        g = Graph(4, [(0, 2), (1, 2), (0, 3), (1, 3)])
        result = whitney_twist(g, 0, 1, [2])
        assert is_isomorphic(result.graph, g)
        assert mapped_forest_edge_sets(g, result.edge_map) \
            == forest_edge_sets(result.graph)


class TestWhitneyRandomized:
    def test_hundred_trials(self):
        applied, failures = whitney_invariance_trials(100, seed=0)
        assert applied >= 100
        assert failures == []

    def test_different_seed(self):
        applied, failures = whitney_invariance_trials(60, seed=7)
        assert applied >= 60
        assert failures == []

    def test_a_wrong_edge_map_fails(self, monkeypatch):
        twist = roots.whitney_twist

        def rotated(g, u, v, side):
            result = twist(g, u, v, side)
            edge_map = result.edge_map[1:] + result.edge_map[:1]
            return roots.WhitneyResult(result.graph, result.vertex_map, edge_map)

        monkeypatch.setattr(roots, "whitney_twist", rotated)
        applied, failures = whitney_invariance_trials(100, seed=0)
        assert applied == 100
        assert failures and {op for op, _ in failures} == {"twist"}

    def test_each_family_listed_once(self, monkeypatch):
        listed = []
        enumerate_forests = forests.maximal_forests

        def counted(g):
            listed.append(g)
            return enumerate_forests(g)

        monkeypatch.setattr(forests, "maximal_forests", counted)
        assert whitney_invariance_trials(100, seed=0) == (100, [])
        # one call per move for the rewritten graph, and one per corpus graph
        # the first time a move applies to it
        once = {id(g) for g in listed}
        assert len(once) == len(listed) < 200
