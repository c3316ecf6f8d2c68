"""End-to-end acceptance gate.

Each test covers one finite, exactly checkable claim about the forest graph
operator and prints a single pass/fail line with its runtime.  Every check is
exact: no tolerances, no sampling slack beyond the fixed random seed used for
the Whitney trials.  Run with `pytest -v tests/test_acceptance.py`.
"""

import time
from contextlib import contextmanager

from forestgraph import (Graph, build_forest_graph, cartesian_product,
                         classify, clique_witness_from_complete,
                         clique_witness_from_cycle, complete_graph,
                         count_maximal_forests, cycle_graph, depth_lower_bound,
                         enumerate_graphs, exchange_path, find_roots,
                         forest_distance, is_isomorphic, is_stable,
                         maximal_forests, no_root_prune)
from forestgraph.checks import (check_convergence, check_root_exclusions,
                                check_stability, divergence_growth_evidence,
                                whitney_invariance_trials)
from forestgraph.graphs import bridges, components

from .oracles import bfs_distances, hamiltonian_cycle

BOWTIE = Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])


@contextmanager
def criterion(label, seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"fail  {label}")
        raise
    elapsed = time.perf_counter() - start
    verdict = "pass" if elapsed < seconds else "fail"
    print(f"{verdict}  {label}  [{elapsed:.2f}s, limit {seconds:g}s]")
    assert elapsed < seconds, f"{label}: {elapsed:.2f}s exceeds {seconds:g}s"


def test_cycle_forest_graphs_are_complete():
    with criterion("F(C_n) isomorphic to K_n for n = 3..7", 1.0):
        for n in range(3, 8):
            fg = build_forest_graph(cycle_graph(n))
            assert len(fg.family) == n
            assert is_isomorphic(fg.graph, complete_graph(n))


def test_complete_graph_counts():
    with criterion("count(K_n) = n^(n-2) for n = 2..8, enumeration to n = 6", 5.0):
        for n in range(2, 9):
            assert count_maximal_forests(complete_graph(n)) == n ** (n - 2)
        for n in range(2, 7):
            assert len(maximal_forests(complete_graph(n))) == n ** (n - 2)
        assert len(maximal_forests(complete_graph(6))) == 1296


def test_exchange_distance_is_graph_distance():
    with criterion("exchange metric matches breadth-first distance, 52 graphs",
                   30.0):
        corpus = [g for n in range(1, 6) for g in enumerate_graphs(n)]
        assert len(corpus) >= 50
        for g in corpus:
            fg = build_forest_graph(g)
            size = len(fg.family)
            assert size <= 500
            for i in range(size):
                dist = bfs_distances(fg.graph, i)
                for j in range(size):
                    d = forest_distance(fg.family[i], fg.family[j])
                    assert d == dist[j]
                    assert len(exchange_path(g, fg.family[i], fg.family[j])) == d + 1


def test_bowtie_grid_and_nine_clique():
    with criterion("F(bowtie) = C_3 x C_3 grid; 9-clique witness one step up",
                   10.0):
        fg = build_forest_graph(BOWTIE)
        assert fg.graph.vertex_count == 9 and len(fg.graph.edges) == 18
        rook = cartesian_product(cycle_graph(3), cycle_graph(3))
        assert is_isomorphic(fg.graph, rook)
        ring = hamiltonian_cycle(fg.graph)
        assert ring is not None and len(ring.vertices) == 9
        witness = clique_witness_from_cycle(fg.graph, ring)
        assert witness.size == 9
        assert witness.verify()


def test_k4_forest_graph_shape():
    with criterion("F(K_4): 16 vertices, connected, no isthmus, Hamiltonian",
                   10.0):
        fg = build_forest_graph(complete_graph(4)).graph
        assert fg.vertex_count == 16
        assert len(components(fg)) == 1
        assert not bridges(fg)
        assert min(fg.degree(v) for v in range(16)) >= 2
        ring = hamiltonian_cycle(fg)
        assert ring is not None and len(ring.vertices) == 16


def test_classifier_matches_iteration():
    with criterion("classify agrees with measured iteration, all graphs to "
                   "6 vertices", 300.0):
        corpus = [g for n in range(1, 7) for g in enumerate_graphs(n)]
        assert len(corpus) == 208
        result = check_convergence(max_n=6)
        assert result.ok, result.detail
        # spot-check the divergent evidence shape: the bound alone, every size
        fg = build_forest_graph(complete_graph(4))
        evidence = divergence_growth_evidence(complete_graph(4), fg)
        assert evidence["grew"] and evidence["mode"] == "exchange-bound"
        fg6 = build_forest_graph(complete_graph(6))
        evidence6 = divergence_growth_evidence(complete_graph(6), fg6)
        assert evidence6["grew"] and evidence6["mode"] == "exchange-bound"


def test_classify_scales_with_blocks():
    with criterion("classify K_30 and a chain of 60 triangles", 1.0):
        verdict = classify(complete_graph(30))
        assert verdict.witness_kind == "long_cycle"
        assert verdict.witness[0].vertices == (0, 1, 2, 3)
        chain = Graph(121, [e for i in range(0, 120, 2)
                            for e in ((i, i + 1), (i, i + 2), (i + 1, i + 2))])
        verdict = classify(chain)
        assert verdict.witness_kind == "two_triangles"
        assert [t.vertices for t in verdict.witness] == [(0, 1, 2), (2, 3, 4)]


def test_counts_multiply_over_blocks():
    triangles = Graph(2001, [e for i in range(0, 2000, 2)
                             for e in ((i, i + 1), (i, i + 2), (i + 1, i + 2))])
    with criterion("count a chain of 1000 triangles: 3^1000", 1.0):
        assert count_maximal_forests(triangles) == 3 ** 1000
    k4s = Graph(601, [(3 * i + a, 3 * i + b) for i in range(200)
                      for a in range(4) for b in range(a + 1, 4)])
    with criterion("count a chain of 200 K_4 blocks: 16^200", 1.0):
        assert count_maximal_forests(k4s) == 16 ** 200


def test_count_at_the_header_cap():
    g = Graph(10 ** 6, [(0, 1)])
    with criterion("count one edge among 10^6 vertices", 1.0):
        assert count_maximal_forests(g) == 1


def test_stable_graphs_are_k1_and_k3():
    with criterion("K_1 and K_3 are the only stable graphs to 5 vertices",
                   60.0):
        result = check_stability(max_n=5)
        assert result.ok, result.detail
        assert is_stable(complete_graph(1))
        assert is_stable(complete_graph(3))


def test_root_search_and_exclusions():
    with criterion("roots of K_4 = {C_4}, depth 1 proven; 4 prune cases",
                   120.0):
        found = find_roots(complete_graph(4), max_vertices=6)
        assert len(found.roots) == 1
        assert is_isomorphic(found.roots[0], cycle_graph(4))
        report = depth_lower_bound(complete_graph(4))
        assert report.kind == "chain" and report.depth == 1
        assert report.provable_stop and report.stop.reason == "bipartite"
        assert report.chain.verify()
        assert no_root_prune(cycle_graph(4)).reason == "bipartite"
        k33 = Graph(6, [(a, b) for a in (0, 1, 2) for b in (3, 4, 5)])
        assert no_root_prune(k33).reason == "bipartite"
        isthmus = Graph(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
        assert no_root_prune(isthmus).reason == "isthmus-or-isolated"
        split = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        assert no_root_prune(split).reason == "disconnected"
        assert check_root_exclusions().ok


def test_whitney_operations_preserve_forests():
    with criterion("100 random Whitney moves preserve forest families", 60.0):
        applied, failures = whitney_invariance_trials(count=100, seed=0)
        assert applied == 100
        assert failures == []


def test_clique_from_path_through_complete():
    with criterion("path swaps through K_n give floor(n^2/4) forests, "
                   "n = 2..5", 1.0):
        for n in range(2, 6):
            witness = clique_witness_from_complete(complete_graph(n),
                                                   tuple(range(n)))
            assert witness.size == n * n // 4
            assert witness.verify()
            # same clique sitting inside a larger host
            host = Graph(n + 1, list(complete_graph(n).edges) + [(0, n)])
            inside = clique_witness_from_complete(host, tuple(range(n)))
            assert inside.size == n * n // 4
            assert inside.verify()
