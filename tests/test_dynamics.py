"""Convergence classification, stability, and the clique-growth constructions."""

import pytest

import itertools
import random
import time

from forestgraph import (BudgetError, Cycle, Graph, GraphInputError, blocks,
                         build_forest_graph, classify,
                         clique_witness_from_complete, clique_witness_from_cycle,
                         clique_witness_from_two_triangles, complete_graph,
                         cycle_graph, enumerate_graphs, is_isomorphic, is_stable,
                         iterate_F, path_graph,
                         verify_clique_growth)
from forestgraph.dynamics import (CONVERGENT, DIVERGENT, GRID_CYCLE,
                                  WITNESS_LONG_CYCLE, WITNESS_TWO_TRIANGLES,
                                  _long_cycle_in_block)
from forestgraph import dynamics, forest_graph, graphs, roots
from forestgraph.checks import _bigger_clique_ring, divergence_bigger_clique
from forestgraph.forests import MaximalForest

from .oracles import brute_force_cycles, brute_force_isomorphic, unique_cycle

BOWTIE = Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
TRIANGLE_TAIL = Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)])
TRAP = Graph(23, [(0, 1), (1, 2), (1, 20), (2, 21), (21, 22), (0, 22)]
             + list(itertools.combinations(range(2, 21), 2)))


class TestIterate:
    def test_zero_steps_identity(self):
        g = BOWTIE
        assert iterate_F(g, 0) is g

    def test_one_step(self):
        assert iterate_F(cycle_graph(4), 1).vertex_count == 4
        assert is_isomorphic(iterate_F(cycle_graph(4), 1), complete_graph(4))

    def test_two_steps(self):
        assert iterate_F(cycle_graph(4), 2).vertex_count == 16

    def test_budget_error_carries_step_and_count(self):
        with pytest.raises(BudgetError) as info:
            iterate_F(cycle_graph(4), 3)
        assert info.value.step == 3
        assert info.value.count == 223304744960

    def test_negative_rejected(self):
        with pytest.raises(GraphInputError):
            iterate_F(BOWTIE, -1)


class TestClassify:
    def test_k1(self):
        verdict = classify(Graph(1, []))
        assert verdict.status == CONVERGENT
        assert verdict.limit == "K1" and verdict.steps == 0

    def test_k3(self):
        verdict = classify(complete_graph(3))
        assert verdict.status == CONVERGENT
        assert verdict.limit == "K3" and verdict.steps == 0

    def test_forest(self):
        verdict = classify(path_graph(4))
        assert verdict.status == CONVERGENT
        assert verdict.limit == "K1" and verdict.steps == 1

    def test_triangle_with_tail(self):
        verdict = classify(TRIANGLE_TAIL)
        assert verdict.status == CONVERGENT
        assert verdict.limit == "K3" and verdict.steps == 1

    def test_long_cycle_witness(self):
        verdict = classify(cycle_graph(5))
        assert verdict.status == DIVERGENT
        assert verdict.witness_kind == WITNESS_LONG_CYCLE
        assert verdict.witness[0].length == 5

    def test_bowtie_witness(self):
        verdict = classify(BOWTIE)
        assert verdict.status == DIVERGENT
        assert verdict.witness_kind == WITNESS_TWO_TRIANGLES
        t1, t2 = verdict.witness
        assert t1.length == t2.length == 3
        assert t1.edge_bits() & t2.edge_bits() == 0

    def test_k4_long_cycle(self):
        verdict = classify(complete_graph(4))
        assert verdict.status == DIVERGENT
        assert verdict.witness_kind == WITNESS_LONG_CYCLE
        assert verdict.witness[0].length >= 4

    def test_long_cycle_when_search_budget_runs_out(self):
        # one block: a depth-first search for a long cycle from 0 enters the
        # clique on 2..20 through 2 and must try every path there before it
        # leaves through 21, so a budgeted search runs out; classify searches
        # nothing
        g = TRAP
        verdict = classify(g)
        assert verdict.witness_kind == WITNESS_LONG_CYCLE
        assert verdict.witness[0].host is g and verdict.witness[0].length >= 4

    def test_classify_runs_no_budgeted_search(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("classify ran a search")

        # the budgeted searches left in graphs
        for module, name in ((graphs, "max_clique"), (graphs, "find_isomorphism"),
                             (dynamics, "is_isomorphic")):
            monkeypatch.setattr(module, name, refuse)
        for g in [g for n in range(1, 7) for g in enumerate_graphs(n)] + [TRAP]:
            verdict = classify(g)
            if verdict.witness_kind == WITNESS_LONG_CYCLE:
                cyc, = verdict.witness
                assert isinstance(cyc, Cycle) and cyc.host is g and cyc.length >= 4, g

    def test_long_cycle_in_block_on_rooted_subgraphs(self):
        subs = []
        for g in enumerate_graphs(6):
            if all(g.degree(v) for v in range(6)) and len(blocks(g)) == 1:
                for r in range(6):
                    swap = {0: r, r: 0}
                    subs.append(Graph(6, [(swap.get(u, u), swap.get(v, v))
                                          for u, v in g.edges]))
        k4 = list(itertools.combinations(range(4), 2))
        subs.append(Graph(7, k4 + [(0, 4), (4, 5), (5, 6), (0, 6)]))
        subs.append(Graph(7, k4 + [(0, 4), (0, 5), (0, 6), (4, 5), (4, 6), (5, 6)]))
        assert len(subs) > 300
        for sub in subs:
            block = blocks(sub)[0]
            cyc = _long_cycle_in_block(sub, block)
            assert cyc.length >= 4 and set(cyc.edge_ids) <= set(block), sub

    def test_witness_serialization(self):
        verdict = classify(BOWTIE)
        kv = verdict.to_kv()
        assert "status=divergent" in kv
        assert "witness_kind=two_triangles" in kv
        as_dict = verdict.to_dict()
        assert as_dict["status"] == "divergent"
        assert len(as_dict["witness_edges"]) == 2

    def test_convergent_serialization(self):
        kv = classify(TRIANGLE_TAIL).to_kv()
        assert "limit=K3" in kv and "steps=1" in kv and "witness_edges=-" in kv

    def test_divergent_graphs_really_diverge(self):
        # the forest count strictly grows at the first iterate
        from forestgraph import count_maximal_forests
        for n in range(1, 6):
            for g in enumerate_graphs(n):
                verdict = classify(g)
                if verdict.status != DIVERGENT:
                    continue
                fg = build_forest_graph(g)
                assert count_maximal_forests(fg.graph) > len(fg.family), g


def relabeled(g, rng):
    perm = list(range(g.vertex_count))
    rng.shuffle(perm)
    return Graph(g.vertex_count, [(perm[u], perm[v]) for u, v in g.edges])


class TestClassifyByTheorem:
    """classify reads its verdict off one block pass; these tests check it
    against brute force and keep it from searching."""

    def test_agrees_with_cycle_oracle(self):
        rng = random.Random(8)
        corpus = [h for n in range(1, 7) for g in enumerate_graphs(n)
                  for h in (g, relabeled(g, rng))]
        assert len(corpus) == 416
        for g in corpus:
            cycles = brute_force_cycles(g)
            verdict = classify(g)
            if not cycles or (len(cycles) == 1 and len(min(cycles)) == 3):
                limit = complete_graph(1 if not cycles else 3)
                assert verdict.status == CONVERGENT, g
                assert verdict.limit == f"K{limit.vertex_count}", g
                # the number of F applications that first gives the limit
                current, steps = g, 0
                while not brute_force_isomorphic(current, limit):
                    current, steps = build_forest_graph(current).graph, steps + 1
                    assert steps <= 2, g
                assert verdict.steps == steps, g
            else:
                assert verdict.status == DIVERGENT, g
                witness = [frozenset(c.edge_ids) for c in verdict.witness]
                assert all(c.host is g for c in verdict.witness)
                assert all(c in cycles for c in witness), g
                if verdict.witness_kind == WITNESS_LONG_CYCLE:
                    assert len(witness) == 1 and len(witness[0]) >= 4, g
                else:
                    assert verdict.witness_kind == WITNESS_TWO_TRIANGLES
                    first, second = witness
                    assert len(first) == len(second) == 3 and not first & second, g

    def test_no_forest_graph_or_isomorphism(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("answered by search, not by the theorem")

        for module, name in ((graphs, "find_isomorphism"), (graphs, "components"),
                             (forest_graph, "build_forest_graph"),
                             (dynamics, "build_forest_graph"),
                             (roots, "build_forest_graph"), (roots, "find_isomorphism")):
            monkeypatch.setattr(module, name, refuse)
        for n in range(1, 6):
            for g in enumerate_graphs(n):
                classify(g)
        assert roots.depth_lower_bound(Graph(1, [])).kind == "stable"
        assert roots.depth_lower_bound(complete_graph(3)).kind == "stable"

    @pytest.mark.parametrize("make", [lambda: Graph(10**6, [(0, 1)]),
                                      lambda: path_graph(10**5)],
                             ids=["one-edge-among-10^6", "path-10^5"])
    def test_linear_time(self, make):
        g = make()
        start = time.perf_counter()
        verdict = classify(g)
        assert time.perf_counter() - start < 1
        assert (verdict.status, verdict.limit, verdict.steps) == (CONVERGENT, "K1", 1)


class TestStability:
    def test_k1_and_k3(self):
        assert is_stable(Graph(1, []))
        assert is_stable(complete_graph(3))

    def test_nothing_else_up_to_5(self):
        stable = []
        for n in range(1, 6):
            for g in enumerate_graphs(n):
                if is_stable(g):
                    stable.append(g)
        assert len(stable) == 2

    def test_c4_not_stable(self):
        assert not is_stable(cycle_graph(4))


class TestCliqueWitnesses:
    def test_from_cycle_sizes(self):
        for n in range(3, 7):
            g = cycle_graph(n)
            witness = clique_witness_from_cycle(g, unique_cycle(g))
            assert witness.size == n
            assert witness.verify()

    def test_from_cycle_inside_larger_graph(self):
        g = complete_graph(5)
        ring = Cycle(g, (0, 1, 2, 3, 4))
        witness = clique_witness_from_cycle(g, ring)
        assert witness.size == 5 and witness.verify()

    def test_from_complete_floor_quarter_squared(self):
        for n in range(2, 6):
            g = complete_graph(n)
            witness = clique_witness_from_complete(g, range(n))
            assert witness.size == n * n // 4
            assert witness.verify()

    def test_from_complete_inside_larger_graph(self):
        g = complete_graph(6)
        witness = clique_witness_from_complete(g, (1, 2, 4, 5))
        assert witness.size == 4 and witness.verify()

    def test_from_complete_rejects_non_clique(self):
        with pytest.raises(GraphInputError):
            clique_witness_from_complete(cycle_graph(4), (0, 1, 2))

    def test_from_two_triangles(self):
        verdict = classify(BOWTIE)
        t1, t2 = verdict.witness
        witness = clique_witness_from_two_triangles(BOWTIE, t1, t2)
        assert witness.size == 9
        assert witness.grid_shape == (3, 3)
        assert witness.verify()

    def test_two_triangles_grid_is_row_major(self):
        # cell (r, c) drops the r-th edge of the first triangle and the c-th
        # edge of the second, so the fixed 9-cycle walks grid neighbours
        t1, t2 = classify(BOWTIE).witness
        witness = clique_witness_from_two_triangles(BOWTIE, t1, t2)
        for r, i in enumerate(sorted(t1.edge_ids)):
            for c, j in enumerate(sorted(t2.edge_ids)):
                dropped = (t1.edge_bits() | t2.edge_bits()) & ~witness.forests[3 * r + c].bits
                assert dropped == (1 << i) | (1 << j)
        assert sorted(GRID_CYCLE) == list(range(9))
        for a, b in zip(GRID_CYCLE, GRID_CYCLE[1:] + GRID_CYCLE[:1]):
            assert (a // 3 == b // 3) != (a % 3 == b % 3)

    def test_two_triangles_rejects_shared_edge(self):
        g = Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
        t1 = Cycle(g, (0, 1, 2))
        t2 = Cycle(g, (1, 2, 3))
        with pytest.raises(GraphInputError):
            clique_witness_from_two_triangles(g, t1, t2)

    def test_witness_forests_are_forests_of_host(self):
        verdict = classify(BOWTIE)
        witness = clique_witness_from_two_triangles(BOWTIE, *verdict.witness)
        family = build_forest_graph(BOWTIE).family
        for f in witness.forests:
            family.index_of(f)  # raises if absent


class TestCliqueGrowth:
    def test_bowtie_two_stages(self):
        report = verify_clique_growth(BOWTIE, 2)
        assert report.all_verified()
        assert [s.size for s in report.steps] == [9, 9]
        assert report.steps[0].construction == "triangle-pair-grid"
        assert report.steps[1].construction == "cycle-swap"

    def test_cycle_growth(self):
        report = verify_clique_growth(cycle_graph(5), 2)
        assert report.all_verified()
        assert [s.size for s in report.steps] == [5, 6]

    def test_c6_three_stages(self):
        report = verify_clique_growth(cycle_graph(6), 3)
        assert report.all_verified()
        assert [s.size for s in report.steps] == [6, 9, 20]

    def test_rejects_convergent(self):
        with pytest.raises(GraphInputError):
            verify_clique_growth(path_graph(3), 1)

    def test_budget_annotated_with_step(self):
        with pytest.raises(BudgetError) as info:
            verify_clique_growth(cycle_graph(5), 3, budget=100)
        assert info.value.step == 3


class TestBiggerClique:
    """The ring behind `divergence_bigger_clique` is built from g."""

    @pytest.mark.parametrize("g, size", [
        (complete_graph(4), 5),  # closed by the chord forest
        (complete_graph(5), 6),
        (cycle_graph(5), 5),
        (Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]), 4),  # K_4 - e
        (BOWTIE, 9),
    ], ids=["K4", "K5", "C5", "K4-e", "bowtie"])
    def test_witness_size(self, g, size):
        witness = divergence_bigger_clique(g, build_forest_graph(g))
        assert witness.size == size and witness.verify()

    def test_ring_forests_adjacent_in_forest_graph(self):
        divergent = 0
        for g in [g for n in range(1, 7) for g in enumerate_graphs(n)]:
            clique = graphs.max_clique(g)
            ring = _bigger_clique_ring(g, clique)
            if classify(g).status == CONVERGENT:
                assert ring is None, g
                continue
            divergent += 1
            assert len(ring) > len(clique), g
            fg = build_forest_graph(g)
            ids = [fg.forest_index(MaximalForest(g, f.bits)) for f in ring]
            assert len(set(ids)) == len(ids), g
            assert all(fg.graph.has_edge(a, b) for a, b in zip(ids, ids[1:] + ids[:1])), g
        assert divergent == 142

    def test_no_long_cycle_search_left(self):
        assert [name for name in dir(graphs) if "long_cycle" in name] == []
