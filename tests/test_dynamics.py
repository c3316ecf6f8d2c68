"""Convergence classification, stability, and the clique-growth constructions."""

import pytest

import itertools

from forestgraph import (BudgetError, Cycle, Graph, GraphInputError, blocks,
                         build_forest_graph, classify,
                         clique_witness_from_complete, clique_witness_from_cycle,
                         clique_witness_from_two_triangles, complete_graph,
                         cycle_graph, enumerate_graphs, is_isomorphic, is_stable,
                         iterate_F, path_graph, unique_cycle,
                         verify_clique_growth)
from forestgraph.dynamics import (CONVERGENT, DIVERGENT, WITNESS_LONG_CYCLE,
                                  WITNESS_TWO_TRIANGLES, _long_cycle_from_tree)
from forestgraph.graphs import find_long_cycle

BOWTIE = Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
TRIANGLE_TAIL = Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)])


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
        # one block: the search from 0 enters the clique on 2..20 through 2 and
        # must try every path there before it leaves through 21
        edges = [(0, 1), (1, 2), (1, 20), (2, 21), (21, 22), (0, 22)]
        g = Graph(23, edges + list(itertools.combinations(range(2, 21), 2)))
        assert find_long_cycle(g, 4) is None
        verdict = classify(g)
        assert verdict.witness_kind == WITNESS_LONG_CYCLE
        assert verdict.witness[0].host is g and verdict.witness[0].length >= 4

    def test_tree_cycle_in_blocks_through_vertex_0(self):
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
            assert _long_cycle_from_tree(sub).length >= 4, sub

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
