"""Convergence classification, stability, and the clique-growth constructions."""

import pytest

import itertools
import random
import time

from forestgraph import (BudgetError, Cycle, Graph, GraphInputError, blocks,
                         build_forest_graph, cartesian_product, classify,
                         clique_witness_from_complete, clique_witness_from_cycle,
                         clique_witness_from_two_triangles, complete_graph,
                         cycle_graph, enumerate_graphs, extend_to_maximal,
                         is_isomorphic, is_stable, iterate_F, maximal_forests, path_graph,
                         ring_witness_from_clique, verify_clique_growth)
from forestgraph.dynamics import (CONVERGENT, DIVERGENT, RING_FROM_TRIANGLES,
                                  WITNESS_LONG_CYCLE, WITNESS_TWO_TRIANGLES,
                                  _long_cycle_in_block)
from forestgraph import checks, dynamics, forest_graph, forests, graphs, roots
from forestgraph.checks import divergence_bigger_clique
from forestgraph.forests import FOREST_BUDGET, MaximalForest

from .oracles import (brute_force_cycles, brute_force_isomorphic,
                      brute_force_max_clique_size, unique_cycle)

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

        # the budgeted searches left in graphs; dynamics imports none of them
        for module, name in ((graphs, "find_isomorphism"), (graphs, "is_isomorphic")):
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
        assert kv.splitlines()[-1].count(";") == 1  # two edge groups

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

    def test_verify_checks_the_theorem(self, monkeypatch):
        assert checks.check_stability(4).ok
        monkeypatch.setattr(dynamics, "is_stable", lambda g: g.vertex_count == 1)
        result = checks.check_stability(4)
        assert not result.ok and "disagrees" in result.detail

    def test_answered_by_theorem(self, monkeypatch):
        g = cycle_graph(10**5)
        start = time.perf_counter()
        assert not is_stable(g)
        assert time.perf_counter() - start < 0.01
        monkeypatch.setattr(dynamics, "build_forest_graph", None)
        assert is_stable(complete_graph(3)) and not is_stable(complete_graph(4))


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
        assert witness.ring and witness.construction == RING_FROM_TRIANGLES
        assert witness.verify()

    def test_two_triangles_ring_walks_the_grid(self):
        # each forest drops one edge of each triangle, all nine pairs appear,
        # and consecutive forests (the last and the first too) share the
        # edge dropped from one triangle: a Hamiltonian cycle of C_3 x C_3
        t1, t2 = classify(BOWTIE).witness
        witness = clique_witness_from_two_triangles(BOWTIE, t1, t2)
        union = t1.edge_bits() | t2.edge_bits()
        cells = []
        for f in witness.forests:
            dropped = union & ~f.bits
            cells.append((dropped & t1.edge_bits(), dropped & t2.edge_bits()))
        assert len(set(cells)) == 9
        assert all(a.bit_count() == b.bit_count() == 1 for a, b in cells)
        for (a, b), (c, d) in zip(cells, cells[1:] + cells[:1]):
            assert (a == c) != (b == d)
        # the walk the package has always used, cells numbered row-major
        rows = [sorted(t1.edge_ids).index(a.bit_length() - 1) * 3
                + sorted(t2.edge_ids).index(b.bit_length() - 1) for a, b in cells]
        assert rows == [0, 1, 2, 5, 3, 4, 7, 8, 6]

    def test_ring_from_clique(self):
        for n in (4, 5, 6):
            witness = ring_witness_from_clique(complete_graph(n), range(n))
            assert witness.ring and witness.size == n + 1 and witness.verify()
        # the ring is no clique: the chord forest is two exchanges from the rest
        witness = ring_witness_from_clique(complete_graph(4), range(4))
        assert not dynamics.CliqueWitness(witness.host, witness.construction,
                                          witness.forests).verify()
        with pytest.raises(GraphInputError):
            ring_witness_from_clique(complete_graph(4), range(3))
        with pytest.raises(GraphInputError):
            ring_witness_from_clique(cycle_graph(4), range(4))

    def test_verify_checks_the_host(self):
        # the five forests of C_5 are pairwise one exchange apart, but they
        # are no forests of K_4
        five = tuple(maximal_forests(cycle_graph(5)))
        witness = dynamics.CliqueWitness(complete_graph(4), dynamics.CLIQUE_FROM_CYCLE, five)
        assert not witness.verify()
        assert dynamics.CliqueWitness(cycle_graph(5), dynamics.CLIQUE_FROM_CYCLE,
                                      five).verify()

    def test_ring_verify_is_definitional(self):
        witness = clique_witness_from_two_triangles(BOWTIE, *classify(BOWTIE).witness)
        fs = witness.forests
        # a repeated forest, a broken closing pair, and a too-short ring fail
        for forests_ in (fs[:8] + fs[:1], fs[1:2] + fs[:1] + fs[2:], fs[:2]):
            assert not dynamics.CliqueWitness(BOWTIE, witness.construction,
                                              forests_, ring=True).verify()

    def test_two_triangles_rejects_shared_edge(self):
        g = Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
        t1 = Cycle(g, (0, 1, 2))
        t2 = Cycle(g, (1, 2, 3))
        with pytest.raises(GraphInputError):
            clique_witness_from_two_triangles(g, t1, t2)

    def test_witness_forests_are_forests_of_host(self):
        verdict = classify(BOWTIE)
        witness = clique_witness_from_two_triangles(BOWTIE, *verdict.witness)
        fg = build_forest_graph(BOWTIE)
        for f in witness.forests:
            fg.forest_index(f)  # raises if absent

    def test_unchecked_forests_pass_validation(self):
        # the constructors build their forests unchecked; on every cycle,
        # clique and pair of edge-disjoint triangles of the graphs up to 5
        # vertices, each must still pass the validating constructor
        built, kinds = 0, set()
        for g in [g for n in range(1, 6) for g in enumerate_graphs(n)]:
            n = g.vertex_count
            witnesses = []
            for k in range(2, n + 1):
                for vs in itertools.combinations(range(n), k):
                    if all(g.has_edge(u, v) for u, v in itertools.combinations(vs, 2)):
                        witnesses.append(clique_witness_from_complete(g, vs))
                        if k >= 4:
                            witnesses.append(ring_witness_from_clique(g, vs))
                for walk in itertools.permutations(range(n), k):
                    if (k >= 3 and walk[0] == min(walk) and walk[1] < walk[-1]
                            and all(g.has_edge(u, v) for u, v in zip(walk, walk[1:] + walk[:1]))):
                        witnesses.append(clique_witness_from_cycle(g, Cycle(g, walk)))
            triangles = [Cycle(g, vs) for vs in itertools.combinations(range(n), 3)
                         if all(g.has_edge(u, v) for u, v in itertools.combinations(vs, 2))]
            for t1, t2 in itertools.combinations(triangles, 2):
                if not t1.edge_bits() & t2.edge_bits():
                    witnesses.append(clique_witness_from_two_triangles(g, t1, t2))
            for witness in witnesses:
                assert witness.verify(), (g, witness.construction)
                kinds.add(witness.construction)
                for f in witness.forests:
                    assert f.host is g and MaximalForest(g, f.bits) == f, g
                    built += 1
        assert kinds == {
            "cycle-swap", "clique-path-swap", "clique-chord-ring", RING_FROM_TRIANGLES}
        assert built > 1000


def _lift(g, report, levels):
    """For k = 1..levels, (F^k(g), the vertices of it that step k's witness
    maps to).  Step 1 lists forests of g.  A later step lists forests of a
    small graph K whose vertex i is vertex i of the previous witness in
    F^{k-1}(g), and T maps to T + R there, R the edges that complete the
    image of the witness's first forest to a maximal forest."""
    host = g
    images = None
    out = []
    for step in report.steps[:levels]:
        witness = step.witness
        if images is None:
            assert witness.host is g
            lifted = witness.forests
        else:
            edge = [host.edge_index(images[a], images[b]) for a, b in witness.host.edges]
            image = [sum(1 << edge[i] for i in f.edge_ids()) for f in witness.forests]
            rest = extend_to_maximal(host, image[0]).bits & ~image[0]
            lifted = [MaximalForest(host, bits | rest) for bits in image]
        fg = build_forest_graph(host)
        images = [fg.forest_index(f) for f in lifted]
        out.append((fg.graph, images))
        host = fg.graph
    return out


class TestCliqueGrowth:
    def test_bowtie_two_stages(self):
        report = verify_clique_growth(BOWTIE, 2)
        assert report.all_verified()
        assert [s.size for s in report.steps] == [9, 9]
        first, second = (s.witness for s in report.steps)
        assert first.ring and first.construction == RING_FROM_TRIANGLES
        assert not second.ring and second.construction == "cycle-swap"

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
        # step 9 would list K_2500's path swap: 1,562,500 forests of
        # 3,123,750 edges, far over FOREST_BUDGET 64-bit words
        with pytest.raises(BudgetError) as info:
            verify_clique_growth(cycle_graph(4), 9)
        assert info.value.step == 9
        assert info.value.budget == FOREST_BUDGET and info.value.count > FOREST_BUDGET

    @pytest.mark.parametrize("m", [28, 10 ** 6])
    def test_refusal_time_does_not_grow_with_m(self, m):
        # the shape sizes square at each step; none past the refused step is
        # computed
        start = time.perf_counter()
        with pytest.raises(BudgetError) as info:
            verify_clique_growth(cycle_graph(4), m)
        assert time.perf_counter() - start < 0.1
        assert info.value.step == 9

    @pytest.mark.parametrize("g", [cycle_graph(4), complete_graph(4), complete_graph(5)],
                             ids=["C4", "K4", "K5"])
    def test_grows_without_an_iterate(self, g):
        start = time.perf_counter()
        report = verify_clique_growth(g, 7)
        assert time.perf_counter() - start < 0.1
        assert report.all_verified()
        assert [s.size for s in report.steps] == [4, 5, 5, 6, 9, 20, 100]
        assert [s.witness.ring for s in report.steps] == [False, True] + [False] * 5

    def test_bowtie_three_stages(self):
        report = verify_clique_growth(BOWTIE, 3)
        assert report.all_verified()
        assert [s.size for s in report.steps] == [9, 9, 20]

    def test_builds_no_forest_graph(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an iterate was built")

        for module, name in ((dynamics, "build_forest_graph"),
                             (forest_graph, "build_forest_graph"),
                             (forests, "_forest_product"), (forests, "maximal_forests")):
            monkeypatch.setattr(module, name, refuse)
        for g in (cycle_graph(4), complete_graph(5), BOWTIE):
            assert verify_clique_growth(g, 7 if g is not BOWTIE else 4).all_verified()

    def test_builds_no_validated_forest(self, monkeypatch):
        def refuse(self, host, edges):
            raise AssertionError("MaximalForest.__init__ called")

        monkeypatch.setattr(MaximalForest, "__init__", refuse)
        growth = [4, 5, 5, 6, 9, 20, 100]
        for g, sizes in ((cycle_graph(4), growth), (complete_graph(4), growth),
                         (complete_graph(5), growth), (BOWTIE, [9, 9, 20, 100])):
            report = verify_clique_growth(g, len(sizes))
            assert report.all_verified(), g
            assert [s.size for s in report.steps] == sizes, g
        k5 = complete_graph(5)
        t1, t2 = classify(BOWTIE).witness
        witnesses = (clique_witness_from_cycle(k5, Cycle(k5, (0, 2, 1, 4, 3))),
                     clique_witness_from_complete(k5, range(5)),
                     ring_witness_from_clique(k5, range(5)),
                     clique_witness_from_two_triangles(BOWTIE, t1, t2))
        assert [w.size for w in witnesses] == [5, 6, 6, 9]
        assert all(w.verify() for w in witnesses)

    def test_cliques_grow_strictly_from_step_3(self):
        divergent = 0
        for g in [g for n in range(1, 7) for g in enumerate_graphs(n)]:
            if classify(g).status == CONVERGENT:
                continue
            divergent += 1
            report = verify_clique_growth(g, 4)
            assert report.all_verified(), g
            cliques = [(s.k, s.size) for s in report.steps if not s.witness.ring]
            for (_, before), (k, after) in zip(cliques, cliques[1:]):
                assert k < 3 or after > before, g
        assert divergent == 142

    @pytest.mark.parametrize("g, m", [(cycle_graph(4), 9), (cycle_graph(200), 2)],
                             ids=["C4-m9", "C200-m2"])
    def test_refused_before_listing(self, g, m):
        start = time.perf_counter()
        with pytest.raises(BudgetError) as info:
            verify_clique_growth(g, m)
        assert time.perf_counter() - start < 1
        assert info.value.step == m

    @pytest.mark.parametrize("g, levels", [(BOWTIE, 2), (cycle_graph(4), 2),
                                           (cycle_graph(5), 2), (complete_graph(4), 1)],
                             ids=["bowtie", "C4", "C5", "K4"])
    def test_witness_embeds_in_built_iterate(self, g, levels):
        report = verify_clique_growth(g, levels)
        for step, (fk, ids) in zip(report.steps, _lift(g, report, levels)):
            assert len(set(ids)) == step.size
            if step.witness.ring:
                assert all(fk.has_edge(a, b) for a, b in zip(ids, ids[1:] + ids[:1]))
            else:
                assert all(fk.has_edge(a, b) for a, b in itertools.combinations(ids, 2))


class TestBiggerClique:
    """The ring behind `divergence_bigger_clique` is built from g."""

    def test_largest_clique_matches_the_oracle(self):
        rook = cartesian_product(cycle_graph(3), cycle_graph(3))
        for g in [g for n in range(8) for g in enumerate_graphs(n)] + [rook]:
            clique = checks._largest_clique(g)
            assert all(g.has_edge(a, b) for a, b in itertools.combinations(clique, 2)), g
            assert len(clique) == brute_force_max_clique_size(g), g
        assert checks._largest_clique(rook) == (0, 1, 2)

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
        # the seed of every divergent graph up to 6 vertices: the chord ring
        # of a maximum clique of four or more, else the growth's first witness
        divergent = 0
        for g in [g for n in range(1, 7) for g in enumerate_graphs(n)]:
            if classify(g).status == CONVERGENT:
                assert divergence_bigger_clique(g, build_forest_graph(g)) is None, g
                continue
            divergent += 1
            clique = checks._largest_clique(g)
            if len(clique) >= 4:
                ring = ring_witness_from_clique(g, clique).forests
            else:
                ring = verify_clique_growth(g, 1).steps[0].witness.forests
            assert len(ring) > len(clique), g
            fg = build_forest_graph(g)
            ids = [fg.forest_index(MaximalForest(g, f.bits)) for f in ring]
            assert len(set(ids)) == len(ids), g
            assert all(fg.graph.has_edge(a, b) for a, b in zip(ids, ids[1:] + ids[:1])), g
        assert divergent == 142

    def test_no_long_cycle_search_left(self):
        assert [name for name in dir(graphs) if "long_cycle" in name] == []
