"""Tests of the benchmark itself: its oracles against the package on a small
corpus, traced versus untraced outputs, seeded input generation and the
metric catalogue.

    python3 -m pytest perfbench
"""

import itertools
import json
import os
import random
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import graphgen as gen  # noqa: E402
import oracles as orc  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Operations too slow for a unit test; the rest of each round is exercised.
SLOW = ("build.K7", "iterate2.bowtie", "build.t4000", "build.t8000", "classify.chain14",
        "classify.chain15", "classify.chain16", "count.n1", "count.n2", "build.b7680",
        "build.b1920", "cli.roots.F(C", "cli.roots.F(bowtie)", "cli.depth.F(C",
        "cli.depth.F(bowtie)", "cli.verify")


ENTRY_POINTS = {
    "fgraph-dense": ("forest_graph.build", "dynamics.iterate"),
    "fgraph-blocks": ("forest_graph.build", "forests.enumerate", "forests.count",
                      "dynamics.classify"),
    "cli-queries": ("cli.main", "roots.find_roots", "io.parse"),
}


@pytest.fixture(scope="module")
def P():
    return run.import_package()


def corpus(seed=0, count=60):
    rng = random.Random(seed)
    graphs = [gen.small_graph(rng, max_forests=200) for _ in range(count)]
    graphs += [gen.complete(n) for n in range(1, 6)] + [gen.cycle(n) for n in range(3, 7)]
    graphs += [gen.BOWTIE, (1, []), (3, []), gen.triangle_chain(3)]
    return graphs


def test_counts_and_shapes_match_package(P):
    for n, edges in corpus():
        g = P.graphs.Graph(n, edges)
        fgr = P.forest_graph.build_forest_graph(g)
        assert orc.tree_count(n, edges) == P.forests.count_maximal_forests(g)
        assert orc.forest_graph_shape(n, edges) == (len(fgr.family), len(fgr.graph.edges))


def test_closed_forms():
    for n in range(1, 7):
        assert orc.complete_shape(n) == orc.forest_graph_shape(*gen.complete(n))
    assert orc.complete_shape(7) == (16807, 365085)
    chain = [(a + 3 * i, b + 3 * i) for i in range(3) for a, b in gen.BLOCK_EDGES["K4"]]
    assert orc.block_shape(["K4"] * 3) == orc.forest_graph_shape(10, chain) == (4096, 41472)


def test_block_formula_matches_package(P):
    rng = random.Random(3)
    for target in (20, 60, 200, 500):
        blocks = gen.blocks_near(rng, target, 0.2)
        n, edges = gen.block_graph(rng, blocks, parts=rng.randint(1, 3))
        fgr = P.forest_graph.build_forest_graph(P.graphs.Graph(n, edges))
        assert orc.block_shape(blocks) == (len(fgr.family), len(fgr.graph.edges))
    n, edges, blocks = gen.sized_block_graph(rng, 60)
    assert orc.block_tree_count(blocks) == P.forests.count_maximal_forests(P.graphs.Graph(n, edges))


def test_verdicts_match_package(P):
    for n, edges in corpus(seed=1):
        verdict = P.dynamics.classify(P.graphs.Graph(n, edges))
        status, limit, steps, kind = orc.expected_verdict(n, edges)
        assert (verdict.status, verdict.limit, verdict.steps, verdict.witness_kind) == \
            (status, limit, steps, kind)
        if kind is not None:
            walks = [list(c.vertices) for c in verdict.witness]
            assert orc.witness_ok(n, edges, kind, walks)


def test_permutation_isomorphism_matches_package(P):
    graphs = corpus(seed=2, count=25)
    rng = random.Random(4)
    pairs = [(a, b) for a, b in itertools.combinations(graphs, 2) if a[0] == b[0]]
    pairs += [(g, gen.relabel(rng, *g)) for g in graphs]
    for a, b in pairs:
        assert orc.isomorphic(*a, *b) == P.graphs.is_isomorphic(P.graphs.Graph(*a),
                                                                P.graphs.Graph(*b))


def test_forest_graph_by_definition_matches_package(P):
    for g in (gen.cycle(4), gen.BOWTIE, gen.complete(4)):
        order, adj = orc.forest_graph(*g)
        fgr = P.forest_graph.build_forest_graph(P.graphs.Graph(*g)).graph
        assert (order, sorted(adj)) == (fgr.vertex_count, list(fgr.edges))


def fast_ops(P, name, seed):
    ops = [op for op in workloads.WORKLOADS[name](P, seed) if not op.label.startswith(SLOW)]
    for op in ops:
        op.prepare()
    return ops


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_and_untraced_outputs_identical(P, name):
    ops = fast_ops(P, name, seed=7)
    budget_error = P.graphs.BudgetError
    plain, _, _ = run.run_rounds(ops, 0, budget_error)
    digests = [op.digest for op in ops]
    tracer = tracing.Tracer()
    with tracer.installed(P):
        traced, rounds, wall = run.run_rounds(ops, 0, budget_error, tracer)
    # verify() fails any repeat whose digest differs from the first result's
    assert [r[3] for r in traced] == [r[3] for r in plain]
    assert all(r[3] in ("ok", "refused") for r in plain + traced)
    assert [op.digest for op in ops] == digests
    assert all(r[3] != "refused" or "F(K4)" in r[1] for r in plain)
    metrics = tracer.metrics(rounds, wall, 0.0, run.net_source_lines())
    assert [m for m in metrics] == [name for name, _, _ in tracing.CATALOGUE]
    self_sum = sum(metrics[f"layer.{layer}.self_s"]["value"] for layer in tracing.LAYERS)
    assert 0 < self_sum <= metrics["trace.wall_s"]["value"]
    for entry in ENTRY_POINTS[name]:   # the calls the workload makes are traced
        assert metrics[f"{entry}.calls"]["value"] > 0


def test_probes_reach_every_layer(P):
    probes = workloads.probe_ops(P)
    for op in probes:
        op.prepare()
    tracer = tracing.Tracer()
    with tracer.installed(P):
        records, rounds, wall = run.run_rounds(probes, 0, P.graphs.BudgetError, tracer)
    assert all(r[3] == "ok" for r in records)
    metrics = tracer.metrics(rounds, wall, 0.0, 1)
    assert [k for k, v in metrics.items() if v["unit"] == "s" and v["value"] <= 0] == []


def test_tracing_restores_package(P):
    before = (P.forest_graph.build_forest_graph, P.graphs.Graph.__init__, P.cli.main)
    with tracing.Tracer().installed(P):
        assert P.forest_graph.build_forest_graph is not before[0]
        assert P.dynamics.build_forest_graph is P.forest_graph.build_forest_graph
    assert (P.forest_graph.build_forest_graph, P.graphs.Graph.__init__, P.cli.main) == before


def test_funnel_counts_on_root_search(P):
    tracer = tracing.Tracer()
    with tracer.installed(P):
        result = P.roots.find_roots(P.graphs.Graph(*gen.complete(4)), max_vertices=5)
    counts = tracer.counts
    assert len(result.roots) == 1
    assert counts["roots.funnel.isomorphic"] == 1
    assert counts["roots.funnel.candidates"] >= counts["roots.funnel.connected"] \
        >= counts["roots.funnel.isthmus_free"] >= counts["roots.funnel.count_match"] \
        == counts["roots.funnel.fgraph_built"] >= 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_seed_gives_identical_inputs(P, name):
    first = [(op.label, op.given) for op in workloads.WORKLOADS[name](P, 11)]
    again = [(op.label, op.given) for op in workloads.WORKLOADS[name](P, 11)]
    other = [(op.label, op.given) for op in workloads.WORKLOADS[name](P, 12)]
    assert first == again
    assert first != other
    assert len(first) % 2 == 1   # the median is one operation, not a mean of two


def test_tail_ranks_failures_last():
    records = [(i, "a", i / 100, "ok", 0) for i in range(30)]
    latency, percentile, samples = run.tail(records)
    assert (latency, samples) == (0.19, 30) and percentile == pytest.approx(100 * 20 / 30)
    records[0] = (0, "a", 0.0, "failed", 0)
    assert run.tail(records)[0] == 0.2


def test_benchmark_file_matches_code():
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as handle:
        spec = json.load(handle)
    listed = [w["name"] for w in spec["workloads"]]
    assert listed == [name for name in workloads.WORKLOADS if name in listed]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(tracing.CATALOGUE)
    records = [(i % 4, "a", 0.01 * (i + 1), "ok", 3) for i in range(12)]
    metrics = run.end_to_end(records, [0.5])
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        [(k, v["unit"]) for k, v in metrics.items()]
