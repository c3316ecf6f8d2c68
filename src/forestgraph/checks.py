"""Self-verification suite: re-derives the package's key identities on small corpora.

Each check re-tests one structural fact from first principles (brute force,
breadth-first search, definitional re-verification) against the main code
paths.  `run_all` returns one result per check; the CLI prints them as a
pass/fail table and fails the process on the first violated identity.
"""

from __future__ import annotations

import itertools
import random
from collections import namedtuple

from . import dynamics, forest_graph, forests, graphs, roots

CheckResult = namedtuple("CheckResult", "name ok detail")

EXACT_GROWTH_CAP = 125


def _small_corpus(max_n):
    for n in range(1, max_n + 1):
        for g in roots.enumerate_graphs(n):
            yield g


def check_forest_counts(max_n=5):
    """Determinant count == enumeration == definitional subset scan."""
    tried = 0
    for g in _small_corpus(max_n):
        count = forests.count_maximal_forests(g)
        family = forests.maximal_forests(g)
        if len(family) != count:
            return CheckResult("forest-count-vs-enumeration", False,
                               f"count {count} != enumeration {len(family)} on {g!r}")
        if len(g.edges) <= 16:
            brute = forests.brute_force_maximal_forests(g)
            if [f.bits for f in brute] != [f.bits for f in family]:
                return CheckResult("forest-count-vs-enumeration", False,
                                   f"subset scan disagrees on {g!r}")
        tried += 1
    return CheckResult("forest-count-vs-enumeration", True, f"{tried} graphs")


def check_exchange_metric(max_n=5, budget=forests.FOREST_BUDGET):
    """Set-difference distance == breadth-first distance; paths realize it."""
    graphs_checked = 0
    pairs_checked = 0
    for g in _small_corpus(max_n):
        fg = forest_graph.build_forest_graph(g, budget)
        n = len(fg.family)
        dist_rows = [forest_graph._bfs(fg.graph, i) for i in range(n)]
        for i in range(n):
            for j in range(n):
                want = forest_graph.forest_distance(fg.family[i], fg.family[j])
                if dist_rows[i][j] != want:
                    return CheckResult("exchange-distance-metric", False,
                                       f"distance mismatch on {g!r}: {i},{j}")
                path = forest_graph.exchange_path(g, fg.family[i], fg.family[j])
                if len(path) != want + 1:
                    return CheckResult("exchange-distance-metric", False,
                                       f"path length mismatch on {g!r}: {i},{j}")
                pairs_checked += 1
        graphs_checked += 1
    return CheckResult("exchange-distance-metric", True,
                       f"{graphs_checked} graphs, {pairs_checked} forest pairs")


def check_forest_graph_shape(max_n=5):
    """Forest graphs are connected with no isthmus, no isolated vertex, and
    vertex degrees matching the exchange-count formula."""
    tried = 0
    for g in _small_corpus(max_n):
        fg = forest_graph.build_forest_graph(g)
        graph = fg.graph
        if len(graphs.components(graph)) != 1:
            return CheckResult("forest-graph-shape", False, f"F({g!r}) disconnected")
        if graph.vertex_count > 1:
            if any(graph.degree(v) < 2 for v in range(graph.vertex_count)):
                return CheckResult("forest-graph-shape", False,
                                   f"F({g!r}) has a vertex of degree < 2")
            if graphs.bridges(graph):
                return CheckResult("forest-graph-shape", False, f"F({g!r}) has an isthmus")
        for i, forest in enumerate(fg.family):
            expected = 0
            for eid in range(len(g.edges)):
                if eid in forest.edges:
                    continue
                # every non-forest edge closes exactly one cycle with the forest
                ring = _fundamental_cycle_length(g, forest.bits, eid)
                expected += ring - 1
            if graph.degree(i) != expected:
                return CheckResult("forest-graph-shape", False,
                                   f"degree formula fails on {g!r} forest {i}")
        tried += 1
    return CheckResult("forest-graph-shape", True, f"{tried} graphs")


def _fundamental_cycle_length(g, bits, eid):
    u, v = g.edges[eid]
    parent = {u: None}
    queue = [u]
    qi = 0
    adj = {}
    b = bits
    while b:
        lsb = b & -b
        b ^= lsb
        x, y = g.edges[lsb.bit_length() - 1]
        adj.setdefault(x, []).append(y)
        adj.setdefault(y, []).append(x)
    while qi < len(queue):
        x = queue[qi]
        qi += 1
        for y in adj.get(x, ()):
            if y not in parent:
                parent[y] = x
                queue.append(y)
    length = 1
    x = v
    while x != u:
        x = parent[x]
        length += 1
    return length


def divergence_growth_evidence(g, fg, exact_cap=EXACT_GROWTH_CAP):
    """Certify count(F(g)) > count(g) for divergent g, exactly or by exchange bound.

    Small forest graphs get the exact determinant comparison.  For larger ones
    the bound count(F(g)) >= 1 + 2(m - N + 1) applies (one fixed spanning tree
    plus its single exchanges, each non-tree edge contributing at least two,
    all distinct); when even that fails to clear N the exact determinant runs
    regardless.
    """
    c0 = len(fg.family)
    n = fg.graph.vertex_count
    m = len(fg.graph.edges)
    if c0 <= exact_cap:
        c1 = forests.count_maximal_forests(fg.graph)
        return {"mode": "exact", "grew": c1 > c0, "count": c0, "next_count": c1}
    bound = 1 + 2 * (m - n + 1)
    if bound > c0:
        return {"mode": "exchange-bound", "grew": True, "count": c0, "lower_bound": bound}
    c1 = forests.count_maximal_forests(fg.graph)
    return {"mode": "exact", "grew": c1 > c0, "count": c0, "next_count": c1}


def divergence_bigger_clique(g, fg, budget=forests.FOREST_BUDGET):
    """A verified clique witness in F^2(g) strictly larger than any clique of g."""
    omega = len(graphs.max_clique(g))
    ring = graphs.find_long_cycle(fg.graph, omega + 1)
    if ring is None:
        return None
    witness = dynamics.clique_witness_from_cycle(fg.graph, ring)
    if not witness.verify() or witness.size <= omega:
        return None
    return witness


def check_convergence(max_n=5, budget=forests.FOREST_BUDGET):
    """Classifier verdicts agree with measured iteration behavior."""
    convergent = divergent = 0
    for g in _small_corpus(max_n):
        verdict = dynamics.classify(g)
        if verdict.status == dynamics.CONVERGENT:
            limit = graphs.complete_graph(1 if verdict.limit == "K1" else 3)
            current = g
            for _ in range(verdict.steps):
                current = forest_graph.build_forest_graph(current, budget).graph
            if not graphs.is_isomorphic(current, limit):
                return CheckResult("two-step-convergence", False,
                                   f"{g!r} does not reach {verdict.limit} "
                                   f"in {verdict.steps} steps")
            again = forest_graph.build_forest_graph(current, budget).graph
            if not graphs.is_isomorphic(again, limit):
                return CheckResult("two-step-convergence", False,
                                   f"limit of {g!r} is not a fixed point")
            convergent += 1
        else:
            fg = forest_graph.build_forest_graph(g, budget)
            evidence = divergence_growth_evidence(g, fg)
            if not evidence["grew"]:
                return CheckResult("two-step-convergence", False,
                                   f"forest count fails to grow for {g!r}: {evidence}")
            witness = divergence_bigger_clique(g, fg, budget)
            if witness is None:
                return CheckResult("two-step-convergence", False,
                                   f"no clique growth witness for {g!r}")
            divergent += 1
    return CheckResult("two-step-convergence", True,
                       f"{convergent} convergent, {divergent} divergent")


def check_stability(max_n=5):
    """Stable graphs on the corpus are exactly the one-vertex graph and the triangle."""
    stable = []
    for g in _small_corpus(min(max_n, 5)):
        if dynamics.is_stable(g):
            stable.append(g)
    ok = (len(stable) == 2
          and any(graphs.is_isomorphic(s, graphs.complete_graph(1)) for s in stable)
          and any(graphs.is_isomorphic(s, graphs.complete_graph(3)) for s in stable))
    return CheckResult("stability-k1-k3", ok, f"stable set size {len(stable)}")


def check_root_exclusions():
    """Prune certificates fire where they must; K_4's only small root is C_4."""
    cases = [
        (graphs.cycle_graph(4), roots.REASON_BIPARTITE),
        (graphs.Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]),
         roots.REASON_DISCONNECTED),
        (graphs.Graph(4, [(0, 1), (1, 2), (2, 0), (2, 3)]),
         roots.REASON_ISTHMUS_OR_ISOLATED),
        (graphs.Graph(6, [(0, 3), (0, 4), (0, 5), (1, 3), (1, 4), (1, 5),
                          (2, 3), (2, 4), (2, 5)]), roots.REASON_BIPARTITE),
    ]
    for g, want in cases:
        cert = roots.no_root_prune(g)
        if cert is None or cert.reason != want:
            return CheckResult("no-root-exclusions", False,
                               f"{g!r}: expected {want}, got {cert}")
    result = roots.find_roots(graphs.complete_graph(4))
    if len(result.roots) != 1 or not graphs.is_isomorphic(result.roots[0],
                                                          graphs.cycle_graph(4)):
        return CheckResult("no-root-exclusions", False,
                           f"roots of K_4: {result.roots}")
    return CheckResult("no-root-exclusions", True, "4 prunes + K_4 root search")


def whitney_invariance_trials(count=100, seed=0):
    """Randomized applicable Whitney moves; forest families must correspond.

    Each applied move's edge bijection must carry the maximal forests of the
    old graph exactly onto those of the new one.  Returns (applied, failures).
    """
    rng = random.Random(seed)
    corpus = [g for n in (3, 4, 5) for g in roots.enumerate_graphs(n) if g.edges]
    applied = 0
    failures = []
    attempts = 0
    while applied < count and attempts < count * 60:
        attempts += 1
        g = rng.choice(corpus)
        op = rng.choice(("identify", "split", "twist"))
        try:
            if op == "identify":
                comps = graphs.components(g)
                if len(comps) < 2:
                    continue
                a, b = rng.sample(range(len(comps)), 2)
                result = roots.whitney_identify(
                    g, [(rng.choice(comps[a]), rng.choice(comps[b]))])
            elif op == "split":
                v = rng.randrange(g.vertex_count)
                rest = graphs.Graph(g.vertex_count, [e for e in g.edges if v not in e])
                comps = [c for c in graphs.components(rest) if c != [v]]
                if len(comps) < 2:
                    continue
                k = rng.randrange(1, len(comps))
                side = [x for c in rng.sample(comps, k) for x in c]
                result = roots.whitney_split(g, v, side)
            else:
                u, v = rng.sample(range(g.vertex_count), 2)
                cut = graphs.Graph(g.vertex_count,
                                   [e for e in g.edges if u not in e and v not in e])
                comps = [c for c in graphs.components(cut) if c not in ([u], [v])]
                if len(comps) < 2:
                    continue
                k = rng.randrange(1, len(comps))
                side = [x for c in rng.sample(comps, k) for x in c]
                result = roots.whitney_twist(g, u, v, side)
        except graphs.GraphInputError:
            continue
        applied += 1
        before = {frozenset(result.edge_map[i] for i in f.edge_ids())
                  for f in forests.maximal_forests(g)}
        after = {frozenset(f.edge_ids())
                 for f in forests.maximal_forests(result.graph)}
        if before != after:
            failures.append((op, g))
    return applied, failures


def check_whitney_invariance(count=100, seed=0):
    applied, failures = whitney_invariance_trials(count, seed)
    if failures:
        op, g = failures[0]
        return CheckResult("whitney-forest-invariance", False,
                           f"{len(failures)} failures, first: {op} on {g!r}")
    if applied < count:
        return CheckResult("whitney-forest-invariance", False,
                           f"only {applied} applicable moves found")
    return CheckResult("whitney-forest-invariance", True, f"{applied} moves")


def check_cycle_clique():
    """F(C_n) is the complete graph K_n for n = 3..7."""
    for n in range(3, 8):
        fg = forest_graph.build_forest_graph(graphs.cycle_graph(n))
        if not graphs.is_isomorphic(fg.graph, graphs.complete_graph(n)):
            return CheckResult("cycle-forest-graph-complete", False, f"n={n}")
    return CheckResult("cycle-forest-graph-complete", True, "n=3..7")


def check_clique_path_swap():
    """The path-swap witness on K_n has exactly floor(n^2/4) pairwise-adjacent forests."""
    for n in range(2, 6):
        g = graphs.complete_graph(n)
        witness = dynamics.clique_witness_from_complete(g, range(n))
        if witness.size != n * n // 4 or not witness.verify():
            return CheckResult("clique-path-swap-count", False, f"n={n}")
    return CheckResult("clique-path-swap-count", True, "n=2..5")


def check_triangle_grid():
    """Two edge-disjoint triangles: F is the 3x3 grid pattern, then a 9-clique."""
    bowtie = graphs.Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
    fg = forest_graph.build_forest_graph(bowtie)
    rook = graphs.cartesian_product(graphs.cycle_graph(3), graphs.cycle_graph(3))
    if not graphs.is_isomorphic(fg.graph, rook):
        return CheckResult("triangle-pair-grid", False, "F(bowtie) is not C3 x C3")
    report = dynamics.verify_clique_growth(bowtie, 2)
    last = report.steps[-1]
    if last.size != 9 or not last.verified:
        return CheckResult("triangle-pair-grid", False, f"step 2 gave {last}")
    return CheckResult("triangle-pair-grid", True, "grid + 9-clique verified")


def run_all(max_n=5, seed=0, budget=forests.FOREST_BUDGET, whitney_count=100):
    return [
        check_forest_counts(max_n),
        check_exchange_metric(max_n, budget),
        check_forest_graph_shape(min(max_n, 5)),
        check_convergence(max_n, budget),
        check_stability(max_n),
        check_root_exclusions(),
        check_whitney_invariance(whitney_count, seed),
        check_cycle_clique(),
        check_clique_path_swap(),
        check_triangle_grid(),
    ]
