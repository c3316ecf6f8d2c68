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


def check_exchange_metric(max_n=5):
    """Set-difference distance == breadth-first distance; paths realize it."""
    graphs_checked = 0
    pairs_checked = 0
    for g in _small_corpus(max_n):
        fg = forest_graph.build_forest_graph(g)
        n = len(fg.family)
        dist_rows = [graphs._distances(fg.graph, i) for i in range(n)]
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
            tree = graphs.Graph(g.vertex_count, forest.pairs())
            # every non-forest edge closes exactly one cycle with the forest,
            # one edge longer than the forest path between its ends
            outside = forest.bits ^ ((1 << len(g.edges)) - 1)
            expected = sum(graphs._distances(tree, u)[v]
                           for u, v in map(g.edges.__getitem__, graphs._ids(outside)))
            if graph.degree(i) != expected:
                return CheckResult("forest-graph-shape", False,
                                   f"degree formula fails on {g!r} forest {i}")
        tried += 1
    return CheckResult("forest-graph-shape", True, f"{tried} graphs")


def divergence_growth_evidence(g, fg):
    """Certify count(F(g)) > count(g) for divergent g by the exchange bound.

    count(F(g)) >= 1 + 2(m - N + 1) for F(g) of N vertices and m edges: one
    fixed spanning tree plus its single exchanges, each non-tree edge
    contributing at least two, all distinct.  The bound always clears N.  A
    convergent graph has one forest or three, so g is divergent: every tree
    T of g leaves out two edges, or one edge f whose fundamental cycle
    C_T(f) has four or more edges.  T's degree in F(g), the sum of
    |C_T(f)| - 1 over the edges f outside T, is then at least 3, so
    m >= 3N/2 and the bound is at least N + 3.
    """
    c0 = len(fg.family)
    bound = 1 + 2 * (len(fg.graph.edges) - fg.graph.vertex_count + 1)
    return {"mode": "exchange-bound", "grew": bound > c0, "count": c0, "lower_bound": bound}


def _largest_clique(g):
    """The first largest clique of g in `itertools.combinations` order, by a
    scan of vertex subsets, largest first: corpus graphs have at most 7 vertices."""
    cliques = (sub for k in range(g.vertex_count, 0, -1)
               for sub in itertools.combinations(range(g.vertex_count), k)
               if all(itertools.starmap(g.has_edge, itertools.combinations(sub, 2))))
    return next(cliques, ())


def divergence_bigger_clique(g, fg):
    """A verified clique witness in F^2(g) strictly larger than any clique of g,
    lifted from a ring of forests of g checked edge by edge in F(g), or None
    when g converges.  The ring is built: the chord ring of a maximum clique
    of four or more vertices, else the first witness of g's clique growth."""
    clique = _largest_clique(g)
    if len(clique) >= 4:
        seed = dynamics.ring_witness_from_clique(g, clique)
    elif dynamics.classify(g).status == dynamics.DIVERGENT:
        seed = dynamics.verify_clique_growth(g, 1).steps[0].witness
    else:
        return None
    ring = graphs.Cycle(fg.graph, [fg.forest_index(f) for f in seed.forests])
    witness = dynamics.clique_witness_from_cycle(fg.graph, ring)
    return witness if witness.verify() and witness.size > len(clique) else None


def check_convergence(max_n=5):
    """Classifier verdicts agree with measured iteration behavior."""
    convergent = divergent = 0
    for g in _small_corpus(max_n):
        verdict = dynamics.classify(g)
        if verdict.status == dynamics.CONVERGENT:
            limit = graphs.complete_graph(1 if verdict.limit == "K1" else 3)
            current = g
            for _ in range(verdict.steps):
                current = forest_graph.build_forest_graph(current).graph
            if not graphs.is_isomorphic(current, limit):
                return CheckResult("two-step-convergence", False,
                                   f"{g!r} does not reach {verdict.limit} "
                                   f"in {verdict.steps} steps")
            again = forest_graph.build_forest_graph(current).graph
            if not graphs.is_isomorphic(again, limit):
                return CheckResult("two-step-convergence", False,
                                   f"limit of {g!r} is not a fixed point")
            convergent += 1
        else:
            fg = forest_graph.build_forest_graph(g)
            evidence = divergence_growth_evidence(g, fg)
            if not evidence["grew"]:
                return CheckResult("two-step-convergence", False,
                                   f"forest count fails to grow for {g!r}: {evidence}")
            witness = divergence_bigger_clique(g, fg)
            if witness is None:
                return CheckResult("two-step-convergence", False,
                                   f"no clique growth witness for {g!r}")
            divergent += 1
    return CheckResult("two-step-convergence", True,
                       f"{convergent} convergent, {divergent} divergent")


def check_stability(max_n=5):
    """Stable graphs on the corpus, F(g) isomorphic to g by definition, are
    the two `is_stable` names by the theorem: the one-vertex graph and K_3."""
    stable = 0
    for g in _small_corpus(min(max_n, 5)):
        defined = (forests.count_maximal_forests(g) == g.vertex_count
                   and graphs.is_isomorphic(forest_graph.build_forest_graph(g).graph, g))
        if defined != dynamics.is_stable(g):
            return CheckResult("stability-k1-k3", False, f"is_stable disagrees on {g!r}")
        stable += defined
    return CheckResult("stability-k1-k3", stable == 2, f"stable set size {stable}")


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


def check_exact_depth():
    """Depths settled by the degree bound match their hand derivations.

    K_5 = F(C_5) and F(bowtie) have depth exactly 1: C_5 and the bowtie have
    minimum degree 2, so their roots would have at most 3 vertices, and no
    such graph has 5 forests.  K_5 - e has minimum degree 3, so its roots
    would be K_1, K_3 or C_4, none with 5 forests: depth 0.
    """
    bowtie = graphs.Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
    k5_minus_edge = graphs.Graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)
                                     if (u, v) != (3, 4)])
    cases = [("K_5", graphs.complete_graph(5), "chain", 1),
             ("F(bowtie)", forest_graph.build_forest_graph(bowtie).graph, "chain", 1),
             ("K_5 - e", k5_minus_edge, "pruned", 0)]
    for name, g, kind, depth in cases:
        report = roots.depth_lower_bound(g)
        ok = (report.kind == kind and report.depth == depth
              and report.stop.reason == roots.REASON_DEGREE_BOUND
              and (report.chain is None or report.chain.verify()))
        if not ok:
            return CheckResult("exact-depth", False,
                               f"{name}: {report.kind} depth {report.depth}, stop {report.stop}")
    return CheckResult("exact-depth", True, "K_5, F(bowtie) depth 1; K_5 - e depth 0")


def whitney_invariance_trials(count=100, seed=0):
    """Randomized applicable Whitney moves; forest families must correspond.

    Each applied move's edge bijection must carry the maximal forests of the
    old graph exactly onto those of the new one, compared as sets of
    bitmasks.  Returns (applied, failures).
    """
    rng = random.Random(seed)
    corpus = [g for n in (3, 4, 5) for g in roots.enumerate_graphs(n) if g.edges]
    # each corpus graph's forests as edge-id tuples, listed on its first move
    families = {}
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
        if g not in families:
            families[g] = [f.edge_ids() for f in forests.maximal_forests(g)]
        moved = result.edge_map
        before = {sum(1 << moved[i] for i in ids) for ids in families[g]}
        after = {f.bits for f in forests.maximal_forests(result.graph)}
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
    """Two edge-disjoint triangles: F is the 3x3 grid, whose 9-ring gives a 9-clique."""
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


def run_all(max_n=5, seed=0, whitney_count=100):
    if max_n > roots.GRAPH_ENUM_VERTEX_LIMIT:
        # refuse before any check, as the first order past the limit would
        roots.enumerate_graphs(roots.GRAPH_ENUM_VERTEX_LIMIT + 1)
    return [
        check_forest_counts(max_n),
        check_exchange_metric(min(max_n, 6)),
        check_forest_graph_shape(min(max_n, 5)),
        check_convergence(max_n),
        check_stability(max_n),
        check_root_exclusions(),
        check_exact_depth(),
        check_whitney_invariance(whitney_count, seed),
        check_cycle_clique(),
        check_clique_path_swap(),
        check_triangle_grid(),
    ]
