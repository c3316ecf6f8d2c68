"""Iterated forest-graph dynamics on finite graphs.

A finite graph converges under the forest-graph operator exactly when it is
acyclic (limit K_1) or has precisely one cycle, of length 3 (limit K_3); it
reaches the limit within two steps.  Everything else diverges, witnessed by a
cycle of length at least 4 or by two edge-disjoint triangles, and cliques in
the iterates then grow without bound.  The witness constructions below build
the growing cliques explicitly as sets of pairwise-exchangeable forests, so a
claim about F^k can be verified without ever materializing F^k itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from .forest_graph import build_forest_graph
from .forests import FOREST_BUDGET, MaximalForest, count_maximal_forests, extend_to_maximal
from .graphs import (BudgetError, Cycle, EdgeSubset, Graph, GraphInputError, blocks,
                     complete_graph, cyclomatic_number, find_long_cycle,
                     hamiltonian_cycle, is_isomorphic, unique_cycle)

CONVERGENT = "convergent"
DIVERGENT = "divergent"
WITNESS_LONG_CYCLE = "long_cycle"
WITNESS_TWO_TRIANGLES = "two_triangles"


@dataclass(frozen=True)
class Verdict:
    """Convergence verdict with the evidence that justifies it.

    For convergent graphs `limit` is "K1" or "K3" and `steps` counts the
    iterates until the limit appears (0, 1 or 2, measured by isomorphism).
    For divergent graphs the witness is either one cycle of length >= 4 or a
    pair of edge-disjoint triangles.
    """

    status: str
    limit: str = None
    steps: int = None
    witness_kind: str = None
    witness: tuple = None

    def witness_edge_groups(self):
        if self.witness is None:
            return ()
        return tuple(tuple(c.edge_ids) for c in self.witness)

    def to_dict(self):
        groups = self.witness_edge_groups()
        return {
            "status": self.status,
            "limit": self.limit,
            "steps": self.steps,
            "witness_kind": self.witness_kind,
            "witness_edges": [list(group) for group in groups] if groups else None,
        }

    def to_kv(self) -> str:
        groups = self.witness_edge_groups()
        lines = [
            f"status={self.status}",
            f"limit={self.limit if self.limit is not None else '-'}",
            f"steps={self.steps if self.steps is not None else '-'}",
            f"witness_kind={self.witness_kind if self.witness_kind is not None else '-'}",
            "witness_edges=" + (";".join(",".join(map(str, group)) for group in groups)
                                if groups else "-"),
        ]
        return "\n".join(lines)


def iterate_F(g, n, budget=FOREST_BUDGET):
    """Apply the forest-graph operator n times; returns the final plain graph.

    Raises BudgetError annotated with the step reached and the exact forest
    count when some iterate would exceed the budget.
    """
    if n < 0:
        raise GraphInputError("iteration count must be non-negative")
    current = g
    for step in range(1, n + 1):
        try:
            current = build_forest_graph(current, budget).graph
        except BudgetError as err:
            raise BudgetError(
                f"iteration stopped at step {step}: {err}",
                count=err.count, budget=err.budget, step=step) from None
    return current


def classify(g) -> Verdict:
    """Decide convergence and attach the limit or a divergence witness.

    Past one cycle the blocks decide.  A block on four or more vertices holds
    a cycle of length >= 4: searched for inside the large blocks through
    their smallest vertex, it is the first one a depth-first search of g
    meets.  Otherwise the first two triangle blocks are the witness.
    """
    beta = cyclomatic_number(g)
    if beta == 0:
        return Verdict(CONVERGENT, limit="K1", steps=_steps_to_limit(g, complete_graph(1)))
    if beta == 1:
        cyc = unique_cycle(g)
        if cyc.length == 3:
            return Verdict(CONVERGENT, limit="K3", steps=_steps_to_limit(g, complete_graph(3)))
        return Verdict(DIVERGENT, witness_kind=WITNESS_LONG_CYCLE, witness=(cyc,))
    spans = [sorted({x for eid in block for x in g.edges[eid]})
             for block in blocks(g) if len(block) > 1]
    large = [verts for verts in spans if len(verts) >= 4]
    if not large:
        first, second = sorted(spans)[:2]
        return Verdict(DIVERGENT, witness_kind=WITNESS_TWO_TRIANGLES,
                       witness=(Cycle(g, first), Cycle(g, second)))
    start = min(verts[0] for verts in large)
    # relabel in order, so the search takes the steps it would take on g
    keep = sorted({x for verts in large if verts[0] == start for x in verts})
    pos = {v: i for i, v in enumerate(keep)}
    sub = Graph(len(keep), [(pos[u], pos[v]) for u, v in g.edges if u in pos and v in pos])
    cyc = find_long_cycle(sub, 4) or _long_cycle_from_tree(sub)
    return Verdict(DIVERGENT, witness_kind=WITNESS_LONG_CYCLE,
                   witness=(Cycle(g, [keep[v] for v in cyc.vertices]),))


def _long_cycle_from_tree(sub) -> Cycle:
    """A cycle of length >= 4 in `sub`, whose blocks all have four or more
    vertices and meet at vertex 0, read off a depth-first tree in linear time
    for when the search budget of find_long_cycle runs out.

    A back edge spanning three levels closes one.  Otherwise every vertex two
    or more levels down has a back edge to its grandparent, and two such edges
    make a 4-cycle.
    """
    parent, depth = {0: None}, {0: 0}
    stack = [(0, iter(sub.neighbors(0)))]
    while stack:
        v, it = stack[-1]
        for w in it:
            if w not in parent:
                parent[w], depth[w] = v, depth[v] + 1
                stack.append((w, iter(sub.neighbors(w))))
                break
            if depth[w] <= depth[v] - 3:
                walk = [v]
                while walk[-1] != w:
                    walk.append(parent[walk[-1]])
                return Cycle(sub, walk)
        else:
            stack.pop()
    u = next((u for u in parent if depth[u] == 3), None)
    if u is not None:
        return Cycle(sub, (0, parent[parent[u]], u, parent[u]))
    # every child of 0 has two children, each joined to 0
    x = next(x for x in parent if depth[x] == 2)
    y = next(y for y in parent if depth[y] == 2 and y != x and parent[y] == parent[x])
    return Cycle(sub, (0, x, parent[x], y))


def _steps_to_limit(g, limit_graph, budget=FOREST_BUDGET):
    current = g
    for step in range(3):
        if is_isomorphic(current, limit_graph):
            return step
        current = build_forest_graph(current, budget).graph
    raise AssertionError("convergent graph did not reach its limit in two steps")


def is_stable(g, budget=FOREST_BUDGET) -> bool:
    """Whether F(g) is isomorphic to g.  Holds exactly for K_1 and K_3."""
    if count_maximal_forests(g) != g.vertex_count:
        return False
    return is_isomorphic(build_forest_graph(g, budget).graph, g)


CLIQUE_FROM_CYCLE = "cycle-swap"
CLIQUE_FROM_COMPLETE = "clique-path-swap"
TRIANGLE_PAIR_GRID = "triangle-pair-grid"


@dataclass(frozen=True)
class CliqueWitness:
    """Explicit forests of `host` that are pairwise one exchange apart.

    `construction` records which rule produced it.  A clique witness of
    size s in F(host) is, equivalently, a K_s inside the forest graph of host;
    the triangle-pair construction instead yields nine forests arranged as
    C_3 x C_3 (adjacency exactly between grid neighbors), whose 9-cycle seeds
    the next clique step.
    """

    host: object
    construction: str
    forests: tuple
    grid_shape: tuple = None

    @property
    def size(self):
        return len(self.forests)

    def verify(self) -> bool:
        """Re-check the claimed adjacency pattern definitionally."""
        diff = [[(a.bits ^ b.bits).bit_count() for b in self.forests] for a in self.forests]
        n = len(self.forests)
        if self.construction == TRIANGLE_PAIR_GRID:
            rows, cols = self.grid_shape
            for i in range(n):
                for j in range(n):
                    want = 0 if i == j else (2 if (i // cols == j // cols) != (i % cols == j % cols) else 4)
                    if diff[i][j] != want:
                        return False
            return True
        for i in range(n):
            for j in range(n):
                if diff[i][j] != (0 if i == j else 2):
                    return False
        return True


def clique_witness_from_cycle(g, cycle) -> CliqueWitness:
    """From one cycle of length n, n forests pairwise one exchange apart.

    Drop the lowest-indexed cycle edge, extend the remaining path to a maximal
    forest, then swap the dropped edge for each other cycle edge in turn.
    """
    if not (cycle.host is g or cycle.host == g):
        raise GraphInputError("cycle does not belong to the given graph")
    edge_ids = sorted(cycle.edge_ids)
    cyc_bits = cycle.edge_bits()
    base = extend_to_maximal(g, EdgeSubset(g, cyc_bits ^ (1 << edge_ids[0])))
    outside = base.bits & ~cyc_bits
    forests = tuple(MaximalForest(g, EdgeSubset(g, outside | (cyc_bits ^ (1 << eid))))
                    for eid in edge_ids)
    return CliqueWitness(g, CLIQUE_FROM_CYCLE, forests)


def clique_witness_from_complete(g, vertices) -> CliqueWitness:
    """From a complete subgraph on n vertices, floor(n^2/4) pairwise-adjacent forests.

    Thread a path through the clique in vertex order, extend it to a maximal
    forest, and swap the middle path edge for every clique edge that crosses
    the middle cut.
    """
    vs = sorted(set(vertices))
    if len(vs) != len(tuple(vertices)) or len(vs) < 2:
        raise GraphInputError("need at least two distinct clique vertices")
    for i in range(len(vs) - 1):
        for j in range(i + 1, len(vs)):
            if not g.has_edge(vs[i], vs[j]):
                raise GraphInputError(
                    f"vertices {vs[i]} and {vs[j]} are not adjacent; not a clique")
    path_ids = [g.edge_index(vs[i], vs[i + 1]) for i in range(len(vs) - 1)]
    base = extend_to_maximal(g, path_ids)
    half = len(vs) // 2
    mid = g.edge_index(vs[half - 1], vs[half])
    without_mid = base.bits ^ (1 << mid)
    forests = []
    for i in range(half):
        for j in range(half, len(vs)):
            swap = g.edge_index(vs[i], vs[j])
            forests.append(MaximalForest(g, EdgeSubset(g, without_mid | (1 << swap))))
    return CliqueWitness(g, CLIQUE_FROM_COMPLETE, tuple(forests))


def clique_witness_from_two_triangles(g, t1, t2) -> CliqueWitness:
    """From two edge-disjoint triangles, nine forests arranged as C_3 x C_3."""
    for t in (t1, t2):
        if not (t.host is g or t.host == g):
            raise GraphInputError("triangle does not belong to the given graph")
        if t.length != 3:
            raise GraphInputError("witness cycles must be triangles")
    if t1.edge_bits() & t2.edge_bits():
        raise GraphInputError("triangles share an edge")
    e1 = sorted(t1.edge_ids)
    e2 = sorted(t2.edge_ids)
    union = t1.edge_bits() | t2.edge_bits()
    first = extend_to_maximal(g, EdgeSubset(g, union ^ (1 << e1[0]) ^ (1 << e2[0])))
    outside = first.bits & ~union
    forests = []
    for i in e1:
        for j in e2:
            bits = outside | (union ^ (1 << i) ^ (1 << j))
            forests.append(MaximalForest(g, EdgeSubset(g, bits)))
    return CliqueWitness(g, TRIANGLE_PAIR_GRID, tuple(forests), grid_shape=(3, 3))


@dataclass(frozen=True)
class GrowthStep:
    """One verified stage of clique growth: a witness inside F^k(g)."""

    k: int
    size: int
    construction: str
    verified: bool


@dataclass(frozen=True)
class GrowthReport:
    graph: object
    steps: tuple

    def final_size(self):
        return self.steps[-1].size if self.steps else 0

    def all_verified(self):
        return all(s.verified for s in self.steps)


def verify_clique_growth(g, m, budget=FOREST_BUDGET) -> GrowthReport:
    """Exhibit and verify clique witnesses in F^1(g) .. F^m(g) for divergent g.

    Stage 1 converts the divergence witness into forests of g; each later
    stage builds the previous iterate's forest graph explicitly and applies
    the path-swap construction to the previous witness (after turning the
    nine-forest grid into a 9-cycle first when needed).  Witnesses live one
    level above the last graph built, so F^m itself is never materialized.
    """
    if m < 1:
        raise GraphInputError("need at least one growth step")
    verdict = classify(g)
    if verdict.status != DIVERGENT:
        raise GraphInputError("clique growth applies to divergent graphs only")
    if verdict.witness_kind == WITNESS_LONG_CYCLE:
        witness = clique_witness_from_cycle(g, verdict.witness[0])
    else:
        witness = clique_witness_from_two_triangles(g, verdict.witness[0], verdict.witness[1])
    steps = [GrowthStep(1, witness.size, witness.construction, witness.verify())]
    current = g
    for k in range(2, m + 1):
        try:
            fg = build_forest_graph(current, budget)
        except BudgetError as err:
            raise BudgetError(f"growth step {k} needs F^{k - 1} built: {err}",
                              count=err.count, budget=err.budget, step=k) from None
        member_ids = [fg.forest_index(f) for f in witness.forests]
        if witness.construction == TRIANGLE_PAIR_GRID:
            sub_vertices = sorted(member_ids)
            sub_pos = {v: i for i, v in enumerate(sub_vertices)}
            induced = [(sub_pos[u], sub_pos[v]) for (u, v) in fg.graph.edges
                       if u in sub_pos and v in sub_pos]
            ham = hamiltonian_cycle(Graph(len(sub_vertices), induced))
            if ham is None:
                raise AssertionError("triangle-pair grid is always hamiltonian")
            ring = Cycle(fg.graph, tuple(sub_vertices[i] for i in ham.vertices))
            witness = clique_witness_from_cycle(fg.graph, ring)
        else:
            witness = clique_witness_from_complete(fg.graph, member_ids)
        steps.append(GrowthStep(k, witness.size, witness.construction, witness.verify()))
        current = fg.graph
    return GrowthReport(g, tuple(steps))
