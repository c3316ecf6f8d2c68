"""Iterated forest-graph dynamics on finite graphs.

A finite graph converges under the forest-graph operator exactly when it is
acyclic (limit K_1) or has precisely one cycle, of length 3 (limit K_3); it
reaches the limit in at most one step, since such a graph has one maximal
forest or three, pairwise one exchange apart.  Everything else diverges,
witnessed by a cycle of length at least 4 or by two edge-disjoint triangles,
and cliques in the iterates then grow without bound.  `classify` reads the
verdict and its witness off the blocks of the graph by construction, with no
search: a long cycle comes from one depth-first tree of a block on four or
more vertices.  The witness constructions below list the growing cliques and
rings explicitly as forests of small graphs that embed in the iterates, so a
claim about F^k can be verified without materializing any iterate.  Each
listed forest is one exchange from a forest `extend_to_maximal` built, so it
is built unchecked; the cycles, cliques and triangles are checked on entry.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .forest_graph import build_forest_graph
from .forests import FOREST_BUDGET, _trusted_forest, extend_to_maximal
from .graphs import BudgetError, Cycle, GraphInputError, blocks, complete_graph, cycle_graph

CONVERGENT = "convergent"
DIVERGENT = "divergent"
WITNESS_LONG_CYCLE = "long_cycle"
WITNESS_TWO_TRIANGLES = "two_triangles"


@dataclass(frozen=True)
class Verdict:
    """Convergence verdict with the evidence that justifies it.

    For convergent graphs `limit` is "K1" or "K3" and `steps` counts the
    iterates until the limit appears: 0 when g is the limit itself, else 1,
    by the theorem.  For divergent graphs the witness is either one cycle of
    length >= 4 or a pair of edge-disjoint triangles.
    """

    status: str
    limit: str = None
    steps: int = None
    witness_kind: str = None
    witness: tuple = None

    def to_kv(self) -> str:
        edges = ";".join(",".join(map(str, c.edge_ids)) for c in self.witness or ())
        lines = [
            f"status={self.status}",
            f"limit={self.limit if self.limit is not None else '-'}",
            f"steps={self.steps if self.steps is not None else '-'}",
            f"witness_kind={self.witness_kind if self.witness_kind is not None else '-'}",
            f"witness_edges={edges or '-'}",
        ]
        return "\n".join(lines)


def iterate_F(g, n, budget=FOREST_BUDGET):
    """Apply the forest-graph operator n times; returns the final plain graph.

    Stops early at a fixed point: once F of the current graph equals it as a
    labelled graph, every later step gives the same graph.  Raises
    BudgetError annotated with the step reached and the exact forest count
    when some iterate would exceed the budget.
    """
    if n < 0:
        raise GraphInputError("iteration count must be non-negative")
    current = g
    for step in range(1, n + 1):
        try:
            built = build_forest_graph(current, budget).graph
        except BudgetError as err:
            raise BudgetError(
                f"iteration stopped at step {step}: {err}",
                count=err.count, budget=err.budget, step=step) from None
        if built == current:
            return built
        current = built
    return current


def classify(g) -> Verdict:
    """Decide convergence and attach the limit or a divergence witness.

    One block pass decides, with no search.  With no block of two or more
    edges g is a forest, limit K_1.  With one such block of three edges, a
    triangle, g converges to K_3.  Otherwise the first block on four or more
    vertices (more than three edges) holds a cycle of length >= 4, read off
    one depth-first tree of that block; with no such block the first two
    triangle blocks are the witness.
    """
    big = [block for block in blocks(g) if len(block) > 1]
    if not big:
        return Verdict(CONVERGENT, limit="K1", steps=int(g.vertex_count != 1))
    if len(big) == 1 and len(big[0]) == 3:
        return Verdict(CONVERGENT, limit="K3",
                       steps=int((g.vertex_count, len(g.edges)) != (3, 3)))
    large = next((block for block in big if len(block) > 3), None)
    if large is not None:
        return Verdict(DIVERGENT, witness_kind=WITNESS_LONG_CYCLE,
                       witness=(_long_cycle_in_block(g, large),))
    triangles = [Cycle(g, sorted({x for eid in t for x in g.edges[eid]})) for t in big[:2]]
    return Verdict(DIVERGENT, witness_kind=WITNESS_TWO_TRIANGLES, witness=tuple(triangles))


def _long_cycle_in_block(g, block) -> Cycle:
    """A cycle of length >= 4 in `block`, the sorted edge ids of a block of g
    on four or more vertices, read off one depth-first tree of the block
    rooted at its smallest vertex, in linear time.

    A back edge spanning three levels closes one.  Otherwise, as the block is
    2-connected, the root has one child c and every vertex two or more levels
    down has a back edge to its grandparent: a vertex u three levels down
    closes a 4-cycle through its grandparent and its parent, and two vertices
    x, y two levels down close (root, x, c, y).
    """
    # two blocks share at most one vertex, so the edges between the block's
    # vertices are exactly its edges
    inside = {x for eid in block for x in g.edges[eid]}
    root = g.edges[block[0]][0]
    parent, depth = {root: None}, {root: 0}
    stack = [(root, iter(g.neighbors(root)))]
    while stack:
        v, it = stack[-1]
        for w in it:
            if w not in inside:
                continue
            if w not in parent:
                parent[w], depth[w] = v, depth[v] + 1
                stack.append((w, iter(g.neighbors(w))))
                break
            if depth[w] <= depth[v] - 3:
                walk = [v]
                while walk[-1] != w:
                    walk.append(parent[walk[-1]])
                return Cycle(g, walk)
        else:
            stack.pop()
    u = next((u for u in parent if depth[u] == 3), None)
    if u is not None:
        return Cycle(g, (root, parent[parent[u]], u, parent[u]))
    x, y = [v for v in parent if depth[v] == 2][:2]
    return Cycle(g, (root, x, parent[x], y))


def is_stable(g) -> bool:
    """Whether F(g) is isomorphic to g: by the theorem, exactly for K_1 and K_3."""
    return (g.vertex_count, len(g.edges)) in ((1, 0), (3, 3))


CLIQUE_FROM_CYCLE = "cycle-swap"
CLIQUE_FROM_COMPLETE = "clique-path-swap"
RING_FROM_CLIQUE = "clique-chord-ring"
RING_FROM_TRIANGLES = "triangle-pair-ring"


@dataclass(frozen=True)
class CliqueWitness:
    """Forests of `host` pairwise one exchange apart, a K_s in F(host), or with
    `ring` set each one exchange from the next and the last from the first,
    a C_s there; `construction` names the rule that built them."""

    host: object
    construction: str
    forests: tuple
    ring: bool = False

    @property
    def size(self):
        return len(self.forests)

    def verify(self) -> bool:
        """Re-check the pattern definitionally: every forest of `host`, and
        every pair of a clique one exchange apart, or a ring's forests distinct
        and each consecutive pair, the last and the first included, one
        exchange apart."""
        fs = self.forests
        if not all(f.host is self.host or f.host == self.host for f in fs):
            return False
        if not self.ring:
            return all((a.bits ^ b.bits).bit_count() == 2 for a, b in itertools.combinations(fs, 2))
        return (len({f.bits for f in fs}) == len(fs) >= 3
                and all((a.bits ^ b.bits).bit_count() == 2 for a, b in zip(fs, fs[1:] + fs[:1])))


def _clique(g, vertices, least):
    """The sorted vertices of a complete subgraph of g on `least` or more of them."""
    vs = sorted(set(vertices))
    if len(vs) != len(tuple(vertices)) or len(vs) < least:
        raise GraphInputError(f"need at least {least} distinct clique vertices")
    for u, v in itertools.combinations(vs, 2):
        if not g.has_edge(u, v):
            raise GraphInputError(f"vertices {u} and {v} are not adjacent; not a clique")
    return vs


def clique_witness_from_cycle(g, cycle) -> CliqueWitness:
    """From one cycle of length n, n forests pairwise one exchange apart.

    Drop the lowest-indexed cycle edge, extend the remaining path to a maximal
    forest, then swap the dropped edge for each other cycle edge in turn.
    """
    if not (cycle.host is g or cycle.host == g):
        raise GraphInputError("cycle does not belong to the given graph")
    edge_ids = sorted(cycle.edge_ids)
    cyc_bits = cycle.edge_bits()
    outside = extend_to_maximal(g, cyc_bits ^ (1 << edge_ids[0])).bits & ~cyc_bits
    forests = tuple(_trusted_forest(g, outside | (cyc_bits ^ (1 << eid)))
                    for eid in edge_ids)
    return CliqueWitness(g, CLIQUE_FROM_CYCLE, forests)


def clique_witness_from_complete(g, vertices) -> CliqueWitness:
    """From a complete subgraph on n vertices, floor(n^2/4) pairwise-adjacent forests.

    Thread a path through the clique in vertex order, extend it to a maximal
    forest, and swap the middle path edge for every clique edge that crosses
    the middle cut.
    """
    vs = _clique(g, vertices, 2)
    path_ids = [g.edge_index(vs[i], vs[i + 1]) for i in range(len(vs) - 1)]
    base = extend_to_maximal(g, path_ids)
    half = len(vs) // 2
    mid = g.edge_index(vs[half - 1], vs[half])
    without_mid = base.bits ^ (1 << mid)
    forests = []
    for i in range(half):
        for j in range(half, len(vs)):
            swap = g.edge_index(vs[i], vs[j])
            forests.append(_trusted_forest(g, without_mid | (1 << swap)))
    return CliqueWitness(g, CLIQUE_FROM_COMPLETE, tuple(forests))


def ring_witness_from_clique(g, vertices) -> CliqueWitness:
    """From a complete subgraph on w >= 4 vertices v_1 < ... < v_w, a ring of
    w + 1 forests: the clique of the cycle v_1 ... v_w's forests, walked from
    the one cutting v_w v_1 to the one cutting v_2 v_3, closed by the forest
    that cuts both and takes the chord v_1 v_3."""
    vs = _clique(g, vertices, 4)
    cycle = Cycle(g, vs)
    # clique_witness_from_cycle lists its forests by cut edge, in id order
    cut = dict(zip(sorted(cycle.edge_ids), clique_witness_from_cycle(g, cycle).forests))
    first = cut.pop(g.edge_index(vs[0], vs[-1]))
    last_edge = g.edge_index(vs[1], vs[2])
    last = cut.pop(last_edge)
    chord = first.bits ^ (1 << last_edge) | (1 << g.edge_index(vs[0], vs[2]))
    return CliqueWitness(g, RING_FROM_CLIQUE,
                         (_trusted_forest(g, chord), first, *cut.values(), last), ring=True)


def clique_witness_from_two_triangles(g, t1, t2) -> CliqueWitness:
    """From two edge-disjoint triangles, the ring of the nine forests that drop
    one edge of each, along a Hamiltonian cycle of their grid C_3 x C_3: row
    r drops t1's r-th edge and starts at t2's (-r)-th, where row r - 1 ends."""
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
    outside = extend_to_maximal(g, union ^ (1 << e1[0]) ^ (1 << e2[0])).bits & ~union
    forests = tuple(_trusted_forest(g, outside | (union ^ (1 << i) ^ (1 << j)))
                    for r, i in enumerate(e1) for j in e2[-r:] + e2[:-r])
    return CliqueWitness(g, RING_FROM_TRIANGLES, forests, ring=True)


@dataclass(frozen=True)
class GrowthStep:
    """One stage of clique growth: a clique or ring witness inside F^k(g), and
    whether it passed its own `verify`."""

    k: int
    witness: CliqueWitness
    verified: bool

    @property
    def size(self):
        return self.witness.size


@dataclass(frozen=True)
class GrowthReport:
    graph: object
    steps: tuple

    def all_verified(self):
        return all(s.verified for s in self.steps)


def _next_shape(ring, s):
    """(ring, size, host edges) of the witness listed after a ring or clique of
    s: on C_s a clique of s, on K_s (s >= 5) floor(s^2/4), on K_4 a ring of 5."""
    if ring:
        return False, s, s
    return (False, s * s // 4, s * (s - 1) // 2) if s >= 5 else (True, 5, 6)


def _grown(witness):
    """The witness `_next_shape` names after `witness`, on C_s or K_s alone."""
    s = witness.size
    if witness.ring:
        host = cycle_graph(s)
        return clique_witness_from_cycle(host, Cycle(host, range(s)))
    host = complete_graph(s)
    return (clique_witness_from_complete if s >= 5 else ring_witness_from_clique)(host, range(s))


def verify_clique_growth(g, m) -> GrowthReport:
    """A verified clique or ring witness in each of F^1(g) .. F^m(g) for
    divergent g, with no iterate built.

    Step 1 lists forests of g: `classify`'s long cycle gives a clique of its
    length, two triangles a ring of nine.  If K is a subgraph of H and edges
    R outside K complete a maximal forest of K to one of H, T -> T + R embeds
    F(K) isometrically in F(H).  So the C_s or K_s that a witness of s spans
    in F^k(g) puts F(C_s) = K_s or F(K_s) in F^{k+1}(g), and step k + 1 lists
    its witness on that small graph alone.  Before any step is listed, the
    first whose witness would take more than FOREST_BUDGET 64-bit words
    (forests times ceil(host edges / 64)) raises BudgetError with its `step`.
    """
    if m < 1:
        raise GraphInputError("need at least one growth step")
    verdict = classify(g)
    if verdict.status != DIVERGENT:
        raise GraphInputError("clique growth applies to divergent graphs only")
    from_cycle = verdict.witness_kind == WITNESS_LONG_CYCLE
    # each step's shape is checked as it is computed: the sizes square, so
    # the first step over the cap ends the loop whatever m is
    ring, size, edges = not from_cycle, verdict.witness[0].length if from_cycle else 9, len(g.edges)
    for k in range(1, m + 1):
        words = size * -(-edges // 64)
        if words > FOREST_BUDGET:
            raise BudgetError(
                f"growth step {k} would list {size} forests of {edges} edges, "
                f"{words} words, over the budget of {FOREST_BUDGET}",
                count=words, budget=FOREST_BUDGET, step=k)
        ring, size, edges = _next_shape(ring, size)
    witness = (clique_witness_from_cycle(g, *verdict.witness) if from_cycle
               else clique_witness_from_two_triangles(g, *verdict.witness))
    steps = [GrowthStep(1, witness, witness.verify())]
    for k in range(2, m + 1):
        witness = _grown(witness)
        steps.append(GrowthStep(k, witness, witness.verify()))
    return GrowthReport(g, tuple(steps))
