"""The forest graph: one vertex per maximal forest, edges between single exchanges.

Two maximal forests are adjacent exactly when their edge sets differ in one
edge each way (symmetric difference of size two), and the graph distance
between two forests equals the size of either one-sided difference, which the
exchange-path construction realizes step by step.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from .forests import FOREST_BUDGET, MaximalForest, maximal_forests
from .graphs import EdgeSubset, Graph, GraphInputError, blocks


class ForestGraph:
    """A graph g, its forest family, and the exchange graph on the family.

    Vertex i of `graph` is `family[i]`; the family's lexicographic order fixes
    the numbering.
    """

    __slots__ = ("base", "family", "graph")

    def __init__(self, base, family, graph):
        self.base = base
        self.family = family
        self.graph = graph

    def forest_index(self, forest) -> int:
        return self.family.index_of(forest)

    def __repr__(self):
        return f"ForestGraph(order={len(self.family)}, size={len(self.graph.edges)})"


def build_forest_graph(g, budget=FOREST_BUDGET) -> ForestGraph:
    """Enumerate the forest family and connect forests one exchange apart.

    F(g) is the Cartesian product of the blocks' forest graphs, the bridges
    contributing K_1: two maximal forests are one exchange apart exactly when
    they agree outside one block and their trees of that block are one
    exchange apart.  Each block's trees are the family's restrictions to the
    block's edges, so the bucket join runs over those trees alone.  Each
    product edge is then mapped to family indices by `family_index`, one
    permutation from product positions to the family's order.
    """
    family = maximal_forests(g, budget)
    members = [f.bits for f in family]
    per_block = []
    # each member's product position: its tree numbers, one per block, read
    # as a mixed-radix number with the first block's number most significant
    positions = [0] * len(members)
    for block in blocks(g):
        if len(block) > 1:
            mask = sum(1 << i for i in block)
            trees = {}
            coords = [trees.setdefault(bits & mask, len(trees)) for bits in members]
            positions = [p * len(trees) + c for p, c in zip(positions, coords)]
            per_block.append(list(trees))
    family_index = [0] * len(members)
    for i, p in enumerate(positions):
        family_index[p] = i
    edges = []
    stride = len(family_index)
    for trees in per_block:
        span = stride
        stride //= len(trees)
        cliques = _exchange_cliques(trees)
        for top in range(0, len(family_index), span):
            for p in range(top, top + stride):
                # the family indices of this block's trees, the other blocks fixed
                at = family_index[p:p + span:stride]
                edges += [(at[a], at[b]) for clique in cliques
                          for a, b in itertools.combinations(clique, 2)]
    return ForestGraph(g, family, Graph(len(family), edges))


def _exchange_cliques(trees):
    """Groups of tree indices, the trees of each group pairwise one exchange
    apart, and every such pair in exactly one group.

    Each tree goes into one bucket per member edge, keyed by its edge set
    minus that edge: two trees share a bucket exactly when they differ in one
    edge each way.
    """
    buckets = {}
    for i, bits in enumerate(trees):
        b = bits
        while b:
            lsb = b & -b
            b ^= lsb
            buckets.setdefault(bits ^ lsb, []).append(i)
    return [group for group in buckets.values() if len(group) > 1]


def forest_distance(f1, f2) -> int:
    """Exchange distance: the number of edges of f1 missing from f2."""
    if not (f1.host is f2.host or f1.host == f2.host):
        raise GraphInputError("forests belong to different graphs")
    return (f1.bits & ~f2.bits).bit_count()


def exchange_path(g, f1, f2) -> list:
    """A shortest f1-to-f2 walk in the forest graph, one exchange per step.

    Works backwards from f2: repeatedly delete the lowest-indexed edge of the
    current forest outside f1 (splitting one of its trees in two) and
    reconnect the two pieces with the lowest-indexed usable edge of f1.  The
    resulting list has forest_distance(f1, f2) + 1 entries.
    """
    for f in (f1, f2):
        if not (f.host is g or f.host == g):
            raise GraphInputError("forest does not belong to the given graph")
    path = [f2]
    current = f2.bits
    target = f1.bits
    while current != target:
        extra = current & ~target
        eid = (extra & -extra).bit_length() - 1
        cut = current ^ (1 << eid)
        u, v = g.edges[eid]
        side_u = _component_of(g, cut, u)
        side_v = _component_of(g, cut, v)
        missing = target & ~current
        b = missing
        while b:
            lsb = b & -b
            b ^= lsb
            x, y = g.edges[lsb.bit_length() - 1]
            if (x in side_u and y in side_v) or (x in side_v and y in side_u):
                current = cut | lsb
                break
        else:
            raise AssertionError("no reconnecting edge found; inputs were not maximal forests")
        path.append(MaximalForest(g, EdgeSubset(g, current)))
    path.reverse()
    return path


def _component_of(g, bits, start):
    """Vertex set reachable from start using only the given edge bits."""
    adj = {}
    b = bits
    while b:
        lsb = b & -b
        b ^= lsb
        u, v = g.edges[lsb.bit_length() - 1]
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    seen = {start}
    queue = [start]
    while queue:
        x = queue.pop()
        for y in adj.get(x, ()):
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return seen


ConnectivityReport = namedtuple("ConnectivityReport", "order connected diameter")


def finite_connectivity_check(g, budget=FOREST_BUDGET) -> ConnectivityReport:
    """Build F(g) and confirm it is connected; reports order and diameter.

    The diameter is None for the (never expected) disconnected case.
    """
    fg = build_forest_graph(g, budget)
    n = fg.graph.vertex_count
    diameter = 0
    for src in range(n):
        dist = _bfs(fg.graph, src)
        if -1 in dist:
            return ConnectivityReport(n, False, None)
        far = max(dist)
        if far > diameter:
            diameter = far
    return ConnectivityReport(n, True, diameter)


def _bfs(graph, src):
    dist = [-1] * graph.vertex_count
    dist[src] = 0
    queue = [src]
    qi = 0
    while qi < len(queue):
        v = queue[qi]
        qi += 1
        for w, _ in graph.incident(v):
            if dist[w] == -1:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist
