"""The forest graph: one vertex per maximal forest, edges between single exchanges.

Two maximal forests are adjacent exactly when their edge sets differ in one
edge each way (symmetric difference of size two), and the graph distance
between two forests equals the size of either one-sided difference, which the
exchange-path construction realizes step by step.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from .forests import FOREST_BUDGET, _find, _forest_parents, _trusted_forest, maximal_forests
from .graphs import Graph, GraphInputError, _distances, _ids, _mask, blocks


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
    block's edges, so the bucket join runs over those trees alone; a cycle
    block's trees are pairwise one exchange apart and need no join.  Each
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
            mask = _mask(block, len(g.edges))
            trees = {}
            coords = [trees.setdefault(bits & mask, len(trees)) for bits in members]
            positions = [p * len(trees) + c for p, c in zip(positions, coords)]
            if len({v for i in block for v in g.edges[i]}) == len(block):
                # a cycle: each tree drops one edge, so all are one exchange apart
                per_block.append((len(trees), [range(len(trees))]))
            else:
                per_block.append((len(trees), _exchange_cliques(list(trees))))
    family_index = [0] * len(members)
    for i, p in enumerate(positions):
        family_index[p] = i
    edges = []
    stride = len(family_index)
    for count, cliques in per_block:
        span = stride
        stride //= count
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
    for t, bits in enumerate(trees):
        for i in _ids(bits):
            buckets.setdefault(bits ^ 1 << i, []).append(t)
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
        # every other tree of cut spans a whole component of g, so an edge of
        # f1 joining two trees of cut joins the two pieces
        parent = _forest_parents(g, cut)
        for i in _ids(target & ~current):
            x, y = g.edges[i]
            if _find(parent, x) != _find(parent, y):
                current = cut | 1 << i
                break
        else:
            raise AssertionError("no reconnecting edge found; inputs were not maximal forests")
        path.append(_trusted_forest(g, current))
    path.reverse()
    return path


ConnectivityReport = namedtuple("ConnectivityReport", "order connected diameter")


def finite_connectivity_check(g, budget=FOREST_BUDGET) -> ConnectivityReport:
    """Build F(g) and confirm it is connected; reports order and diameter.

    The diameter is None for the (never expected) disconnected case.
    """
    fg = build_forest_graph(g, budget)
    n = fg.graph.vertex_count
    diameter = 0
    for src in range(n):
        dist = _distances(fg.graph, src)
        if -1 in dist:
            return ConnectivityReport(n, False, None)
        far = max(dist)
        if far > diameter:
            diameter = far
    return ConnectivityReport(n, True, diameter)

