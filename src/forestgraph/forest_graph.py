"""The forest graph: one vertex per maximal forest, edges between single exchanges.

Two maximal forests are adjacent exactly when their edge sets differ in one
edge each way (symmetric difference of size two), and the graph distance
between two forests equals the size of either one-sided difference, which the
exchange-path construction realizes step by step.  F(g) is built as the
Cartesian product of its blocks' forest graphs in one walk over the product
positions in the order the enumeration crosses the blocks, each position's
later neighbours in the family read from per-block tables of offsets; the
sorted half rows are listed as the edge table, and the graph derives its
adjacency from that table only when something reads it.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left

from .forests import FOREST_BUDGET, _forest_product, _joins, _trusted_forest
from .graphs import Graph, GraphInputError, _ids, _no_cyclic_gc


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
        """`forest`'s index in the family, by binary search: the family is
        sorted by edge-id tuple."""
        if not (forest.host is self.base or forest.host == self.base):
            raise GraphInputError("forest belongs to a different graph")
        i = bisect_left(self.family, forest.edge_ids(), key=lambda f: f.edge_ids())
        if i == len(self.family) or self.family[i].bits != forest.bits:
            raise GraphInputError("forest is not a member of this family")
        return i

    def __repr__(self):
        return f"ForestGraph(order={len(self.family)}, size={len(self.graph.edges)})"


@_no_cyclic_gc
def build_forest_graph(g, budget=FOREST_BUDGET) -> ForestGraph:
    """Enumerate the forest family and connect forests one exchange apart.

    F(g) is the Cartesian product of the blocks' forest graphs, the bridges
    contributing K_1: two maximal forests are one exchange apart exactly when
    they agree outside one block and their trees of that block are one
    exchange apart.  So a forest's neighbours sit at the product positions
    that differ from its own in one block's digit, by an adjacent tree of
    that block: a cycle block's trees are pairwise adjacent, and any other
    block's adjacent trees come from one bucket join over its trees.  One
    walk over the positions in product order draws each position's
    neighbours from per-block tables of the offsets its adjacent trees add
    to it, keeping only the neighbours that come later in the family.  Each
    forest's later neighbours are sorted once and listed in order as the
    graph's edge table; the graph derives its adjacency when it is first
    read.
    """
    family, positions, crossed = _forest_product(g, budget)
    # the inverse permutation: index[positions[i]] == i
    index = sorted(range(len(positions)), key=positions.__getitem__)
    # per block, for each tree t, the trees that share a bucket with t, t
    # among them: a cycle's trees (each drops one edge; any other block has
    # more trees than edges) are pairwise adjacent
    near = [[range(len(trees))] * len(trees) if len(trees) == len(block)
            else _exchange_neighbours(trees) for block, trees in crossed]
    if len(near) == 1:
        # one block: its tree numbers are the positions, and its half rows
        # come straight from the bucket join
        rows = ([j for j in map(index.__getitem__, row) if j > i]
                for i, row in zip(index, near[0]))
    else:
        # per block, for each tree t, the offsets (u - t) * stride that its
        # later adjacent trees u add to a position whose digit for the block
        # is t; the positions ascend in product order, the last block's digit
        # fastest.  Two forests that differ in one block compare on that
        # block's edges alone, so the family order of the positions with
        # every other digit 0 ranks the block's trees
        tables = []
        stride = len(index)
        for shared in near:
            stride //= len(shared)
            rank = index[:len(shared) * stride:stride]
            tables.append([tuple([(u - t) * stride for u in row if rank[u] > r])
                           for t, (row, r) in enumerate(zip(shared, rank))])
        rows = ([index[p + d] for run in offsets for d in run]
                for p, offsets in enumerate(itertools.product(*tables)))
    later = [None] * len(index)
    for i, row in zip(index, rows):
        row.sort()
        later[i] = row
    edges = tuple([(u, v) for u, row in enumerate(later) for v in row])
    return ForestGraph(g, family, Graph._from_edges(len(later), edges))


def _exchange_neighbours(trees):
    """For each tree, the indices of the trees one exchange from it, and its
    own index once per edge.

    Each tree goes into one bucket per member edge, keyed by its edge set
    minus that edge: two trees share a bucket exactly when they differ in one
    edge each way, and then they share only that one.
    """
    buckets = {}
    for t, bits in enumerate(trees):
        for i in _ids(bits):
            buckets.setdefault(bits ^ 1 << i, []).append(t)
    near = [[] for _ in trees]
    # a block is 2-edge-connected, so every bucket holds two or more trees
    for group in buckets.values():
        for t in group:
            near[t] += group
    return near


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
        parent = list(range(g.vertex_count))
        _joins(g, _ids(cut), parent)
        joined = _joins(g, _ids(target & ~current), parent)
        if not joined:
            raise AssertionError("no reconnecting edge found; inputs were not maximal forests")
        current = cut | 1 << joined[0]
        path.append(_trusted_forest(g, current))
    path.reverse()
    return path

