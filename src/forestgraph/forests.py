"""Maximal spanning forests: exact counting, enumeration, extension.

A maximal forest takes one spanning tree per connected component.  Every
cycle lies inside one block (biconnected component), so the cycle matroid is
the direct sum of the blocks' matroids: a maximal forest is the bridges plus
one spanning tree of each larger block, and the count is the product of the
blocks' spanning-tree counts.  Enumeration reads the blocks once, counts
each block's trees before listing any, and refuses to start when the exact
count exceeds the caller's budget.
"""

from __future__ import annotations

import math

from .graphs import BudgetError, GraphInputError, _ids, _mask, _no_cyclic_gc, blocks, components

FOREST_BUDGET = 10**6
BRUTE_FORCE_EDGE_LIMIT = 20


class MaximalForest:
    """A maximal spanning forest of a host graph, as a bitmask over its edge
    ids, validated on construction (forests the package builds maximal come
    from `_trusted_forest`, unchecked)."""

    __slots__ = ("host", "bits")

    def __init__(self, host, edges):
        bits = _bits(host, edges)
        parent = list(range(host.vertex_count))
        joined = len(_joins(host, _ids(bits), parent))
        # maximal: acyclic, and no edge of host joins two of its trees; every
        # maximal forest has the same size, the rank of host's cycle matroid
        want = joined + len(_joins(host, range(len(host.edges)), parent))
        if bits.bit_count() != want:
            raise GraphInputError(
                f"not a maximal forest: {bits.bit_count()} edges, expected {want}")
        if joined != want:
            raise GraphInputError("not a forest: edge set contains a cycle")
        self.host = host
        self.bits = bits

    def edge_ids(self):
        return _ids(self.bits)

    def pairs(self):
        return tuple(map(self.host.edges.__getitem__, _ids(self.bits)))

    def __eq__(self, other):
        return (isinstance(other, MaximalForest) and self.bits == other.bits
                and (self.host is other.host or self.host == other.host))

    def __hash__(self):
        return hash(self.bits)

    def __repr__(self):
        return f"MaximalForest({list(self.edge_ids())})"


def _trusted_forest(host, bits) -> MaximalForest:
    """A MaximalForest from bits already known to form one, unchecked."""
    forest = MaximalForest.__new__(MaximalForest)
    forest.host = host
    forest.bits = bits
    return forest


def _bits(host, edges):
    """`edges`, a bitmask over host's edge ids or a sequence of them, as a bitmask."""
    if isinstance(edges, int):
        if edges < 0 or edges >> len(host.edges):
            raise GraphInputError("edge subset bits outside the host edge table")
        return edges
    return _mask(edges, len(host.edges))


def _find(parent, x):
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _joins(g, ids, parent):
    """The ids, in order, whose edge of g joins two pieces of the union-find
    `parent` (a list over g's vertices, or a dict over some of them), joining
    the ends of each."""
    edges = g.edges
    joined = []
    for i in ids:
        u, v = edges[i]
        # `_find`'s path halving, inline: the hot loop of enumeration
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u != v:
            parent[u] = v
            joined.append(i)
    return joined


def _det_bareiss(a):
    """Exact determinant of a positive definite integer matrix (a connected block's
    reduced Laplacian) by fraction-free elimination in place: the k-th pivot is the
    k-th leading principal minor, nonzero by Sylvester's criterion, so no row swaps."""
    n = len(a)
    prev = 1
    for k in range(n - 1):
        pivot = a[k][k]
        row_k = a[k]
        for i in range(k + 1, n):
            row_i = a[i]
            aik = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - aik * row_k[j]) // prev
        prev = pivot
    return a[n - 1][n - 1]


def _tree_count(g, block):
    """Spanning trees of one block of two or more edges (its edge ids): its
    edge count for a cycle, else the determinant of its Laplacian less row
    and column 0."""
    verts = {v for i in block for v in g.edges[i]}
    if len(verts) == len(block):
        # each tree of a cycle drops one of its edges
        return len(block)
    pos = {v: k for k, v in enumerate(verts)}
    mat = [[0] * len(pos) for _ in pos]
    for i in block:
        u, v = g.edges[i]
        u, v = pos[u], pos[v]
        mat[u][u] += 1
        mat[v][v] += 1
        mat[u][v] -= 1
        mat[v][u] -= 1
    return _det_bareiss([row[1:] for row in mat[1:]])


def count_maximal_forests(g) -> int:
    """Exact number of maximal forests: the product over the blocks of g of
    each block's spanning-tree count, a cycle block's length or else one
    Laplacian-cofactor determinant (matrix-tree theorem)."""
    return math.prod(_tree_count(g, block) for block in blocks(g) if len(block) > 1)


def _spanning_trees(g, block):
    """Bitmasks of all spanning trees of one block, given as its edge ids: a
    cycle block's trees each drop one edge; any other block branches on its
    edges in index order on an explicit stack, excluding an edge that joins
    two pieces only while the undecided edges can still span."""
    verts = {v for i in block for v in g.edges[i]}
    if len(verts) == len(block):
        full = _mask(block, len(g.edges))
        return [full ^ (1 << i) for i in block]
    need = len(verts) - 1
    out = []
    # (next edge position, union-find parents, chosen edge bits, chosen count)
    stack = [(0, {v: v for v in verts}, 0, 0)]
    while stack:
        idx, parent, bits, size = stack.pop()
        if size == need:
            out.append(bits)
        elif idx < len(block):
            eid = block[idx]
            u, v = g.edges[eid]
            ru, rv = _find(parent, u), _find(parent, v)
            if ru == rv:
                # it closes a cycle: leaving it out is forced, and spans as before
                stack.append((idx + 1, parent, bits, size))
                continue
            if len(_joins(g, block[idx + 1:], dict(parent))) == need - size:
                stack.append((idx + 1, parent, bits, size))
            child = dict(parent)
            child[ru] = rv
            stack.append((idx + 1, child, bits | 1 << eid, size + 1))
    return out


@_no_cyclic_gc
def maximal_forests(g, budget=FOREST_BUDGET) -> tuple:
    """Every maximal forest, as a tuple; refuses (with the exact count) over budget.

    The blocks' trees are crossed into the family, which is sorted once
    into lexicographic order of edge-id tuples.  For edge sets of one size
    that order puts first the set owning the lowest edge of the symmetric
    difference, so it sorts the bitmasks reversed over the edge width,
    edge 0 the top bit, highest first.
    """
    return _forest_product(g, budget)[0]


def _forest_product(g, budget):
    """The family as `maximal_forests` builds it, with the product structure
    it crosses: (family, positions, crossed), from one pass over the blocks.

    positions[i] is family[i]'s product position, its blocks' tree numbers
    read as a mixed-radix number with the first block most significant, and
    crossed lists (block, trees) for each block with two or more trees, in
    block order; a tree's number is its index in trees.  The exact count is
    refused over budget before any tree is listed, and each block's list is
    checked against its own count.
    """
    split = blocks(g)
    # a bridge is its block's one tree, kept as its edge id
    bridges = [block[0] for block in split if len(block) == 1]
    found = [(block, _tree_count(g, block)) for block in split if len(block) > 1]
    count = math.prod(want for _, want in found)
    if count > budget:
        raise BudgetError(
            f"graph has {count} maximal forests, over the budget of {budget}",
            count=count, budget=budget)
    crossed = [(block, _spanning_trees(g, block)) for block, _ in found]
    if [len(trees) for _, trees in crossed] != [want for _, want in found]:
        raise AssertionError("a block's enumerated trees disagree with its determinant")
    width = len(g.edges)
    # every member holds the bridges, so the crossing starts from their
    # union, and the crossing order makes each member's index its position
    members = [_mask(bridges, width)]
    for block, trees in crossed:
        members = [bits | tree for bits in members for tree in trees]
    positions = _lexicographic_positions(width, crossed)
    family = tuple(_trusted_forest(g, members[p]) for p in positions)
    return family, positions, crossed


def _lexicographic_positions(width, crossed):
    """The crossing positions in the family's order, by integer keys: a
    member's bits reversed over the edge width.  The reversal of a disjoint
    union is the union of the reversals, so the keys cross as the members do."""
    # every member holds every bridge, which adds the same bits to every key
    keys = [0]
    for block, trees in crossed:
        flipped = [int(f"{tree:0{width}b}"[::-1], 2) for tree in trees]
        keys = [key | flip for key in keys for flip in flipped]
    return sorted(range(len(keys)), key=keys.__getitem__, reverse=True)


def extend_to_maximal(g, partial) -> MaximalForest:
    """Grow an acyclic edge set to a maximal forest greedily in index order."""
    bits = _bits(g, partial)
    parent = list(range(g.vertex_count))
    ids = _ids(bits)
    if len(_joins(g, ids, parent)) != len(ids):
        raise GraphInputError("partial edge set already contains a cycle")
    added = _joins(g, range(len(g.edges)), parent)
    return _trusted_forest(g, bits | _mask(added, len(g.edges)))


def brute_force_maximal_forests(g) -> list:
    """Definitional oracle: test all 2^m edge subsets.  Small graphs only."""
    m = len(g.edges)
    if m > BRUTE_FORCE_EDGE_LIMIT:
        raise BudgetError(
            f"brute force limited to {BRUTE_FORCE_EDGE_LIMIT} edges (got {m})",
            count=m, budget=BRUTE_FORCE_EDGE_LIMIT)
    want = g.vertex_count - len(components(g))
    found = [bits for bits in range(1 << m) if bits.bit_count() == want
             and len(_joins(g, _ids(bits), list(range(g.vertex_count)))) == want]
    found.sort(key=_ids)
    return [MaximalForest(g, b) for b in found]
