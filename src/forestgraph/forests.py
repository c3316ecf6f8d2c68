"""Maximal spanning forests: exact counting, enumeration, extension.

A maximal forest takes one spanning tree per connected component.  Every
cycle lies inside one block (biconnected component), so the cycle matroid is
the direct sum of the blocks' matroids: a maximal forest is the bridges plus
one spanning tree of each larger block, and the count is the product of the
blocks' spanning-tree counts.  Counting always happens before enumerating;
enumeration refuses to start when the exact count exceeds the caller's budget.
"""

from __future__ import annotations

from .graphs import BudgetError, EdgeSubset, GraphInputError, blocks, components

FOREST_BUDGET = 10**6
BRUTE_FORCE_EDGE_LIMIT = 20


class MaximalForest:
    """A maximal spanning forest of a host graph, validated on construction.

    `_rank`, the host's vertex count minus its component count, lets a caller
    that builds many forests of one host compute it once.
    """

    __slots__ = ("host", "edges")

    def __init__(self, host, edges, *, _rank=None):
        if isinstance(edges, EdgeSubset):
            if edges.host is not host and edges.host != host:
                raise GraphInputError("edge subset belongs to a different graph")
            subset = EdgeSubset(host, edges.bits)
        else:
            subset = EdgeSubset.from_ids(host, edges)
        want = host.vertex_count - len(components(host)) if _rank is None else _rank
        if len(subset) != want:
            raise GraphInputError(
                f"not a maximal forest: {len(subset)} edges, expected {want}")
        if _forest_parents(host, subset.bits) is None:
            raise GraphInputError("not a forest: edge set contains a cycle")
        self.host = host
        self.edges = subset

    @property
    def bits(self):
        return self.edges.bits

    def edge_ids(self):
        return self.edges.ids()

    def pairs(self):
        return self.edges.pairs()

    def __eq__(self, other):
        return (isinstance(other, MaximalForest) and self.bits == other.bits
                and (self.host is other.host or self.host == other.host))

    def __hash__(self):
        return hash(self.bits)

    def __repr__(self):
        return f"MaximalForest({list(self.edge_ids())})"


class ForestFamily:
    """All maximal forests of a graph in lexicographic edge-index order."""

    __slots__ = ("graph", "members", "_index")

    def __init__(self, graph, members):
        self.graph = graph
        self.members = tuple(members)
        self._index = {f.bits: i for i, f in enumerate(self.members)}

    def index_of(self, forest) -> int:
        try:
            return self._index[forest.bits]
        except KeyError:
            raise GraphInputError("forest is not a member of this family") from None

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __getitem__(self, i):
        return self.members[i]


def _find(parent, x):
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _forest_parents(g, bits):
    """Union-find parents after joining the endpoints of every edge in bits,
    or None when one of those edges closes a cycle."""
    parent = list(range(g.vertex_count))
    b = bits
    while b:
        lsb = b & -b
        b ^= lsb
        u, v = g.edges[lsb.bit_length() - 1]
        ru, rv = _find(parent, u), _find(parent, v)
        if ru == rv:
            return None
        parent[ru] = rv
    return parent


def _det_bareiss(mat):
    """Exact determinant of an integer matrix by fraction-free elimination."""
    a = [row[:] for row in mat]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k]:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        row_k = a[k]
        for i in range(k + 1, n):
            row_i = a[i]
            aik = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - aik * row_k[j]) // prev
        prev = pivot
    return sign * a[n - 1][n - 1]


def _tree_count(g, block):
    """Spanning trees of one block (its edge ids) via a Laplacian cofactor."""
    verts = sorted({v for i in block for v in g.edges[i]})
    pos = {v: i for i, v in enumerate(verts[1:])}
    k = len(verts) - 1
    mat = [[0] * k for _ in range(k)]
    for i in block:
        u, v = g.edges[i]
        iu = pos.get(u)
        iv = pos.get(v)
        if iu is not None:
            mat[iu][iu] += 1
        if iv is not None:
            mat[iv][iv] += 1
        if iu is not None and iv is not None:
            mat[iu][iv] -= 1
            mat[iv][iu] -= 1
    return _det_bareiss(mat)


def count_maximal_forests(g) -> int:
    """Exact number of maximal forests: the product over the blocks of g of
    each block's spanning-tree count, one Laplacian-cofactor determinant per
    block of two or more edges (matrix-tree theorem).  Bridges and isolated
    vertices contribute a factor of 1."""
    total = 1
    for block in blocks(g):
        if len(block) > 1:
            total *= _tree_count(g, block)
    return total


def _spanning_trees(g, block):
    """Bitmasks of all spanning trees of one block, given as its edge ids.

    Include/exclude branching over the block's edges in index order, with
    an exclude branch taken only while the undecided edges can still span.
    """
    verts = {v for i in block for v in g.edges[i]}
    need = len(verts) - 1
    out = []

    def spannable(parent, pieces, start):
        parent = dict(parent)
        for i in block[start:]:
            u, v = g.edges[i]
            ru, rv = _find(parent, u), _find(parent, v)
            if ru != rv:
                parent[ru] = rv
                pieces -= 1
                if pieces == 1:
                    return True
        return pieces == 1

    def rec(idx, parent, chosen):
        if len(chosen) == need:
            out.append(sum(1 << i for i in chosen))
            return
        if idx == len(block):
            return
        eid = block[idx]
        u, v = g.edges[eid]
        ru, rv = _find(parent, u), _find(parent, v)
        if ru != rv:
            child = dict(parent)
            child[ru] = rv
            chosen.append(eid)
            rec(idx + 1, child, chosen)
            chosen.pop()
        if spannable(parent, len(verts) - len(chosen), idx + 1):
            rec(idx + 1, parent, chosen)

    rec(0, {v: v for v in verts}, [])
    return out


def maximal_forests(g, budget=FOREST_BUDGET) -> ForestFamily:
    """Enumerate every maximal forest; refuses (with the exact count) over budget.

    Each block's spanning trees are enumerated on the block's own edges (a
    bridge's one tree is itself) and crossed with the other blocks' trees.
    The family is sorted once into lexicographic order of edge-id tuples.
    For edge sets of one size that order puts first the set owning the
    lowest edge of the symmetric difference, so it sorts the bit strings
    read from edge 0 up, highest first.
    """
    count = count_maximal_forests(g)
    if count > budget:
        raise BudgetError(
            f"graph has {count} maximal forests, over the budget of {budget}",
            count=count, budget=budget)
    members = [0]
    for block in blocks(g):
        trees = _spanning_trees(g, block)
        members = [bits | tree for bits in members for tree in trees]
    width = len(g.edges)
    members.sort(key=lambda bits: f"{bits:0{width}b}"[::-1], reverse=True)
    rank = g.vertex_count - len(components(g))
    family = ForestFamily(g, (MaximalForest(g, EdgeSubset(g, bits), _rank=rank)
                              for bits in members))
    if len(family) != count:
        raise AssertionError(
            f"enumerated {len(family)} forests but the determinant says {count}")
    return family


def extend_to_maximal(g, partial) -> MaximalForest:
    """Grow an acyclic edge set to a maximal forest greedily in index order."""
    if isinstance(partial, EdgeSubset):
        bits = partial.bits
        if partial.host is not g and partial.host != g:
            raise GraphInputError("edge subset belongs to a different graph")
    else:
        bits = EdgeSubset.from_ids(g, partial).bits
    parent = _forest_parents(g, bits)
    if parent is None:
        raise GraphInputError("partial edge set already contains a cycle")
    for i, (u, v) in enumerate(g.edges):
        ru, rv = _find(parent, u), _find(parent, v)
        if ru != rv:
            parent[ru] = rv
            bits |= 1 << i
    return MaximalForest(g, EdgeSubset(g, bits))


def brute_force_maximal_forests(g) -> list:
    """Definitional oracle: test all 2^m edge subsets.  Small graphs only."""
    m = len(g.edges)
    if m > BRUTE_FORCE_EDGE_LIMIT:
        raise BudgetError(
            f"brute force limited to {BRUTE_FORCE_EDGE_LIMIT} edges (got {m})",
            count=m, budget=BRUTE_FORCE_EDGE_LIMIT)
    want = g.vertex_count - len(components(g))
    found = []
    for bits in range(1 << m):
        if bits.bit_count() == want and _forest_parents(g, bits) is not None:
            found.append(bits)
    found.sort(key=lambda b: tuple(i for i in range(m) if b >> i & 1))
    return [MaximalForest(g, EdgeSubset(g, b)) for b in found]
