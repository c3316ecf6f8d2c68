"""Core undirected-graph type and the small exact algorithms the package rests on.

Vertices are dense integer indices 0..n-1.  Edges are normalized (min, max)
pairs stored sorted and deduplicated; the position of a pair in that list is
the edge's index, and every edge subset in the package is a bitmask over these
indices.  All outputs are deterministic functions of the input graph.
"""

from __future__ import annotations

import functools
import gc
import itertools
from bisect import bisect_left
from collections import namedtuple

ISO_VERTEX_LIMIT = 12


class GraphInputError(ValueError):
    """Malformed graph data or arguments that violate an operation's contract."""


class BudgetError(RuntimeError):
    """A computation refused to start or continue because it would exceed a budget.

    Carries exact numbers where they are known: `count` (the offending exact
    count), `budget` (the limit), and `step` (iteration step, when relevant).
    """

    def __init__(self, message, count=None, budget=None, step=None):
        super().__init__(message)
        self.count = count
        self.budget = budget
        self.step = step


class Graph:
    """Immutable simple undirected graph with an indexed edge list."""

    __slots__ = ("vertex_count", "edges", "vertex_names", "_adj")

    def __init__(self, vertex_count, edges, vertex_names=None):
        if vertex_count < 0:
            raise GraphInputError("vertex_count must be non-negative")
        norm = []
        for e in edges:
            u, v = e
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise GraphInputError(f"edge {e!r} has an endpoint outside 0..{vertex_count - 1}")
            if u == v:
                raise GraphInputError(f"loop edge at vertex {u} not allowed")
            norm.append((u, v) if u < v else (v, u))
        norm.sort()
        self.vertex_count = vertex_count
        self.edges = tuple(e for e, _ in itertools.groupby(norm))
        if vertex_names is not None:
            vertex_names = tuple(str(x) for x in vertex_names)
            if len(vertex_names) != vertex_count:
                raise GraphInputError("vertex_names length must equal vertex_count")
        self.vertex_names = vertex_names
        self._adj = None

    @staticmethod
    def _from_edges(vertex_count, edges):
        """The graph on 0..vertex_count-1 with the edge table `edges`,
        unchecked, for graphs the package builds: `edges` must be a sorted
        tuple of distinct (u, v) pairs with u < v < vertex_count.  Outside
        input goes through `Graph(n, edges)`."""
        g = Graph.__new__(Graph)
        g.vertex_count = vertex_count
        g.edges = edges
        g.vertex_names = g._adj = None
        return g

    def _neighbour_lists(self):
        """The sorted tuple of each vertex's neighbours, derived from the edge
        table the first time something reads it."""
        if self._adj is None:
            self._adj = _adjacency(self.vertex_count, self.edges)
        return self._adj

    def neighbors(self, v):
        """The sorted tuple of v's neighbours."""
        return self._neighbour_lists()[v]

    def degree(self, v):
        return len(self._neighbour_lists()[v])

    def edge_index(self, u, v):
        key = (u, v) if u < v else (v, u)
        i = bisect_left(self.edges, key)
        if i == len(self.edges) or self.edges[i] != key:
            raise GraphInputError(f"no edge {key} in graph")
        return i

    def has_edge(self, u, v):
        key = (u, v) if u < v else (v, u)
        i = bisect_left(self.edges, key)
        return i < len(self.edges) and self.edges[i] == key

    def name_of(self, v):
        return self.vertex_names[v] if self.vertex_names else str(v)

    def __eq__(self, other):
        return (isinstance(other, Graph) and self.vertex_count == other.vertex_count
                and self.edges == other.edges)

    def __hash__(self):
        return hash((self.vertex_count, self.edges))

    def __repr__(self):
        return f"Graph(n={self.vertex_count}, m={len(self.edges)})"


def _no_cyclic_gc(build):
    """`build` with the cyclic collector paused for each call, for builders
    whose bulk of new containers forms no reference cycle: each collection
    their allocations trigger would scan them all and free nothing.  A
    collector the caller disabled stays disabled."""
    @functools.wraps(build)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return build(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()
    return paused


@_no_cyclic_gc
def _adjacency(vertex_count, edges):
    """The sorted tuple of each vertex's neighbours, from a sorted edge table."""
    # the edge table is sorted, so each vertex meets its smaller neighbours
    # first and in increasing order, then its larger ones: every list
    # filled in edge order is already sorted
    adj = [[] for _ in range(vertex_count)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return tuple(map(tuple, adj))


def complete_graph(n) -> Graph:
    return Graph(n, itertools.combinations(range(n), 2))


def cycle_graph(n) -> Graph:
    if n < 3:
        raise GraphInputError("cycle graph needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


_BIT_OF_DIGIT = bytes.maketrans(b"01", b"\x00\x01")


def _ids(bits):
    """The positions of the set bits of a non-negative int, ascending, in time
    linear in its width: its binary digits, read from the low end."""
    return tuple(itertools.compress(itertools.count(),
                                    bin(bits)[:1:-1].encode().translate(_BIT_OF_DIGIT)))


def _mask(ids, width):
    """The int with bit i set for each i in ids, each in 0..width-1, built in
    time linear in width as a string of binary digits, the last digit bit 0
    (a leading 0 keeps the string non-empty)."""
    digits = bytearray(b"0" * (width + 1))
    for i in ids:
        if not 0 <= i < width:
            raise GraphInputError(f"edge index {i} outside the host edge table")
        digits[~i] = 49  # "1"
    return int(digits, 2)


class Cycle:
    """A simple cycle, stored as its closed vertex walk plus the edge indices.

    The walk is normalized to start at the smallest vertex and run towards its
    smaller neighbor, so equal cycles compare equal.
    """

    __slots__ = ("host", "vertices", "edge_ids")

    def __init__(self, host, vertices):
        verts = list(vertices)
        if len(verts) < 3:
            raise GraphInputError("a cycle needs at least 3 vertices")
        if len(set(verts)) != len(verts):
            raise GraphInputError("cycle walk repeats a vertex")
        k = verts.index(min(verts))
        verts = verts[k:] + verts[:k]
        if verts[-1] < verts[1]:
            verts = [verts[0]] + verts[:0:-1]
        self.host = host
        self.vertices = tuple(verts)
        self.edge_ids = tuple(host.edge_index(verts[i], verts[(i + 1) % len(verts)])
                              for i in range(len(verts)))

    @property
    def length(self):
        return len(self.vertices)

    def edge_bits(self):
        return _mask(self.edge_ids, len(self.host.edges))

    def __eq__(self, other):
        return isinstance(other, Cycle) and self.vertices == other.vertices \
            and self.host == other.host

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        return f"Cycle({'-'.join(map(str, self.vertices))})"


def _bfs(g, sources, depth, parent):
    """Breadth-first search from each source not reached yet, in order.

    Fills depth (-1 until reached, 0 at each source) and parent (the
    discovering vertex), and yields each vertex as it leaves the queue, so a
    caller may stop early.  By then every vertex of its depth has been reached.
    """
    adj = g._neighbour_lists()
    for root in sources:
        if depth[root] != -1:
            continue
        depth[root] = 0
        queue = [root]
        for v in queue:
            yield v
            d = depth[v] + 1
            for w in adj[v]:
                if depth[w] == -1:
                    depth[w] = d
                    parent[w] = v
                    queue.append(w)


def _distances(g, src):
    """Breadth-first distances from src, -1 where unreachable."""
    depth = [-1] * g.vertex_count
    for _ in _bfs(g, (src,), depth, [-1] * g.vertex_count):
        pass
    return depth


def components(g) -> list:
    """Vertex partition into connected components, each sorted, ordered by minimum."""
    depth = [-1] * g.vertex_count
    out = []
    for v in _bfs(g, range(g.vertex_count), depth, [-1] * g.vertex_count):
        if depth[v]:
            comp.append(v)
        else:
            comp = [v]
            out.append(comp)
    for comp in out:
        comp.sort()
    return out


def blocks(g) -> list:
    """Edge ids of each biconnected component (block), from one lowpoint DFS.

    Each block is a sorted tuple of edge ids and the blocks are ordered by
    their smallest edge id.  Bridges are the single-edge blocks; every cycle
    lies inside one block.  Each edge goes to the block of its
    later-discovered end.
    """
    n = g.vertex_count
    adj = g._neighbour_lists()
    disc = [-1] * n
    low = [0] * n
    block_of = [None] * n
    pending = []
    timer = 0
    for root in range(n):
        if disc[root] != -1 or not adj[root]:
            continue
        disc[root] = low[root] = timer
        timer += 1
        stack = [(root, iter(adj[root]))]
        while stack:
            v, it = stack[-1]
            for w in it:
                if disc[w] == -1:
                    disc[w] = low[w] = timer
                    timer += 1
                    pending.append(w)
                    stack.append((w, iter(adj[w])))
                    break
                # the tree edge back to the parent u may set low[v] to
                # disc[u], which changes neither low[u] nor the test below
                if disc[w] < low[v]:
                    low[v] = disc[w]
            else:
                stack.pop()
                if stack:
                    u = stack[-1][0]
                    low[u] = min(low[u], low[v])
                    if low[v] >= disc[u]:
                        # u separates v's subtree: the tree edges into the
                        # vertices pending down to v form one block
                        block = []
                        while block_of[v] is not block:
                            block_of[pending.pop()] = block
    # an edge's later-discovered end is the lower end of a tree edge or of a
    # back edge, whose cycle runs through the tree edge into that end; so one
    # pass in edge order fills each block sorted, and meets the blocks in order
    out = []
    for i, (u, v) in enumerate(g.edges):
        block = block_of[u] if disc[u] > disc[v] else block_of[v]
        if not block:
            out.append(block)
        block.append(i)
    return list(map(tuple, out))


def bridges(g) -> tuple:
    """Edge ids of the edges lying on no cycle, ascending: the single-edge blocks."""
    return tuple(block[0] for block in blocks(g) if len(block) == 1)


BipartiteReport = namedtuple("BipartiteReport", "bipartite coloring odd_cycle")


def is_bipartite(g) -> BipartiteReport:
    """Two-color the graph by breadth-first depth parity, or exhibit an odd
    cycle closed by the first edge, in edge order, joining two vertices of
    one depth."""
    n = g.vertex_count
    depth = [-1] * n
    parent = [-1] * n
    for _ in _bfs(g, range(n), depth, parent):
        pass
    for v, w in g.edges:
        if depth[v] == depth[w]:
            # climb from both ends to their first common ancestor
            left, right = [v], [w]
            while left[-1] != right[-1]:
                left.append(parent[left[-1]])
                right.append(parent[right[-1]])
            return BipartiteReport(False, None, Cycle(g, left[::-1] + right[:-1]))
    return BipartiteReport(True, tuple(d & 1 for d in depth), None)


def is_isomorphic(g, h) -> bool:
    return find_isomorphism(g, h) is not None


def find_isomorphism(g, h):
    """The first vertex bijection g -> h preserving edges exactly, or None.

    Edgeless and complete graphs map by the identity at any size.  Otherwise
    the degree multisets must agree, and the search is limited to
    ISO_VERTEX_LIMIT vertices.  It refines both graphs together: cells are
    (g cell, h cell) pairs, and each cell splits by its vertices' multisets
    of neighbour cells, in one order on both sides; a split that differs
    between the sides rules the branch out.  It then maps the first vertex
    of g's first non-singleton cell onto each vertex of h's matching cell in
    turn, refining again, and returns the first discrete map whose edges
    all lie in h.
    """
    n = g.vertex_count
    if n != h.vertex_count or len(g.edges) != len(h.edges):
        return None
    if len(g.edges) in (0, n * (n - 1) // 2):
        return tuple(range(n))
    g_adj, h_adj = g._neighbour_lists(), h._neighbour_lists()
    if sorted(map(len, g_adj)) != sorted(map(len, h_adj)):
        return None
    if n > ISO_VERTEX_LIMIT:
        raise BudgetError(f"isomorphism limited to {ISO_VERTEX_LIMIT} vertices (got {n})",
                          count=n, budget=ISO_VERTEX_LIMIT)

    def split(cell, adj, cell_of):
        groups = {}
        for v in cell:
            key = tuple(sorted(cell_of[w] for w in adj[v]))
            groups.setdefault(key, []).append(v)
        return groups

    def refine(cells):
        while True:
            g_cell, h_cell = [0] * n, [0] * n
            for i, (a, b) in enumerate(cells):
                for v in a:
                    g_cell[v] = i
                for v in b:
                    h_cell[v] = i
            out = []
            for a, b in cells:
                ga, hb = split(a, g_adj, g_cell), split(b, h_adj, h_cell)
                if ga.keys() != hb.keys():
                    return None
                for key in sorted(ga):
                    if len(ga[key]) != len(hb[key]):
                        return None
                    out.append((ga[key], hb[key]))
            if len(out) == len(cells):
                return out
            cells = out

    def search(cells):
        cells = refine(cells)
        if cells is None:
            return None
        for i, (a, b) in enumerate(cells):
            if len(a) > 1:
                for w in b:
                    found = search(cells[:i] + [([a[0]], [w]), (a[1:], [x for x in b if x != w])]
                                   + cells[i + 1:])
                    if found is not None:
                        return found
                return None
        mapping = [0] * n
        for (v,), (w,) in cells:
            mapping[v] = w
        if all(h.has_edge(mapping[u], mapping[v]) for u, v in g.edges):
            return tuple(mapping)
        return None

    return search([(list(range(n)), list(range(n)))])


def cartesian_product(g, h) -> Graph:
    """Cartesian product; vertex (a, b) becomes index a * |V(h)| + b."""
    hn = h.vertex_count
    edges = []
    for a in range(g.vertex_count):
        for u, v in h.edges:
            edges.append((a * hn + u, a * hn + v))
    for u, v in g.edges:
        for b in range(hn):
            edges.append((u * hn + b, v * hn + b))
    return Graph(g.vertex_count * hn, edges)
