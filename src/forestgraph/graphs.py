"""Core undirected-graph type and the small exact algorithms the package rests on.

Vertices are dense integer indices 0..n-1.  Edges are normalized (min, max)
pairs stored sorted and deduplicated; the position of a pair in that list is
the edge's index, and every edge subset in the package is a bitmask over these
indices.  All outputs are deterministic functions of the input graph.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

CLIQUE_VERTEX_LIMIT = 200
HAMILTONIAN_VERTEX_LIMIT = 30
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

    __slots__ = ("vertex_count", "edges", "vertex_names", "_adj", "_edge_index")

    def __init__(self, vertex_count, edges, vertex_names=None):
        if vertex_count < 0:
            raise GraphInputError("vertex_count must be non-negative")
        norm = set()
        for e in edges:
            u, v = e
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise GraphInputError(f"edge {e!r} has an endpoint outside 0..{vertex_count - 1}")
            if u == v:
                raise GraphInputError(f"loop edge at vertex {u} not allowed")
            norm.add((u, v) if u < v else (v, u))
        self.vertex_count = vertex_count
        self.edges = tuple(sorted(norm))
        if vertex_names is not None:
            vertex_names = tuple(str(x) for x in vertex_names)
            if len(vertex_names) != vertex_count:
                raise GraphInputError("vertex_names length must equal vertex_count")
        self.vertex_names = vertex_names
        adj = [[] for _ in range(vertex_count)]
        index = {}
        for i, (u, v) in enumerate(self.edges):
            adj[u].append((v, i))
            adj[v].append((u, i))
            index[(u, v)] = i
        self._adj = tuple(tuple(sorted(a)) for a in adj)
        self._edge_index = index

    def incident(self, v):
        """Pairs (neighbor, edge index) at v, sorted by neighbor."""
        return self._adj[v]

    def neighbors(self, v):
        return tuple(w for (w, _) in self._adj[v])

    def degree(self, v):
        return len(self._adj[v])

    def edge_index(self, u, v):
        key = (u, v) if u < v else (v, u)
        try:
            return self._edge_index[key]
        except KeyError:
            raise GraphInputError(f"no edge {key} in graph") from None

    def has_edge(self, u, v):
        return ((u, v) if u < v else (v, u)) in self._edge_index

    def name_of(self, v):
        return self.vertex_names[v] if self.vertex_names else str(v)

    def __eq__(self, other):
        return (isinstance(other, Graph) and self.vertex_count == other.vertex_count
                and self.edges == other.edges)

    def __hash__(self):
        return hash((self.vertex_count, self.edges))

    def __repr__(self):
        return f"Graph(n={self.vertex_count}, m={len(self.edges)})"


def complete_graph(n) -> Graph:
    return Graph(n, itertools.combinations(range(n), 2))


def cycle_graph(n) -> Graph:
    if n < 3:
        raise GraphInputError("cycle graph needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


class EdgeSubset:
    """Subset of a host graph's edges as a bitmask over edge indices."""

    __slots__ = ("host", "bits")

    def __init__(self, host, bits=0):
        if bits < 0 or bits >> len(host.edges):
            raise GraphInputError("edge subset bits outside the host edge table")
        self.host = host
        self.bits = bits

    @classmethod
    def from_ids(cls, host, ids):
        bits = 0
        for i in ids:
            if not 0 <= i < len(host.edges):
                raise GraphInputError(f"edge index {i} outside the host edge table")
            bits |= 1 << i
        return cls(host, bits)

    @classmethod
    def full(cls, host):
        return cls(host, (1 << len(host.edges)) - 1)

    def ids(self):
        return tuple(i for i in range(len(self.host.edges)) if self.bits >> i & 1)

    def pairs(self):
        return tuple(self.host.edges[i] for i in self.ids())

    def _need_same_host(self, other):
        if self.host is not other.host and self.host != other.host:
            raise GraphInputError("edge subsets live on different host graphs")

    def __or__(self, other):
        self._need_same_host(other)
        return EdgeSubset(self.host, self.bits | other.bits)

    def __and__(self, other):
        self._need_same_host(other)
        return EdgeSubset(self.host, self.bits & other.bits)

    def __xor__(self, other):
        self._need_same_host(other)
        return EdgeSubset(self.host, self.bits ^ other.bits)

    def __sub__(self, other):
        self._need_same_host(other)
        return EdgeSubset(self.host, self.bits & ~other.bits)

    def __contains__(self, eid):
        return 0 <= eid < len(self.host.edges) and self.bits >> eid & 1

    def __len__(self):
        return self.bits.bit_count()

    def __iter__(self):
        return iter(self.ids())

    def __bool__(self):
        return self.bits != 0

    def __eq__(self, other):
        return (isinstance(other, EdgeSubset) and self.bits == other.bits
                and (self.host is other.host or self.host == other.host))

    def __hash__(self):
        return hash(self.bits)

    def __repr__(self):
        return f"EdgeSubset({list(self.ids())})"


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
        bits = 0
        for i in self.edge_ids:
            bits |= 1 << i
        return bits

    def edge_subset(self):
        return EdgeSubset(self.host, self.edge_bits())

    def __eq__(self, other):
        return isinstance(other, Cycle) and self.vertices == other.vertices \
            and self.host == other.host

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        return f"Cycle({'-'.join(map(str, self.vertices))})"


def components(g) -> list:
    """Vertex partition into connected components, each sorted, ordered by minimum."""
    seen = [False] * g.vertex_count
    out = []
    for root in range(g.vertex_count):
        if seen[root]:
            continue
        comp = [root]
        seen[root] = True
        queue = [root]
        while queue:
            v = queue.pop()
            for w, _ in g.incident(v):
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    queue.append(w)
        out.append(sorted(comp))
    return out


def cyclomatic_number(g) -> int:
    """m - n + c: the number of edges outside any maximal forest."""
    return len(g.edges) - g.vertex_count + len(components(g))


def blocks(g) -> list:
    """Edge ids of each biconnected component (block), from one lowpoint DFS.

    Each block is a sorted tuple of edge ids and the blocks are ordered by
    their smallest edge id.  Bridges are the single-edge blocks; every cycle
    lies inside one block.
    """
    n = g.vertex_count
    disc = [-1] * n
    low = [0] * n
    edge_stack = []
    out = []
    timer = 0
    for root in range(n):
        if disc[root] != -1 or not g.incident(root):
            continue
        disc[root] = low[root] = timer
        timer += 1
        stack = [(root, -1, iter(g.incident(root)))]
        while stack:
            v, pe, it = stack[-1]
            for w, eid in it:
                if eid == pe:
                    continue
                if disc[w] == -1:
                    edge_stack.append(eid)
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, eid, iter(g.incident(w))))
                    break
                if disc[w] < disc[v]:
                    edge_stack.append(eid)
                    low[v] = min(low[v], disc[w])
            else:
                stack.pop()
                if stack:
                    u = stack[-1][0]
                    low[u] = min(low[u], low[v])
                    if low[v] >= disc[u]:
                        # u separates v's subtree: its edges, down to pe, form a block
                        block = [edge_stack.pop()]
                        while block[-1] != pe:
                            block.append(edge_stack.pop())
                        out.append(tuple(sorted(block)))
    out.sort()
    return out


def bridges(g) -> EdgeSubset:
    """Edges lying on no cycle: the single-edge blocks."""
    out = 0
    for block in blocks(g):
        if len(block) == 1:
            out |= 1 << block[0]
    return EdgeSubset(g, out)


def unique_cycle(g):
    """The one cycle of a graph with cyclomatic number 1, else None."""
    if cyclomatic_number(g) != 1:
        return None
    ring = next(block for block in blocks(g) if len(block) > 1)
    # walk the cycle edges into vertex order
    adj = {}
    for i in ring:
        u, v = g.edges[i]
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    walk = [min(adj)]
    walk.append(adj[walk[0]][0])
    while len(walk) < len(ring):
        a, b = adj[walk[-1]]
        walk.append(b if a == walk[-2] else a)
    return Cycle(g, walk)


BipartiteReport = namedtuple("BipartiteReport", "bipartite coloring odd_cycle")


def is_bipartite(g) -> BipartiteReport:
    """Two-color the graph or exhibit an odd cycle."""
    n = g.vertex_count
    color = [-1] * n
    parent = [-1] * n
    for root in range(n):
        if color[root] != -1:
            continue
        color[root] = 0
        queue = [root]
        qi = 0
        while qi < len(queue):
            v = queue[qi]
            qi += 1
            for w, _ in g.incident(v):
                if color[w] == -1:
                    color[w] = color[v] ^ 1
                    parent[w] = v
                    queue.append(w)
                elif color[w] == color[v]:
                    # close the odd cycle: ancestor..v, then w climbing back up
                    anc = []
                    x = v
                    while x != -1:
                        anc.append(x)
                        x = parent[x]
                    pos = {x: i for i, x in enumerate(anc)}
                    x = w
                    side = []
                    while x not in pos:
                        side.append(x)
                        x = parent[x]
                    walk = anc[:pos[x] + 1][::-1] + side
                    return BipartiteReport(False, None, Cycle(g, walk))
    return BipartiteReport(True, tuple(color), None)


def max_clique(g) -> tuple:
    """Exact maximum clique by branch and bound with a greedy coloring bound.

    Intended for graphs up to a couple hundred vertices; beyond that raises
    BudgetError (forest-graph callers should use the constructive clique
    witnesses instead of searching).
    """
    n = g.vertex_count
    if n == 0:
        return ()
    if n > CLIQUE_VERTEX_LIMIT:
        raise BudgetError(
            f"max_clique limited to {CLIQUE_VERTEX_LIMIT} vertices (got {n}); "
            "use a constructive clique witness for forest graphs",
            count=n, budget=CLIQUE_VERTEX_LIMIT)
    if len(g.edges) == n * (n - 1) // 2:
        return tuple(range(n))
    nb = [0] * n
    for u, v in g.edges:
        nb[u] |= 1 << v
        nb[v] |= 1 << u

    def color_order(cand):
        out = []
        color = 0
        rest = cand
        while rest:
            color += 1
            avail = rest
            while avail:
                b = avail & -avail
                v = b.bit_length() - 1
                out.append((v, color))
                rest ^= b
                avail = (avail ^ b) & ~nb[v]
        return out

    best_size = 0
    best_bits = 0

    def expand(size, member_bits, cand):
        nonlocal best_size, best_bits
        for v, c in reversed(color_order(cand)):
            if size + c <= best_size:
                return
            b = 1 << v
            if size + 1 > best_size:
                best_size = size + 1
                best_bits = member_bits | b
            nxt = cand & nb[v]
            if nxt:
                expand(size + 1, member_bits | b, nxt)
            cand ^= b

    expand(0, 0, (1 << n) - 1)
    return tuple(v for v in range(n) if best_bits >> v & 1)


def hamiltonian_cycle(g, node_budget=2_000_000):
    """Find a Hamiltonian cycle by backtracking with degree pruning.

    Returns a Cycle, or None when the exhaustive search proves none exists.
    Raises BudgetError when the graph is too large or the node budget runs out
    before either conclusion (absence is then not proven).
    """
    n = g.vertex_count
    if n > HAMILTONIAN_VERTEX_LIMIT:
        raise BudgetError(
            f"hamiltonian_cycle limited to {HAMILTONIAN_VERTEX_LIMIT} vertices (got {n})",
            count=n, budget=HAMILTONIAN_VERTEX_LIMIT)
    if n < 3:
        return None
    if any(g.degree(v) < 2 for v in range(n)) or len(components(g)) > 1:
        return None
    nb = [0] * n
    for u, v in g.edges:
        nb[u] |= 1 << v
        nb[v] |= 1 << u
    target = (1 << n) - 1
    path = [0]
    nodes = 0

    def rec(cur, visited):
        nonlocal nodes
        nodes += 1
        if nodes > node_budget:
            raise BudgetError("hamiltonian_cycle search budget exhausted",
                              count=nodes, budget=node_budget)
        if visited == target:
            return nb[cur] & 1 == 1
        rem = target & ~visited
        r = rem
        while r:
            b = r & -r
            r ^= b
            w = b.bit_length() - 1
            # w still needs two cycle neighbors among the unvisited part,
            # the current endpoint and the start vertex
            if (nb[w] & ((rem ^ b) | (1 << cur) | 1)).bit_count() < 2:
                return False
        ext = nb[cur] & rem
        while ext:
            b = ext & -ext
            ext ^= b
            w = b.bit_length() - 1
            path.append(w)
            if rec(w, visited | b):
                return True
            path.pop()
        return False

    if rec(0, 1):
        return Cycle(g, tuple(path))
    return None


def find_long_cycle(g, min_length, node_budget=500_000):
    """First simple cycle of at least min_length found by depth-first search.

    Returns None when the budget runs out or no such cycle exists; dense
    graphs (forest graphs in particular) find one almost immediately.
    """
    if min_length < 3:
        raise GraphInputError("cycles have length at least 3")
    adj = [g.neighbors(v) for v in range(g.vertex_count)]
    nodes = 0
    for s in range(g.vertex_count):
        stack = [(s, iter(adj[s]))]
        path = [s]
        onpath = {s}
        while stack:
            nodes += 1
            if nodes > node_budget:
                return None
            v, it = stack[-1]
            pushed = False
            for w in it:
                if w == s and len(path) >= min_length and path[1] < path[-1]:
                    return Cycle(g, tuple(path))
                if w > s and w not in onpath:
                    path.append(w)
                    onpath.add(w)
                    stack.append((w, iter(adj[w])))
                    pushed = True
                    break
            if not pushed:
                stack.pop()
                onpath.discard(v)
                path.pop()
    return None


def _is_complete(g):
    return len(g.edges) == g.vertex_count * (g.vertex_count - 1) // 2


def canonical_labeling(g):
    """Canonical edge list plus a vertex relabeling achieving it.

    Complete and edgeless graphs short-circuit at any size; the generic
    individualization-refinement search is limited to ISO_VERTEX_LIMIT
    vertices.
    """
    n = g.vertex_count
    if len(g.edges) == 0:
        return (), tuple(range(n))
    if _is_complete(g):
        return tuple(itertools.combinations(range(n), 2)), tuple(range(n))
    if n > ISO_VERTEX_LIMIT:
        raise BudgetError(
            f"canonical labeling limited to {ISO_VERTEX_LIMIT} vertices (got {n})",
            count=n, budget=ISO_VERTEX_LIMIT)
    neigh = [g.neighbors(v) for v in range(n)]

    def refine(cells):
        while True:
            cidx = {}
            for i, cell in enumerate(cells):
                for v in cell:
                    cidx[v] = i
            out = []
            changed = False
            for cell in cells:
                if len(cell) == 1:
                    out.append(cell)
                    continue
                groups = {}
                for v in cell:
                    sig = [0] * len(cells)
                    for w in neigh[v]:
                        sig[cidx[w]] += 1
                    groups.setdefault(tuple(sig), []).append(v)
                if len(groups) == 1:
                    out.append(cell)
                else:
                    changed = True
                    for sig in sorted(groups):
                        out.append(tuple(groups[sig]))
            if not changed:
                return out
            cells = out

    best = [None, None]

    def search(cells):
        cells = refine(cells)
        for i, cell in enumerate(cells):
            if len(cell) > 1:
                for v in cell:
                    search(cells[:i]
                           + [(v,), tuple(x for x in cell if x != v)]
                           + cells[i + 1:])
                return
        pos = {cell[0]: i for i, cell in enumerate(cells)}
        edges = tuple(sorted(tuple(sorted((pos[u], pos[v]))) for u, v in g.edges))
        if best[0] is None or edges < best[0]:
            best[0] = edges
            best[1] = pos

    search([tuple(range(n))])
    return best[0], tuple(best[1][v] for v in range(n))


def canonical_form(g):
    """Canonical edge list: equal exactly for isomorphic graphs."""
    return canonical_labeling(g)[0]


def is_isomorphic(g, h) -> bool:
    return find_isomorphism(g, h) is not None


def find_isomorphism(g, h):
    """A vertex bijection g -> h preserving edges exactly, or None."""
    if g.vertex_count != h.vertex_count or len(g.edges) != len(h.edges):
        return None
    if sorted(g.degree(v) for v in range(g.vertex_count)) != \
            sorted(h.degree(v) for v in range(h.vertex_count)):
        return None
    cg, pg = canonical_labeling(g)
    ch, ph = canonical_labeling(h)
    if cg != ch:
        return None
    inv_h = [0] * h.vertex_count
    for v, p in enumerate(ph):
        inv_h[p] = v
    mapping = tuple(inv_h[pg[v]] for v in range(g.vertex_count))
    for u, v in g.edges:
        if not h.has_edge(mapping[u], mapping[v]):
            raise AssertionError("canonical labelings disagree with edge test")
    return mapping


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
