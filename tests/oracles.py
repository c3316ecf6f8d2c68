"""Independent reference implementations used only as test oracles.

Nothing here shares algorithms with the package: spanning trees are counted
by deletion-contraction on multigraphs, cycles come from vertex-sequence
brute force, blocks come from merging edges that share a cycle, exchange
paths test connectivity by walking the remaining edges, components and
bipartiteness come from union-find (the latter on a doubled vertex set), the
cyclomatic number counts union-find classes, a unicyclic graph's cycle is
what peeling leaves of it, isomorphism tries every permutation, cliques come
from subset scans, Hamiltonian cycles come from bitmask backtracking,
unlabeled-graph counts come from the orbit-counting lemma, and forest-graph
adjacency comes from one bucket join over the whole forest family, not from
the product of the blocks' forest graphs.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from forestgraph import BudgetError, Cycle

HAMILTONIAN_VERTEX_LIMIT = 30


def dc_spanning_trees(n, edges) -> int:
    """Spanning trees of a connected multigraph by deletion-contraction.

    `edges` is a list of (u, v) pairs, repeats allowed (contraction creates
    multi-edges; loops are dropped).  Disconnected input gives 0.
    """
    edges = [e for e in edges if e[0] != e[1]]
    if not edges:
        return 1 if n <= 1 else 0
    # quick connectivity cut
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    blocks = n
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            blocks -= 1
    if blocks > 1:
        return 0
    u, v = edges[0]
    deleted = dc_spanning_trees(n, edges[1:])
    # contract v into u and renumber densely
    relabel = [x - (1 if x > v else 0) if x != v else u - (1 if u > v else 0)
               for x in range(n)]
    contracted = [(relabel[a], relabel[b]) for a, b in edges[1:]]
    return deleted + dc_spanning_trees(n - 1, contracted)


def _union_find(size, pairs):
    parent = list(range(size))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        parent[find(a)] = find(b)
    return [find(x) for x in range(size)]


def union_find_components(g) -> list:
    """Vertex classes of a union-find over the edges, sorted and ordered by minimum."""
    groups = {}
    for v, root in enumerate(_union_find(g.vertex_count, g.edges)):
        groups.setdefault(root, []).append(v)
    return sorted(groups.values())


def union_find_bipartite(g) -> bool:
    """Copy v + n stands for "v on the other side": each edge joins u to the
    other side of v and v to the other side of u, and the graph is bipartite
    exactly when no vertex ends up on its own other side."""
    n = g.vertex_count
    root = _union_find(2 * n, [p for u, v in g.edges for p in ((u, v + n), (v, u + n))])
    return all(root[v] != root[v + n] for v in range(n))


def cyclomatic_number(g) -> int:
    """m - n + c, with c counted by union-find: the number of edges outside
    any maximal forest."""
    return len(g.edges) - g.vertex_count + len(union_find_components(g))


def unique_cycle(g):
    """The one cycle of a graph with cyclomatic number 1, else None.

    Peeling vertices with fewer than two unpeeled neighbours leaves the
    2-core, which in such a graph is its cycle.  The walk starts at the
    core's smallest vertex and goes on to the smallest core neighbour it has
    not just left.
    """
    if cyclomatic_number(g) != 1:
        return None
    inside = set(range(g.vertex_count))
    while True:
        peel = {v for v in inside if len(inside.intersection(g.neighbors(v))) < 2}
        if not peel:
            break
        inside -= peel
    walk = [min(inside)]
    while len(walk) < len(inside):
        walk.append(next(w for w in g.neighbors(walk[-1]) if w in inside and w not in walk[-2:]))
    return Cycle(g, walk)


def brute_force_cycles(g) -> set:
    """All simple cycles as frozensets of edge indices, by walk enumeration."""
    out = set()
    n = g.vertex_count
    for k in range(3, n + 1):
        for verts in itertools.permutations(range(n), k):
            if verts[0] != min(verts):
                continue
            closed = verts + (verts[0],)
            if all(g.has_edge(closed[i], closed[i + 1]) for i in range(k)):
                out.add(frozenset(g.edge_index(closed[i], closed[i + 1])
                                  for i in range(k)))
    return out


def brute_force_isomorphic(g, h) -> bool:
    """Try every vertex bijection."""
    if g.vertex_count != h.vertex_count or len(g.edges) != len(h.edges):
        return False
    target = set(h.edges)
    for perm in itertools.permutations(range(g.vertex_count)):
        if all(tuple(sorted((perm[u], perm[v]))) in target for u, v in g.edges):
            return True
    return False


def brute_force_max_clique_size(g) -> int:
    """Largest k such that some k-subset is pairwise adjacent."""
    best = 1 if g.vertex_count else 0
    for k in range(2, g.vertex_count + 1):
        for sub in itertools.combinations(range(g.vertex_count), k):
            if all(g.has_edge(a, b) for a, b in itertools.combinations(sub, 2)):
                best = k
                break
        else:
            break
    return best


def neighbour_tuples(g) -> list:
    """Each vertex's sorted neighbours, read off g.edges alone."""
    adj = [set() for _ in range(g.vertex_count)]
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    return [tuple(sorted(a)) for a in adj]


def brute_force_bridges(g) -> set:
    """Edge indices whose removal disconnects their endpoints."""
    adj = neighbour_tuples(g)
    out = set()
    for i, (u, v) in enumerate(g.edges):
        seen = {u}
        queue = [u]
        while queue:
            x = queue.pop()
            for y in adj[x]:
                if {x, y} != {u, v} and y not in seen:
                    seen.add(y)
                    queue.append(y)
        if v not in seen:
            out.add(i)
    return out


def brute_force_blocks(g) -> set:
    """Edge classes linked by chains of common cycles; bridges stay single."""
    classes = {frozenset([i]) for i in range(len(g.edges))}
    for cyc in brute_force_cycles(g):
        touching = {c for c in classes if c & cyc}
        classes -= touching
        classes.add(frozenset().union(*touching))
    return classes


def bucket_join_edges(family_bits) -> tuple:
    """Sorted index pairs of the forests one exchange apart.

    Each forest goes into one bucket per member edge, keyed by its edge set
    minus that edge; two forests share a bucket exactly when they differ in
    one edge each way, and every such pair meets in exactly one bucket.
    """
    buckets = {}
    for i, bits in enumerate(family_bits):
        b = bits
        while b:
            lsb = b & -b
            b ^= lsb
            buckets.setdefault(bits ^ lsb, []).append(i)
    edges = []
    for group in buckets.values():
        for a in range(len(group) - 1):
            for b in range(a + 1, len(group)):
                edges.append((group[a], group[b]))
    return tuple(sorted(edges))


def bfs_distances(g, src) -> list:
    adj = neighbour_tuples(g)
    dist = [-1] * g.vertex_count
    dist[src] = 0
    queue = [src]
    qi = 0
    while qi < len(queue):
        v = queue[qi]
        qi += 1
        for w in adj[v]:
            if dist[w] == -1:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def brute_force_exchange_path(edges, f1_ids, f2_ids) -> list:
    """Edge-id sets of the exchange walk from f1 to f2, built backwards.

    From f2, drop the lowest edge outside f1, then add the lowest edge of f1
    whose endpoints the remaining edges do not already connect (a walk over
    the remaining edges decides that), until f1 is reached.
    """
    current = frozenset(f2_ids)
    target = frozenset(f1_ids)
    path = [current]
    while current != target:
        cut = current - {min(current - target)}
        for e in sorted(target - current):
            x, y = edges[e]
            reached = {x}
            stack = [x]
            while stack:
                a = stack.pop()
                for c in cut:
                    u, v = edges[c]
                    b = v if u == a else u if v == a else None
                    if b is not None and b not in reached:
                        reached.add(b)
                        stack.append(b)
            if y not in reached:
                current = cut | {e}
                break
        path.append(current)
    return path[::-1]


def unlabeled_graph_count(n) -> int:
    """Non-isomorphic simple graphs on n vertices by the orbit-counting lemma.

    Averages 2^(cycles of the induced action on vertex pairs) over S_n.
    """
    pairs = list(itertools.combinations(range(n), 2))
    pos = {p: i for i, p in enumerate(pairs)}
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        mapped = [pos[tuple(sorted((perm[a], perm[b])))] for a, b in pairs]
        seen = [False] * len(pairs)
        cycles = 0
        for start in range(len(pairs)):
            if seen[start]:
                continue
            cycles += 1
            x = start
            while not seen[x]:
                seen[x] = True
                x = mapped[x]
        total += Fraction(2) ** cycles
    count = total / math.factorial(n)
    assert count.denominator == 1
    return int(count)


def laplacian_tree_count_float_check(g) -> float:
    """Rough float determinant of a Laplacian cofactor, for sanity triage only."""
    n = g.vertex_count
    if n <= 1:
        return 1.0
    mat = [[0.0] * (n - 1) for _ in range(n - 1)]
    for u, v in g.edges:
        for x in (u, v):
            if x < n - 1:
                mat[x][x] += 1.0
        if u < n - 1 and v < n - 1:
            mat[u][v] -= 1.0
            mat[v][u] -= 1.0
    det = 1.0
    a = [row[:] for row in mat]
    for k in range(n - 1):
        p = max(range(k, n - 1), key=lambda r: abs(a[r][k]))
        if abs(a[p][k]) < 1e-12:
            return 0.0
        if p != k:
            a[k], a[p] = a[p], a[k]
            det = -det
        det *= a[k][k]
        for r in range(k + 1, n - 1):
            f = a[r][k] / a[k][k]
            for c in range(k, n - 1):
                a[r][c] -= f * a[k][c]
    return det


def hamiltonian_cycle(g, node_budget=2_000_000):
    """A Hamiltonian cycle by bitmask backtracking with degree pruning.

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
    if any(g.degree(v) < 2 for v in range(n)) or len(union_find_components(g)) > 1:
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
