"""Independent reference implementations used only as test oracles.

Nothing here shares algorithms with the package: spanning trees are counted
by deletion-contraction on multigraphs, cycles come from vertex-sequence
brute force, blocks come from merging edges that share a cycle, isomorphism
tries every permutation, cliques come from subset scans, unlabeled-graph
counts come from the orbit-counting lemma, and forest-graph adjacency comes
from one bucket join over the whole forest family, not from the product of
the blocks' forest graphs.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


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


def brute_force_bridges(g) -> set:
    """Edge indices whose removal disconnects their endpoints."""
    out = set()
    for i, (u, v) in enumerate(g.edges):
        seen = {u}
        queue = [u]
        while queue:
            x = queue.pop()
            for y, eid in g.incident(x):
                if eid != i and y not in seen:
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
    dist = [-1] * g.vertex_count
    dist[src] = 0
    queue = [src]
    qi = 0
    while qi < len(queue):
        v = queue[qi]
        qi += 1
        for w, _ in g.incident(v):
            if dist[w] == -1:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


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
