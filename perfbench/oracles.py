"""Independent oracles: exact answers derived without importing forestgraph.

A graph here is a vertex count plus a list of (u, v) pairs.  Every function
works from definitions or closed forms (Kirchhoff's theorem over fractions,
brute-force spanning-tree scans, Cayley-type path counts, the block product
formula, permutation isomorphism), never from the package under test.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

# Forest-graph shape (vertices, edges) of each block type the generators use:
# F(C_k) = K_k and F(K_4) has 16 vertices and 54 edges.
BLOCK_SHAPE = {"K3": (3, 3), "C4": (4, 6), "C5": (5, 10), "C6": (6, 15), "K4": (16, 54)}


def normalize(edges):
    return sorted({(u, v) if u < v else (v, u) for u, v in edges})


def components(n, edges):
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        parent[find(u)] = find(v)
    groups = {}
    for v in range(n):
        groups.setdefault(find(v), []).append(v)
    return sorted(groups.values())


def cyclomatic(n, edges):
    return len(normalize(edges)) - n + len(components(n, edges))


def _det(mat):
    """Determinant by Gaussian elimination over the rationals."""
    a = [[Fraction(x) for x in row] for row in mat]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if a[r][c] != 0), None)
        if pivot is None:
            return 0
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            if a[r][c]:
                f = a[r][c] / a[c][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return int(det)


def tree_count(n, edges):
    """Number of maximal forests: product of per-component Kirchhoff minors."""
    edges = normalize(edges)
    total = 1
    for comp in components(n, edges):
        if len(comp) == 1:
            continue
        pos = {v: i for i, v in enumerate(comp[1:])}
        k = len(comp) - 1
        lap = [[0] * k for _ in range(k)]
        for u, v in edges:
            iu, iv = pos.get(u), pos.get(v)
            if iu is not None:
                lap[iu][iu] += 1
            if iv is not None:
                lap[iv][iv] += 1
            if iu is not None and iv is not None:
                lap[iu][iv] -= 1
                lap[iv][iu] -= 1
        total *= _det(lap)
    return total


def combine(parts):
    """Shape of a Cartesian product from its factors' (vertices, edges)."""
    order = math.prod(v for v, _ in parts)
    size = sum(e * (order // v) for v, e in parts)
    return order, size


def _connected_shape(k, edges):
    """(trees, exchange edges) of a connected graph on 0..k-1, by brute force.

    A spanning tree T is adjacent in F to one tree per pair (e not in T,
    f on the T-path of e), so its degree is the sum over non-tree edges of
    their tree distance; F's edge count is half the degree sum.
    """
    if k == 1:
        return 1, 0
    trees = 0
    degree_sum = 0
    for pick in itertools.combinations(range(len(edges)), k - 1):
        parent = list(range(k))
        ok = True
        for i in pick:
            u, v = edges[i]
            while parent[u] != u:
                u = parent[u]
            while parent[v] != v:
                v = parent[v]
            if u == v:
                ok = False
                break
            parent[u] = v
        if not ok:
            continue
        trees += 1
        adj = [[] for _ in range(k)]
        for i in pick:
            u, v = edges[i]
            adj[u].append(v)
            adj[v].append(u)
        up = [-1] * k
        depth = [0] * k
        order = [0]
        up[0] = 0
        for x in order:
            for y in adj[x]:
                if up[y] == -1:
                    up[y] = x
                    depth[y] = depth[x] + 1
                    order.append(y)
        chosen = set(pick)
        for i in range(len(edges)):
            if i in chosen:
                continue
            u, v = edges[i]
            d = 0
            while u != v:
                if depth[u] >= depth[v]:
                    u = up[u]
                else:
                    v = up[v]
                d += 1
            degree_sum += d
    return trees, degree_sum // 2


def forest_graph_shape(n, edges):
    """(vertices, edges) of F(G): brute force per component, product across."""
    edges = normalize(edges)
    parts = []
    for comp in components(n, edges):
        local = {v: i for i, v in enumerate(comp)}
        sub = [(local[u], local[v]) for u, v in edges if u in local]
        parts.append(_connected_shape(len(comp), sub))
    return combine(parts)


def complete_shape(n):
    """(vertices, edges) of F(K_n) in closed form.

    On n labeled vertices, the trees whose u-v path has k edges number
    (n-2)!/(n-k-1)! * (k+1) * n^(n-k-2) (order the path's inner vertices, then
    hang a rooted forest on the k+1 path vertices).  Summing k over them gives
    the total u-v distance, hence the Wiener index sum and the degree sum.
    """
    if n < 2:
        return 1, 0
    trees = n ** (n - 2)
    dist = Fraction(0)
    for k in range(1, n):
        count = Fraction(math.factorial(n - 2), math.factorial(n - k - 1)) \
            * (k + 1) * Fraction(n) ** (n - k - 2)
        dist += k * count
    pairs = n * (n - 1) // 2
    degree_sum = pairs * dist - (n - 1) * trees
    return trees, int(degree_sum) // 2


def block_shape(block_types):
    """F-shape of a graph whose 2-connected blocks have the given types."""
    return combine([BLOCK_SHAPE[t] for t in block_types] or [(1, 0)])


def block_tree_count(block_types):
    return math.prod(BLOCK_SHAPE[t][0] for t in block_types)


def cartesian(n1, e1, n2, e2):
    edges = [(a * n2 + u, a * n2 + v) for a in range(n1) for u, v in e2]
    edges += [(u * n2 + b, v * n2 + b) for u, v in e1 for b in range(n2)]
    return n1 * n2, edges


def isomorphic(n1, e1, n2, e2):
    """Permutation test, pruned by degree; meant for graphs of a few vertices."""
    e1, e2 = normalize(e1), normalize(e2)
    if n1 != n2 or len(e1) != len(e2):
        return False
    deg1, deg2 = [0] * n1, [0] * n2
    for u, v in e1:
        deg1[u] += 1
        deg1[v] += 1
    for u, v in e2:
        deg2[u] += 1
        deg2[v] += 1
    if sorted(deg1) != sorted(deg2):
        return False
    target = set(e2)
    for perm in itertools.permutations(range(n2)):
        if any(deg1[v] != deg2[perm[v]] for v in range(n1)):
            continue
        if all(((perm[u], perm[v]) if perm[u] < perm[v] else (perm[v], perm[u])) in target
               for u, v in e1):
            return True
    return False


def is_cycle(n, edges, walk):
    """Whether the closed walk is a simple cycle of the graph."""
    present = set(normalize(edges))
    if len(walk) < 3 or len(set(walk)) != len(walk):
        return False
    return all(((a, b) if a < b else (b, a)) in present
               for a, b in zip(walk, walk[1:] + walk[:1]))


def has_cycle_of_length(n, edges, length):
    """Depth-first search for a simple cycle with exactly `length` vertices."""
    adj = [set() for _ in range(n)]
    for u, v in normalize(edges):
        adj[u].add(v)
        adj[v].add(u)

    def extend(path, seen):
        if len(path) == length:
            return path[0] in adj[path[-1]]
        return any(extend(path + [w], seen | {w})
                   for w in adj[path[-1]] if w not in seen and w > path[0])

    return any(extend([s], {s}) for s in range(n))


def has_long_cycle(n, edges):
    """Whether the graph has a simple cycle of length 4 or more."""
    return any(has_cycle_of_length(n, edges, k) for k in range(4, n + 1))


def expected_verdict(n, edges, long_cycle=None):
    """(status, limit, steps, witness_kind) by the cycle-structure characterization.

    A graph converges iff it is a forest (limit K1) or its only cycle is a
    triangle (limit K3).  Steps count iterates until the limit: 0 when the
    graph already is the limit, else 1.  A divergent graph is witnessed by a
    cycle of length >= 4 when it has one, otherwise by two edge-disjoint
    triangles.  `long_cycle` may pass that fact in when it is known.
    """
    edges = normalize(edges)
    beta = cyclomatic(n, edges)
    if beta == 0:
        return "convergent", "K1", 0 if (n == 1 and not edges) else 1, None
    if beta == 1:
        core = _two_core(n, edges)
        if len(core) == 3:
            return "convergent", "K3", 0 if (n == 3 and len(edges) == 3) else 1, None
        return "divergent", None, None, "long_cycle"
    if long_cycle is None:
        long_cycle = has_long_cycle(n, edges)
    return "divergent", None, None, "long_cycle" if long_cycle else "two_triangles"


def _two_core(n, edges):
    """Edges left after stripping degree-1 vertices repeatedly."""
    live = set(edges)
    while True:
        deg = [0] * n
        for u, v in live:
            deg[u] += 1
            deg[v] += 1
        leaf = {e for e in live if deg[e[0]] == 1 or deg[e[1]] == 1}
        if not leaf:
            return live
        live -= leaf


def witness_ok(n, edges, kind, walks):
    """Check a divergence witness: one cycle of length >= 4, or two
    edge-disjoint triangles."""
    if not all(is_cycle(n, edges, list(w)) for w in walks):
        return False
    if kind == "long_cycle":
        return len(walks) == 1 and len(walks[0]) >= 4
    if kind == "two_triangles":
        if len(walks) != 2 or any(len(w) != 3 for w in walks):
            return False
        sets = [set(normalize(zip(w, w[1:] + w[:1]))) for w in walks]
        return not sets[0] & sets[1]
    return False


def is_spanning_forest(n, edges, ids):
    """Whether the edge ids (into the sorted normalized edge list) form a
    maximal forest."""
    edges = normalize(edges)
    want = n - len(components(n, edges))
    if len(ids) != want or len(set(ids)) != len(ids):
        return False
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for i in ids:
        if not 0 <= i < len(edges):
            return False
        ru, rv = find(edges[i][0]), find(edges[i][1])
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def spanning_forests(n, edges):
    """All maximal forests as sorted tuples of edge ids, by subset scan."""
    edges = normalize(edges)
    want = n - len(components(n, edges))
    return [pick for pick in itertools.combinations(range(len(edges)), want)
            if is_spanning_forest(n, edges, pick)]


def forest_graph(n, edges):
    """F(G) built from the definition: forests adjacent when their edge sets
    differ by one exchange.  Small graphs only."""
    family = [set(f) for f in spanning_forests(n, edges)]
    adj = [(a, b) for a, b in itertools.combinations(range(len(family)), 2)
           if len(family[a] ^ family[b]) == 2]
    return len(family), adj
