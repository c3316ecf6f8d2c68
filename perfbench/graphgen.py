"""Seeded input generators.  Everything here is a pure function of an
`random.Random` stream; graphs are (vertex count, edge list) pairs that the
workloads hand to the package only after generation.
"""

from __future__ import annotations

import itertools

from oracles import BLOCK_SHAPE, tree_count

BLOCK_EDGES = {
    "K3": [(0, 1), (0, 2), (1, 2)],
    "C4": [(i, (i + 1) % 4) for i in range(4)],
    "C5": [(i, (i + 1) % 5) for i in range(5)],
    "C6": [(i, (i + 1) % 6) for i in range(6)],
    "K4": list(itertools.combinations(range(4), 2)),
}
BLOCK_SIZE = {"K3": 3, "C4": 4, "C5": 5, "C6": 6, "K4": 4}
BOWTIE = (5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])


def relabel(rng, n, edges):
    perm = list(range(n))
    rng.shuffle(perm)
    out = [(perm[u], perm[v]) for u, v in edges]
    rng.shuffle(out)
    return n, out


def complete(n):
    return n, list(itertools.combinations(range(n), 2))


def cycle(n):
    return n, [(i, (i + 1) % n) for i in range(n)]


def hamiltonian_graph(rng, n, m):
    """A random 2-connected graph: a random Hamiltonian cycle plus chords."""
    order = list(range(n))
    rng.shuffle(order)
    ring = {tuple(sorted((order[i], order[(i + 1) % n]))) for i in range(n)}
    chords = [p for p in itertools.combinations(range(n), 2) if p not in ring]
    return n, sorted(ring) + rng.sample(chords, m - n)


def dense_near(rng, target, attempts=24):
    """The 2-connected graph on 6 or 7 vertices, of `attempts` tried, whose
    forest count is closest to `target`.

    The edge count walks up or down after each try, towards the target.  The
    number of tries is fixed, so generation costs the same for every seed.
    """
    n = 6 if target <= 1000 and rng.random() < 0.5 else 7
    m = (n + n * (n - 1) // 2) // 2
    best = None
    for _ in range(attempts):
        g = hamiltonian_graph(rng, n, m)
        count = tree_count(*g)
        miss = abs(count - target)
        if best is None or miss < best[0]:
            best = (miss, g)
        m = min(m + 1, n * (n - 1) // 2) if count < target else max(m - 1, n)
    return best[1]


def _attach(n, edges, anchor, block, bridge):
    """Add a block at `anchor`, glued there or hung from it by a bridge."""
    if bridge:
        edges.append((anchor, n))
        anchor = n
        n += 1
    names = [anchor] + list(range(n, n + BLOCK_SIZE[block] - 1))
    edges.extend((names[u], names[v]) for u, v in BLOCK_EDGES[block])
    return n + BLOCK_SIZE[block] - 1, names


def block_graph(rng, blocks, parts=1, bridge_share=0.3):
    """Glue the given blocks into `parts` components of a block graph.

    Each block hangs off a random vertex of its component, sharing it as a
    cut vertex or joined to it by a bridge.  Vertex labels are shuffled.
    """
    n = 0
    edges = []
    roots = []
    for _ in range(parts):
        roots.append([n])
        n += 1
    for i, block in enumerate(blocks):
        comp = roots[i % parts]
        n, names = _attach(n, edges, rng.choice(comp), block, rng.random() < bridge_share)
        comp.extend(names)
    return relabel(rng, n, edges)


def blocks_near(rng, target, tolerance, attempts=4000):
    """A block multiset whose forest count is within `tolerance` of `target`."""
    kinds = sorted(BLOCK_SHAPE)
    best = None
    for _ in range(attempts):
        blocks = []
        count = 1
        while count * 3 <= target * (1 + tolerance):
            blocks.append(rng.choice(kinds))
            count *= BLOCK_SHAPE[blocks[-1]][0]
        miss = abs(count - target) / target
        if best is None or miss < best[0]:
            best = (miss, blocks)
        if miss <= tolerance:
            break
    return best[1]


def sized_block_graph(rng, vertices):
    """A connected block graph with exactly `vertices` vertices, padded with
    pendant bridges."""
    blocks = []
    n = 1
    kinds = sorted(BLOCK_SHAPE)
    while True:
        block = rng.choice(kinds)
        if n + BLOCK_SIZE[block] - 1 > vertices:
            break
        blocks.append(block)
        n += BLOCK_SIZE[block] - 1
    size, edges = block_graph(rng, blocks, bridge_share=0.0)
    pad = []
    for k in range(size, vertices):
        pad.append((rng.randrange(k), k))
    return vertices, edges + pad, blocks


def triangle_chain(t):
    """t triangles in a path, consecutive ones sharing a cut vertex, numbered
    along the chain."""
    edges = []
    for i in range(t):
        a = 2 * i
        edges += [(a, a + 1), (a, a + 2), (a + 1, a + 2)]
    return 2 * t + 1, edges


def small_graph(rng, max_forests=60):
    """A random graph on 4 to 6 vertices, sometimes disconnected, with few
    maximal forests."""
    while True:
        n = rng.randint(4, 6)
        pairs = list(itertools.combinations(range(n), 2))
        edges = rng.sample(pairs, rng.randint(n - 2, min(len(pairs), n + 3)))
        if 1 <= tree_count(n, edges) <= max_forests:
            return relabel(rng, n, edges)


def two_separation(rng):
    """Four internally disjoint u-v paths, two on each side of the
    separation pair {u, v}: returns the graph, u, v and one side's inner
    vertices, ready for a Whitney twist."""
    a = rng.randint(2, 3)
    b = rng.randint(2, 3)
    # vertices: 0 = u, 1 = v, then the inner paths of two u-v paths per half
    n = 2
    edges = []
    sides = []
    for half in (a, b):
        side = []
        for _ in range(2):
            path = [0] + list(range(n, n + half)) + [1]
            side += list(range(n, n + half))
            n += half
            edges += list(zip(path, path[1:]))
        sides.append(side)
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [(perm[x], perm[y]) for x, y in edges]
    rng.shuffle(edges)
    return n, edges, perm[0], perm[1], [perm[x] for x in sides[0]]


def glued_pair(rng):
    """Two small blocks sharing one cut vertex: returns the graph, the cut
    vertex and the vertices of one block (a side for a Whitney split)."""
    first, second = rng.choice(sorted(BLOCK_EDGES)), rng.choice(sorted(BLOCK_EDGES))
    n, edges = 1, []
    n, _ = _attach(n, edges, 0, first, False)
    n, names_b = _attach(n, edges, 0, second, False)
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [(perm[x], perm[y]) for x, y in edges]
    rng.shuffle(edges)
    return n, edges, perm[0], [perm[x] for x in names_b[1:]]
