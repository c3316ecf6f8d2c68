"""Inverse problems: which graphs arise as forest graphs, and how deep.

A forest graph of a finite graph is always connected, has no isthmus or
isolated vertex unless it is a single vertex, and contains a triangle unless
it is a single vertex.  Those necessary conditions give proof-grade "no root"
certificates; everything else is search over small candidate graphs.  The
search is bounded by the minimum degree: a spanning tree T of a connected
isthmus-free H with rank r and corank k has degree sum_{f not in T}
(|C_T(f)| - 1) >= max(r, 2k) in F(H), so every root of a graph g with
minimum degree d has at most d + 1 vertices and corank at most d // 2, hence
at most d + d // 2 edges.  A search that covered that whole bound and found
nothing is a proof.  The candidates are a constant table: the graphs on
n <= 7 vertices, and the connected isthmus-free ones with their forest
counts, are built once per process, on the first search or enumeration that
reaches n.  Whitney moves (identification, splitting, twisting) change a
graph without changing its maximal forests as edge sets, so roots are never
unique when a move applies.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .dynamics import is_stable
from .forest_graph import build_forest_graph
from .forests import _find, _joins, count_maximal_forests
from .graphs import (BudgetError, Graph, GraphInputError, _ids, bridges, components,
                     find_isomorphism, is_bipartite)

GRAPH_ENUM_VERTEX_LIMIT = 7
DEFAULT_ROOT_VERTEX_BUDGET = 6

REASON_BIPARTITE = "bipartite"
REASON_ISTHMUS_OR_ISOLATED = "isthmus-or-isolated"
REASON_DISCONNECTED = "disconnected"
REASON_ORDER_MISMATCH = "order-mismatch"
REASON_DEGREE_BOUND = "degree-bound"
REASON_EXHAUSTED = "exhausted-budget"

PROOF_REASONS = (REASON_BIPARTITE, REASON_ISTHMUS_OR_ISOLATED,
                 REASON_DISCONNECTED, REASON_ORDER_MISMATCH, REASON_DEGREE_BOUND)


@dataclass(frozen=True)
class NoRootCertificate:
    """Why no graph H can have F(H) isomorphic to g (or why the search gave up).

    Every reason except "exhausted-budget" is proof-grade.  The witness holds
    the structure backing the reason: a 2-coloring, an isthmus edge or
    isolated vertex, the component partition, or a vertex of minimum degree
    with that degree, which bounds the searched candidates.
    """

    reason: str
    witness: object = None
    note: str = ""

    @property
    def proof_grade(self):
        return self.reason in PROOF_REASONS


@dataclass(frozen=True)
class RootSearchResult:
    """Roots found up to isomorphism, or a certificate explaining the empty list.

    iso_maps[i] maps the vertices of F(roots[i]) (forest-family indices) onto
    the searched graph; it is the map the search itself found.
    """

    roots: tuple
    certificate: object = None
    iso_maps: tuple = ()

    def found(self):
        return bool(self.roots)


def no_root_prune(g):
    """Proof-grade no-root certificate from cheap necessary conditions, or None.

    A single vertex is never pruned (it is its own forest graph).  Order of
    checks: bipartite, isthmus or isolated vertex, disconnected, impossible
    order.
    """
    n = g.vertex_count
    if n == 1 and not g.edges:
        return None
    if n >= 2:
        report = is_bipartite(g)
        if report.bipartite:
            return NoRootCertificate(
                REASON_BIPARTITE, witness=report.coloring,
                note="forest graphs of graphs with a cycle contain a triangle")
        for v in range(n):
            if g.degree(v) == 0:
                return NoRootCertificate(
                    REASON_ISTHMUS_OR_ISOLATED, witness=("vertex", v),
                    note="a forest graph larger than one vertex has no isolated vertex")
        isthmi = bridges(g)
        if isthmi:
            return NoRootCertificate(
                REASON_ISTHMUS_OR_ISOLATED, witness=("edge", isthmi[0]),
                note="a forest graph larger than one vertex has no isthmus")
        comps = components(g)
        if len(comps) > 1:
            return NoRootCertificate(
                REASON_DISCONNECTED, witness=tuple(tuple(c) for c in comps),
                note="forest graphs of finite graphs are connected")
    if n in (0, 2):
        return NoRootCertificate(
            REASON_ORDER_MISMATCH,
            note=f"no finite graph has exactly {n} maximal forests")
    return None


def enumerate_graphs(n) -> list:
    """All non-isomorphic simple graphs on exactly n vertices, deterministic order.

    Each order is enumerated once per process; every call returns a fresh
    list of the same graphs.
    """
    if n < 0:
        raise GraphInputError("vertex count must be non-negative")
    if n > GRAPH_ENUM_VERTEX_LIMIT:
        raise BudgetError(
            f"graph enumeration limited to {GRAPH_ENUM_VERTEX_LIMIT} vertices (got {n})",
            count=n, budget=GRAPH_ENUM_VERTEX_LIMIT)
    return list(_graphs_on(n))


@functools.cache
def _graphs_on(n):
    """The graphs on n vertices, one per isomorphism class.

    Deduplicates the 2^C(n,2) labeled edge sets by marking whole S_n orbits;
    the representative of each class is its orbit-minimal bitmask, and output
    follows increasing representative masks.
    """
    pairs = list(itertools.combinations(range(n), 2))
    m = len(pairs)
    pair_pos = {p: i for i, p in enumerate(pairs)}
    # per permutation, the bit of each edge's image: an image mask is the
    # sum of its edges' bits, as no two edges share an image
    tables = []
    for perm in itertools.permutations(range(n)):
        tables.append(tuple(1 << pair_pos[tuple(sorted((perm[a], perm[b])))] for a, b in pairs))
    seen = bytearray(1 << m)
    out = []
    for mask in range(1 << m):
        if seen[mask]:
            continue
        ids = _ids(mask)
        out.append(Graph(n, map(pairs.__getitem__, ids)))
        for table in tables:
            seen[sum(map(table.__getitem__, ids))] = 1
    return tuple(out)


@functools.cache
def _candidates(n):
    """The connected isthmus-free graphs on n vertices, each with its forest count."""
    return tuple((h, count_maximal_forests(h)) for h in enumerate_graphs(n)
                 if len(components(h)) == 1 and (n == 1 or not bridges(h)))


def find_roots(g, max_vertices=DEFAULT_ROOT_VERTEX_BUDGET) -> RootSearchResult:
    """Search for all H (up to isomorphism) with F(H) isomorphic to g.

    Candidates are connected isthmus-free graphs on at most max_vertices
    vertices, within the degree bound: at most d + 1 vertices and corank at
    most d // 2, where d is the minimum degree of g, so at most n - 1 + d // 2
    edges on n vertices.  They are filtered by exact forest count, then by a
    full forest-graph construction plus isomorphism test; each root comes
    with its map from F(H) onto g.  The candidates of each order come from
    a table built the first time a search reaches that order, so a pruned
    graph enumerates nothing, and a bound past the enumerator's limit is
    refused before any order is scanned.  An empty result carries a
    proof-grade certificate ("degree-bound" when max_vertices covered the
    whole degree bound) or an exhausted-budget one.
    """
    cert = no_root_prune(g)
    if cert is not None:
        return RootSearchResult((), cert)
    low = min(range(g.vertex_count), key=g.degree)
    degree = g.degree(low)
    max_corank = degree // 2
    top = min(max_vertices, degree + 1)
    if top > GRAPH_ENUM_VERTEX_LIMIT:
        # refuse before the scan, as its first order past the limit would
        enumerate_graphs(GRAPH_ENUM_VERTEX_LIMIT + 1)
    note = (f"searched connected isthmus-free candidates on <= {top} vertices"
            f" with corank <= {max_corank}")
    roots = []
    iso_maps = []
    for n in range(1, top + 1):
        most = n - 1 + max_corank
        for h, count in _candidates(n):
            if count != g.vertex_count or len(h.edges) > most:
                continue
            mapping = find_isomorphism(build_forest_graph(h).graph, g)
            if mapping is not None:
                roots.append(h)
                iso_maps.append(mapping)
    if roots:
        return RootSearchResult(tuple(roots), None, tuple(iso_maps))
    if max_vertices > degree:
        return RootSearchResult((), NoRootCertificate(
            REASON_DEGREE_BOUND, witness=("vertex", low, degree),
            note=f"{note}, all that minimum degree {degree} allows"))
    return RootSearchResult((), NoRootCertificate(REASON_EXHAUSTED, note=note))


@dataclass(frozen=True)
class RootChainCertificate:
    """A verified chain H_k -> ... -> H_1 -> g with F(H_i) isomorphic to the next.

    `graphs` runs from the deepest root to g itself; iso_maps[i] maps the
    vertices of F(graphs[i]) (forest-family indices) onto graphs[i + 1].
    """

    graphs: tuple
    iso_maps: tuple

    @property
    def depth(self):
        return len(self.graphs) - 1

    def verify(self) -> bool:
        if len(self.iso_maps) != len(self.graphs) - 1:
            return False
        for h, nxt, mapping in zip(self.graphs, self.graphs[1:], self.iso_maps):
            n = nxt.vertex_count
            # F(h) is built only for a link whose count and bijection hold
            if count_maximal_forests(h) != n or sorted(mapping) != list(range(n)):
                return False
            fg = build_forest_graph(h).graph
            if sorted(tuple(sorted((mapping[u], mapping[v]))) for u, v in fg.edges) \
                    != sorted(nxt.edges):
                return False
        return True


@dataclass(frozen=True)
class DepthReport:
    """Result of chasing roots of roots.

    kind is "stable" (g is K_1 or K_3: roots never run out), "pruned" (depth
    exactly 0, with the proof certificate), or "chain" (depth at least
    `depth`, with the chain certificate and the certificate that stopped it;
    the stop is provable when its reason is proof-grade).  `search` is the
    root search of g itself, the same result find_roots(g) gives with the
    same max_vertices; it is None for a stable g, which is never searched.
    """

    kind: str
    depth: int = None
    chain: object = None
    stop: object = None
    search: object = None

    @property
    def provable_stop(self):
        return self.stop is not None and self.stop.proof_grade


def depth_lower_bound(g, max_vertices=DEFAULT_ROOT_VERTEX_BUDGET) -> DepthReport:
    """Longest root chain below g found within max_vertices.

    Every level of the chase runs find_roots with the same max_vertices, and the
    chain certificate takes its isomorphisms from those results.  The chase
    ends on its own: a root H of a graph on N vertices has N maximal forests,
    at least |V(H)| as H is connected and isthmus-free, with equality only
    for a cycle or K_1.  K_1 and K_3 are stable, so each root below g has
    fewer vertices than the graph above it or is a cycle on 4 or more
    vertices, which has no root (the prune or the degree bound proves it).
    """
    if is_stable(g):
        return DepthReport("stable")
    top = find_roots(g, max_vertices)
    if top.certificate is not None and top.certificate.proof_grade:
        return DepthReport("pruned", depth=0, stop=top.certificate, search=top)

    def chase(result):
        # the chain runs deepest root first, each root with its map from F(root)
        # onto the graph above it.  No root is isomorphic to the graph above
        # it, since F(graph) = F(root) = graph would make that graph stable,
        # and g is not stable, nor is any root below it.
        if not result.found():
            return [], result.certificate
        best_chain = []
        best_stop = None
        for h, mapping in zip(result.roots, result.iso_maps):
            chain, stop = chase(find_roots(h, max_vertices))
            if len(chain) + 1 > len(best_chain):
                best_chain = chain + [(h, mapping)]
                best_stop = stop
        return best_chain, best_stop

    chain, stop = chase(top)
    if not chain:
        return DepthReport("chain", depth=0, chain=None, stop=stop, search=top)
    return DepthReport("chain", depth=len(chain),
                       chain=RootChainCertificate(tuple(h for h, _ in chain) + (g,),
                                                  tuple(m for _, m in chain)),
                       stop=stop, search=top)


@dataclass(frozen=True)
class WhitneyResult:
    """A rewritten graph plus the vertex and edge correspondences.

    vertex_map[v] is the image of old vertex v (None when the vertex was
    merged away is never needed: identification maps both ends to the kept
    index).  edge_map[i] is the new index of old edge i; the map is a
    bijection, and mapping a maximal forest edgewise yields a maximal forest
    of the new graph.
    """

    graph: Graph
    vertex_map: tuple
    edge_map: tuple


def _finish(g, new_n, pairs, vmap, names=None):
    """The rewritten graph on new_n vertices: old edge i becomes pairs[i]."""
    edges = {}
    for i, (a, b) in enumerate(pairs):
        if a == b:
            raise GraphInputError("operation would create a loop")
        key = (a, b) if a < b else (b, a)
        if key in edges:
            raise GraphInputError("operation would create a parallel edge")
        edges[key] = i
    new_graph = Graph(new_n, edges.keys(), names)
    edge_map = [0] * len(g.edges)
    for key, old in edges.items():
        edge_map[old] = new_graph.edge_index(*key)
    return WhitneyResult(new_graph, tuple(vmap), tuple(edge_map))


def whitney_identify(g, pairs) -> WhitneyResult:
    """Merge vertex pairs lying in distinct components, one pair at a time.

    Each merged cluster keeps its smallest vertex; survivors are renumbered
    densely in their original order.
    """
    if not pairs:
        raise GraphInputError("need at least one pair to identify")
    comp = list(range(g.vertex_count))
    cluster = list(range(g.vertex_count))
    _joins(g, range(len(g.edges)), comp)
    for a, b in pairs:
        if not (0 <= a < g.vertex_count and 0 <= b < g.vertex_count):
            raise GraphInputError(f"vertex pair ({a}, {b}) out of range")
        ra, rb = _find(comp, a), _find(comp, b)
        if ra == rb:
            raise GraphInputError(
                f"vertices {a} and {b} are in the same component; identification "
                "applies across components only")
        comp[ra] = rb
        cluster[_find(cluster, a)] = _find(cluster, b)
    rep = {}
    for v in range(g.vertex_count):
        r = _find(cluster, v)
        if r not in rep or v < rep[r]:
            rep[r] = v
    survivors = sorted(set(rep.values()))
    new_index = {v: i for i, v in enumerate(survivors)}
    vmap = [new_index[rep[_find(cluster, v)]] for v in range(g.vertex_count)]
    return _finish(g, len(survivors), [(vmap[u], vmap[v]) for u, v in g.edges], vmap)


def whitney_split(g, v, side) -> WhitneyResult:
    """Split cut vertex v: a new vertex takes over v's edges into `side`.

    `side` must be a union of components of g - v that covers at least one
    neighbor of v but not all of them; the inverse of identification.  The
    new vertex gets index g.vertex_count.
    """
    side = set(side)
    for x in (v, *side):
        if not 0 <= x < g.vertex_count:
            raise GraphInputError(f"vertex {x} out of range")
    if v in side:
        raise GraphInputError("side must not contain the split vertex itself")
    # side is a union of components of g - v when no edge of g - v leaves it
    for a, b in g.edges:
        if v not in (a, b) and (a in side) != (b in side):
            raise GraphInputError("side must be a union of components of g - v")
    nb = set(g.neighbors(v))
    if not side & nb or nb <= side:
        raise GraphInputError(
            "side must separate the neighbors of v; v is not split by this choice")
    new_v = g.vertex_count
    pairs = [(new_v, b) if a == v and b in side else
             (a, new_v) if b == v and a in side else (a, b) for a, b in g.edges]
    return _finish(g, g.vertex_count + 1, pairs, range(g.vertex_count))


def whitney_twist(g, u, v, side) -> WhitneyResult:
    """Swap the roles of u and v on one side of the separation pair {u, v}.

    `side` is the vertex set of one separation half besides u and v; both
    halves must have more than two vertices including u and v, and no edge may
    cross between the halves except through u and v.
    """
    if u == v:
        raise GraphInputError("separation pair needs two distinct vertices")
    side = set(side)
    for x in (u, v, *side):
        if not 0 <= x < g.vertex_count:
            raise GraphInputError(f"vertex {x} out of range")
    side -= {u, v}
    rest = set(range(g.vertex_count)) - side - {u, v}
    if not side or not rest:
        raise GraphInputError("both sides of the separation must have more than two vertices")
    for a, b in g.edges:
        if (a in side and b in rest) or (a in rest and b in side):
            raise GraphInputError(
                f"edge ({a}, {b}) crosses the separation; {{u, v}} is not a separation pair")
    swap = {u: v, v: u}
    pairs = [(swap.get(a, a), swap.get(b, b)) if a in side or b in side else (a, b)
             for a, b in g.edges]
    return _finish(g, g.vertex_count, pairs, range(g.vertex_count), g.vertex_names)
