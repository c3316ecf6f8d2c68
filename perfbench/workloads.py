"""The three workloads: seeded inputs, the calls into the package, and the
oracle each result is judged by.

A workload is a *round*: a fixed list of operations built once from the seed.
The benchmark repeats whole rounds, so every run executes the same mix in the
same proportions whatever the seed, while the seed still picks the graphs.
Each operation knows how to call the package, how to compute its expected
answer independently (`oracle`, run before timing starts), and how to judge
a result (`judge`, run after the clock stops).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import sys

import graphgen as gen
import oracles as orc

OK, REFUSED, FAILED = "ok", "refused", "failed"


class Op:
    """One call into the package plus its independent check.

    `given` is the generated input: a (vertex count, edge list) pair, or the
    argument list and stdin text of a CLI call.  `judge(result, expected,
    full)` returns (status, fgraph_edges, digest).
    The first result is judged in full; later repeats of the same input must
    reproduce its digest exactly, since the package promises deterministic
    output.
    """

    __slots__ = ("label", "given", "call", "oracle", "judge", "kind", "expected", "digest")

    def __init__(self, label, given, call, oracle, judge, kind="api"):
        self.label = label
        self.given = given
        self.call = call
        self.oracle = oracle
        self.judge = judge
        self.kind = kind
        self.expected = None
        self.digest = None

    def prepare(self):
        self.expected = self.oracle()

    def verify(self, result, error, budget_error):
        if error is not None:
            return (REFUSED if isinstance(error, budget_error) else FAILED), 0
        try:
            status, edges, digest = self.judge(result, self.expected, self.digest is None)
        except (ValueError, KeyError, IndexError, TypeError, AttributeError):
            return FAILED, 0
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            return FAILED, edges
        return status, edges


# ---------------------------------------------------------------- API judges

def _fgraph_judge(n, edges):
    """Judge a ForestGraph against the expected (order, size) of F(G)."""
    norm = orc.normalize(edges)

    def judge(fgr, expected, full):
        order, size = expected
        graph, family = fgr.graph, fgr.family
        ok = (len(family) == order and graph.vertex_count == order
              and len(graph.edges) == size)
        if ok and full:
            ids = [f.edge_ids() for f in family]
            ok = (len(set(ids)) == order and ids == sorted(ids)
                  and all(orc.is_spanning_forest(n, norm, f) for f in ids))
            step = max(1, size // 64)
            ok = ok and all(len(set(ids[a]) ^ set(ids[b])) == 2
                            for a, b in graph.edges[::step])
        digest = (order, size, hash(graph.edges), hash(tuple(f.bits for f in family)))
        return (OK if ok else FAILED), size, digest

    return judge


def _plain_judge(result, expected, full):
    order, size = expected
    ok = result.vertex_count == order and len(result.edges) == size
    return (OK if ok else FAILED), size, (order, size, hash(result.edges))


def _count_judge(result, expected, full):
    return (OK if result == expected else FAILED), 0, result


def _family_judge(n, edges):
    norm = orc.normalize(edges)

    def judge(family, expected, full):
        ok = len(family) == expected
        if ok and full:
            ids = [f.edge_ids() for f in family]
            ok = (len(set(ids)) == expected and ids == sorted(ids)
                  and all(orc.is_spanning_forest(n, norm, f) for f in ids))
        return (OK if ok else FAILED), 0, (len(family), hash(tuple(f.bits for f in family)))

    return judge


def _verdict_judge(n, edges):
    def judge(verdict, expected, full):
        status, limit, steps, kind = expected
        ok = (verdict.status == status and verdict.limit == limit
              and verdict.steps == steps and verdict.witness_kind == kind)
        if ok and kind is not None:
            walks = [list(c.vertices) for c in verdict.witness]
            ok = orc.witness_ok(n, edges, kind, walks)
        return (OK if ok else FAILED), 0, verdict.to_kv()

    return judge


def _api(P, label, function, g, oracle, judge, *args):
    """Call `function` ("module.name") on the graph.  The name is looked up at
    each call, so a traced run sees the wrapped function."""
    module, name = function.split(".")
    graph = P.graphs.Graph(*g)
    return Op(label, g, lambda: getattr(getattr(P, module), name)(graph, *args), oracle, judge)


def build_op(P, label, g, oracle=None):
    oracle = oracle or (lambda: orc.forest_graph_shape(*g))
    return _api(P, label, "forest_graph.build_forest_graph", g, oracle, _fgraph_judge(*g))


def iterate_op(P, label, g, second_shape):
    return _api(P, label, "dynamics.iterate_F", g, second_shape, _plain_judge, 2)


# ---------------------------------------------------------------- fgraph-dense

DENSE_LOW = (100, 140, 200, 280, 400, 550)
DENSE_HIGH = (2000, 4000, 8000)


def dense_ops(P, seed):
    """Forest-graph construction on single-block graphs.

    Per round: build F(K_7) once and iterate_F(bowtie, 2) three times, as
    fixed anchors; iterate_F(C_5, 2) once and iterate_F(C_6, 2) five times;
    and seeded 2-connected graphs near fixed forest counts.  The repeated
    anchors hold the tail and the median: the tail percentile falls among the
    bowtie iterations and the median among the C_6 ones for any run of 3 to
    10 rounds.
    """
    rng = random.Random(seed)
    bowtie_square = orc.cartesian(3, gen.complete(3)[1], 3, gen.complete(3)[1])
    ops = [build_op(P, "build.K7", gen.relabel(rng, *gen.complete(7)),
                    lambda: orc.complete_shape(7)),
           iterate_op(P, "iterate2.C5", gen.relabel(rng, *gen.cycle(5)),
                      lambda: orc.complete_shape(5))]
    for _ in range(3):
        ops.append(iterate_op(P, "iterate2.bowtie", gen.relabel(rng, *gen.BOWTIE),
                              lambda: orc.forest_graph_shape(*bowtie_square)))
    for _ in range(5):
        ops.append(iterate_op(P, "iterate2.C6", gen.relabel(rng, *gen.cycle(6)),
                              lambda: orc.complete_shape(6)))
    for target in DENSE_LOW + DENSE_HIGH:
        ops.append(build_op(P, f"build.t{target}", gen.dense_near(rng, target)))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------- fgraph-blocks

CHAIN_LENGTHS = (10, 11, 12, 13, 14, 15, 16)
# F builds on fixed block multisets (288, 600, 1,920 and 7,680 forests), so
# that the size of F(G), and with it the peak memory, is the same for every
# seed; the seed picks how the blocks are glued, bridged and split
BLOCK_BUILDS = (("C6", "K3", "K4"), ("C4", "C5", "C5", "C6"), ("C4", "C5", "C6", "K4"),
                ("C4", "C4", "C5", "C6", "K4"))
BLOCK_ENUMS = (600, 1000)
COUNT_SIZES = (150, 180, 210)
MEDIAN_COUNT_SIZE = 135


def _chain_op(P, label, g):
    expected = ("divergent", None, None, "two_triangles")
    return _api(P, label, "dynamics.classify", g, lambda: expected, _verdict_judge(*g))


def block_ops(P, seed):
    """Block-rich graphs: triangle, C_4..C_6 and K_4 blocks at cut vertices or
    bridges, some over several components.

    Per round: classify on triangle chains of 10 to 16 triangles (labelled
    along the chain; the 16-chain twice more, once as is and once numbered
    from the other end), F builds on fixed block multisets, forest
    enumeration near fixed forest counts, exact counts on connected block
    graphs of fixed order (one of them four times), and classify on a tree,
    a unicyclic graph and a small block graph.  The repeated count holds the
    median, and the 16-chains with the largest build hold the tail, for any
    run of 3 or more rounds.
    """
    rng = random.Random(seed)
    ops = []
    for t in CHAIN_LENGTHS + (16,):
        ops.append(_chain_op(P, f"classify.chain{t}", gen.triangle_chain(t)))
    n, edges = gen.triangle_chain(16)
    ops.append(_chain_op(P, "classify.chain16r", (n, [(n - 1 - u, n - 1 - v) for u, v in edges])))
    for blocks in BLOCK_BUILDS:
        g = gen.block_graph(rng, blocks, parts=2)
        label = f"build.b{orc.block_tree_count(blocks)}"
        ops.append(build_op(P, label, g, lambda b=blocks: orc.block_shape(b)))
    for target in BLOCK_ENUMS:
        blocks = gen.blocks_near(rng, target, 0.04)
        g = gen.block_graph(rng, blocks, parts=2)
        ops.append(_api(P, f"enumerate.b{target}", "forests.maximal_forests", g,
                        lambda b=blocks: orc.block_tree_count(b), _family_judge(*g)))
    for size in COUNT_SIZES + (MEDIAN_COUNT_SIZE,):
        n, edges, blocks = gen.sized_block_graph(rng, size)
        for _ in range(4 if size == MEDIAN_COUNT_SIZE else 1):
            ops.append(_api(P, f"count.n{size}", "forests.count_maximal_forests", (n, edges),
                            lambda b=blocks: orc.block_tree_count(b), _count_judge))
    # convergent graphs (a triangle with a tree hung on it, and a tree) and a
    # mixed divergent one
    for label, first in (("classify.unicyclic", gen.complete(3)), ("classify.tree", (1, []))):
        n, edges = first
        g = gen.relabel(rng, n + 6, edges + [(rng.randrange(k), k) for k in range(n, n + 6)])
        ops.append(_api(P, label, "dynamics.classify", g,
                        lambda g=g: orc.expected_verdict(*g), _verdict_judge(*g)))
    blocks = [rng.choice(sorted(orc.BLOCK_SHAPE)) for _ in range(4)]
    g = gen.block_graph(rng, blocks, parts=2)
    long_cycle = any(b != "K3" for b in blocks)
    ops.append(_api(P, "classify.blocks", "dynamics.classify", g,
                    lambda g=g, lc=long_cycle: orc.expected_verdict(*g, long_cycle=lc),
                    _verdict_judge(*g)))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------- cli-queries

def emit(rng, n, edges, fmt):
    """Text for a graph in edge-list or DOT form with seeded vertex tokens.

    Returns (text, graph as the package numbers it, token of each input
    vertex, package index of each token).  The package numbers vertices in
    first-seen order and declared isolated vertices after them.
    """
    style = rng.choice(("v{}", "n{}", "x{}_"))
    labels = list(range(n))
    rng.shuffle(labels)
    token = [style.format(i) for i in labels]
    order = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in edges]
    rng.shuffle(order)
    seen = {}
    for u, v in order:
        for x in (u, v):
            seen.setdefault(x, len(seen))
    isolated = [v for v in range(n) if v not in seen]
    for v in isolated:
        seen[v] = len(seen)
    if fmt == "dot":
        lines = ["graph G {"] + [f"  {token[u]} -- {token[v]};" for u, v in order]
        lines += [f"  {token[v]};" for v in isolated] + ["}"]
    else:
        lines = ["# generated input"]
        if isolated or rng.random() < 0.3:
            lines.append(f"vertices {n}")
        lines += [f"{token[u]} {token[v]}" for u, v in order]
        for v in isolated:
            token[v] = str(seen[v])
    mapped = orc.normalize((seen[u], seen[v]) for u, v in edges)
    return "\n".join(lines) + "\n", (n, mapped), token, {token[v]: seen[v] for v in range(n)}


def run_cli(P, argv, text):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = P.cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def _cli(P, label, argv, text, oracle, check):
    """A CLI op: `check(stdout, expected)` returns (ok, fgraph_edges)."""

    def judge(result, expected, full):
        code, out, err = result
        digest = hashlib.sha1(f"{code}\0{out}".encode()).hexdigest()
        if code == 3 and "budget exceeded" in err:
            return REFUSED, 0, digest
        if code != 0:
            return FAILED, 0, digest
        ok, edges = check(out, expected)
        return (OK if ok else FAILED), edges, digest

    return Op(label, (argv, text), lambda: run_cli(P, argv, text), oracle, judge, kind="cli")


def _parse_graph_lines(lines, index):
    """Graph from `vertices N` plus `a b` lines; tokens not in `index` are
    vertex numbers."""
    n = int(lines[0].split()[1])
    pairs = [line.split() for line in lines[1:]]
    edges = [tuple(index[t] if t in index else int(t) for t in p) for p in pairs]
    return n, orc.normalize(edges)


def _random_forest(rng, n, edges):
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    order = list(range(len(edges)))
    rng.shuffle(order)
    ids = []
    for i in order:
        ru, rv = find(edges[i][0]), find(edges[i][1])
        if ru != rv:
            parent[ru] = rv
            ids.append(i)
    return sorted(ids)


def cli_small_ops(P, rng):
    ops = []

    def graph_text():
        text, mapped, _, _ = emit(rng, *gen.small_graph(rng),
                                  rng.choice(("edges", "dot")))
        return text, mapped

    for _ in range(3):
        text, g = graph_text()
        ops.append(_cli(P, "cli.count", ["count", "-"], text, lambda g=g: orc.tree_count(*g),
                        lambda out, exp: (int(out) == exp, 0)))
    for _ in range(2):
        text, g = graph_text()
        ops.append(_cli(P, "cli.classify", ["classify", "-"], text,
                        lambda g=g: (g, orc.expected_verdict(*g)), _classify_check))
    triangle = emit(rng, *gen.relabel(rng, *gen.complete(3)), "edges")[:2]
    for text, g in (triangle, graph_text()):
        ops.append(_cli(P, "cli.stable", ["stable", "-"], text,
                        lambda g=g: (g[0] == 1 and not g[1]) or (g[0] == 3 and len(g[1]) == 3),
                        lambda out, exp: (out.strip() == ("stable" if exp else "not stable"), 0)))
    for _ in range(2):
        text, g = graph_text()
        ops.append(_cli(P, "cli.forests", ["forests", "-"], text,
                        lambda g=g: (g, orc.tree_count(*g)), _forests_check))
    for kind in ("distance", "path", "distance", "path"):
        text, g = graph_text()
        f1, f2 = _random_forest(rng, *g), _random_forest(rng, *g)
        argv = [kind, "-", ",".join(map(str, f1)), ",".join(map(str, f2))]
        gap = len(set(f1) - set(f2))
        if kind == "distance":
            ops.append(_cli(P, "cli.distance", argv, text, lambda d=gap: d,
                            lambda out, exp: (int(out) == exp, 0)))
        else:
            ops.append(_cli(P, "cli.path", argv, text, lambda a=(g, f1, f2, gap): a, _path_check))
    # fixed shapes, so that every round returns the same number of F edges
    for kind, shape in (("fgraph", gen.complete(4)), ("fgraph", gen.BOWTIE),
                        ("iterate", gen.cycle(5)), ("iterate", DIAMOND)):
        text, g, _, _ = emit(rng, *gen.relabel(rng, *shape), rng.choice(("edges", "dot")))
        argv = ["fgraph", "-"] if kind == "fgraph" else ["iterate", "-", "1"]
        ops.append(_cli(P, f"cli.{kind}", argv, text,
                        lambda g=g: orc.forest_graph_shape(*g), _shape_line_check))
    ops.append(_whitney_split(P, rng))
    ops.append(_whitney_identify(P, rng))
    ops.append(_whitney_twist(P, rng))
    ops.append(_cli(P, "cli.gen_all5", ["gen", "all", "5"], "", lambda: 34,
                    lambda out, exp: (out.count("# graph") == exp, 0)))
    return ops


def _classify_check(out, expected):
    g, (status, limit, steps, kind) = expected
    line = out.strip()
    if status == "convergent":
        name = "K_1" if limit == "K1" else "K_3"
        unit = "step" if steps == 1 else "steps"
        return line == f"Convergent; limit {name} after {steps} {unit}", 0
    if kind == "two_triangles":
        return line == "Divergent; witness: two edge-disjoint triangles", 0
    prefix = "Divergent; witness: cycle of length "
    if not line.startswith(prefix):
        return False, 0
    length = int(line[len(prefix):])
    return length >= 4 and orc.has_cycle_of_length(*g, length), 0


def _forests_check(out, expected):
    g, count = expected
    lines = out.splitlines()
    if lines[0] != f"{count} maximal forests" or len(lines) != count + 1:
        return False, 0
    ids = [tuple(int(t) for t in line.split("  (")[0].split()[1:]) for line in lines[1:]]
    return len(set(ids)) == count and all(orc.is_spanning_forest(*g, f) for f in ids), 0


def _path_check(out, expected):
    g, f1, f2, gap = expected
    lines = out.splitlines()
    walk = [set(int(t) for t in line.split()[1:]) for line in lines[1:]]
    ok = (lines[0] == f"{gap} exchanges" and len(walk) == gap + 1
          and walk[0] == set(f1) and walk[-1] == set(f2)
          and all(len(a ^ b) == 2 for a, b in zip(walk, walk[1:]))
          and all(orc.is_spanning_forest(*g, sorted(f)) for f in walk))
    return ok, 0


def _shape_line_check(out, expected):
    order, size = expected
    head = out.splitlines()[0]
    words = head.replace(",", "").split()
    return (int(words[-4]) == order and int(words[-2]) == size), size


def _whitney_check(index, forest):
    def check(out, expected):
        n, edges = expected
        lines = out.splitlines()
        new = _parse_graph_lines([ln for ln in lines if "=" not in ln], index)
        edge_map = [int(t) for t in lines[-1].split("=")[1].split(",")]
        image = sorted(edge_map[i] for i in forest)
        ok = (len(new[1]) == len(edges) and sorted(edge_map) == list(range(len(edges)))
              and orc.tree_count(*new) == orc.tree_count(n, edges)
              and orc.is_spanning_forest(*new, image))
        return ok, 0
    return check


def _whitney_op(P, rng, label, g, args_for, fmt):
    text, mapped, token, index = emit(rng, *g, fmt)
    argv = ["whitney", "-"] + args_for(token) + ["--format", "structured"]
    forest = _random_forest(rng, *mapped)
    return _cli(P, label, argv, text, lambda: mapped, _whitney_check(index, forest))


def _whitney_split(P, rng):
    n, edges, cut, side = gen.glued_pair(rng)
    return _whitney_op(P, rng, "cli.whitney_split", (n, edges),
                       lambda t: ["split", t[cut], ",".join(t[x] for x in side)],
                       rng.choice(("edges", "dot")))


def _whitney_identify(P, rng):
    a = gen.small_graph(rng, 30)
    b = gen.small_graph(rng, 30)
    edges = a[1] + [(u + a[0], v + a[0]) for u, v in b[1]]
    x, y = rng.randrange(a[0]), a[0] + rng.randrange(b[0])
    return _whitney_op(P, rng, "cli.whitney_identify", (a[0] + b[0], edges),
                       lambda t: ["identify", f"{t[x]}:{t[y]}"], "edges")


def _whitney_twist(P, rng):
    n, edges, u, v, side = gen.two_separation(rng)
    return _whitney_op(P, rng, "cli.whitney_twist", (n, edges),
                       lambda t: ["twist", t[u], t[v], ",".join(t[x] for x in side)],
                       rng.choice(("edges", "dot")))


def _roots_check(out, expected):
    """Structured `roots` output: some root must be isomorphic to H."""
    n, edges = expected
    for line in out.splitlines():
        if line.startswith("root="):
            size, _, spec = line[5:].partition(":")
            pairs = [tuple(map(int, p.split("-"))) for p in spec.split(",") if p]
            if orc.isomorphic(int(size), pairs, n, edges):
                return True, 0
    return False, 0


def _depth_check(out, expected):
    """Structured `depth` output: a chain of depth >= 1 whose last root is
    isomorphic to H."""
    n, edges = expected
    lines = out.splitlines()
    if "kind=chain" not in lines or not any(ln.startswith("depth=") and int(ln[6:]) >= 1
                                            for ln in lines):
        return False, 0
    blocks, current = [], None
    for line in lines:
        if line == "graph":
            current = []
            blocks.append(current)
        elif "=" in line:
            current = None
        elif current is not None:
            current.append(line)
    root = _parse_graph_lines(blocks[-2], {})
    return orc.isomorphic(*root, n, edges), 0


DIAMOND = (4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
ROOT_TARGETS = (("C5", gen.cycle(5)), ("bowtie", gen.BOWTIE), ("C4", gen.cycle(4)))


def cli_ops(P, seed):
    """In-process CLI calls on edge-list and DOT text.

    Per round: 21 small subcommands on seeded graphs of 4 to 6 vertices,
    `roots` and `depth` on F(H) for H in C_5, the bowtie and C_4 (`roots` on
    F(C_5) four times, which holds the tail), `verify --max-n 4`, and `roots`
    and `depth` on F(K_4), which the package may refuse (exit 3) because
    canonical labeling is capped at 12 vertices.
    """
    rng = random.Random(seed)
    ops = cli_small_ops(P, rng)
    for name, h in ROOT_TARGETS:
        target = orc.forest_graph(*h)
        for kind in ("roots",) * (4 if name == "C5" else 1) + ("depth",):
            text, _, _, _ = emit(rng, *target, rng.choice(("edges", "dot")))
            check = _roots_check if kind == "roots" else _depth_check
            ops.append(_cli(P, f"cli.{kind}.F({name})", [kind, "-", "--format", "structured"],
                            text, lambda h=h: h, check))
    ops.append(_cli(P, "cli.verify", ["verify", "--max-n", "4"], "", lambda: None,
                    lambda out, exp: (all(" pass " in ln for ln in out.splitlines()), 0)))
    fk4 = orc.forest_graph(*gen.complete(4))
    for kind in ("roots", "depth"):
        text, _, _, _ = emit(rng, *fk4, "edges")
        check = _roots_check if kind == "roots" else _depth_check
        ops.append(_cli(P, f"cli.{kind}.F(K4)", [kind, "-", "--format", "structured"], text,
                        lambda: gen.complete(4), check))
    rng.shuffle(ops)
    return ops


WORKLOADS = {"fgraph-dense": dense_ops, "fgraph-blocks": block_ops, "cli-queries": cli_ops}


def probe_ops(P):
    """CLI calls that between them reach every traced layer.  A traced run
    makes them once, so that a layer its workload bypasses reads a small
    measured time instead of a constant zero."""
    triangle, square = gen.complete(3), gen.cycle(4)
    return [
        _cli(P, "probe.verify", ["verify", "--max-n", "3", "--trials", "1"], "", lambda: None,
             lambda out, exp: (all(" pass " in ln for ln in out.splitlines()), 0)),
        _cli(P, "probe.fgraph_dot", ["fgraph", "-", "--format", "dot"], "a b\nb c\na c\n",
             lambda: orc.forest_graph_shape(*triangle),
             lambda out, exp: (out.count(" -- ") == exp[1], exp[1])),
        _cli(P, "probe.iterate", ["iterate", "-", "1"], "a b\nb c\nc d\nd a\n",
             lambda: orc.forest_graph_shape(*square), _shape_line_check),
        _cli(P, "probe.path", ["path", "-", "0,1,2", "1,2,3"], "a b\nb c\nc d\nd a\n",
             lambda: (orc.normalize([(0, 1), (1, 2), (2, 3), (3, 0)]), (0, 1, 2), (1, 2, 3), 1),
             lambda out, exp: _path_check(out, ((4, exp[0]),) + exp[1:])),
    ]


def warm_up(P):
    """Touch each layer once on a tiny input before timing."""
    tri = P.graphs.Graph(3, [(0, 1), (1, 2), (0, 2)])
    P.forest_graph.build_forest_graph(tri)
    P.dynamics.iterate_F(tri, 2)
    P.dynamics.classify(tri)
    P.forests.count_maximal_forests(tri)
    run_cli(P, ["count", "-"], "a b\nb c\na c\n")
