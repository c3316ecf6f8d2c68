"""Command-line front end.

Every subcommand reads a graph from a file (or '-' for stdin) in edge-list or
DOT form, runs one library operation, and prints deterministically: the same
input and options always give byte-identical output.  `--format human` is the
default; `--format structured` emits stable key=value lines for scripts and
golden tests; `--format dot` applies to subcommands whose output is a graph.

Exit codes: 0 success, 1 verification failure, 2 malformed input, 3 budget
exceeded.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import checks
from .dynamics import CONVERGENT, WITNESS_TWO_TRIANGLES, classify, is_stable, iterate_F
from .forest_graph import build_forest_graph, exchange_path, forest_distance
from .forests import FOREST_BUDGET, MaximalForest, count_maximal_forests, maximal_forests
from .graphs import BudgetError, Graph, GraphInputError, complete_graph, cycle_graph, path_graph
from .io import (HEADER_VERTEX_LIMIT, ParseError, _decimal, format_dot, format_edge_list,
                 parse_graph)
from .roots import (DEFAULT_ROOT_VERTEX_BUDGET, depth_lower_bound, enumerate_graphs,
                    find_roots, whitney_identify, whitney_split, whitney_twist)

BOWTIE_EDGES = ((0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4))


def _read_graph(path) -> Graph:
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as err:
            raise GraphInputError(f"cannot read {path}: {err.strerror}") from None
    return parse_graph(text)


def _parse_forest(g, spec) -> MaximalForest:
    ids = [_decimal(tok.strip()) for tok in spec.split(",") if tok != ""]
    if None in ids or math.inf in ids:
        raise GraphInputError(f"forest spec {spec!r} is not a comma-separated "
                              "list of edge indices")
    return MaximalForest(g, ids)


def _describe(g) -> str:
    n, m = g.vertex_count, len(g.edges)
    if m == n * (n - 1) // 2:
        return f"K_{n}"
    # a root, a graph with a root, or one the prunes pass: connected, with a
    # cycle, so when its degrees are all 2 it is one cycle
    if all(g.degree(v) == 2 for v in range(n)):
        return f"C_{n}"
    return f"graph({n} vertices, {m} edges)"


def _inline(g) -> str:
    return f"{g.vertex_count}:" + ",".join(f"{u}-{v}" for u, v in g.edges)


def _print_graph(g, fmt, title=None):
    """A graph in DOT or as an edge list; `--format human` puts `title` and the
    graph's size on a line before the edge list."""
    if fmt == "dot":
        sys.stdout.write(format_dot(g))
        return
    if fmt == "human" and title is not None:
        print(f"{title}: {g.vertex_count} vertices, {len(g.edges)} edges")
    sys.stdout.write(format_edge_list(g))


def _print_depth(report):
    """The kind=, depth=, stop= and provable= lines of a structured depth report."""
    print(f"kind={report.kind}")
    if report.kind == "stable":
        print("depth=unbounded")
        return
    print(f"depth={report.depth}")
    if report.stop is not None:
        print(f"stop={report.stop.reason}")
        print(f"provable={'true' if report.provable_stop else 'false'}")


def cmd_forests(args, g) -> int:
    family = maximal_forests(g, args.budget)
    if args.format == "structured":
        print(f"count={len(family)}")
        for forest in family:
            print("forest=" + ",".join(map(str, forest.edge_ids())))
    else:
        print(f"{len(family)} maximal forests")
        for i, forest in enumerate(family):
            pairs = " ".join(f"{g.name_of(u)}-{g.name_of(v)}" for u, v in forest.pairs())
            print(f"[{i}] {' '.join(map(str, forest.edge_ids()))}  ({pairs})")
    return 0


def cmd_count(args, g) -> int:
    count = count_maximal_forests(g)
    if args.format == "structured":
        print(f"count={count}")
    else:
        print(count)
    return 0


def cmd_fgraph(args, g) -> int:
    fg = build_forest_graph(g, args.budget)
    if args.format == "dot":
        labels = [" ".join(map(str, f.edge_ids())) for f in fg.family]
        sys.stdout.write(format_dot(fg.graph, labels))
        return 0
    if args.format == "structured":
        print(f"order={fg.graph.vertex_count}")
        print(f"size={len(fg.graph.edges)}")
        for i, forest in enumerate(fg.family):
            print(f"vertex {i}=" + ",".join(map(str, forest.edge_ids())))
        for u, v in fg.graph.edges:
            print(f"edge={u},{v}")
        return 0
    print(f"forest graph: {fg.graph.vertex_count} vertices, {len(fg.graph.edges)} edges")
    for i, forest in enumerate(fg.family):
        print(f"[{i}] {' '.join(map(str, forest.edge_ids()))}")
    print("edges: " + " ".join(f"{u}-{v}" for u, v in fg.graph.edges))
    return 0


def cmd_distance(args, g) -> int:
    f1 = _parse_forest(g, args.forest1)
    f2 = _parse_forest(g, args.forest2)
    d = forest_distance(f1, f2)
    print(f"distance={d}" if args.format == "structured" else d)
    return 0


def cmd_path(args, g) -> int:
    f1 = _parse_forest(g, args.forest1)
    f2 = _parse_forest(g, args.forest2)
    walk = exchange_path(g, f1, f2)
    if args.format == "structured":
        print(f"length={len(walk) - 1}")
        for forest in walk:
            print("forest=" + ",".join(map(str, forest.edge_ids())))
    else:
        print(f"{len(walk) - 1} exchanges")
        for k, forest in enumerate(walk):
            print(f"[{k}] {' '.join(map(str, forest.edge_ids()))}")
    return 0


def cmd_iterate(args, g) -> int:
    if args.steps < 0:
        raise GraphInputError("step count must be non-negative")
    _print_graph(iterate_F(g, args.steps, args.budget), args.format,
                 f"after {args.steps} steps")
    return 0


def cmd_classify(args, g) -> int:
    verdict = classify(g)
    if args.format == "structured":
        print(verdict.to_kv())
        return 0
    if verdict.status == CONVERGENT:
        name = "K_1" if verdict.limit == "K1" else "K_3"
        unit = "step" if verdict.steps == 1 else "steps"
        print(f"Convergent; limit {name} after {verdict.steps} {unit}")
    elif verdict.witness_kind == WITNESS_TWO_TRIANGLES:
        print("Divergent; witness: two edge-disjoint triangles")
    else:
        print(f"Divergent; witness: cycle of length {verdict.witness[0].length}")
    return 0


def cmd_stable(args, g) -> int:
    flag = is_stable(g)
    if args.format == "structured":
        print(f"stable={'true' if flag else 'false'}")
    else:
        print("stable" if flag else "not stable")
    return 0


def cmd_roots(args, g) -> int:
    report = depth_lower_bound(g, args.max_vertices)
    result = report.search
    if result is None:
        result = find_roots(g, args.max_vertices)
    if args.format == "structured":
        print(f"roots={len(result.roots)}")
        for root in result.roots:
            print(f"root={_inline(root)}")
        if result.certificate is not None:
            print(f"certificate={result.certificate.reason}")
        _print_depth(report)
        return 0
    if report.kind != "stable" and not result.found():
        print(f"no roots ({result.certificate.reason})")
        return 0
    names = ", ".join(_describe(r) for r in result.roots)
    plural = "root" if len(result.roots) == 1 else "roots"
    stop = f"; chain stops ({report.stop.reason})" if report.stop is not None else ""
    depth = "unbounded (stable)" if report.kind == "stable" else f">= {report.depth}{stop}"
    print(f"{len(result.roots)} {plural}: {names}; depth {depth}")
    return 0


def cmd_depth(args, g) -> int:
    report = depth_lower_bound(g, args.max_vertices)
    if args.format == "structured":
        _print_depth(report)
        if report.chain is not None:
            for i, graph in enumerate(report.chain.graphs):
                print("graph")
                sys.stdout.write(format_edge_list(graph))
                if i < len(report.chain.iso_maps):
                    mapping = report.chain.iso_maps[i]
                    print("map=" + ",".join(f"{a}:{b}" for a, b in enumerate(mapping)))
        return 0
    if report.kind == "stable":
        print("depth unbounded (stable)")
    elif report.kind == "pruned":
        print(f"depth 0 ({report.stop.reason})")
    else:
        arrow = " -> ".join(_describe(x) for x in report.chain.graphs) \
            if report.chain is not None else _describe(g)
        stop = report.stop.reason if report.stop is not None else "unknown"
        grade = "proof" if report.provable_stop else "search limit"
        print(f"depth >= {report.depth}; chain: {arrow}; stops: {stop} ({grade})")
    return 0


def cmd_whitney(args, g) -> int:
    names = {}
    for v, name in enumerate(g.vertex_names or ()):
        names.setdefault(name, v)  # the first vertex wins a repeated name

    def vertices(tokens):
        """Vertex indices of tokens, names before decimal indices."""
        out = []
        for token in tokens:
            v = names[token] if token in names else _decimal(token)
            if v is None or v >= g.vertex_count:
                raise GraphInputError(f"unknown vertex {token!r}")
            out.append(v)
        return out

    if args.operation == "identify":
        pairs = []
        for spec in args.args:
            left, sep, right = spec.partition(":")
            if not sep:
                raise GraphInputError(f"identify takes vertex pairs as A:B, got {spec!r}")
            pairs.append(vertices((left, right)))
        result = whitney_identify(g, pairs)
    else:
        split = args.operation == "split"
        *ends, side = args.args
        if len(ends) != (1 if split else 2):
            raise GraphInputError("split takes a vertex and a comma-separated side" if split
                                  else "twist takes two vertices and a comma-separated side")
        rewrite = whitney_split if split else whitney_twist
        # empty items of a side are skipped; an empty vertex argument is not
        result = rewrite(g, *vertices(ends), vertices(tok for tok in side.split(",") if tok))
    _print_graph(result.graph, args.format, args.operation)
    if args.format == "structured":
        print("vertex_map=" + ",".join(map(str, result.vertex_map)))
        print("edge_map=" + ",".join(map(str, result.edge_map)))
    return 0


def cmd_verify(args, _) -> int:
    results = checks.run_all(max_n=args.max_n, seed=args.seed, whitney_count=args.trials)
    failed = []
    if args.format == "structured":
        for res in results:
            print(f"{res.name}={'pass' if res.ok else 'fail'}")
            if not res.ok:
                failed.append(res)
    else:
        width = max(len(res.name) for res in results)
        for res in results:
            mark = "pass" if res.ok else "FAIL"
            print(f"{res.name.ljust(width)}  {mark}  {res.detail}")
            if not res.ok:
                failed.append(res)
    if failed:
        print(f"verification failed: {failed[0].name}", file=sys.stderr)
        return 1
    return 0


def cmd_gen(args, _) -> int:
    kind = args.kind
    if kind == "bowtie":
        graphs_out = [Graph(5, BOWTIE_EDGES)]
    else:
        n = args.n
        if n is None:
            raise GraphInputError(f"gen {kind} needs a vertex count")
        if kind != "all" and n > HEADER_VERTEX_LIMIT:
            raise GraphInputError(f"gen {kind} takes at most {HEADER_VERTEX_LIMIT} vertices")
        # K_N is N(N-1)/2 output lines; complete_graph refuses a negative N itself
        if kind == "complete" and n > 0 and n * (n - 1) // 2 > HEADER_VERTEX_LIMIT:
            raise GraphInputError(f"gen complete {n} has {n * (n - 1) // 2} edges, "
                                  f"more than {HEADER_VERTEX_LIMIT}")
        if kind == "cycle":
            graphs_out = [cycle_graph(n)]
        elif kind == "complete":
            graphs_out = [complete_graph(n)]
        elif kind == "path":
            graphs_out = [path_graph(n)]
        else:
            graphs_out = enumerate_graphs(n)
    for i, g in enumerate(graphs_out):
        if len(graphs_out) > 1:
            print(f"# graph {i}")
        _print_graph(g, args.format)
    return 0


def _positive(text):
    value = _decimal(text)
    if not value:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    # only the subcommands that list forests take a forest budget
    listing = argparse.ArgumentParser(add_help=False)
    listing.add_argument("--budget", type=_positive, default=FOREST_BUDGET,
                         help="maximal-forest budget (default 10^6)")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("human", "structured", "dot"),
                        default="human", help="output format")

    parser = argparse.ArgumentParser(
        prog="forestgraph",
        description="Maximal forests, the forest-graph operator, and its dynamics.")
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar="SUBCOMMAND")

    def add(name, func, help_text, with_input=True, parents=(common,)):
        p = sub.add_parser(name, help=help_text, parents=list(parents))
        if with_input:
            p.add_argument("input", help="graph file (edge list or DOT), or - for stdin")
        p.set_defaults(func=func)
        return p

    add("forests", cmd_forests, "list all maximal forests", parents=(listing, common))
    add("count", cmd_count, "count maximal forests exactly")
    add("fgraph", cmd_fgraph, "build the forest graph", parents=(listing, common))

    p = add("distance", cmd_distance, "exchange distance between two forests")
    p.add_argument("forest1", help="comma-separated edge indices")
    p.add_argument("forest2", help="comma-separated edge indices")

    p = add("path", cmd_path, "shortest exchange path between two forests")
    p.add_argument("forest1", help="comma-separated edge indices")
    p.add_argument("forest2", help="comma-separated edge indices")

    p = add("iterate", cmd_iterate, "apply the forest-graph operator repeatedly",
            parents=(listing, common))
    p.add_argument("steps", type=int, help="number of applications")

    add("classify", cmd_classify, "convergent or divergent, with evidence")
    add("stable", cmd_stable, "is the graph isomorphic to its forest graph")

    for name, func, help_text in (
            ("roots", cmd_roots, "search for graphs whose forest graph is this one"),
            ("depth", cmd_depth, "chase roots of roots; longest chain found")):
        p = add(name, func, help_text)
        p.add_argument("--max-vertices", type=int, default=DEFAULT_ROOT_VERTEX_BUDGET,
                       help="candidate vertex budget (default 6)")

    p = add("whitney", cmd_whitney, "apply a forest-preserving rewrite")
    p.add_argument("operation", choices=("identify", "split", "twist"))
    p.add_argument("args", nargs="+",
                   help="identify: A:B pairs; split: V SIDE; twist: U V SIDE "
                        "(SIDE comma-separated vertices)")

    p = add("verify", cmd_verify, "run the whole self-verification suite",
            with_input=False)
    p.add_argument("--max-n", type=int, default=5,
                   help="corpus vertex bound for exhaustive scans (default 5)")
    p.add_argument("--seed", type=int, default=0, help="randomized-trial seed")
    p.add_argument("--trials", type=int, default=100,
                   help="rewrite-invariance trial count (default 100)")

    p = add("gen", cmd_gen, "emit a named graph or a whole corpus", with_input=False)
    p.add_argument("kind", choices=("cycle", "complete", "path", "bowtie", "all"))
    p.add_argument("n", type=int, nargs="?", default=None, help="vertex count")

    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        # verify and gen take no input; every other subcommand reads one graph
        return args.func(args, _read_graph(args.input) if "input" in args else None)
    except (ParseError, GraphInputError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except BudgetError as err:
        print(f"budget exceeded: {err}", file=sys.stderr)
        return 3


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
