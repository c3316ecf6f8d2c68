"""Parsers, formatters, and CLI golden outputs including every error path."""

import io
import random
import sys
import time

import pytest

from forestgraph import (Graph, ParseError, build_forest_graph, complete_graph,
                         cycle_graph, enumerate_graphs, format_dot, format_edge_list,
                         forests, graphs, parse_dot, parse_edge_list, parse_graph,
                         path_graph, roots)
from forestgraph.cli import _PARSER, main
from forestgraph.io import HEADER_VERTEX_LIMIT

BOWTIE_TEXT = "0 1\n0 2\n1 2\n2 3\n2 4\n3 4\n"


class TestEdgeListParse:
    def test_basic(self):
        g = parse_edge_list("a b\nb c\n")
        assert g.vertex_count == 3
        assert g.edges == ((0, 1), (1, 2))
        assert g.vertex_names == ("a", "b", "c")

    def test_header_declares_isolated(self):
        g = parse_edge_list("vertices 4\n0 1\n")
        assert g.vertex_count == 4
        assert g.name_of(3) == "3"

    def test_comments_and_blanks(self):
        g = parse_edge_list("# a triangle\n\n0 1\n1 2\n# done\n0 2\n")
        assert len(g.edges) == 3

    def test_loop_reports_position(self):
        with pytest.raises(ParseError) as info:
            parse_edge_list("0 1\nx x\n")
        assert info.value.line == 2 and info.value.column == 1

    def test_wrong_token_count(self):
        with pytest.raises(ParseError) as info:
            parse_edge_list("0 1 2\n")
        assert info.value.line == 1

    def test_header_too_small(self):
        with pytest.raises(ParseError):
            parse_edge_list("vertices 2\na b\nb c\n")

    def test_header_count_checked(self):
        for count in ("1000001", "9" * 5000, "\u00b2"):
            with pytest.raises(ParseError) as info:
                parse_edge_list(f"vertices {count}\na b\n")
            assert info.value.line == 1 and info.value.column == 10
        assert parse_edge_list("vertices " + "0" * 5000 + "7\na b\n").vertex_count == 7

    def test_first_seen_order(self):
        g = parse_edge_list("z y\nx z\n")
        assert g.vertex_names == ("z", "y", "x")
        # normalized edges still sort by index
        assert g.edges == ((0, 1), (0, 2))


class TestHeaderNames:
    """A vertex the header declares is named by its index unless a token
    already has that name; it then takes the smallest decimal no token uses."""

    def test_token_takes_the_index_name(self):
        # vertex 3 is declared, but the token "3" already names vertex 0
        assert parse_edge_list("vertices 4\n3 1\n").vertex_names == ("3", "1", "2", "0")

    def test_smallest_free_decimal_in_order(self):
        g = parse_edge_list("vertices 7\n6 0\n1 5\n")
        assert g.vertex_names == ("6", "0", "1", "5", "4", "2", "3")

    def test_iterate_zero_dot_names_each_vertex_once(self, capsys):
        code, out, err = run_cli(["iterate", "-", "0", "--format", "dot"],
                                 "vertices 4\n3 1\n", capsys)
        assert (code, err) == (0, "")
        assert out == 'graph {\n  "3";\n  "1";\n  "2";\n  "0";\n  "3" -- "1";\n}\n'
        assert parse_dot(out).vertex_count == 4

    def test_relabeled_corpus_dot_roundtrip(self):
        rng = random.Random(5)
        for n in range(1, 6):
            for g in enumerate_graphs(n):
                perm = list(range(n))
                rng.shuffle(perm)
                text = format_edge_list(Graph(n, [(perm[u], perm[v]) for u, v in g.edges]))
                h = parse_edge_list(text)
                assert len(set(h.vertex_names)) == n, text
                again = parse_dot(format_dot(h))
                assert (again.vertex_count, again.edges, again.vertex_names) \
                    == (n, h.edges, h.vertex_names), text


class TestDotParse:
    def test_basic(self):
        g = parse_dot("graph { a -- b; b -- c; }")
        assert g.vertex_count == 3 and len(g.edges) == 2

    def test_named_and_strict(self):
        g = parse_dot("strict graph G { a -- b }")
        assert g.edges == ((0, 1),)

    def test_chain(self):
        g = parse_dot("graph { a -- b -- c -- a; }")
        assert len(g.edges) == 3

    def test_attributes_ignored(self):
        g = parse_dot('graph { node [shape=circle]; a -- b [color="red"]; c; }')
        assert g.vertex_count == 3 and len(g.edges) == 1

    def test_quoted_names(self):
        g = parse_dot('graph { "left node" -- "right node"; }')
        assert g.vertex_names == ("left node", "right node")

    def test_digraph_rejected(self):
        with pytest.raises(ParseError):
            parse_dot("digraph { a -> b; }")

    def test_loop_rejected_with_position(self):
        with pytest.raises(ParseError) as info:
            parse_dot("graph {\n a -- a;\n}")
        assert info.value.line == 2

    def test_sniffing(self):
        assert parse_graph("graph { a -- b; }").edges == ((0, 1),)
        assert parse_graph("a b\n").edges == ((0, 1),)
        # DOT when the first word, cut at its first '{', is a DOT keyword
        for text in ("strict\ngraph { a -- b }", "strict\tgraph { a -- b }", "graph{a--b}"):
            assert parse_graph(text).vertex_names == ("a", "b"), text
        for text in ("graph1 graph2", "graphite lead", "digraphs x", "graph-1 x"):
            assert parse_graph(text).vertex_names == tuple(text.split()), text

    @pytest.mark.parametrize("text, column, message", [
        ("grph {}", 1, "expected 'graph', got 'grph'"),
        ("graph -- { }", 7, "expected a graph name or '{'"),
        ("graph { a [color=red }", 22, "unterminated attribute list"),
        ("graph { a -- b", 14, "missing closing '}'"),
        ("graph { -> }", 9, "directed edges are not supported"),
        ("graph { -- a }", 9, "unexpected '--'"),
        ("graph { a -- ; }", 14, "dangling edge operator"),
        ("graph { a -- -> b }", 14, "directed edges are not supported"),
        ("graph { a -- b } graph { c -- d }", 18, "unexpected 'graph' after the closing '}'"),
        ("graph { a =", 12, "expected an ID after '='"),
        ("graph { a = ; }", 13, "expected an ID after '='"),
        ("graph { a -- , }", 14, "dangling edge operator"),
        ("graph = { }", 7, "expected a graph name or '{'"),
        ("graph { a [ } ; { -- ] -- b }", 13, "unterminated attribute list"),
        ("graph { a [ [ ] ] -- b [ = = ] }", 13, "expected an attribute name or ']'"),
        ("graph { a [label] }", 17, "expected '=' after an attribute name"),
        ("graph { a [color=red [shape=box]] }", 22, "expected an attribute name or ']'"),
        ("graph { a [color=red;; shape=box] }", 22, "expected an attribute name or ']'"),
        ("graph { a [color= ] }", 19, "expected an ID after '='"),
    ])
    def test_errors_name_their_column(self, text, column, message):
        with pytest.raises(ParseError) as info:
            parse_dot(text)
        assert str(info.value) == f"line 1, column {column}: {message}"

    def test_attribute_lists_ignored(self):
        g = parse_dot('graph { a [color=red, shape=box;] -- b [] [label="x y" width=2] }')
        assert g.vertex_names == ("a", "b") and g.edges == ((0, 1),)

    def test_graph_attribute_statement_ignored(self):
        g = parse_dot("graph { rankdir = LR; c -- d }")
        assert g.vertex_names == ("c", "d") and g.edges == ((0, 1),)


class TestFormat:
    def test_edge_list_roundtrip(self):
        g = parse_edge_list(BOWTIE_TEXT)
        again = parse_edge_list(format_edge_list(g))
        assert again.edges == g.edges and again.vertex_count == g.vertex_count

    def test_isolated_vertices_roundtrip(self):
        g = Graph(4, [(0, 1)])
        text = format_edge_list(g)
        assert text.startswith("vertices 4\n")
        assert parse_edge_list(text).vertex_count == 4

    def test_dot_roundtrip(self):
        g = parse_edge_list(BOWTIE_TEXT)
        again = parse_dot(format_dot(g))
        assert again.edges == g.edges


def run_cli(args, stdin_text=None, capsys=None):
    if stdin_text is not None:
        old = sys.stdin
        sys.stdin = io.StringIO(stdin_text)
        try:
            code = main(args)
        finally:
            sys.stdin = old
    else:
        code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


class TestCliGolden:
    def test_count_k5(self, capsys, tmp_path):
        path = tmp_path / "k5.txt"
        path.write_text(format_edge_list(complete_graph(5)))
        code, out, _ = run_cli(["count", str(path)], capsys=capsys)
        assert code == 0 and out == "125\n"

    def test_count_long_cycle_takes_no_determinant(self, capsys):
        text = format_edge_list(cycle_graph(2000))
        start = time.perf_counter()
        code, out, _ = run_cli(["count", "-"], text, capsys)
        assert time.perf_counter() - start < 1
        assert (code, out) == (0, "2000\n")

    def test_forests_long_cycle(self, capsys):
        code, out, _ = run_cli(["forests", "-"], format_edge_list(cycle_graph(1100)), capsys)
        lines = out.splitlines()
        assert (code, lines[0], len(lines)) == (0, "1100 maximal forests", 1101)

    def test_fgraph_long_cycle(self, capsys):
        # F(C_1100) is K_1100: 1100 * 1099 / 2 edges
        start = time.perf_counter()
        code, out, _ = run_cli(["fgraph", "-"], format_edge_list(cycle_graph(1100)), capsys)
        assert time.perf_counter() - start < 5
        assert (code, out.splitlines()[0]) == (0, "forest graph: 1100 vertices, 604450 edges")

    def test_classify_bowtie_human(self, capsys):
        code, out, _ = run_cli(["classify", "-"], BOWTIE_TEXT, capsys)
        assert code == 0
        assert out == "Divergent; witness: two edge-disjoint triangles\n"

    def test_classify_bowtie_structured(self, capsys):
        code, out, _ = run_cli(["classify", "-", "--format", "structured"],
                               BOWTIE_TEXT, capsys)
        assert code == 0
        assert out == ("status=divergent\nlimit=-\nsteps=-\n"
                       "witness_kind=two_triangles\nwitness_edges=0,2,1;3,5,4\n")

    @pytest.mark.parametrize("text, edges", [
        (format_edge_list(complete_graph(5)), "0,4,7,2"),
        ("0 1\n0 2\n1 2\n1 3\n2 3\n", "0,3,4,1"),
        # a C_4 hung on the end of a chain of three triangles
        ("0 1\n0 2\n1 2\n2 3\n2 4\n3 4\n4 5\n4 6\n5 6\n6 7\n7 8\n8 9\n6 9\n",
         "9,11,12,10"),
        # two K_4 blocks sharing vertex 3
        ("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n3 4\n3 5\n3 6\n4 5\n4 6\n5 6\n",
         "0,3,5,2"),
        # a triangle, a bridge, then a C_5
        ("0 1\n0 2\n1 2\n2 3\n3 4\n4 5\n5 6\n6 7\n3 7\n", "4,6,7,8,5"),
    ], ids=["K5", "diamond", "c4-on-triangle-chain", "two-k4-at-cut", "c5-bridge-triangle"])
    def test_classify_long_cycle_structured(self, capsys, text, edges):
        code, out, _ = run_cli(["classify", "-", "--format", "structured"], text, capsys)
        assert code == 0
        assert out == ("status=divergent\nlimit=-\nsteps=-\n"
                       f"witness_kind=long_cycle\nwitness_edges={edges}\n")

    def test_classify_convergent(self, capsys):
        code, out, _ = run_cli(["classify", "-"], "0 1\n1 2\n0 2\n2 3\n", capsys)
        assert code == 0
        assert out == "Convergent; limit K_3 after 1 step\n"

    def test_roots_k4(self, capsys):
        k4 = format_edge_list(complete_graph(4))
        code, out, _ = run_cli(["roots", "-"], k4, capsys)
        assert code == 0
        assert out == "1 root: C_4; depth >= 1; chain stops (bipartite)\n"

    def test_roots_c4_pruned(self, capsys):
        c4 = "0 1\n1 2\n2 3\n0 3\n"
        code, out, _ = run_cli(["roots", "-"], c4, capsys)
        assert code == 0 and out == "no roots (bipartite)\n"

    @pytest.mark.parametrize("bound, want", [
        ([], "1 root: K_3; depth unbounded (stable)\n"),
        # no root of K_3 has 2 vertices, and K_3 is still stable
        (["--max-vertices", "2"], "0 roots: ; depth unbounded (stable)\n"),
    ])
    def test_roots_stable(self, capsys, bound, want):
        code, out, _ = run_cli(["roots", "-"] + bound, "0 1\n1 2\n0 2\n", capsys)
        assert (code, out) == (0, want)

    def test_stable(self, capsys):
        code, out, _ = run_cli(["stable", "-"], "0 1\n1 2\n0 2\n", capsys)
        assert code == 0 and out == "stable\n"

    def test_forests_structured(self, capsys):
        code, out, _ = run_cli(["forests", "-", "--format", "structured"],
                               "0 1\n1 2\n0 2\n", capsys)
        assert code == 0
        assert out == "count=3\nforest=0,1\nforest=0,2\nforest=1,2\n"

    def test_fgraph_c4_is_k4(self, capsys):
        c4 = "0 1\n1 2\n2 3\n0 3\n"
        code, out, _ = run_cli(["fgraph", "-", "--format", "structured"], c4, capsys)
        assert code == 0
        assert out.startswith("order=4\nsize=6\n")

    def test_distance_and_path(self, capsys):
        k4 = format_edge_list(complete_graph(4))
        code, out, _ = run_cli(["distance", "-", "0,1,2", "0,4,5"], k4, capsys)
        assert code == 0 and out == "2\n"
        code, out, _ = run_cli(["path", "-", "0,1,2", "0,4,5",
                                "--format", "structured"], k4, capsys)
        assert code == 0
        assert out == "length=2\nforest=0,1,2\nforest=0,1,5\nforest=0,4,5\n"

    def test_iterate_structured(self, capsys):
        c4 = "0 1\n1 2\n2 3\n0 3\n"
        code, out, _ = run_cli(["iterate", "-", "1", "--format", "structured"],
                               c4, capsys)
        assert code == 0
        assert out == "vertices 4\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"

    @pytest.mark.parametrize("text", ["0 1\n1 2\n0 2\n", "0 1\n1 2\n0 2\n2 3\n",
                                      "vertices 1\n"])
    def test_iterate_stops_at_fixed_point(self, capsys, text):
        _, want, _ = run_cli(["iterate", "-", "2", "--format", "structured"], text, capsys)
        start = time.perf_counter()
        code, out, _ = run_cli(["iterate", "-", "1000000000", "--format", "structured"],
                               text, capsys)
        assert time.perf_counter() - start < 1
        assert (code, out) == (0, want)

    def test_roots_and_depth_name_other_graphs_by_size(self, capsys):
        f_bowtie = format_edge_list(build_forest_graph(parse_edge_list(BOWTIE_TEXT)).graph)
        code, out, _ = run_cli(["roots", "-"], f_bowtie, capsys)
        assert (code, out) == (0, "1 root: graph(5 vertices, 6 edges); depth >= 1; "
                                  "chain stops (degree-bound)\n")
        code, out, _ = run_cli(["depth", "-"], f_bowtie, capsys)
        assert (code, out) == (0, "depth >= 1; chain: graph(5 vertices, 6 edges) -> "
                                  "graph(9 vertices, 18 edges); stops: degree-bound (proof)\n")

    def test_gen_and_depth(self, capsys):
        code, out, _ = run_cli(["gen", "complete", "4"], capsys=capsys)
        assert code == 0
        code, out, _ = run_cli(["depth", "-"], out, capsys)
        assert code == 0
        assert out == "depth >= 1; chain: C_4 -> K_4; stops: bipartite (proof)\n"

    def test_depth_structured_chain_blocks(self, capsys):
        k4 = format_edge_list(complete_graph(4))
        code, out, _ = run_cli(["depth", "-", "--format", "structured"], k4, capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "kind=chain"
        assert lines[1] == "depth=1"
        assert lines[2] == "stop=bipartite"
        assert lines[3] == "provable=true"
        assert lines.count("graph") == 2
        assert sum(1 for ln in lines if ln.startswith("map=")) == 1

    def test_whitney_identify(self, capsys):
        g = "0 1\n1 2\n0 2\n3 4\n4 5\n3 5\n"
        code, out, _ = run_cli(["whitney", "-", "identify", "0:3",
                                "--format", "structured"], g, capsys)
        assert code == 0
        assert "vertex_map=0,1,2,0,3,4" in out

    def test_determinism(self, capsys):
        first = run_cli(["classify", "-", "--format", "structured"],
                        BOWTIE_TEXT, capsys)
        second = run_cli(["classify", "-", "--format", "structured"],
                         BOWTIE_TEXT, capsys)
        assert first == second


class TestCliRootSearch:
    """Structured roots/depth goldens recorded before the chase reused one search.

    The stops were derived by hand.  The chains end on C_5 and on the bowtie,
    both with 5 vertices and minimum degree 2, so a root of either has at most
    3 vertices.  K_1 and K_3, the only connected isthmus-free graphs that
    small, have 1 and 3 forests, not 5.
    """

    F_C5 = format_edge_list(build_forest_graph(cycle_graph(5)).graph)
    F_BOWTIE = format_edge_list(build_forest_graph(parse_edge_list(BOWTIE_TEXT)).graph)

    @pytest.mark.parametrize("text, cmd, want", [
        (F_C5, "roots",
         "roots=1\nroot=5:0-3,0-4,1-2,1-4,2-3\nkind=chain\ndepth=1\n"
         "stop=degree-bound\nprovable=true\n"),
        (F_C5, "depth",
         "kind=chain\ndepth=1\nstop=degree-bound\nprovable=true\n"
         "graph\nvertices 5\n0 3\n0 4\n1 2\n1 4\n2 3\nmap=0:0,1:1,2:2,3:3,4:4\n"
         "graph\nvertices 5\n0 1\n0 2\n0 3\n0 4\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n"),
        (F_BOWTIE, "roots",
         "roots=1\nroot=5:0-1,0-2,0-3,0-4,1-4,2-3\nkind=chain\ndepth=1\n"
         "stop=degree-bound\nprovable=true\n"),
        (F_BOWTIE, "depth",
         "kind=chain\ndepth=1\nstop=degree-bound\nprovable=true\n"
         "graph\nvertices 5\n0 1\n0 2\n0 3\n0 4\n1 4\n2 3\n"
         "map=0:0,1:1,2:3,3:5,4:4,5:6,6:2,7:7,8:8\n"
         "graph\nvertices 9\n0 1\n0 2\n0 3\n0 6\n1 2\n1 4\n1 7\n2 5\n2 8\n"
         "3 6\n3 4\n3 5\n6 7\n6 8\n4 7\n4 5\n7 8\n5 8\n"),
    ])
    def test_structured_goldens(self, capsys, text, cmd, want):
        code, out, err = run_cli([cmd, "-", "--format", "structured"], text, capsys)
        assert (code, out, err) == (0, want, "")

    @pytest.fixture
    def orders(self, monkeypatch):
        """The vertex counts passed to enumerate_graphs, call by call, from a
        cold candidate table."""
        roots._candidates.cache_clear()
        seen = []
        enumerate_graphs = roots.enumerate_graphs

        def counting(n):
            seen.append(n)
            return enumerate_graphs(n)

        monkeypatch.setattr(roots, "enumerate_graphs", counting)
        return seen

    @pytest.mark.parametrize("cmd", ["roots", "depth"])
    def test_one_enumeration_per_order(self, capsys, orders, cmd):
        # K_5 has minimum degree 4, so no root has more than 5 vertices
        code, _, _ = run_cli([cmd, "-"], self.F_C5, capsys)
        assert code == 0 and orders == [1, 2, 3, 4, 5]

    def test_second_query_enumerates_nothing(self, capsys, orders):
        first = run_cli(["roots", "-"], self.F_C5, capsys)
        assert first[0] == 0 and orders == [1, 2, 3, 4, 5]
        assert run_cli(["roots", "-"], self.F_C5, capsys) == first
        assert orders == [1, 2, 3, 4, 5]

    @pytest.mark.parametrize("cmd", ["roots", "depth"])
    def test_f_k4_refused_before_five_vertices(self, capsys, orders, cmd):
        fk4 = format_edge_list(build_forest_graph(complete_graph(4)).graph)
        code, out, err = run_cli([cmd, "-"], fk4, capsys)
        assert (code, out) == (3, "")
        assert err == "budget exceeded: isomorphism limited to 12 vertices (got 16)\n"
        assert orders == [1, 2, 3, 4]

    K9 = format_edge_list(complete_graph(9))
    PAST_LIMIT = "budget exceeded: graph enumeration limited to 7 vertices (got 8)\n"

    @pytest.mark.parametrize("cmd", ["roots", "depth"])
    def test_bound_past_enumerator_refused_before_any_order(self, capsys, orders, cmd):
        # K_9's degree bound reaches 9 vertices: refused before order 1 is scanned
        start = time.perf_counter()
        code, out, err = run_cli([cmd, "-", "--max-vertices", "9"], self.K9, capsys)
        assert (code, out, err) == (3, "", self.PAST_LIMIT)
        assert orders == [8]
        assert time.perf_counter() - start < 0.5

    def test_bound_within_enumerator_still_searched(self, capsys):
        code, out, err = run_cli(["roots", "-", "--max-vertices", "7"], self.K9, capsys)
        assert (code, out, err) == (0, "no roots (exhausted-budget)\n", "")

    K4 = format_edge_list(complete_graph(4))

    @pytest.mark.parametrize("budget, want", [
        ([], "roots=1\nroot=4:0-2,0-3,1-2,1-3\nkind=chain\ndepth=1\n"
             "stop=bipartite\nprovable=true\n"),
        (["--max-vertices", "3"], "roots=0\ncertificate=exhausted-budget\nkind=chain\n"
                                  "depth=0\nstop=exhausted-budget\nprovable=false\n"),
    ])
    def test_max_vertices_bounds_the_search(self, capsys, budget, want):
        # K_4 = F(C_4), and C_4 has 4 vertices
        code, out, err = run_cli(["roots", "-", "--format", "structured"] + budget,
                                 self.K4, capsys)
        assert (code, out, err) == (0, want, "")

    @pytest.mark.parametrize("argv", [["roots", "-", "--max-edges", "3"],
                                      ["depth", "-", "--max-depth", "2"]])
    def test_removed_budget_flags_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as stop:
            run_cli(argv, self.K4, capsys)
        out, err = capsys.readouterr()
        assert stop.value.code == 2 and out == ""
        assert err.startswith("usage: ") and "unrecognized arguments" in err


class TestCliErrors:
    def test_loop_edge_exit_2(self, capsys):
        code, _, err = run_cli(["count", "-"], "0 0\n", capsys)
        assert code == 2
        assert "line 1" in err and "loop" in err

    def test_huge_header_exit_2_at_once(self, capsys):
        start = time.perf_counter()
        code, _, err = run_cli(["count", "-"], "vertices 1000000000\na b\n", capsys)
        assert code == 2 and "line 1" in err
        assert time.perf_counter() - start < 0.5

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run_cli(["count", "/nonexistent/path.txt"], capsys=capsys)
        assert code == 2 and "cannot read" in err

    def test_budget_blowup_iterate_c4_exit_3(self, capsys):
        c4 = "0 1\n1 2\n2 3\n0 3\n"
        code, _, err = run_cli(["iterate", "-", "3"], c4, capsys)
        assert code == 3
        assert "223304744960" in err and "step 3" in err

    def test_explicit_budget_exit_3(self, capsys):
        k5 = format_edge_list(complete_graph(5))
        code, _, err = run_cli(["forests", "-", "--budget", "100"], k5, capsys)
        assert code == 3 and "125" in err

    # one call per subcommand; only those that list forests take --budget
    EVERY_SUBCOMMAND = [
        ["forests", "-"], ["fgraph", "-"], ["iterate", "-", "1"], ["count", "-"],
        ["distance", "-", "0", "0"], ["path", "-", "0", "0"], ["classify", "-"],
        ["stable", "-"], ["roots", "-"], ["depth", "-"], ["whitney", "-", "split", "0", "1"],
        ["verify"], ["gen", "bowtie"]]

    @pytest.mark.parametrize("argv", EVERY_SUBCOMMAND, ids=lambda argv: argv[0])
    def test_budget_only_where_forests_are_listed(self, capsys, argv):
        k5 = format_edge_list(complete_graph(5))
        if argv[0] in ("forests", "fgraph", "iterate"):
            code, out, err = run_cli(argv + ["--budget", "100"], k5, capsys)
            assert (code, out) == (3, "") and "125" in err
            return
        with pytest.raises(SystemExit) as stop:
            run_cli(argv + ["--budget", "5"], k5, capsys)
        out, err = capsys.readouterr()
        assert stop.value.code == 2 and out == ""
        assert "unrecognized arguments: --budget 5" in err

    @pytest.mark.parametrize("value", ["0", "-1", "x"])
    @pytest.mark.parametrize("argv", [["forests", "-"], ["fgraph", "-"], ["iterate", "-", "1"]],
                             ids=lambda argv: argv[0])
    def test_budget_must_be_a_positive_integer(self, capsys, argv, value):
        with pytest.raises(SystemExit) as stop:
            run_cli(argv + ["--budget", value], "0 1\n1 2\n0 2\n", capsys)
        out, err = capsys.readouterr()
        assert stop.value.code == 2 and out == ""
        assert f"argument --budget: must be a positive integer, got '{value}'" in err
        code, out, err = run_cli(argv + ["--budget", "1"], "0 1\n1 2\n0 2\n", capsys)
        assert (code, out) == (3, "") and "over the budget of 1" in err

    def test_budget_too_long_for_int_is_no_limit(self, capsys):
        # int() refuses over 4300 digits; the decimal rule reads that as infinity
        code, out, _ = run_cli(["forests", "-", "--budget", "9" * 5000], "0 1\n1 2\n0 2\n", capsys)
        assert (code, out.splitlines()[0]) == (0, "3 maximal forests")

    def test_budget_cases_cover_every_subcommand(self):
        subcommands = _PARSER._subparsers._group_actions[0].choices
        assert sorted(subcommands) == sorted(argv[0] for argv in self.EVERY_SUBCOMMAND)

    def test_non_forest_witness_exit_2(self, capsys):
        k4 = format_edge_list(complete_graph(4))
        code, _, err = run_cli(["distance", "-", "0,1,3", "0,1,2"], k4, capsys)
        assert code == 2 and "cycle" in err

    def test_bad_forest_spec_exit_2(self, capsys):
        k4 = format_edge_list(complete_graph(4))
        code, _, err = run_cli(["distance", "-", "a,b", "0,1,2"], k4, capsys)
        assert code == 2

    def test_whitney_same_component_exit_2(self, capsys):
        code, _, err = run_cli(["whitney", "-", "identify", "0:1"],
                               "0 1\n1 2\n0 2\n", capsys)
        assert code == 2 and "component" in err

    def test_unknown_vertex_exit_2(self, capsys):
        code, _, err = run_cli(["whitney", "-", "split", "9", "1"],
                               "0 1\n1 2\n0 2\n", capsys)
        assert code == 2 and "unknown vertex" in err


    @pytest.mark.parametrize("args", [["split", "c", "\u00b2"], ["identify", "a:\u00b9"],
                                      ["identify", "a:" + "9" * 5000]])
    def test_non_ascii_or_huge_vertex_exit_2(self, capsys, args):
        code, out, err = run_cli(["whitney", "-"] + args, "a b\nb c\nc a\n", capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: unknown vertex")

    @pytest.mark.parametrize("kind", ["cycle", "path", "complete"])
    def test_gen_over_header_limit_exit_2_at_once(self, capsys, kind):
        start = time.perf_counter()
        code, out, err = run_cli(["gen", kind, str(HEADER_VERTEX_LIMIT + 1)], capsys=capsys)
        assert code == 2 and out == ""
        assert err == f"error: gen {kind} takes at most {HEADER_VERTEX_LIMIT} vertices\n"
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("n", [1415, 1000000])
    def test_gen_complete_over_edge_limit_exit_2_at_once(self, capsys, n):
        # K_1414 has 998,991 edges, K_1415 has 1,000,405
        start = time.perf_counter()
        code, out, err = run_cli(["gen", "complete", str(n)], capsys=capsys)
        assert code == 2 and out == ""
        assert err == f"error: gen complete {n} has {n * (n - 1) // 2} edges, more than 1000000\n"
        assert time.perf_counter() - start < 0.5

    # the missing '{' is reported at the end of the input
    TRUNCATED_DOT_END = {"graph": "line 1, column 6", "strict graph": "line 1, column 13",
                         "\n\n  graph G": "line 3, column 10"}

    @pytest.mark.parametrize("text", TRUNCATED_DOT_END)
    def test_truncated_dot_header_exit_2(self, capsys, text):
        code, out, err = run_cli(["count", "-"], text, capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {self.TRUNCATED_DOT_END[text]}: expected '{{'\n"

    def test_dot_ending_after_equals_exit_2(self, capsys):
        code, out, err = run_cli(["count", "-"], "graph { a =", capsys)
        assert (code, out, err) == (2, "", "error: line 1, column 12: expected an ID after '='\n")


class TestCliVerify:
    def test_small_corpus_passes(self, capsys):
        code, out, err = run_cli(["verify", "--max-n", "3", "--trials", "5"],
                                 capsys=capsys)
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert len(lines) == 11
        assert all("pass" in line for line in lines)

    def test_structured(self, capsys):
        code, out, _ = run_cli(["verify", "--max-n", "3", "--trials", "2",
                                "--format", "structured"], capsys=capsys)
        assert code == 0
        assert "two-step-convergence=pass" in out.splitlines()

    def test_order_past_enumerator_refused_before_any_check(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(["verify", "--max-n", "8"], capsys=capsys)
        assert (code, out) == (3, "")
        assert err == "budget exceeded: graph enumeration limited to 7 vertices (got 8)\n"
        assert time.perf_counter() - start < 0.5

    def test_failure_names_check(self, capsys):
        # a 2-vertex corpus holds no K_3, so the stability census must fail
        code, out, err = run_cli(["verify", "--max-n", "2", "--trials", "2",
                                  "--format", "structured"], capsys=capsys)
        assert code == 1
        assert "verification failed: stability-k1-k3" in err
        assert "stability-k1-k3=fail" in out.splitlines()


class TestTokenPositions:
    """Errors name the line and column where the offending token starts."""

    def test_dot_error_after_multiline_quoted_name(self):
        with pytest.raises(ParseError) as info:
            parse_dot('graph {\n "a\nb" -- c; $\n}')
        assert (info.value.line, info.value.column) == (3, 10)

    def test_dot_whitespace_and_quoted_newlines(self):
        rng = random.Random(9)
        blanks = (" ", "  ", "\t", "\n", " \n ", "\r\n")
        for n in range(1, 6):
            for g in enumerate_graphs(n):
                for _ in range(3):
                    names = [f"v{i}" if rng.random() < 0.5 else f"v\n{i}" for i in range(n)]
                    words = ["graph", "{"]
                    for v in range(n):
                        words += [f'"{names[v]}"', ";"]
                    for u, v in g.edges:
                        words += [f'"{names[u]}"', "--", f'"{names[v]}"', ";"]
                    words.append("}")
                    # gaps[k] is the offset of the blank before words[k]
                    text, gaps = "", []
                    for word in words:
                        gaps.append(len(text))
                        text += rng.choice(blanks) + word
                    h = parse_dot(text)
                    listed = parse_edge_list(format_edge_list(g))
                    assert (h.vertex_count, h.edges, h.vertex_names) == (n, g.edges, tuple(names))
                    assert {frozenset(map(h.name_of, e)) for e in h.edges} \
                        == {frozenset(names[int(listed.name_of(x))] for x in e)
                            for e in listed.edges}
                    at = rng.choice(gaps)
                    with pytest.raises(ParseError) as info:
                        parse_dot(text[:at] + "$" + text[at:])
                    before = text[:at].split("\n")
                    assert (info.value.line, info.value.column) \
                        == (len(before), len(before[-1]) + 1), repr(text)

    @pytest.mark.parametrize("text, column", [("0 1 0\n", 5), ("vertices vertices\n", 10),
                                              ("  x\ty  x\n", 8), ("\tq q\n", 2)])
    def test_edge_list_column_of_the_token(self, text, column):
        with pytest.raises(ParseError) as info:
            parse_edge_list(text)
        assert (info.value.line, info.value.column) == (1, column)


class TestDecimalTokens:
    """Vertex indices, edge ids and the header count are ASCII decimals."""

    REFUSED = ["٣", "1_0", "+0", "-1"]

    @pytest.mark.parametrize("token", REFUSED)
    def test_header(self, token):
        with pytest.raises(ParseError) as info:
            parse_edge_list(f"vertices {token}\na b\n")
        assert str(info.value) == f"line 1, column 10: vertex count {token!r} is not a number"

    @pytest.mark.parametrize("token", REFUSED)
    def test_vertex_argument(self, capsys, token):
        code, out, err = run_cli(["whitney", "-", "split", "--", token, "2"],
                                 "vertices 12\n0 1\n1 2\n", capsys)
        assert (code, out, err) == (2, "", f"error: unknown vertex {token!r}\n")

    @pytest.mark.parametrize("token", REFUSED)
    def test_forest_spec(self, capsys, token):
        k4 = format_edge_list(complete_graph(4))
        code, out, err = run_cli(["distance", "-", "--", f"{token},1,2", "0,1,2"], k4, capsys)
        assert (code, out) == (2, "")
        assert err == (f"error: forest spec '{token},1,2' is not a comma-separated "
                       "list of edge indices\n")

    def test_spaces_around_forest_ids(self, capsys):
        code, out, err = run_cli(["distance", "-", "0, 1", " 0 ,2 "], "0 1\n1 2\n0 2\n", capsys)
        assert (code, out, err) == (0, "1\n", "")

    def test_names_win_over_indices(self, capsys):
        # the token "0" names vertex 2, and "004" is the index of vertex 4
        text = "vertices 5\n2 x\nx 0\n0 y\n"
        runs = [run_cli(["whitney", "-", "identify", pair, "--format", "structured"],
                        text, capsys) for pair in ("0:4", "0:004", "2:4")]
        assert runs[0] == runs[1] != runs[2]
        assert runs[0][0] == 0 and "vertex_map=0,1,2,3,2" in runs[0][1]


class TestInputScale:
    """Reading input stays linear: bounds measured in process."""

    def test_fgraph_k6_dot_round_trip(self, capsys):
        code, dot, _ = run_cli(["fgraph", "-", "--format", "dot"],
                               format_edge_list(complete_graph(6)), capsys)
        assert code == 0 and len(dot) == 359246
        start = time.perf_counter()
        code, out, err = run_cli(["classify", "-"], dot, capsys)
        assert (code, out, err) == (0, "Divergent; witness: cycle of length 4\n", "")
        assert time.perf_counter() - start < 2

    def test_whitney_split_many_side_tokens(self, capsys):
        n = 8000
        side = ",".join(map(str, range(2, n)))
        text = format_edge_list(path_graph(n))
        start = time.perf_counter()
        code, out, err = run_cli(["whitney", "-", "split", "1", side, "--format", "structured"],
                                 text, capsys)
        assert time.perf_counter() - start < 0.5
        assert (code, err) == (0, "")
        assert out.splitlines()[:3] == [f"vertices {n + 1}", "0 1", "2 3"]

    @pytest.mark.parametrize("command", ["distance", "path"])
    def test_long_path_forest(self, capsys, command):
        ids = range(200000)
        forest = ",".join(map(str, ids))
        text = format_edge_list(path_graph(200001))
        start = time.perf_counter()
        result = run_cli([command, "-", forest, forest], text, capsys)
        assert time.perf_counter() - start < 5
        out = "0\n" if command == "distance" else f"0 exchanges\n[0] {' '.join(map(str, ids))}\n"
        assert result == (0, out, "")

    def test_forest_check_without_components(self, capsys, monkeypatch):
        def refuse(g):
            raise AssertionError("components walk")

        monkeypatch.setattr(forests, "components", refuse)
        monkeypatch.setattr(graphs, "components", refuse)
        code, out, err = run_cli(["distance", "-", "0", "0"],
                                 f"vertices {HEADER_VERTEX_LIMIT}\na b\n", capsys)
        assert (code, out, err) == (0, "0\n", "")
