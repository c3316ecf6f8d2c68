"""Parsers, formatters, and CLI golden outputs including every error path."""

import io
import sys
import time

import pytest

from forestgraph import (Graph, ParseError, complete_graph, format_dot,
                         format_edge_list, parse_dot, parse_edge_list,
                         parse_graph)
from forestgraph.cli import main

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


class TestCliVerify:
    def test_small_corpus_passes(self, capsys):
        code, out, err = run_cli(["verify", "--max-n", "3", "--trials", "5"],
                                 capsys=capsys)
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert len(lines) == 10
        assert all("pass" in line for line in lines)

    def test_structured(self, capsys):
        code, out, _ = run_cli(["verify", "--max-n", "3", "--trials", "2",
                                "--format", "structured"], capsys=capsys)
        assert code == 0
        assert "two-step-convergence=pass" in out.splitlines()

    def test_failure_names_check(self, capsys):
        # a 2-vertex corpus holds no K_3, so the stability census must fail
        code, out, err = run_cli(["verify", "--max-n", "2", "--trials", "2",
                                  "--format", "structured"], capsys=capsys)
        assert code == 1
        assert "verification failed: stability-k1-k3" in err
        assert "stability-k1-k3=fail" in out.splitlines()
