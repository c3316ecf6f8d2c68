"""Byte-identity gate: CLI output digests over a fixed corpus.

The corpus is every graph on at most 5 vertices plus the forest graph of
every graph on at most 4 vertices, each in `format_edge_list` form.  Each
subcommand and format below runs on the whole corpus in process; one
SHA-256 over every input's stdout, stderr and exit code is pinned per row.
A refactor that keeps the output byte-identical keeps every digest.  The
digests were recorded from the code before `classify` read its answer off
one block pass and before `depth` recognised stable graphs by order and size.
The `roots` and `depth` rows moved once since, for one stderr line: the
refusal on F(K_4) now reads "isomorphism limited to 12 vertices (got 16)".
The `("usage", None)` row moved once, when `--budget` was kept only on the
subcommands that list forests (`forests`, `fgraph`, `iterate`): the help and
usage lines of the other subcommands lost `[--budget BUDGET]`, and
`count - --budget` became an unrecognized argument; every exit code held.
"""

import argparse
import contextlib
import hashlib
import io
import sys
import time

import pytest

from forestgraph import build_forest_graph, format_dot, format_edge_list, maximal_forests
from forestgraph.cli import main
from forestgraph.roots import enumerate_graphs

DIGESTS = {
    ("classify", "human"): "4de292b2f1e9157bf2ad93b9d254f8d8a8c6f0575ac5a496e976f9e79957a0e3",
    ("classify", "structured"): "7f5c2c848dfcc318172d894c9e32f42d4f212e220ce28e0501cf158630fe9dfc",
    ("stable", "human"): "08ffa93edda1e5654b66e04288409a33cd3d49ced14d03b9c39c655c5bf54617",
    ("stable", "structured"): "b16932d0a390dd1323f724d57de210824c49d4e18ef68b8e12f235ae7fc55768",
    ("roots", "structured"): "ae9e393b2f93bedde106ff99151d224de0ba268d2109442bb86b2ccf71c0189a",
    ("depth", "structured"): "49eb9431a591d84a0099c05af3bba4ff7ed82afc122181b3e8baf9f2b0f6acde",
}


@pytest.fixture(scope="module")
def corpus():
    small = [g for n in range(1, 6) for g in enumerate_graphs(n)]
    lifted = [build_forest_graph(g).graph for n in range(1, 5) for g in enumerate_graphs(n)]
    return [format_edge_list(g) for g in small + lifted]


def _call(argv, text):
    """stdout, stderr and exit code of one in-process call; argparse's exits
    give their SystemExit code."""
    out, err = io.StringIO(), io.StringIO()
    old = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as stop:
                code = stop.code
    finally:
        sys.stdin = old
    return out.getvalue(), err.getvalue(), code


def _digest_calls(calls):
    sha = hashlib.sha256()
    for argv, text in calls:
        for part in _call(argv, text):
            sha.update(str(part).encode())
            sha.update(b"\0")
    return sha.hexdigest()


def _digest(cmd, fmt, texts):
    return _digest_calls(([cmd, "-", "--format", fmt], text) for text in texts)


def test_corpus_size(corpus):
    # 52 graphs on at most 5 vertices, 18 forest graphs of graphs on at most 4
    assert len(corpus) == 70


@pytest.mark.parametrize("cmd, fmt", list(DIGESTS))
def test_output_digest(corpus, cmd, fmt):
    assert _digest(cmd, fmt, corpus) == DIGESTS[cmd, fmt]


def test_gate_is_fast(corpus):
    start = time.perf_counter()
    for cmd, fmt in DIGESTS:
        _digest(cmd, fmt, corpus)
    assert time.perf_counter() - start < 5


# Every other subcommand, on every graph on at most 5 vertices in edge-list and
# DOT form, plus Whitney rewrites, generators, usage errors and help.  FIRST
# and LAST stand for the first and last maximal forest of the input, as
# comma-separated edge ids.  These digests were recorded from the code before
# the CLI built its argument parser once and read its input in one place.
# The usage row moved once since: `roots --help` lost the --max-edges and
# --max-depth options, as the root search derives its edge bound and its
# chase ends on its own.
FIRST, LAST = object(), object()
SUBCOMMANDS = {
    "count": ["count"],
    "forests": ["forests"],
    "fgraph": ["fgraph"],
    "iterate 0": ["iterate", "0"],
    "iterate 1": ["iterate", "1"],
    "distance first last": ["distance", FIRST, LAST],
    "distance last first": ["distance", LAST, FIRST],
    "path first last": ["path", FIRST, LAST],
    "path last first": ["path", LAST, FIRST],
}
FORMATS = ("human", "structured", "dot")
BOWTIE = "a b\nb c\nc a\nc d\nd e\ne c\n"
C6 = "a b\nb c\nc d\nd e\ne f\nf a\n"
WHITNEY = [
    ("a b\nc d\n", ["identify", "a:c"]),
    ("a b\nc d\ne f\n", ["identify", "a:c", "d:e"]),
    ("a b\nc d\n", ["identify", "0:2"]),
    ("a b\nc d\n", ["identify", "a:b"]),
    ("a b\nc d\n", ["identify", "a-c"]),
    ("a b\nc d\n", ["identify", "a:zz", "b"]),
    (BOWTIE, ["split", "c", "d,e"]),
    (BOWTIE, ["split", "c", "a,,b,"]),
    (BOWTIE, ["split", "c", ""]),
    (BOWTIE, ["split", "", "a"]),
    (BOWTIE, ["split", "c"]),
    (BOWTIE, ["split", "c", "a", "b"]),
    (BOWTIE, ["split", "q", "a"]),
    (BOWTIE, ["split", "2", "0,1"]),
    ("x 1\n1 2\n2 x\n1 y\n", ["split", "1", "y"]),
    ('graph { "p q" -- r -- s -- "p q"; s -- t -- u -- s }', ["split", "s", "t,u"]),
    (C6, ["twist", "a", "d", "b,c"]),
    (C6, ["twist", "a", "d"]),
    (C6, ["twist", "a", "zz", "b"]),
    (C6, ["twist", "a", "b", "c"]),
]
GEN = [["bowtie"], ["cycle"], ["cycle", "2"], ["complete", "-3"], ["path", "-1"],
       ["all", "-1"], ["cycle", "1000001"], ["complete", "1000001"]] + \
      [[kind, str(n)] for kind, sizes in (("cycle", (3, 4, 5)), ("complete", range(6)),
                                          ("path", range(5)), ("all", range(5)))
       for n in sizes]
# argparse's usage errors and help (at a fixed width), and a malformed input
# reported before a bad argument
USAGE = [(argv, "") for argv in (
    [], ["--help"], ["-h"], ["count", "--help"], ["whitney", "--help"], ["roots", "--help"],
    ["gen", "--help"], ["verify", "--help"], ["bogus"], ["count"], ["iterate", "-"],
    ["iterate", "-", "x"], ["count", "-", "--format", "xml"], ["whitney", "-", "merge", "a"],
    ["whitney", "-", "split"], ["gen", "star"], ["gen", "cycle", "x"],
    ["verify", "--max-n", "x"], ["count", "-", "extra"], ["distance", "-", "0"],
    ["count", "-", "--budget"])] + [
    (["iterate", "-", "-1"], "0 0\n"), (["iterate", "-", "-1"], "0 1\n"),
    (["distance", "-", "a,b", "0"], "0 0\n"), (["whitney", "-", "split", "zz"], "0 0\n")]

SUBCOMMAND_DIGESTS = {
    ("count", "human"): "677812979008634c96462df868f71823257d526ad6c2ea8763f4f3d7b54493b5",
    ("count", "structured"): "d87004536582ca2b4e80fc999379af6c5c212edd39b42773a9846580a1ec2db8",
    ("count", "dot"): "677812979008634c96462df868f71823257d526ad6c2ea8763f4f3d7b54493b5",
    ("forests", "human"): "037857b126e9a9c5415fd91495fb76b4191656b43f8ad1702400e6e6eeb44a9f",
    ("forests", "structured"): "9bca2cb11fb2e7dbec74af50256b3b1eaa8dc2b0fd23f474fdebbf2eb4f0d040",
    ("forests", "dot"): "037857b126e9a9c5415fd91495fb76b4191656b43f8ad1702400e6e6eeb44a9f",
    ("fgraph", "human"): "1f1767e3e1108bab727fddbfeb69afb3a9ec1892c689c7b27052b04d08114bcc",
    ("fgraph", "structured"): "1cbdb171efb8857ac4607c7ff1dfc3009c2a3ff1af6393a25bb561558bf507e8",
    ("fgraph", "dot"): "c77246afec02830bb579dd5bc8b80c519158086e1b564e059680063a706006cc",
    ("iterate 0", "human"): "d1f02807f46d72209df173a12445d3c1d99474ae15a254ddacc9eb50b52ce58e",
    ("iterate 0", "structured"): "50d1fae2922fb4875c0aed8420710edbe7062172195fcf46c55dd0e877d0f5e0",
    ("iterate 0", "dot"): "eae5b1972a84c50241b73325d3b895d2b013359154cfc4ba7d0aef2dcc0faffc",
    ("iterate 1", "human"): "a1aaaf0447a9f5e92d12892a63c9198f98c6e1bfbda433c2b11ec52c17470743",
    ("iterate 1", "structured"): "d27a36fc418bf691adc6c81d24ac678f339efdbd4bda4f787dc5b117dcc3036f",
    ("iterate 1", "dot"): "33e0745e046985ab147c9bc21abbd48e18bd29b4ac872ca7e0ff00722c6d6db2",
    ("distance first last", "human"): "a52fcb3e779e845a96dc7daa2f85fdcac2f22039d463a6a61aa316ec3a6dd1f8",
    ("distance first last", "structured"): "fc8c359896e44d2a0c94a85fd429b8343fcb3f9ee5be12ae6cdfd3d8940bde72",
    ("distance first last", "dot"): "a52fcb3e779e845a96dc7daa2f85fdcac2f22039d463a6a61aa316ec3a6dd1f8",
    ("distance last first", "human"): "a52fcb3e779e845a96dc7daa2f85fdcac2f22039d463a6a61aa316ec3a6dd1f8",
    ("distance last first", "structured"): "fc8c359896e44d2a0c94a85fd429b8343fcb3f9ee5be12ae6cdfd3d8940bde72",
    ("distance last first", "dot"): "a52fcb3e779e845a96dc7daa2f85fdcac2f22039d463a6a61aa316ec3a6dd1f8",
    ("path first last", "human"): "bb304c8b96d8c9f71f146ad4e2e5bb714d2e3618d00b026acf1d5bcac01a7358",
    ("path first last", "structured"): "8155eef5d239fce7d124a7bf3840ee8917759616586945393eb92b6442819a72",
    ("path first last", "dot"): "bb304c8b96d8c9f71f146ad4e2e5bb714d2e3618d00b026acf1d5bcac01a7358",
    ("path last first", "human"): "a3a5fb378ee6b1a7c0e1a1f021ffd9615f243a7af14ef87ee9192d8ae45ef45f",
    ("path last first", "structured"): "9e29a8f95bb117da54c4bce093b72f2e168c2c57d81c323b9efae68afeaae876",
    ("path last first", "dot"): "a3a5fb378ee6b1a7c0e1a1f021ffd9615f243a7af14ef87ee9192d8ae45ef45f",
    ("whitney", "human"): "585b2a9ecf473b7a0df51c5f05eceabb7fbe1d9c2ff84683914e168e0e6121de",
    ("gen", "human"): "c4d0e71ef80bb69950ab8736bdaafcabed4b3de293dd3bb939805380e262baa3",
    ("whitney", "structured"): "0ee6747c06503db82ab423b96c4e65181c40f0312da29252580c97a986e94038",
    ("gen", "structured"): "c4d0e71ef80bb69950ab8736bdaafcabed4b3de293dd3bb939805380e262baa3",
    ("whitney", "dot"): "022b860f9ad8170b2f3905ec7c53d2a0b3918a84e64986b6601a1372d31f6974",
    ("gen", "dot"): "ee46cf6523625ef7b0ab4a75064bc7d345f4f755b6fbd2f7cf557221fb5ba916",
    ("usage", None): "4939baa54be0625fbd3b7d4c10b2e1ab67acb626c6fa1e2bf0c48db072107b75",
}


@pytest.fixture(scope="module")
def small_inputs():
    """(text, first forest, last forest) for every graph on at most 5 vertices,
    each in edge-list and DOT form."""
    inputs = []
    for g in (g for n in range(1, 6) for g in enumerate_graphs(n)):
        family = maximal_forests(g)
        first, last = (",".join(map(str, f.edge_ids())) for f in (family[0], family[-1]))
        inputs += [(format_edge_list(g), first, last), (format_dot(g), first, last)]
    return inputs


def _subcommand_calls(small_inputs):
    calls = {}
    for label, template in SUBCOMMANDS.items():
        for fmt in FORMATS:
            calls[label, fmt] = [
                ([template[0], "-"] + [{FIRST: first, LAST: last}.get(a, a) for a in template[1:]]
                 + ["--format", fmt], text)
                for text, first, last in small_inputs]
    for fmt in FORMATS:
        calls["whitney", fmt] = [(["whitney", "-"] + args + ["--format", fmt], text)
                                 for text, args in WHITNEY]
        calls["gen", fmt] = [(["gen"] + args + ["--format", fmt], "") for args in GEN]
    calls["usage", None] = USAGE
    return calls


def test_every_subcommand_digest(small_inputs, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    start = time.perf_counter()
    got = {key: _digest_calls(calls) for key, calls in _subcommand_calls(small_inputs).items()}
    elapsed = time.perf_counter() - start
    assert {k for k in got if got[k] != SUBCOMMAND_DIGESTS.get(k)} == set()
    assert elapsed < 5


# `verify` at its default --max-n 5, recorded from the code before its
# bigger-clique check built its ring in F(g) instead of searching for one
VERIFY_DIGESTS = {
    "human": "ad5536e29d1b38e6a4d2eba5262ad2253c7a5395a81d267484a8d56a24c98dae",
    "structured": "c1d55541545d1e3e920388a3fc3103104cded81d67761b67916a3ab84190db69",
}


@pytest.mark.parametrize("fmt", list(VERIFY_DIGESTS))
def test_verify_digest(fmt):
    assert _digest_calls([(["verify", "--format", fmt], "")]) == VERIFY_DIGESTS[fmt]


def test_main_builds_no_parser(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("main built an argument parser")

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
    assert _call(["count", "-"], "a b\nb c\na c\n") == ("3\n", "", 0)
    start = time.perf_counter()
    for _ in range(300):
        _call(["count", "-"], "a b\nb c\na c\n")
    assert time.perf_counter() - start < 0.5
