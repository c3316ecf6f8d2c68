"""Byte-identity gate: CLI output digests over a fixed corpus.

The corpus is every graph on at most 5 vertices plus the forest graph of
every graph on at most 4 vertices, each in `format_edge_list` form.  Each
subcommand and format below runs on the whole corpus in process; one
SHA-256 over every input's stdout, stderr and exit code is pinned per row.
A refactor that keeps the output byte-identical keeps every digest.  The
digests were recorded from the code before `classify` read its answer off
one block pass and before `depth` recognised stable graphs by order and size.
"""

import contextlib
import hashlib
import io
import sys
import time

import pytest

from forestgraph import build_forest_graph, format_edge_list
from forestgraph.cli import main
from forestgraph.roots import enumerate_graphs

DIGESTS = {
    ("classify", "human"): "4de292b2f1e9157bf2ad93b9d254f8d8a8c6f0575ac5a496e976f9e79957a0e3",
    ("classify", "structured"): "7f5c2c848dfcc318172d894c9e32f42d4f212e220ce28e0501cf158630fe9dfc",
    ("stable", "human"): "08ffa93edda1e5654b66e04288409a33cd3d49ced14d03b9c39c655c5bf54617",
    ("stable", "structured"): "b16932d0a390dd1323f724d57de210824c49d4e18ef68b8e12f235ae7fc55768",
    ("roots", "structured"): "152367bed6da618b7396ba7824f4b852d3b549a9575869c3d596d841d6aff863",
    ("depth", "structured"): "ee3d21591fc8f042d589df36ccefeca5711962a16df6fd7d74529fe278a07d1f",
}


@pytest.fixture(scope="module")
def corpus():
    small = [g for n in range(1, 6) for g in enumerate_graphs(n)]
    lifted = [build_forest_graph(g).graph for n in range(1, 5) for g in enumerate_graphs(n)]
    return [format_edge_list(g) for g in small + lifted]


def _digest(cmd, fmt, texts):
    sha = hashlib.sha256()
    for text in texts:
        out, err = io.StringIO(), io.StringIO()
        old = sys.stdin
        sys.stdin = io.StringIO(text)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([cmd, "-", "--format", fmt])
        finally:
            sys.stdin = old
        for part in (out.getvalue(), err.getvalue(), str(code)):
            sha.update(part.encode())
            sha.update(b"\0")
    return sha.hexdigest()


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
