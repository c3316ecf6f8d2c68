"""Text formats: the edge-list format and a DOT subset.

Edge-list input is one edge per line as two whitespace-separated vertex
tokens; lines starting with '#' are ignored, and the first data line may be a
header "vertices N" declaring extra isolated vertices.  Tokens map to dense
indices in first-seen order and the names stick to the graph; a declared
vertex i is named i unless a token already is, and then takes the smallest
decimal name no token uses.  The DOT subset accepts one `strict? graph ID?
{ a -- b; ... }` with attribute lists `[ID = ID, ...]` and `ID = ID` settings
ignored, where an ID is a word of letters, digits, '_' and '.' or a
double-quoted string.
"""

from __future__ import annotations

import itertools
import math
import re

from .graphs import Graph, _no_cyclic_gc

HEADER_VERTEX_LIMIT = 10**6


class ParseError(ValueError):
    """Input text rejected; carries 1-based line and column."""

    def __init__(self, message, line, column):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def _decimal(token):
    """`token` as an int if it is ASCII decimal digits, leading zeros allowed, else
    None; a number too long for int() comes back as infinity, above every limit."""
    if not (token.isascii() and token.isdigit()):
        return None
    digits = token.lstrip("0") or "0"
    # int() refuses strings of over 4300 digits, so compare lengths first
    return int(digits) if len(digits) <= 4300 else math.inf


def _column(line, k):
    """1-based column of the k-th whitespace-separated token of line."""
    return [m.start() for m in re.finditer(r"\S+", line)][k] + 1


@_no_cyclic_gc
def parse_edge_list(text) -> Graph:
    names = {}
    edges = []
    declared = None
    saw_data = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        tokens = line.split()
        if not saw_data and len(tokens) == 2 and tokens[0] == "vertices":
            declared = _decimal(tokens[1])
            if declared is None or declared > HEADER_VERTEX_LIMIT:
                raise ParseError(f"vertex count {tokens[1]!r} is not a number" if declared is None
                                 else f"header declares more than {HEADER_VERTEX_LIMIT} vertices",
                                 lineno, _column(line, 1))
            saw_data = True
            continue
        saw_data = True
        if len(tokens) != 2:
            raise ParseError(f"expected two vertex tokens, got {len(tokens)}",
                             lineno, _column(line, 2 if len(tokens) > 2 else 0))
        pair = [names.setdefault(tok, len(names)) for tok in tokens]
        if pair[0] == pair[1]:
            raise ParseError(f"loop edge at {tokens[0]!r} not allowed", lineno, _column(line, 0))
        edges.append((pair[0], pair[1]))
    order = tuple(names)
    n = len(order)
    if declared is not None:
        if declared < n:
            raise ParseError(f"header declares {declared} vertices but "
                             f"{n} distinct tokens appear", 1, 1)
        n = declared
    # a declared vertex i is named str(i) unless a token took that name; it
    # then takes the smallest decimal no token uses.  There are enough of
    # those below len(order), where no declared vertex has its own name.
    first = len(order)
    extra = [str(i) for i in range(first, n)]
    spare = (name for name in map(str, itertools.count()) if name not in names)
    for i in sorted(i for i, tok in zip(map(_decimal, order), order)
                    if i is not None and first <= i < n and str(i) == tok):
        extra[i - first] = next(spare)
    return Graph(n, edges, order + tuple(extra) if n else None)


# An ID (group 1) is a word or a double-quoted string, and every other token is
# punctuation; group 2 catches a character that starts no token.
_DOT_TOKEN = re.compile(r'([A-Za-z0-9_.]+|"(?:[^"\\]|\\.)*")|--|->|[{};=\[\],]|(\S)')


def _unquote(word):
    return word[1:-1].replace('\\"', '"').replace("\\\\", "\\") if word[0] == '"' else word


@_no_cyclic_gc
def parse_dot(text) -> Graph:
    def fail(tok, message):
        """Raise at the 1-based line and column of tok, a (text, offset, group) triple."""
        line_start = text.rfind("\n", 0, tok[1]) + 1
        raise ParseError(message, text.count("\n", 0, tok[1]) + 1, tok[1] - line_start + 1)

    # a token is (text, offset, group), with group as in _DOT_TOKEN and None
    # for punctuation; the sentinel, neither ID nor punctuation, ends every scan
    tokens = [(m[0], m.start(), m.lastindex) for m in _DOT_TOKEN.finditer(text)]
    bad = next((tok for tok in tokens if tok[2] == 2), None)
    if bad:
        fail(bad, f"unexpected character {bad[0]!r}")
    end = ("", len(text), None)
    tokens.append(end)

    def after_attributes(i):
        """Index of the first token after the attribute lists that start at i,
        each '[', then ID '=' ID pairs each optionally followed by ';' or ',',
        then ']'."""
        while tokens[i][0] == "[":
            i += 1
            while tokens[i][0] != "]":
                tok = tokens[i]
                if tok is end or tok[0] == "}":
                    fail(tokens[-2] if tok is end else tok, "unterminated attribute list")
                if not tok[2]:
                    fail(tok, "expected an attribute name or ']'")
                if tokens[i + 1][0] != "=":
                    fail(tokens[i + 1], "expected '=' after an attribute name")
                if not tokens[i + 2][2]:
                    fail(tokens[i + 2], "expected an ID after '='")
                i += 3 + (tokens[i + 3][0] in (";", ","))
            i += 1
        return i

    i = 1 if tokens[0][0] == "strict" else 0
    header = tokens[i]
    if header[0] == "digraph":
        fail(header, "directed graphs are not supported")
    if header[0] != "graph":
        fail(header, f"expected 'graph', got {header[0]!r}")
    i += 1
    if tokens[i][2]:  # the graph's name
        i += 1
    elif tokens[i] is not end and tokens[i][0] != "{":
        fail(tokens[i], "expected a graph name or '{'")
    if tokens[i][0] != "{":
        fail(tokens[i], "expected '{'")
    i += 1
    names = {}
    edges = []
    while True:
        tok = tokens[i]
        i += 1
        if tok[0] == "}":
            break
        if tok[0] == ";":
            continue
        if tok is end:
            fail(tokens[-2], "missing closing '}'")
        if not tok[2]:
            fail(tok, "directed edges are not supported" if tok[0] == "->"
                 else f"unexpected {tok[0]!r}")
        if tokens[i][0] == "[" and tok[0] in ("node", "edge", "graph"):
            i = after_attributes(i)
            continue
        if tokens[i][0] == "=":  # bare key = value settings are ignored
            if not tokens[i + 1][2]:
                fail(tokens[i + 1], "expected an ID after '='")
            i += 2
            continue
        prev = names.setdefault(_unquote(tok[0]), len(names))
        i = after_attributes(i)
        while tokens[i][0] == "--":
            tok = tokens[i + 1]
            if not tok[2]:
                fail(tok, "directed edges are not supported" if tok[0] == "->"
                     else "dangling edge operator")
            nxt = names.setdefault(_unquote(tok[0]), len(names))
            if nxt == prev:
                fail(tok, "loop edge not allowed")
            edges.append((prev, nxt))
            prev = nxt
            i = after_attributes(i + 2)
    if tokens[i] is not end:
        fail(tokens[i], f"unexpected {tokens[i][0]!r} after the closing '}}'")
    return Graph(len(names), edges, tuple(names) if names else None)


def parse_graph(text) -> Graph:
    """Parse edge-list or DOT input: DOT when the first whitespace-separated
    word, cut at its first '{', is strict, graph or digraph."""
    head = text.split(maxsplit=1)
    if head and head[0].partition("{")[0] in ("strict", "graph", "digraph"):
        return parse_dot(text)
    return parse_edge_list(text)


def format_edge_list(g) -> str:
    lines = [f"vertices {g.vertex_count}"]
    for u, v in g.edges:
        lines.append(f"{g.name_of(u)} {g.name_of(v)}")
    return "\n".join(lines) + "\n"


def format_dot(g, labels=None) -> str:
    out = ["graph {"]
    for v in range(g.vertex_count):
        label = f' [label="{labels[v]}"]' if labels else ""
        out.append(f'  "{g.name_of(v)}"{label};')
    for u, v in g.edges:
        out.append(f'  "{g.name_of(u)}" -- "{g.name_of(v)}";')
    out.append("}")
    return "\n".join(out) + "\n"
