"""Text formats: the edge-list format and a DOT subset.

Edge-list input is one edge per line as two whitespace-separated vertex
tokens; lines starting with '#' are ignored, and the first data line may be a
header "vertices N" declaring extra isolated vertices.  Tokens map to dense
indices in first-seen order and the names stick to the graph; a declared
vertex i is named i unless a token already is, and then takes the smallest
decimal name no token uses.  The DOT subset accepts `graph NAME? { a -- b;
... }` with attribute brackets ignored.
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


_DOT_TOKEN = re.compile(r'[A-Za-z0-9_.]+|"(?:[^"\\]|\\.)*"|--|->|[{};=\[\],]|(\S)')


@_no_cyclic_gc
def parse_dot(text) -> Graph:
    def fail(tok, message):
        """Raise at the 1-based line and column of tok, a (text, offset) pair."""
        line_start = text.rfind("\n", 0, tok[1]) + 1
        raise ParseError(message, text.count("\n", 0, tok[1]) + 1, tok[1] - line_start + 1)

    tokens = []
    for match in _DOT_TOKEN.finditer(text):
        tok = (match.group(), match.start())
        if match.lastindex:  # the catch-all: no token starts here
            fail(tok, f"unexpected character {tok[0]!r}")
        tokens.append(tok)
    pos = 0

    def peek():
        return tokens[pos][0] if pos < len(tokens) else None

    def take():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def unquote(s):
        return s[1:-1].replace('\\"', '"').replace("\\\\", "\\") if s.startswith('"') else s

    if peek() == "strict":
        take()
    header = take() if peek() is not None else ("", len(text))
    if header[0] == "digraph":
        fail(header, "directed graphs are not supported")
    if header[0] != "graph":
        fail(header, f"expected 'graph', got {header[0]!r}")
    if peek() not in ("{", None):  # a header may end before its '{'; that fails below
        name_tok = take()
        if name_tok[0] in ("--", "->", ";", "}", "[", "]"):
            fail(name_tok, "expected a graph name or '{'")
    if peek() != "{":
        fail(tokens[pos] if pos < len(tokens) else ("", len(text)), "expected '{'")
    take()
    names = {}
    edges = []

    def vertex_id(tok):
        return names.setdefault(unquote(tok[0]), len(names))

    def skip_attrs():
        while peek() == "[":
            depth = 0
            while True:
                if peek() is None:
                    fail(tokens[-1], "unterminated attribute list")
                t = take()
                if t[0] == "[":
                    depth += 1
                elif t[0] == "]":
                    depth -= 1
                    if depth == 0:
                        break

    while True:
        tok = peek()
        if tok is None:
            fail(tokens[-1], "missing closing '}'")
        if tok == "}":
            take()
            break
        if tok == ";":
            take()
            continue
        t = take()
        if t[0] == "->":
            fail(t, "directed edges are not supported")
        if t[0] in ("{", "--", "=", "[", "]", ","):
            fail(t, f"unexpected {t[0]!r}")
        if t[0] in ("node", "edge", "graph") and peek() == "[":
            skip_attrs()
            continue
        if peek() == "=":  # bare key = value settings are ignored
            take()
            take()
            continue
        prev = vertex_id(t)
        skip_attrs()
        while peek() == "--":
            take()
            if peek() is None or peek() in ("{", "}", ";", "--", "[", "]"):
                fail(tokens[pos] if pos < len(tokens) else t, "dangling edge operator")
            nxt_tok = take()
            if nxt_tok[0] == "->":
                fail(nxt_tok, "directed edges are not supported")
            nxt = vertex_id(nxt_tok)
            if nxt == prev:
                fail(nxt_tok, "loop edge not allowed")
            edges.append((prev, nxt))
            prev = nxt
            skip_attrs()
    return Graph(len(names), edges, tuple(names) if names else None)


def parse_graph(text) -> Graph:
    """Parse edge-list or DOT input, sniffing the format from the first keyword."""
    head = text.lstrip()
    if head.startswith("strict ") or head.startswith("graph") or head.startswith("digraph"):
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
