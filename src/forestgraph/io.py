"""Text formats: the edge-list format and a DOT subset.

Edge-list input is one edge per line as two whitespace-separated vertex
tokens; lines starting with '#' are ignored, and the first data line may be a
header "vertices N" declaring extra isolated vertices.  Tokens map to dense
indices in first-seen order and the names stick to the graph.  The DOT subset
accepts `graph NAME? { a -- b; ... }` with attribute brackets ignored.
"""

from __future__ import annotations

import re

from .graphs import Graph

HEADER_VERTEX_LIMIT = 10**6


class ParseError(ValueError):
    """Input text rejected; carries 1-based line and column."""

    def __init__(self, message, line, column):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def parse_edge_list(text) -> Graph:
    names = {}
    order = []
    edges = []
    declared = None
    saw_data = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        tokens = line.split()
        if not saw_data and len(tokens) == 2 and tokens[0] == "vertices":
            column = line.index(tokens[1]) + 1
            if not tokens[1].isdecimal():
                raise ParseError(f"vertex count {tokens[1]!r} is not a number", lineno, column)
            # int() refuses strings of over 4300 digits, so compare lengths first
            count = tokens[1].lstrip("0") or "0"
            if len(count) > len(str(HEADER_VERTEX_LIMIT)) or int(count) > HEADER_VERTEX_LIMIT:
                raise ParseError(f"header declares more than {HEADER_VERTEX_LIMIT} vertices",
                                 lineno, column)
            declared = int(count)
            saw_data = True
            continue
        saw_data = True
        if len(tokens) != 2:
            col = 1 if not tokens else line.index(tokens[2 if len(tokens) > 2 else 0]) + 1
            raise ParseError(f"expected two vertex tokens, got {len(tokens)}", lineno, col)
        pair = []
        for tok in tokens:
            if tok not in names:
                names[tok] = len(order)
                order.append(tok)
            pair.append(names[tok])
        if pair[0] == pair[1]:
            raise ParseError(f"loop edge at {tokens[0]!r} not allowed",
                             lineno, line.index(tokens[0]) + 1)
        edges.append((pair[0], pair[1]))
    n = len(order)
    if declared is not None:
        if declared < n:
            raise ParseError(f"header declares {declared} vertices but "
                             f"{n} distinct tokens appear", 1, 1)
        n = declared
    vertex_names = tuple(order) + tuple(str(i) for i in range(len(order), n))
    return Graph(n, edges, vertex_names if n else None)


_DOT_TOKEN = re.compile(r'[A-Za-z0-9_.]+|"(?:[^"\\]|\\.)*"|--|->|[{};=\[\],]')


def parse_dot(text) -> Graph:
    tokens = []
    for match in _DOT_TOKEN.finditer(text):
        upto = text[:match.start()]
        line = upto.count("\n") + 1
        column = match.start() - (upto.rfind("\n") + 1) + 1
        tokens.append((match.group(), line, column))
    leftover = _DOT_TOKEN.sub(lambda m: " " * len(m.group()), text)
    for i, ch in enumerate(leftover):
        if not ch.isspace():
            upto = leftover[:i]
            raise ParseError(f"unexpected character {ch!r}",
                             upto.count("\n") + 1, i - (upto.rfind("\n") + 1) + 1)
    pos = 0

    def peek():
        return tokens[pos][0] if pos < len(tokens) else None

    def take():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def fail(tok, message):
        raise ParseError(message, tok[1], tok[2])

    def unquote(s):
        return s[1:-1].replace('\\"', '"').replace("\\\\", "\\") if s.startswith('"') else s

    if peek() == "strict":
        take()
    header = take() if tokens else ("", 1, 1)
    if header[0] == "digraph":
        fail(header, "directed graphs are not supported")
    if header[0] != "graph":
        fail(header, f"expected 'graph', got {header[0]!r}")
    if peek() not in ("{",):
        name_tok = take()
        if name_tok[0] in ("--", "->", ";", "}", "[", "]"):
            fail(name_tok, "expected a graph name or '{'")
    if peek() != "{":
        fail(tokens[pos] if pos < len(tokens) else ("", 1, 1), "expected '{'")
    take()
    names = {}
    order = []
    edges = []

    def vertex_id(tok):
        word = unquote(tok[0])
        if word not in names:
            names[word] = len(order)
            order.append(word)
        return names[word]

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
            raise ParseError("missing closing '}'", tokens[-1][1], tokens[-1][2])
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
    return Graph(len(order), edges, tuple(order) if order else None)


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
