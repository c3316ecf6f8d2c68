"""Spans around the package's public functions, installed from outside it.

`Tracer.installed(modules)` replaces each traced function in every
forestgraph module namespace that binds it (and wraps `Graph.__init__` and
`MaximalForest.__init__` on the classes), then restores the originals.  Each
call records a span (name, start, end, parent, op id) in flat arrays; self
time is a span's duration minus the time its child spans cover.  Counts are
read from arguments and return values.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array

CHECK_NAMES = ("forest_counts", "exchange_metric", "forest_graph_shape", "convergence",
               "stability", "root_exclusions", "whitney_invariance", "cycle_clique",
               "clique_path_swap", "triangle_grid")
FUNNEL = ("candidates", "connected", "isthmus_free", "count_match", "fgraph_built", "isomorphic")
LAYERS = ("graphs", "forests", "forest_graph", "dynamics", "roots", "io", "cli", "checks",
          "bench")


def _catalogue():
    """Every per-layer metric: (name, unit, better)."""
    out = []

    def add(prefix, *fields):
        for field in fields:
            unit = "s" if field.endswith("_s") else ("B" if field.startswith("bytes") else "count")
            better = "higher" if field in ("edges_out", "forests_out", "bytes_in", "bytes_out",
                                           "stdout_bytes") else "lower"
            out.append((f"{prefix}.{field}", unit, better))

    add("graphs.Graph", "calls", "edges_in", "busy_s")
    add("graphs.iso", "calls", "busy_s", "refused")
    add("graphs.canonical_labeling", "calls")
    add("graphs.cycles", "calls", "busy_s", "cycles_out")
    add("graphs.bridges", "busy_s")
    add("graphs.components", "calls", "busy_s")
    add("forests.count", "calls", "busy_s", "det_dim_sum", "det_dim_max")
    add("forests.enumerate", "calls", "self_s", "forests_out")
    add("forests.MaximalForest", "calls", "busy_s")
    add("forest_graph.build", "calls", "self_s", "edges_out")
    add("forest_graph.exchange_path", "calls", "busy_s")
    add("dynamics.classify", "calls", "self_s")
    add("dynamics.iterate", "calls", "self_s")
    add("roots.enumerate_graphs", "calls", "busy_s", "graphs_out")
    add("roots.find_roots", "calls", "self_s")
    add("roots.funnel", *FUNNEL)
    out.append(("roots.funnel.hit_ratio", "ratio", "higher"))
    add("io.parse", "calls", "bytes_in", "busy_s")
    add("io.format", "calls", "bytes_out", "busy_s")
    add("cli.main", "calls", "self_s", "stdout_bytes", "exit_nonzero")
    for name in CHECK_NAMES:
        add(f"checks.{name}", "busy_s")
    for layer in LAYERS:
        add(f"layer.{layer}", "self_s")
    out += [("trace.wall_s", "s", "lower"), ("trace.spans", "count", "lower"),
            ("trace.overhead_ratio", "ratio", "lower"), ("src.net_lines", "lines", "lower")]
    return out


CATALOGUE = _catalogue()


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.stack = []      # open frames: [span index, child time, name, outermost, info]
        self.depth = {}      # open spans per name, to count nested same-name calls once
        self.agg = {}        # name -> [outermost calls, busy (outermost), self]
        self.counts = {}
        self.op_id = -1

    # -- spans --------------------------------------------------------------

    def begin(self, name, info=None):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.agg[name] = [0, 0.0, 0.0]
            self.depth[name] = 0
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1][0] if self.stack else -1)
        self.span_op.append(self.op_id)
        self.span_end.append(0.0)
        outer = self.depth[name] == 0
        self.depth[name] += 1
        frame = [idx, 0.0, name, outer, info]
        self.stack.append(frame)
        self.span_start.append(time.perf_counter())
        return frame

    def finish(self, frame):
        """Close the innermost span; returns the parent frame or None."""
        end = time.perf_counter()
        idx, child, name, outer, _ = frame
        self.span_end[idx] = end
        self.stack.pop()
        duration = end - self.span_start[idx]
        self.depth[name] -= 1
        agg = self.agg[name]
        if outer:
            agg[0] += 1
            agg[1] += duration
        agg[2] += duration - child
        if self.stack:
            parent = self.stack[-1]
            parent[1] += duration
            return parent
        return None

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def high(self, key, value):
        if value > self.counts.get(key, 0):
            self.counts[key] = value

    def wrap(self, name, fn, after=None, before=None, on_error=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer.begin(name, before(args) if before else None)
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                parent = tracer.finish(frame)
                if on_error is not None:
                    on_error(err, parent)
                raise
            parent = tracer.finish(frame)
            if after is not None:
                after(args, result, parent, frame)
            return result

        return traced

    # -- installation -------------------------------------------------------

    @contextlib.contextmanager
    def installed(self, P):
        """Wrap the package's public functions for the duration of the block."""
        mods = [m for k, m in sys.modules.items()
                if m is not None and (k == "forestgraph" or k.startswith("forestgraph."))]
        undo = []
        for module, attr, wrapper in self._targets(P):
            original = getattr(module, attr, None)
            if original is None:
                continue
            traced = wrapper(original)
            for m in mods:
                if m.__dict__.get(attr) is original:
                    undo.append((m, attr, original))
                    setattr(m, attr, traced)
        for cls, name, after in ((P.graphs.Graph, "graphs.Graph", self._graph_after),
                                 (P.forests.MaximalForest, "forests.MaximalForest", None)):
            original = cls.__dict__["__init__"]
            undo.append((cls, "__init__", original))
            cls.__init__ = self.wrap(name, original, after)
        try:
            yield self
        finally:
            for target, attr, original in reversed(undo):
                setattr(target, attr, original)

    def _targets(self, P):
        w = self.wrap
        B = P.graphs.BudgetError

        def refused(err, parent):
            if isinstance(err, B):
                self.add("graphs.iso.refused", 1)

        targets = [
            (P.graphs, "find_isomorphism",
             lambda f: w("graphs.iso", f, self._iso_after, on_error=refused)),
            (P.graphs, "canonical_labeling", lambda f: w("graphs.canonical_labeling", f)),
            (P.graphs, "enumerate_cycles",
             lambda f: w("graphs.cycles", f,
                         lambda a, r, p, fr: self.add("graphs.cycles.cycles_out", len(r[0])))),
            (P.graphs, "find_long_cycle",
             lambda f: w("graphs.cycles", f,
                         lambda a, r, p, fr: self.add("graphs.cycles.cycles_out", r is not None))),
            (P.graphs, "bridges", lambda f: w("graphs.bridges", f)),
            (P.graphs, "components", lambda f: w("graphs.components", f, self._components_after)),
            (P.forests, "count_maximal_forests",
             lambda f: w("forests.count", f, self._count_after)),
            (P.forests, "maximal_forests",
             lambda f: w("forests.enumerate", f,
                         lambda a, r, p, fr: self.add("forests.enumerate.forests_out", len(r)))),
            (P.forest_graph, "build_forest_graph",
             lambda f: w("forest_graph.build", f, self._build_after)),
            (P.forest_graph, "exchange_path", lambda f: w("forest_graph.exchange_path", f)),
            (P.dynamics, "classify", lambda f: w("dynamics.classify", f)),
            (P.dynamics, "iterate_F", lambda f: w("dynamics.iterate", f)),
            (P.roots, "enumerate_graphs",
             lambda f: w("roots.enumerate_graphs", f, self._enum_graphs_after)),
            (P.roots, "find_roots",
             lambda f: w("roots.find_roots", f, before=lambda a: a[0].vertex_count)),
            (P.roots, "no_root_prune", lambda f: w("roots.no_root_prune", f)),
            (P.io, "format_edge_list", lambda f: w("io.format", f, self._format_after)),
            (P.io, "format_dot", lambda f: w("io.format", f, self._format_after)),
            (P.cli, "main",
             lambda f: w("cli.main", f,
                         lambda a, r, p, fr: self.add("cli.main.exit_nonzero", r != 0))),
        ]
        for attr in ("parse_graph", "parse_edge_list", "parse_dot"):
            targets.append((P.io, attr, lambda f: w("io.parse", f, self._parse_after)))
        for name in CHECK_NAMES:
            targets.append((P.checks, f"check_{name}",
                            lambda f, name=name: w(f"checks.{name}", f)))
        return targets

    # -- counters read from arguments and results -----------------------------

    @staticmethod
    def _in_roots(parent):
        return parent is not None and parent[2] == "roots.find_roots"

    def _graph_after(self, args, result, parent, frame):
        edges = args[2] if len(args) > 2 else ()
        self.add("graphs.Graph.edges_in",
                 len(edges) if hasattr(edges, "__len__") else len(args[0].edges))

    def _iso_after(self, args, result, parent, frame):
        if self._in_roots(parent) and result is not None:
            self.add("roots.funnel.isomorphic", 1)

    def _components_after(self, args, result, parent, frame):
        if self._in_roots(parent):
            self.add("roots.funnel.connected", len(result) == 1)

    def _count_after(self, args, result, parent, frame):
        g = args[0]
        dims = [len(c) - 1 for c in _components(g)]
        self.add("forests.count.det_dim_sum", sum(dims))
        self.high("forests.count.det_dim_max", max(dims, default=0))
        if self._in_roots(parent):
            self.add("roots.funnel.isthmus_free", 1)
            self.add("roots.funnel.count_match", result == parent[4])

    def _build_after(self, args, result, parent, frame):
        self.add("forest_graph.build.edges_out", len(result.graph.edges))
        if self._in_roots(parent):
            self.add("roots.funnel.fgraph_built", 1)

    def _enum_graphs_after(self, args, result, parent, frame):
        self.add("roots.enumerate_graphs.graphs_out", len(result))
        if self._in_roots(parent):
            self.add("roots.funnel.candidates", len(result))

    def _parse_after(self, args, result, parent, frame):
        if frame[3]:
            self.add("io.parse.bytes_in", len(args[0]))

    def _format_after(self, args, result, parent, frame):
        self.add("io.format.bytes_out", len(result))

    # -- results --------------------------------------------------------------

    def layer_self(self):
        out = {layer: 0.0 for layer in LAYERS}
        for name, (_, _, self_s) in self.agg.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + self_s
        return out

    def metrics(self, rounds, wall_s, overhead_ratio, src_lines):
        """Per-layer metrics, keyed as in CATALOGUE.

        Every round repeats the same operations, so times and counts are
        reported per traced round; ratios, maxima and line counts are not.
        """
        total = dict(self.counts)
        for name, (calls, busy, self_s) in self.agg.items():
            total[f"{name}.calls"] = calls
            total[f"{name}.busy_s"] = busy
            total[f"{name}.self_s"] = self_s
        for layer, self_s in self.layer_self().items():
            total[f"layer.{layer}.self_s"] = self_s
        total["trace.spans"] = len(self.span_name)
        total["trace.wall_s"] = wall_s
        values = {name: total.get(name, 0) / rounds for name, _, _ in CATALOGUE}
        built = total.get("roots.funnel.fgraph_built", 0)
        values["roots.funnel.hit_ratio"] = (total.get("roots.funnel.isomorphic", 0) / built
                                            if built else 0.0)
        values["forests.count.det_dim_max"] = total.get("forests.count.det_dim_max", 0)
        values["trace.overhead_ratio"] = overhead_ratio
        values["src.net_lines"] = src_lines
        return {name: {"value": values[name], "unit": unit} for name, unit, _ in CATALOGUE}

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as out:
            out.write("name\tstart\tend\tparent\top\n")
            for i in range(len(self.span_name)):
                out.write(f"{self.names[self.span_name[i]]}\t{self.span_start[i]:.9f}\t"
                          f"{self.span_end[i]:.9f}\t{self.span_parent[i]}\t{self.span_op[i]}\n")


def _components(g):
    """Component sizes of a package Graph, read from its edge list."""
    parent = list(range(g.vertex_count))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in g.edges:
        parent[find(u)] = find(v)
    groups = {}
    for v in range(g.vertex_count):
        groups.setdefault(find(v), []).append(v)
    return list(groups.values())
