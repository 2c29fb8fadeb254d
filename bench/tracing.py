"""Spans around pillarcost's public functions, installed at run time.

``Tracer.install()`` replaces each traced function with a wrapper in the
module or class that defines it and in every pillarcost module that bound
it by name at import time (``cost`` imports ``infer_all`` and
``node_output_shape``, ``cli`` imports ``graph_cost`` and so on), so a call
through either name is recorded.  No file of the package is edited, and
``uninstall()`` restores the originals.

A span is ``[name, start, end, parent]``, with times from
``time.perf_counter`` and ``parent`` the index of the enclosing span or -1.
Spans stay in memory until the run ends.  A span's self time is its
duration minus the durations of its direct children.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
import weakref
from collections import Counter

# (module, attribute or Class.attribute, span name)
TRACED = (
    ("arch", "build_pointpillars", "arch.build"),
    ("graph", "Graph.add_node", "graph.add_node"),
    ("graph", "Graph.inputs_of", "graph.inputs_of"),
    ("graph", "Graph.validate", "graph.validate"),
    ("graph", "Graph.topo_order", "graph.topo_order"),
    ("graph", "Graph.to_json", "graph.to_json"),
    ("graph", "Graph.from_json", "graph.from_json"),
    ("shapes", "infer_all", "shapes.infer_all"),
    ("shapes", "node_output_shape", "shapes.node_output_shape"),
    ("cost", "graph_cost", "cost.graph_cost"),
    ("cost", "CostReport.to_csv", "cost.render"),
    ("cost", "CostReport.to_json", "cost.render"),
    ("cost", "CostReport.per_stage", "cost.render"),
    ("analysis", "TimingProfile.from_file", "analysis.TimingProfile.from_file"),
    ("svg", "render_scatter", "svg.render_scatter"),
    ("cli", "run", "cli.run"),
)


def _edge_count(tracer: "Tracer", graph) -> int:
    # graphs are append-only, so the edge count only changes with the node count
    nodes = len(graph)
    cached = tracer._edges.get(graph)
    if cached is None or cached[0] != nodes:
        cached = tracer._edges[graph] = (nodes, len(graph.edges))
    return cached[1]


# counters taken after a call returns, outside its span
_HOOKS = {
    "graph.inputs_of": lambda t, args, out: t.counters.update(
        {"graph.edges_scanned": _edge_count(t, args[0])}),
    "graph.to_json": lambda t, args, out: t.counters.update({"graph.json_bytes": len(out)}),
    "arch.build": lambda t, args, out: t.counters.update({"arch.nodes_built": len(out)}),
    "svg.render_scatter": lambda t, args, out: t.counters.update(
        {"svg.bytes": len(out.encode())}),
}


def _package_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if name == "pillarcost" or name.startswith("pillarcost.")]


def _targets() -> list[tuple[str, str, str]]:
    """TRACED plus every public function that ``analysis`` defines."""
    targets = list(TRACED)
    analysis = sys.modules["pillarcost.analysis"]
    for attr, value in sorted(vars(analysis).items()):
        if (inspect.isfunction(value) and value.__module__ == analysis.__name__
                and not attr.startswith("_")):
            targets.append(("analysis", attr, f"analysis.{attr}"))
    return targets


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._edges: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        """``fn`` with a span named ``name`` recorded around each call."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, out)
            return out
        return traced

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every target of the pillarcost modules imported so far."""
        modules = _package_modules()
        for mod_name, attr, span_name in _targets():
            mod = sys.modules.get(f"pillarcost.{mod_name}")
            if mod is None:
                continue
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[method]
                if isinstance(raw, classmethod):
                    self._replace(cls, method, classmethod(self.wrap(span_name, raw.__func__)))
                else:
                    self._replace(cls, method, self.wrap(span_name, raw))
                continue
            original = getattr(mod, attr)
            wrapper = self.wrap(span_name, original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, name, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def self_times(spans: list) -> dict[str, tuple[int, float]]:
    """Span name -> (calls, total self time in seconds)."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    out: dict[str, tuple[int, float]] = {}
    for (name, *_), self_s in zip(spans, own):
        calls, total = out.get(name, (0, 0.0))
        out[name] = (calls + 1, total + self_s)
    return out
