"""The benchmark's tracer wraps pillarcost functions and methods by name."""
import ast
import importlib
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from pillarcost.core import Variant

ROOT = Path(__file__).resolve().parents[1]


def test_every_traced_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    tracing = importlib.import_module("tracing")
    for module, attr, _ in tracing.TRACED:
        # imports the module too: the package loads most of them on first use
        owner = importlib.import_module(f"pillarcost.{module}")
        *cls_name, name = attr.split(".")
        if cls_name:  # Tracer.install reads a method from its class __dict__
            owner = getattr(owner, cls_name[0])
        assert name in vars(owner), f"pillarcost.{module}.{attr}"
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()


def attribute_chains(path: Path):
    """(name, attributes) of each ``name.a.b`` read in ``path``; ``self.pc``
    is read as ``pc``."""
    for node in ast.walk(ast.parse(path.read_text())):
        attrs = []
        while isinstance(node, ast.Attribute):
            attrs.insert(0, node.attr)
            node = node.value
        if attrs and isinstance(node, ast.Name):
            if node.id == "self" and attrs[0] == "pc":
                yield "pc", attrs[1:]
            else:
                yield node.id, attrs


def test_every_name_the_benchmark_calls_resolves():
    """The package names that bench/workloads.py and bench/pin.py call on
    the package (``pc``), a graph, a report and a report row still exist."""
    import pillarcost as pc
    graph = pc.build_pointpillars(Variant.BASE)
    report = pc.graph_cost(graph)
    receivers = {"pc": pc, "graph": graph, "report": report, "c": report.per_node[0]}
    read = set()
    for name in ("workloads.py", "pin.py"):
        for receiver, attrs in attribute_chains(ROOT / "bench" / name):
            if receiver in receivers:
                value = receivers[receiver]
                for attr in attrs:
                    value = getattr(value, attr)
                read.add((receiver, *attrs))
    assert {("pc", "graph_cost"), ("pc", "Graph", "from_json"), ("graph", "to_json_dict"),
            ("report", "to_csv"), ("c", "params")} <= read


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
def test_one_add_node_and_one_shape_call_per_node(monkeypatch, variant):
    """The per-layer counts graph.add_node.calls, arch.nodes_built and
    shapes.node_output_shape.calls stay comparable across changes: a build
    appends each node either by one Graph.add_node call or as part of a
    Graph.repeat copy, and graph_cost calls shapes.node_output_shape once
    per distinct (spec object, input shapes)."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    tracing = importlib.import_module("tracing")
    arch, cost, graph_module, shapes = (importlib.import_module(f"pillarcost.{name}")
                                        for name in ("arch", "cost", "graph", "shapes"))
    copied = []  # nodes appended by each Graph.repeat call
    repeat = graph_module.Graph.repeat

    def counted_repeat(graph, *args):
        before = len(graph)
        last = repeat(graph, *args)
        copied.append(len(graph) - before)
        return last

    monkeypatch.setattr(graph_module.Graph, "repeat", counted_repeat)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        graph = arch.build_pointpillars(variant)
        built = Counter(span[0] for span in tracer.spans)
        cost.graph_cost(graph)
    finally:
        tracer.uninstall()
    costed = Counter(span[0] for span in tracer.spans) - built
    assert built == {"arch.build": 1, "graph.add_node": len(graph) - sum(copied)}
    assert tracer.counters["arch.nodes_built"] == len(graph)
    shape = shapes.infer_all(graph)
    specs, _, inputs = graph.columns()
    distinct = {(id(spec), tuple(shape[feed] for feed in feeds))
                for spec, feeds in zip(specs, inputs)}
    assert costed == {"cost.graph_cost": 1, "shapes.node_output_shape": len(distinct)}


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
def test_one_add_node_call_per_decoded_node(monkeypatch, variant):
    """graph.add_node.calls on graph-roundtrip stays comparable across
    changes: Graph.from_json builds through Graph.add_node, once per node."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    tracing = importlib.import_module("tracing")
    arch, graph_module = (importlib.import_module(f"pillarcost.{name}")
                          for name in ("arch", "graph"))
    text = arch.build_pointpillars(variant).to_json()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        graph = graph_module.Graph.from_json(text)
    finally:
        tracer.uninstall()
    assert Counter(span[0] for span in tracer.spans) == {
        "graph.from_json": 1, "graph.add_node": len(graph)}
    assert graph.to_json() == text


def test_importing_the_package_loads_analysis():
    # Tracer.install reads sys.modules["pillarcost.analysis"] right after
    # the package is imported
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, pillarcost; print('pillarcost.analysis' in sys.modules)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        timeout=60, check=True)
    assert proc.stdout.strip() == "True"
