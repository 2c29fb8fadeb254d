"""Shape inference over whole graphs.

Each node kind's shape rule is its spec's ``output_shapes`` in ``graph``.
``shape_table`` walks a graph's columns (``Graph.columns``) once, in id
order, which is topological, and computes the output shapes once per
entry: a distinct spec object at distinct input shapes.  It returns the
entry of each node and the entries, which ``infer_all`` turns into a total
map from (node id, output port) to TensorShape and ``cost.graph_cost``
costs.  A graph is valid by construction, so neither re-checks it.
"""
from __future__ import annotations

from .graph import Graph, GraphError, NodeSpec, ShapeError, TensorShape


def node_output_shape(spec: NodeSpec,
                      input_shapes: list[TensorShape]) -> list[TensorShape]:
    """Output shape per output port, given input shapes in port order."""
    return spec.output_shapes(input_shapes)


ShapeMap = dict[tuple[int, int], TensorShape]
# (spec, input shapes in port order, output shapes in port order)
Entry = tuple[NodeSpec, tuple[TensorShape, ...], list[TensorShape]]


def shape_table(graph: Graph) -> tuple[list[int], list[Entry]]:
    """(entry index per node id, entries) of a single-input graph.

    There is one entry per distinct (spec object, input shapes), in the
    order of the first node that has it.  A one-input node is looked up by
    ``(id(spec), shape)``, with no 1-tuple, and any other by ``(id(spec),
    shapes)``; the two never compare equal, as a shape holds ints and
    ``shapes`` holds shapes.  Nodes that share an entry have equal outputs
    and costs, so each entry's output shapes are computed once.  A graph
    without exactly one ``Input`` raises GraphError, before any ShapeError;
    else a ShapeError names the first node whose shapes fail.
    """
    index: list[int] = []
    entries: list[Entry] = []
    outputs: list[list[TensorShape]] = []  # per node id
    known: dict[tuple[int, tuple], int] = {}  # (id(spec), shape or shapes) -> entry
    specs, names, inputs = graph.columns()
    count = inputs.count(())  # only an Input takes no inputs
    if count != 1:
        raise GraphError(f"shape inference needs exactly one input node, found {count}")
    for spec, name, feeds in zip(specs, names, inputs):
        if len(feeds) == 1:
            ((src, port),) = feeds
            key = (id(spec), outputs[src][port])
        else:
            key = (id(spec), tuple([outputs[src][port] for src, port in feeds]))
        at = known.get(key)
        if at is None:
            in_shapes = (key[1],) if len(feeds) == 1 else key[1]
            try:
                out_shapes = node_output_shape(spec, in_shapes)
            except ShapeError as err:
                raise ShapeError(f"{name}: {err}") from err
            at = known[key] = len(entries)
            entries.append((spec, in_shapes, out_shapes))
        index.append(at)
        outputs.append(entries[at][2])
    return index, entries


def infer_all(graph: Graph) -> ShapeMap:
    """Infer the shape at every (node, output port) of a valid graph."""
    index, entries = shape_table(graph)
    return {(node_id, port): shape
            for node_id, at in enumerate(index)
            for port, shape in enumerate(entries[at][2])}
