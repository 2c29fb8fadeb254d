"""Shape inference over whole graphs.

Each node kind's shape rule is its spec's ``output_shapes`` in ``graph``.
``walk_shapes`` yields every node of a graph with its input and output
shapes in topological order, reading each node's inputs off the node and
computing the output shapes once per distinct spec and input shapes, and
``infer_all`` collects them into a total map from (node id, output port) to
TensorShape.  A graph is valid by construction, so neither re-checks it.
"""
from __future__ import annotations

from typing import Iterator

from .graph import Graph, GraphError, Node, NodeSpec, ShapeError, TensorShape


def node_output_shape(spec: NodeSpec,
                      input_shapes: list[TensorShape]) -> list[TensorShape]:
    """Output shape per output port, given input shapes in port order."""
    return spec.output_shapes(input_shapes)


ShapeMap = dict[tuple[int, int], TensorShape]
# (id of a node's spec, the node's input shapes in port order)
Key = tuple[int, tuple[TensorShape, ...]]


def walk_shapes(graph: Graph) -> Iterator[
        tuple[Node, Key, list[TensorShape]]]:
    """Yield (node, key, output shapes) for every node of a single-input
    graph in id order, which is topological.

    ``key`` is ``(id(node.spec), input shapes)``, the input shapes a tuple in
    port order.  Nodes with equal keys have equal outputs and costs, so the
    output shapes are computed once per key and the list is shared between
    them; the table goes when the walk does.
    """
    inputs = len(graph.input_nodes())
    if inputs != 1:
        raise GraphError(f"shape inference needs exactly one input node, found {inputs}")

    outputs: list[list[TensorShape]] = []
    known: dict[Key, list[TensorShape]] = {}
    for node in graph.nodes:
        feeds = node.inputs
        if len(feeds) == 1:
            ((src, port),) = feeds
            key = (id(node.spec), (outputs[src][port],))
        else:
            key = (id(node.spec), tuple([outputs[src][port] for src, port in feeds]))
        out_shapes = known.get(key)
        if out_shapes is None:
            try:
                out_shapes = known[key] = node_output_shape(node.spec, key[1])
            except ShapeError as err:
                raise ShapeError(f"{node.name}: {err}") from err
        outputs.append(out_shapes)
        yield node, key, out_shapes


def infer_all(graph: Graph) -> ShapeMap:
    """Infer the shape at every (node, output port) of a valid graph."""
    return {(node.id, port): shape
            for node, _, out_shapes in walk_shapes(graph)
            for port, shape in enumerate(out_shapes)}
