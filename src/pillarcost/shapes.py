"""Shape inference over whole graphs.

Each node kind's shape rule is its spec's ``output_shapes`` in ``graph``.
``walk_shapes`` yields every node of a graph with its input and output
shapes in topological order, reading each node's inputs off the node, and
``infer_all`` collects them into a total map from (node id, output port) to
TensorShape.  A graph is valid by construction, so neither re-checks it.
"""
from __future__ import annotations

from typing import Iterator

from .graph import (  # the ShapeError family is re-exported from here
    AddShapeMismatch, ConcatSpatialMismatch, Graph, GroupMismatch,
    InvalidGraphError, NegativeOutputDim, Node, NodeSpec, NonIntegralSplit,
    ShapeError, ShuffleGroupMismatch, TensorShape,
)


def node_output_shape(spec: NodeSpec,
                      input_shapes: list[TensorShape]) -> list[TensorShape]:
    """Output shape per output port, given input shapes in port order."""
    return spec.output_shapes(input_shapes)


ShapeMap = dict[tuple[int, int], TensorShape]


def walk_shapes(graph: Graph) -> Iterator[
        tuple[Node, list[TensorShape], list[TensorShape]]]:
    """Yield (node, input shapes, output shapes) for every node of a
    single-input graph in id order, which is topological."""
    inputs = len(graph.input_nodes())
    if inputs != 1:
        raise InvalidGraphError(
            f"shape inference needs exactly one input node, found {inputs}")

    outputs: list[list[TensorShape]] = []
    for node in graph.nodes:
        in_shapes = [outputs[src][port] for src, port in node.inputs]
        try:
            out_shapes = node_output_shape(node.spec, in_shapes)
        except ShapeError as err:
            raise type(err)(f"{node.name}: {err}") from err
        outputs.append(out_shapes)
        yield node, in_shapes, out_shapes


def infer_all(graph: Graph) -> ShapeMap:
    """Infer the shape at every (node, output port) of a valid graph."""
    return {(node.id, port): shape
            for node, _, out_shapes in walk_shapes(graph)
            for port, shape in enumerate(out_shapes)}
