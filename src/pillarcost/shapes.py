"""Shape inference over whole graphs.

Each node kind's shape rule is its spec's ``output_shapes`` in ``graph``.
``walk_shapes`` validates a graph once and yields every node with its input
and output shapes in topological order, and ``infer_all`` collects them into
a total map from (node id, output port) to TensorShape.
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
    """Validate a single-input graph once, then yield (node, input shapes,
    output shapes) for every node in id order, which is topological."""
    problems = graph.validate()
    if problems:
        raise InvalidGraphError("; ".join(d.message for d in problems))
    if len(graph.input_nodes()) != 1:
        raise InvalidGraphError(
            f"shape inference needs exactly one input node, "
            f"found {len(graph.input_nodes())}")

    outputs: list[list[TensorShape]] = []
    for node, sources in zip(graph.nodes, graph.input_table()):
        in_shapes = [outputs[src][port] for src, port in sources]
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
