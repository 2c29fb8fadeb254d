"""Output shape computation for every node kind.

All functions are pure; ``walk_shapes`` validates a graph once and yields
every node with its input and output shapes in topological order, and
``infer_all`` collects them into a total map from (node id, output port) to
TensorShape.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from .graph import (
    Add, BatchNorm, ChannelShuffle, ChannelSplit, Concat, Conv, Graph, Input,
    InvalidGraphError, MaxPool, Node, NodeSpec, ReLU, Scatter, TensorShape,
    TransposedConv,
)


class ShapeError(Exception):
    """A node's input shapes violate its kind constraints."""

    code = "ShapeError"


class GroupMismatch(ShapeError):
    code = "GroupMismatch"


class AddShapeMismatch(ShapeError):
    code = "AddShapeMismatch"


class ConcatSpatialMismatch(ShapeError):
    code = "ConcatSpatialMismatch"


class NonIntegralSplit(ShapeError):
    code = "NonIntegralSplit"


class ShuffleGroupMismatch(ShapeError):
    code = "ShuffleGroupMismatch"


class NegativeOutputDim(ShapeError):
    code = "NegativeOutputDim"


def _window_out(size: int, pad: int, kernel: int, stride: int, what: str) -> int:
    out = (size + 2 * pad - kernel) // stride + 1
    if out < 1:
        raise NegativeOutputDim(
            f"{what}: window (k={kernel}, s={stride}, p={pad}) over size {size} "
            f"yields output dim {out}")
    return out


def node_output_shape(spec: NodeSpec,
                      input_shapes: list[TensorShape]) -> list[TensorShape]:
    """Output shape per output port, given input shapes in port order."""
    if isinstance(spec, Input):
        return [spec.shape]

    if isinstance(spec, Conv):
        (s,) = input_shapes
        if s.channels % spec.groups or spec.out_channels % spec.groups:
            raise GroupMismatch(
                f"conv channels ({s.channels} -> {spec.out_channels}) not "
                f"divisible by groups={spec.groups}")
        h = _window_out(s.height, spec.pad_h, spec.kernel_h, spec.stride_h, "conv height")
        w = _window_out(s.width, spec.pad_w, spec.kernel_w, spec.stride_w, "conv width")
        return [TensorShape(spec.out_channels, h, w)]

    if isinstance(spec, TransposedConv):
        (s,) = input_shapes
        if s.channels % spec.groups or spec.out_channels % spec.groups:
            raise GroupMismatch(
                f"transposed conv channels ({s.channels} -> {spec.out_channels}) "
                f"not divisible by groups={spec.groups}")
        h = (s.height - 1) * spec.stride_h - 2 * spec.pad_h + spec.kernel_h + spec.output_pad_h
        w = (s.width - 1) * spec.stride_w - 2 * spec.pad_w + spec.kernel_w + spec.output_pad_w
        if h < 1 or w < 1:
            raise NegativeOutputDim(f"transposed conv output dims {h}x{w}")
        return [TensorShape(spec.out_channels, h, w)]

    if isinstance(spec, MaxPool):
        (s,) = input_shapes
        h = _window_out(s.height, spec.pad_h, spec.kernel_h, spec.stride_h, "pool height")
        w = _window_out(s.width, spec.pad_w, spec.kernel_w, spec.stride_w, "pool width")
        return [TensorShape(s.channels, h, w)]

    if isinstance(spec, (BatchNorm, ReLU)):
        (s,) = input_shapes
        return [s]

    if isinstance(spec, ChannelShuffle):
        (s,) = input_shapes
        if s.channels % spec.groups:
            raise ShuffleGroupMismatch(
                f"{s.channels} channels not divisible by shuffle groups={spec.groups}")
        return [s]

    if isinstance(spec, Add):
        first = input_shapes[0]
        for other in input_shapes[1:]:
            if other != first:
                raise AddShapeMismatch(f"add inputs differ: {first} vs {other}")
        return [first]

    if isinstance(spec, Concat):
        first = input_shapes[0]
        for other in input_shapes[1:]:
            if (other.height, other.width) != (first.height, first.width):
                raise ConcatSpatialMismatch(
                    f"concat spatial dims differ: {first} vs {other}")
        return [TensorShape(sum(s.channels for s in input_shapes),
                            first.height, first.width)]

    if isinstance(spec, ChannelSplit):
        (s,) = input_shapes
        outs = []
        for frac in spec.fractions:
            part = Fraction(s.channels) * frac
            if part.denominator != 1:
                raise NonIntegralSplit(
                    f"fraction {frac} of {s.channels} channels is not integral")
            outs.append(TensorShape(int(part), s.height, s.width))
        return outs

    if isinstance(spec, Scatter):
        (s,) = input_shapes
        return [TensorShape(s.channels, spec.out_height, spec.out_width)]

    raise TypeError(f"unknown node spec {spec!r}")


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
