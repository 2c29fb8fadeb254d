"""Exact multiply-add and parameter accounting over computation graphs.

All arithmetic is integer; ratios are exact fractions.  Display rounding is
left to the reporting layer.
"""
from __future__ import annotations

import io
import json
from dataclasses import dataclass
from fractions import Fraction

from .graph import (
    BatchNorm, Conv, Graph, NodeSpec, TensorShape, TransposedConv,
)
from .shapes import ShapeError, walk_shapes


class ShapeInconsistent(ShapeError):
    code = "ShapeInconsistent"


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise ShapeInconsistent(message)


def node_madds(spec: NodeSpec, input_shapes: list[TensorShape],
               output_shapes: list[TensorShape]) -> int:
    """Multiply-add count of one node.

    Convolutions count one MAdd per kernel tap per output element; a
    transposed convolution counts one per kernel tap per *input* element
    (each input pixel is multiplied by the full kernel before the strided
    scatter-add).  BatchNorm counts one fused scale-and-shift per element.
    Everything else is MAdd-free.
    """
    if isinstance(spec, Conv):
        _check(len(input_shapes) == 1 and len(output_shapes) == 1,
               "conv takes one input and one output")
        (si,), (so,) = input_shapes, output_shapes
        _check(so.channels == spec.out_channels, "conv output channels mismatch")
        _check(si.channels % spec.groups == 0, "conv group mismatch")
        macs = (so.channels * (si.channels // spec.groups)
                * spec.kernel_h * spec.kernel_w * so.pixels)
        if spec.has_bias:
            macs += so.channels * so.pixels
        return macs

    if isinstance(spec, TransposedConv):
        _check(len(input_shapes) == 1 and len(output_shapes) == 1,
               "transposed conv takes one input and one output")
        (si,), (so,) = input_shapes, output_shapes
        _check(so.channels == spec.out_channels,
               "transposed conv output channels mismatch")
        _check(si.channels % spec.groups == 0, "transposed conv group mismatch")
        macs = (so.channels * (si.channels // spec.groups)
                * spec.kernel_h * spec.kernel_w * si.pixels)
        if spec.has_bias:
            macs += so.channels * so.pixels
        return macs

    if isinstance(spec, BatchNorm):
        _check(len(output_shapes) == 1, "batch norm has one output")
        (so,) = output_shapes
        return so.channels * so.pixels

    return 0


def node_params(spec: NodeSpec, input_shapes: list[TensorShape]) -> int:
    """Learnable parameter count of one node."""
    if isinstance(spec, (Conv, TransposedConv)):
        _check(len(input_shapes) == 1, "conv takes one input")
        (si,) = input_shapes
        _check(si.channels % spec.groups == 0, "conv group mismatch")
        count = (spec.out_channels * (si.channels // spec.groups)
                 * spec.kernel_h * spec.kernel_w)
        if spec.has_bias:
            count += spec.out_channels
        return count
    if isinstance(spec, BatchNorm):
        (si,) = input_shapes
        return 2 * si.channels  # scale and shift per channel
    return 0


@dataclass(frozen=True)
class NodeCost:
    name: str
    kind: str
    madds: int
    params: int


@dataclass(frozen=True)
class CostReport:
    """Per-node costs in topological order, plus aggregates."""

    per_node: tuple[NodeCost, ...]

    @property
    def total_madds(self) -> int:
        return sum(c.madds for c in self.per_node)

    @property
    def total_params(self) -> int:
        return sum(c.params for c in self.per_node)

    def per_stage(self) -> dict[str, tuple[int, int]]:
        """Aggregate by the leading dotted-name component (e.g. 'backbone')."""
        stages: dict[str, tuple[int, int]] = {}
        for cost in self.per_node:
            stage = cost.name.split(".", 1)[0]
            madds, params = stages.get(stage, (0, 0))
            stages[stage] = (madds + cost.madds, params + cost.params)
        return stages

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("name,kind,madds,params\n")
        for cost in self.per_node:
            out.write(f"{cost.name},{cost.kind},{cost.madds},{cost.params}\n")
        out.write(f"TOTAL,,{self.total_madds},{self.total_params}\n")
        return out.getvalue()

    def to_json(self) -> str:
        doc = {
            "per_node": [
                {"name": c.name, "kind": c.kind, "madds": c.madds, "params": c.params}
                for c in self.per_node
            ],
            "per_stage": {
                stage: {"madds": madds, "params": params}
                for stage, (madds, params) in sorted(self.per_stage().items())
            },
            "total_madds": self.total_madds,
            "total_params": self.total_params,
        }
        return json.dumps(doc, indent=2, sort_keys=True)


def graph_cost(graph: Graph, count_batchnorm: bool = True) -> CostReport:
    """Cost every node of a valid single-input graph.

    ``count_batchnorm=False`` treats BatchNorm as folded into the preceding
    convolution (0 MAdd, 0 params).
    """
    rows: list[NodeCost] = []
    for node, in_shapes, out_shapes in walk_shapes(graph):
        if not count_batchnorm and isinstance(node.spec, BatchNorm):
            rows.append(NodeCost(node.name, node.spec.kind, 0, 0))
            continue
        rows.append(NodeCost(node.name, node.spec.kind,
                             node_madds(node.spec, in_shapes, out_shapes),
                             node_params(node.spec, in_shapes)))
    return CostReport(tuple(rows))


def speedup_vs_base(base: CostReport, other: CostReport) -> Fraction:
    """Exact MAdd ratio base/other (>1 means 'other' is cheaper)."""
    if other.total_madds == 0:
        raise ZeroDivisionError("cannot compute speedup against 0 MAdds")
    return Fraction(base.total_madds, other.total_madds)
