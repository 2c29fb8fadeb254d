"""Exact multiply-add and parameter accounting over computation graphs.

All arithmetic is integer.  Display rounding is left to the reporting
layer.
"""
from __future__ import annotations

import csv
import io
from json.encoder import encode_basestring_ascii as _json_str
from typing import NamedTuple

from .core import Record
# ShapeError and ShapeInconsistent are re-exported
from .graph import BatchNorm, Graph, ShapeError, ShapeInconsistent
from .shapes import Key, walk_shapes


class NodeCost(NamedTuple):
    """One node's cost row.  A tuple: it compares equal to, and unpacks
    like, ``(name, kind, madds, params)``, the row ``to_csv`` writes."""

    name: str
    kind: str
    madds: int
    params: int


class CostReport(Record):
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
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(("name", "kind", "madds", "params"))
        writer.writerows(self.per_node)
        writer.writerow(("TOTAL", "", self.total_madds, self.total_params))
        return out.getvalue()

    def to_json(self) -> str:
        """Exactly ``json.dumps(doc, indent=2, sort_keys=True)`` of the
        document ``{"per_node": [{"name", "kind", "madds", "params"}, ...],
        "per_stage": {stage: {"madds", "params"}}, "total_madds",
        "total_params"}``, written directly as ``Graph.to_json`` is."""
        rows = ",\n".join(
            f'    {{\n      "kind": {_json_str(c.kind)},\n      "madds": {c.madds},\n'
            f'      "name": {_json_str(c.name)},\n      "params": {c.params}\n    }}'
            for c in self.per_node)
        stages = ",\n".join(
            f'    {_json_str(stage)}: {{\n      "madds": {madds},\n'
            f'      "params": {params}\n    }}'
            for stage, (madds, params) in sorted(self.per_stage().items()))
        rows = f"[\n{rows}\n  ]" if rows else "[]"
        stages = f"{{\n{stages}\n  }}" if stages else "{}"
        return (f'{{\n  "per_node": {rows},\n  "per_stage": {stages},\n'
                f'  "total_madds": {self.total_madds},\n'
                f'  "total_params": {self.total_params}\n}}')


def graph_cost(graph: Graph, count_batchnorm: bool = True) -> CostReport:
    """Cost every node of a valid single-input graph.

    ``count_batchnorm=False`` treats BatchNorm as folded into the preceding
    convolution (0 MAdd, 0 params).  Each distinct key of ``walk_shapes``
    is costed once per call.
    """
    rows: list[NodeCost] = []
    costs: dict[Key, tuple[str, int, int]] = {}  # (kind, madds, params) per key
    for (_, spec, name, _), key, out_shapes in walk_shapes(graph):
        cost = costs.get(key)
        if cost is None:
            if count_batchnorm or not isinstance(spec, BatchNorm):
                in_shapes = key[1]
                cost = (spec.kind, spec.madds(in_shapes, out_shapes), spec.params(in_shapes))
            else:
                cost = (spec.kind, 0, 0)
            costs[key] = cost
        rows.append(tuple.__new__(NodeCost, (name, *cost)))
    return CostReport(tuple(rows))
