"""Exact multiply-add and parameter accounting over computation graphs.

All arithmetic is integer.  Display rounding is left to the reporting
layer.
"""
from __future__ import annotations

from itertools import repeat
from json.encoder import encode_basestring_ascii as _json_str
from operator import itemgetter
from typing import NamedTuple

from .core import Record, _csv_field, _set
from .graph import BatchNorm, Graph
from .shapes import shape_table


class NodeCost(NamedTuple):
    """One node's cost row.  A tuple: it compares equal to, and unpacks
    like, ``(name, kind, madds, params)``, the row ``to_csv`` writes."""

    name: str
    kind: str
    madds: int
    params: int


class CostReport(Record):
    """Per-node costs in topological order, as four columns of one length
    (node ``i`` is item ``i`` of each), plus aggregates.

    The per-stage sums are made on first use and kept beside the fields, so
    every aggregate and writer reads them; they are not a field, so ``==``,
    ``hash``, ``repr``, pickling and ``_replace`` do not see them.
    """

    names: tuple[str, ...]
    kinds: tuple[str, ...]
    madds: tuple[int, ...]
    params: tuple[int, ...]

    def __post_init__(self) -> None:
        lengths = [len(column) for column in self._values()]
        if len(set(lengths)) > 1:  # zip would drop the rows past the shortest
            raise ValueError("cost columns differ in length: " + ", ".join(
                [f"{name} {length}" for name, length in zip(self._fields, lengths)]))

    @property
    def per_node(self) -> tuple[NodeCost, ...]:
        """A ``NodeCost`` row per node, made from the columns on each call."""
        return tuple(map(tuple.__new__, repeat(NodeCost), zip(*self._values())))

    def _sums(self) -> tuple[dict[str, tuple[int, int]], int, int]:
        """(per-stage (madds, params), total madds, total params), kept."""
        sums = getattr(self, "_kept_sums", None)
        if sums is None:
            stages: dict[str, tuple[int, int]] = {}
            for name, madds, params in zip(self.names, self.madds, self.params):
                stage = name.partition(".")[0]
                stage_madds, stage_params = stages.get(stage, (0, 0))
                stages[stage] = (stage_madds + madds, stage_params + params)
            sums = (stages, sum([madds for madds, _ in stages.values()]),
                    sum([params for _, params in stages.values()]))
            _set(self, "_kept_sums", sums)
        return sums

    @property
    def total_madds(self) -> int:
        return self._sums()[1]

    @property
    def total_params(self) -> int:
        return self._sums()[2]

    def per_stage(self) -> dict[str, tuple[int, int]]:
        """Aggregate by the leading dotted-name component (e.g. 'backbone');
        a fresh dict per call."""
        return dict(self._sums()[0])

    def to_csv(self) -> str:
        """The header, one row per node and the TOTAL row, each field
        written by ``_csv_field`` and each row ended by a newline."""
        _, madds, params = self._sums()
        rows = [f"{_csv_field(name)},{kind},{node_madds},{node_params}\n"
                for name, kind, node_madds, node_params in zip(*self._values())]
        return f"name,kind,madds,params\n{''.join(rows)}TOTAL,,{madds},{params}\n"

    def to_json(self) -> str:
        """Exactly ``json.dumps(doc, indent=2, sort_keys=True)`` of the
        document ``{"per_node": [{"name", "kind", "madds", "params"}, ...],
        "per_stage": {stage: {"madds", "params"}}, "total_madds",
        "total_params"}``, written directly as ``Graph.to_json`` is."""
        stages, madds, params = self._sums()
        rows = ",\n".join([
            f'    {{\n      "kind": {_json_str(kind)},\n      "madds": {node_madds},\n'
            f'      "name": {_json_str(name)},\n      "params": {node_params}\n    }}'
            for name, kind, node_madds, node_params in zip(*self._values())])
        stages = ",\n".join([
            f'    {_json_str(stage)}: {{\n      "madds": {stage_madds},\n'
            f'      "params": {stage_params}\n    }}'
            for stage, (stage_madds, stage_params) in sorted(stages.items())])
        rows = f"[\n{rows}\n  ]" if rows else "[]"
        stages = f"{{\n{stages}\n  }}" if stages else "{}"
        return (f'{{\n  "per_node": {rows},\n  "per_stage": {stages},\n'
                f'  "total_madds": {madds},\n  "total_params": {params}\n}}')


def graph_cost(graph: Graph, count_batchnorm: bool = True) -> CostReport:
    """Cost every node of a valid single-input graph.

    ``count_batchnorm=False`` treats BatchNorm as folded into the preceding
    convolution (0 MAdd, 0 params).  Each entry of ``shape_table`` is costed
    once per call, at its own output shapes, and each column is picked from
    the entries by the entry index, with no Python loop over the nodes.
    """
    index, entries = shape_table(graph)
    kinds, madds, params = zip(*[
        (spec.kind, *spec.cost(in_shapes, out_shapes))
        if count_batchnorm or not isinstance(spec, BatchNorm) else (spec.kind, 0, 0)
        for spec, in_shapes, out_shapes in entries])
    # each node's entry's values; the extra item, sliced off, keeps the
    # result a tuple for a one-node graph
    pick = itemgetter(*index, 0)
    return CostReport(graph.columns()[1], pick(kinds)[:-1], pick(madds)[:-1],
                      pick(params)[:-1])
