"""Typed DAG representation of 2D convolutional network structure.

Nodes carry layer attributes only (no tensors, no weights); edges connect
producer output ports to consumer input ports.  Graphs are append-only
during construction and treated as immutable afterwards.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import ClassVar, Union


class GraphError(Exception):
    """Base class for structural graph errors."""


class UnknownInputError(GraphError):
    """An edge references a node id that does not exist."""


class ArityMismatchError(GraphError):
    """A node was given the wrong number of inputs for its kind."""


class DuplicateNameError(GraphError):
    """Two nodes in the same graph share a name."""


class InvalidGraphError(GraphError):
    """An operation requiring a valid graph was called on a broken one."""


def _require_positive(value: int, what: str) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ValueError(f"{what} must be a positive integer, got {value!r}")


@dataclass(frozen=True)
class TensorShape:
    """channels x height x width of a feature map (batch is implicitly 1)."""

    channels: int
    height: int
    width: int

    def __post_init__(self) -> None:
        _require_positive(self.channels, "channels")
        _require_positive(self.height, "height")
        _require_positive(self.width, "width")

    @property
    def pixels(self) -> int:
        return self.height * self.width

    def with_channels(self, channels: int) -> "TensorShape":
        return TensorShape(channels, self.height, self.width)


# --------------------------------------------------------------------------
# Node kinds (closed enumeration)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Input:
    kind: ClassVar[str] = "input"
    shape: TensorShape


@dataclass(frozen=True)
class Conv:
    kind: ClassVar[str] = "conv"
    out_channels: int
    kernel_h: int
    kernel_w: int
    stride_h: int = 1
    stride_w: int = 1
    pad_h: int = 0
    pad_w: int = 0
    groups: int = 1
    has_bias: bool = False

    def __post_init__(self) -> None:
        _require_positive(self.out_channels, "out_channels")
        _require_positive(self.kernel_h, "kernel_h")
        _require_positive(self.kernel_w, "kernel_w")
        _require_positive(self.stride_h, "stride_h")
        _require_positive(self.stride_w, "stride_w")
        _require_positive(self.groups, "groups")
        if self.pad_h < 0 or self.pad_w < 0:
            raise ValueError("padding must be non-negative")


@dataclass(frozen=True)
class TransposedConv:
    kind: ClassVar[str] = "transposed_conv"
    out_channels: int
    kernel_h: int
    kernel_w: int
    stride_h: int = 1
    stride_w: int = 1
    pad_h: int = 0
    pad_w: int = 0
    output_pad_h: int = 0
    output_pad_w: int = 0
    groups: int = 1
    has_bias: bool = False

    def __post_init__(self) -> None:
        _require_positive(self.out_channels, "out_channels")
        _require_positive(self.kernel_h, "kernel_h")
        _require_positive(self.kernel_w, "kernel_w")
        _require_positive(self.stride_h, "stride_h")
        _require_positive(self.stride_w, "stride_w")
        _require_positive(self.groups, "groups")
        if min(self.pad_h, self.pad_w, self.output_pad_h, self.output_pad_w) < 0:
            raise ValueError("padding must be non-negative")


@dataclass(frozen=True)
class BatchNorm:
    kind: ClassVar[str] = "batch_norm"


@dataclass(frozen=True)
class ReLU:
    kind: ClassVar[str] = "relu"


@dataclass(frozen=True)
class MaxPool:
    kind: ClassVar[str] = "max_pool"
    kernel_h: int
    kernel_w: int
    stride_h: int = 1
    stride_w: int = 1
    pad_h: int = 0
    pad_w: int = 0

    def __post_init__(self) -> None:
        _require_positive(self.kernel_h, "kernel_h")
        _require_positive(self.kernel_w, "kernel_w")
        _require_positive(self.stride_h, "stride_h")
        _require_positive(self.stride_w, "stride_w")
        if self.pad_h < 0 or self.pad_w < 0:
            raise ValueError("padding must be non-negative")


@dataclass(frozen=True)
class Add:
    """Elementwise merge of >= 2 identically shaped inputs."""

    kind: ClassVar[str] = "add"


@dataclass(frozen=True)
class Concat:
    """Channel-axis concatenation of >= 2 inputs with equal spatial dims."""

    kind: ClassVar[str] = "concat"


@dataclass(frozen=True)
class ChannelSplit:
    """Multi-output partition of channels into the given fractions."""

    kind: ClassVar[str] = "channel_split"
    fractions: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        fracs = tuple(Fraction(f) for f in self.fractions)
        object.__setattr__(self, "fractions", fracs)
        if not fracs:
            raise ValueError("channel split needs at least one fraction")
        if any(f <= 0 for f in fracs):
            raise ValueError("split fractions must be positive")
        if sum(fracs) != 1:
            raise ValueError(f"split fractions must sum to 1, got {sum(fracs)}")


@dataclass(frozen=True)
class ChannelShuffle:
    kind: ClassVar[str] = "channel_shuffle"
    groups: int

    def __post_init__(self) -> None:
        _require_positive(self.groups, "groups")


@dataclass(frozen=True)
class Scatter:
    """Zero-cost placement of per-pillar feature columns onto a 2D grid.

    Channels are preserved; the spatial extent is replaced by the grid size.
    """

    kind: ClassVar[str] = "scatter"
    out_height: int
    out_width: int

    def __post_init__(self) -> None:
        _require_positive(self.out_height, "out_height")
        _require_positive(self.out_width, "out_width")


NodeSpec = Union[
    Input, Conv, TransposedConv, BatchNorm, ReLU, MaxPool,
    Add, Concat, ChannelSplit, ChannelShuffle, Scatter,
]

_KIND_CLASSES = {
    cls.kind: cls
    for cls in (Input, Conv, TransposedConv, BatchNorm, ReLU, MaxPool,
                Add, Concat, ChannelSplit, ChannelShuffle, Scatter)
}


def input_arity(spec: NodeSpec) -> tuple[int, int | None]:
    """(min, max) number of inputs accepted by a node kind; max None = unbounded."""
    if isinstance(spec, Input):
        return (0, 0)
    if isinstance(spec, (Add, Concat)):
        return (2, None)
    return (1, 1)


def num_outputs(spec: NodeSpec) -> int:
    if isinstance(spec, ChannelSplit):
        return len(spec.fractions)
    return 1


# --------------------------------------------------------------------------
# Graph
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Edge:
    src: int
    src_port: int
    dst: int
    dst_port: int


@dataclass(frozen=True)
class Node:
    id: int
    spec: NodeSpec
    name: str


@dataclass(frozen=True)
class Diagnostic:
    code: str
    node: int | None
    message: str


class Graph:
    """Append-only DAG of layer nodes.

    Node ids are dense and assigned in insertion order.  ``add_node`` only
    accepts producers that already exist, so insertion order is also the
    topological order that :meth:`topo_order` returns.
    """

    def __init__(self) -> None:
        self._nodes: list[Node] = []
        self._edges: list[Edge] = []
        self._names: set[str] = set()

    @property
    def nodes(self) -> tuple[Node, ...]:
        return tuple(self._nodes)

    @property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(self._edges)

    def __len__(self) -> int:
        return len(self._nodes)

    def node(self, node_id: int) -> Node:
        if not 0 <= node_id < len(self._nodes):
            raise UnknownInputError(f"no node with id {node_id}")
        return self._nodes[node_id]

    def add_node(self, spec: NodeSpec, inputs: list[tuple[int, int]] | tuple = (),
                 name: str = "") -> int:
        """Append a node fed by ``inputs`` (list of (producer id, output port)).

        Raises UnknownInputError, ArityMismatchError or DuplicateNameError;
        on error the graph is left unchanged.
        """
        inputs = list(inputs)
        lo, hi = input_arity(spec)
        if len(inputs) < lo or (hi is not None and len(inputs) > hi):
            want = f">= {lo}" if hi is None else (str(lo) if lo == hi else f"{lo}..{hi}")
            raise ArityMismatchError(
                f"{spec.kind} node {name!r} takes {want} inputs, got {len(inputs)}")
        for src, port in inputs:
            if not 0 <= src < len(self._nodes):
                raise UnknownInputError(f"node {name!r} references unknown input {src}")
            if not 0 <= port < num_outputs(self._nodes[src].spec):
                raise UnknownInputError(
                    f"node {name!r} references port {port} of node {src}, "
                    f"which has {num_outputs(self._nodes[src].spec)} outputs")
        if not name:
            name = f"{spec.kind}_{len(self._nodes)}"
        if name in self._names:
            raise DuplicateNameError(f"duplicate node name {name!r}")

        node_id = len(self._nodes)
        self._nodes.append(Node(node_id, spec, name))
        self._names.add(name)
        for dst_port, (src, port) in enumerate(inputs):
            self._edges.append(Edge(src, port, node_id, dst_port))
        return node_id

    def input_table(self) -> list[list[tuple[int, int]]]:
        """Every node's (producer id, producer port) inputs in port order,
        grouped from the edges in one pass."""
        table: list[list[tuple[int, int, int]]] = [[] for _ in self._nodes]
        for e in self._edges:
            table[e.dst].append((e.dst_port, e.src, e.src_port))
        return [[(src, port) for _, src, port in sorted(row)] for row in table]

    def inputs_of(self, node_id: int) -> list[tuple[int, int]]:
        """(producer id, producer port) per input port, in port order."""
        self.node(node_id)  # raises UnknownInputError for an unknown id
        return self.input_table()[node_id]

    def consumers_of(self, node_id: int) -> list[int]:
        return [e.dst for e in self._edges if e.src == node_id]

    # -- validation ---------------------------------------------------------

    def validate(self) -> list[Diagnostic]:
        """Return all structural violations; an empty list means valid."""
        out: list[Diagnostic] = []
        n = len(self._nodes)

        seen: set[str] = set()
        for node in self._nodes:
            if node.name in seen:
                out.append(Diagnostic("DuplicateName", node.id,
                                      f"duplicate node name {node.name!r}"))
            seen.add(node.name)

        in_ports: dict[int, list[int]] = {node.id: [] for node in self._nodes}
        for e in self._edges:
            if not (0 <= e.src < n and 0 <= e.dst < n):
                out.append(Diagnostic("DanglingEdge", None,
                                      f"edge {e} references a missing node"))
                continue
            if not 0 <= e.src_port < num_outputs(self._nodes[e.src].spec):
                out.append(Diagnostic("BadPort", e.src,
                                      f"edge {e} uses nonexistent output port"))
            in_ports[e.dst].append(e.dst_port)

        for node in self._nodes:
            ports = sorted(in_ports[node.id])
            lo, hi = input_arity(node.spec)
            if len(ports) < lo or (hi is not None and len(ports) > hi):
                out.append(Diagnostic("ArityMismatch", node.id,
                                      f"{node.spec.kind} node {node.name!r} has "
                                      f"{len(ports)} inputs"))
            elif ports != list(range(len(ports))):
                out.append(Diagnostic("BadPort", node.id,
                                      f"node {node.name!r} has non-contiguous "
                                      f"input ports {ports}"))

        out.extend(self._find_cycles())
        return out

    def _find_cycles(self) -> list[Diagnostic]:
        n = len(self._nodes)
        succ: dict[int, list[int]] = {i: [] for i in range(n)}
        indeg = [0] * n
        for e in self._edges:
            if 0 <= e.src < n and 0 <= e.dst < n:
                succ[e.src].append(e.dst)
                indeg[e.dst] += 1
        ready = [i for i in range(n) if indeg[i] == 0]
        visited = 0
        while ready:
            cur = ready.pop()
            visited += 1
            for nxt in succ[cur]:
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    ready.append(nxt)
        if visited != n:
            stuck = [i for i in range(n) if indeg[i] > 0]
            return [Diagnostic("CycleDetected", stuck[0] if stuck else None,
                               f"cycle through nodes {stuck}")]
        return []

    def topo_order(self) -> list[int]:
        """Node ids in insertion order, which is topological (see class doc)."""
        problems = self.validate()
        if problems:
            raise InvalidGraphError("; ".join(d.message for d in problems))
        return list(range(len(self._nodes)))

    def input_nodes(self) -> list[Node]:
        return [node for node in self._nodes if isinstance(node.spec, Input)]

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        nodes = []
        for node in self._nodes:
            attrs: dict = {}
            for f in fields(node.spec):
                value = getattr(node.spec, f.name)
                if isinstance(value, TensorShape):
                    value = [value.channels, value.height, value.width]
                elif isinstance(value, tuple):
                    value = [str(v) if isinstance(v, Fraction) else v for v in value]
                attrs[f.name] = value
            nodes.append({"id": node.id, "name": node.name,
                          "kind": node.spec.kind, "attrs": attrs})
        edges = [[e.src, e.src_port, e.dst, e.dst_port] for e in self._edges]
        return {"nodes": nodes, "edges": edges}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "Graph":
        graph = cls()
        nodes = sorted(doc["nodes"], key=lambda item: item["id"])
        ids = [item["id"] for item in nodes]
        if ids != list(range(len(ids))):
            raise GraphError(f"node ids must be 0..{len(ids) - 1}, each exactly once")
        by_dst: dict[int, list[tuple[int, int, int]]] = {}
        for src, src_port, dst, dst_port in doc["edges"]:
            by_dst.setdefault(dst, []).append((dst_port, src, src_port))
        for item in nodes:
            spec_cls = _KIND_CLASSES.get(item["kind"])
            if spec_cls is None:
                raise GraphError(f"unknown node kind {item['kind']!r}")
            attrs = dict(item["attrs"])
            if spec_cls is Input:
                attrs["shape"] = TensorShape(*attrs["shape"])
            if spec_cls is ChannelSplit:
                attrs["fractions"] = tuple(Fraction(f) for f in attrs["fractions"])
            spec = spec_cls(**attrs)
            inputs = [(src, port) for _, src, port in sorted(by_dst.get(item["id"], []))]
            graph.add_node(spec, inputs, item["name"])
        if len(graph._edges) != len(doc["edges"]):
            raise GraphError("an edge feeds a node id that does not exist")
        return graph

    @classmethod
    def from_json(cls, text: str) -> "Graph":
        return cls.from_json_dict(json.loads(text))
