"""Typed DAG representation of 2D convolutional network structure.

Nodes carry layer attributes only (no tensors, no weights) and their inputs:
one (producer id, producer output port) pair per input port.  Graphs are
append-only during construction and treated as immutable afterwards.
"""
from __future__ import annotations

import json
from bisect import bisect_left
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii as _json_str
from operator import itemgetter
from typing import ClassVar, NamedTuple

from .core import NumberError, PillarcostError, Record, exact_fraction


class GraphError(PillarcostError):
    """Base class for structural graph errors."""


class UnknownInputError(GraphError):
    """An edge references a node id that does not exist."""


class ArityMismatchError(GraphError):
    """A node was given the wrong number of inputs for its kind."""


class DuplicateNameError(GraphError):
    """Two nodes in the same graph share a name."""


class InvalidGraphError(GraphError):
    """A graph lacks what an operation needs, such as exactly one input."""


class FieldError(GraphError, ValueError):
    """A node kind or a shape was given a field value it does not take."""


class ShapeError(PillarcostError):
    """A node's input shapes violate its kind constraints."""


class GroupMismatch(ShapeError):
    pass


class AddShapeMismatch(ShapeError):
    pass


class ConcatSpatialMismatch(ShapeError):
    pass


class NonIntegralSplit(ShapeError):
    pass


class ShuffleGroupMismatch(ShapeError):
    pass


class NegativeOutputDim(ShapeError):
    pass


class ShapeInconsistent(ShapeError):
    """Shapes handed to a cost method disagree with the node's own fields."""


def _require_int(value: int, what: str, minimum: int = 1) -> int:
    if type(value) is not int or value < minimum:
        raise FieldError(f"{what} must be an integer >= {minimum}, got {value!r}")
    return value


class _Dims(NamedTuple):
    channels: int
    height: int
    width: int


class TensorShape(_Dims):
    """channels x height x width of a feature map (batch is implicitly 1).

    A validated tuple: each dimension is an ``int`` >= 1 (not a bool or any
    other int subclass).  It compares equal to, and unpacks like, the plain
    tuple ``(channels, height, width)``.
    """

    __slots__ = ()

    def __new__(cls, channels: int, height: int, width: int) -> "TensorShape":
        if not (type(channels) is type(height) is type(width) is int
                and channels >= 1 and height >= 1 and width >= 1):
            _require_int(channels, "channels")
            _require_int(height, "height")
            _require_int(width, "width")
        return tuple.__new__(cls, (channels, height, width))

    @classmethod
    def _make(cls, iterable) -> "TensorShape":
        # ``_replace`` builds through ``_make``, so it is checked too
        return cls(*iterable)

    @property
    def pixels(self) -> int:
        return self.height * self.width


# --------------------------------------------------------------------------
# Node kinds (closed enumeration)
# --------------------------------------------------------------------------

def _non_negative(value: int, what: str) -> int:
    return _require_int(value, what, 0)


def _bool(value: bool, what: str) -> bool:
    if type(value) is not bool:
        raise FieldError(f"{what} must be a bool, got {value!r}")
    return value


def _shape(value: TensorShape, what: str) -> TensorShape:
    if type(value) is not TensorShape:
        raise FieldError(f"{what} must be a TensorShape, got {value!r}")
    return value


def _split(value, what: str) -> tuple[Fraction, ...]:
    try:
        if not isinstance(value, (list, tuple)):
            raise TypeError
        fracs = tuple(map(exact_fraction, value))
    except NumberError as err:  # a bool or a huge exponent: its own message
        raise FieldError(str(err)) from None
    except (TypeError, ValueError, ArithmeticError):
        raise FieldError(f"{what} must be a list of numbers, got {value!r}") from None
    if not fracs:
        raise FieldError("channel split needs at least one fraction")
    if any(f <= 0 for f in fracs):
        raise FieldError("split fractions must be positive")
    if sum(fracs) != 1:
        raise FieldError(f"split fractions must sum to 1, got {sum(fracs)}")
    return fracs


def _table(positive: tuple[str, ...] = (), non_negative: tuple[str, ...] = (),
           **others) -> dict:
    """A check table: each field's check, in the order they run."""
    return {**dict.fromkeys(positive, _require_int),
            **dict.fromkeys(non_negative, _non_negative), **others}


_KERNEL = ("kernel_h", "kernel_w", "stride_h", "stride_w")
_PADS = ("pad_h", "pad_w")


class NodeSpec(Record):
    """Base of the node kinds; each kind defines all of its behaviour here.

    ``arity`` is the (min, max) number of inputs, max None = unbounded.  The
    defaults describe a single-input, single-output, shape-preserving node
    that costs nothing; kinds override what differs.  Input shapes are given
    in port order, and one output shape is returned per output port.
    A kind's field checks (its ``_checks`` table) raise FieldError.
    """

    kind: ClassVar[str]
    arity: ClassVar[tuple[int, int | None]] = (1, 1)

    def num_outputs(self) -> int:
        return 1

    def output_shapes(self, input_shapes: list[TensorShape]) -> list[TensorShape]:
        (s,) = input_shapes
        return [s]

    def madds(self, input_shapes: list[TensorShape],
              output_shapes: list[TensorShape]) -> int:
        return 0

    def params(self, input_shapes: list[TensorShape]) -> int:
        return 0

    @classmethod
    def from_attrs(cls, attrs: dict) -> "NodeSpec":
        """Inverse of the ``attrs`` object that ``Graph.to_json_dict`` writes."""
        return cls(**attrs)


class Input(NodeSpec):
    kind: ClassVar[str] = "input"
    arity: ClassVar[tuple[int, int | None]] = (0, 0)
    _checks = {"shape": _shape}
    shape: TensorShape

    def output_shapes(self, input_shapes: list[TensorShape]) -> list[TensorShape]:
        return [self.shape]

    @classmethod
    def from_attrs(cls, attrs: dict) -> "Input":
        return cls(**{**attrs, "shape": TensorShape(*attrs["shape"])})


def _window_out(size: int, pad: int, kernel: int, stride: int, kind: str,
                axis: str) -> int:
    out = (size + 2 * pad - kernel) // stride + 1
    if out < 1:
        raise NegativeOutputDim(
            f"{kind} {axis}: window (k={kernel}, s={stride}, p={pad}) over size {size} "
            f"yields output dim {out}")
    return out


class _Window(NodeSpec):
    """Sliding-window kinds: their fields are positive integers, except
    paddings, which are non-negative integers."""

    def _out_hw(self, s: TensorShape) -> tuple[int, int]:
        return (_window_out(s.height, self.pad_h, self.kernel_h, self.stride_h,
                            self.kind, "height"),
                _window_out(s.width, self.pad_w, self.kernel_w, self.stride_w,
                            self.kind, "width"))


class _Conv(_Window):
    """What Conv and TransposedConv share: the group check, the weight count,
    and one MAdd per weight at every pixel the kernel is applied to.  They
    differ in which pixels those are (``_kernel_pixels``) and in the spatial
    rule (``_out_hw``)."""

    def output_shapes(self, input_shapes: list[TensorShape]) -> list[TensorShape]:
        (s,) = input_shapes
        if s.channels % self.groups or self.out_channels % self.groups:
            raise GroupMismatch(
                f"{self.kind} channels ({s.channels} -> {self.out_channels}) "
                f"not divisible by groups={self.groups}")
        return [TensorShape(self.out_channels, *self._out_hw(s))]

    def _weights(self, input_shapes: list[TensorShape]) -> int:
        if len(input_shapes) != 1:
            raise ShapeInconsistent(f"{self.kind} takes one input")
        (si,) = input_shapes
        if si.channels % self.groups:
            raise ShapeInconsistent(f"{self.kind} group mismatch")
        return (self.out_channels * (si.channels // self.groups)
                * self.kernel_h * self.kernel_w)

    def madds(self, input_shapes: list[TensorShape],
              output_shapes: list[TensorShape]) -> int:
        """Weights times kernel pixels, plus one per output element for the
        bias."""
        if len(output_shapes) != 1:
            raise ShapeInconsistent(f"{self.kind} has one output")
        (so,) = output_shapes
        if so.channels != self.out_channels:
            raise ShapeInconsistent(f"{self.kind} output channels mismatch")
        macs = self._weights(input_shapes) * self._kernel_pixels(input_shapes[0], so)
        if self.has_bias:
            macs += so.channels * so.pixels
        return macs

    def params(self, input_shapes: list[TensorShape]) -> int:
        bias = self.out_channels if self.has_bias else 0
        return self._weights(input_shapes) + bias


class Conv(_Conv):
    kind: ClassVar[str] = "conv"
    _checks = _table(_KERNEL + ("out_channels", "groups"), _PADS, has_bias=_bool)
    out_channels: int
    kernel_h: int
    kernel_w: int
    stride_h: int = 1
    stride_w: int = 1
    pad_h: int = 0
    pad_w: int = 0
    groups: int = 1
    has_bias: bool = False

    def _kernel_pixels(self, si: TensorShape, so: TensorShape) -> int:
        return so.pixels


class TransposedConv(_Conv):
    kind: ClassVar[str] = "transposed_conv"
    _checks = _table(_KERNEL + ("out_channels", "groups"),
                     _PADS + ("output_pad_h", "output_pad_w"), has_bias=_bool)
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

    def _out_hw(self, s: TensorShape) -> tuple[int, int]:
        h = (s.height - 1) * self.stride_h - 2 * self.pad_h + self.kernel_h + self.output_pad_h
        w = (s.width - 1) * self.stride_w - 2 * self.pad_w + self.kernel_w + self.output_pad_w
        if h < 1 or w < 1:
            raise NegativeOutputDim(f"transposed conv output dims {h}x{w}")
        return h, w

    def _kernel_pixels(self, si: TensorShape, so: TensorShape) -> int:
        # each input pixel is multiplied by the full kernel before the
        # strided scatter-add
        return si.pixels


class BatchNorm(NodeSpec):
    kind: ClassVar[str] = "batch_norm"

    def madds(self, input_shapes: list[TensorShape],
              output_shapes: list[TensorShape]) -> int:
        """One fused scale-and-shift per element."""
        if len(output_shapes) != 1:
            raise ShapeInconsistent("batch norm has one output")
        (so,) = output_shapes
        return so.channels * so.pixels

    def params(self, input_shapes: list[TensorShape]) -> int:
        (si,) = input_shapes
        return 2 * si.channels  # scale and shift per channel


class ReLU(NodeSpec):
    kind: ClassVar[str] = "relu"


class MaxPool(_Window):
    kind: ClassVar[str] = "max_pool"
    _checks = _table(_KERNEL, _PADS)
    kernel_h: int
    kernel_w: int
    stride_h: int = 1
    stride_w: int = 1
    pad_h: int = 0
    pad_w: int = 0

    def output_shapes(self, input_shapes: list[TensorShape]) -> list[TensorShape]:
        (s,) = input_shapes
        return [TensorShape(s.channels, *self._out_hw(s))]


class Add(NodeSpec):
    """Elementwise merge of >= 2 identically shaped inputs."""

    kind: ClassVar[str] = "add"
    arity: ClassVar[tuple[int, int | None]] = (2, None)

    def output_shapes(self, input_shapes: list[TensorShape]) -> list[TensorShape]:
        first = input_shapes[0]
        for other in input_shapes[1:]:
            if other != first:
                raise AddShapeMismatch(f"add inputs differ: {first} vs {other}")
        return [first]


class Concat(NodeSpec):
    """Channel-axis concatenation of >= 2 inputs with equal spatial dims."""

    kind: ClassVar[str] = "concat"
    arity: ClassVar[tuple[int, int | None]] = (2, None)

    def output_shapes(self, input_shapes: list[TensorShape]) -> list[TensorShape]:
        first = input_shapes[0]
        for other in input_shapes[1:]:
            if (other.height, other.width) != (first.height, first.width):
                raise ConcatSpatialMismatch(
                    f"concat spatial dims differ: {first} vs {other}")
        return [TensorShape(sum(s.channels for s in input_shapes),
                            first.height, first.width)]


class ChannelSplit(NodeSpec):
    """Multi-output partition of channels into the given fractions."""

    kind: ClassVar[str] = "channel_split"
    _checks = {"fractions": _split}
    fractions: tuple[Fraction, ...]

    def num_outputs(self) -> int:
        return len(self.fractions)

    def output_shapes(self, input_shapes: list[TensorShape]) -> list[TensorShape]:
        (s,) = input_shapes
        outs = []
        for frac in self.fractions:
            part = Fraction(s.channels) * frac
            if part.denominator != 1:
                raise NonIntegralSplit(
                    f"fraction {frac} of {s.channels} channels is not integral")
            outs.append(TensorShape(int(part), s.height, s.width))
        return outs


class ChannelShuffle(NodeSpec):
    kind: ClassVar[str] = "channel_shuffle"
    _checks = _table(("groups",))
    groups: int

    def output_shapes(self, input_shapes: list[TensorShape]) -> list[TensorShape]:
        (s,) = input_shapes
        if s.channels % self.groups:
            raise ShuffleGroupMismatch(
                f"{s.channels} channels not divisible by shuffle groups={self.groups}")
        return [s]


class Scatter(NodeSpec):
    """Zero-cost placement of per-pillar feature columns onto a 2D grid.

    Channels are preserved; the spatial extent is replaced by the grid size.
    """

    kind: ClassVar[str] = "scatter"
    _checks = _table(("out_height", "out_width"))
    out_height: int
    out_width: int

    def output_shapes(self, input_shapes: list[TensorShape]) -> list[TensorShape]:
        (s,) = input_shapes
        return [TensorShape(s.channels, self.out_height, self.out_width)]


_KIND_CLASSES = {
    cls.kind: cls
    for cls in (Input, Conv, TransposedConv, BatchNorm, ReLU, MaxPool,
                Add, Concat, ChannelSplit, ChannelShuffle, Scatter)
}

# What each kind serialises: its attribute names, sorted as the JSON has them.
_ATTR_NAMES = {cls: tuple(sorted(cls._fields))
               for cls in _KIND_CLASSES.values()}

# The kinds whose attribute is a list: their decode key holds its items and
# each item's type (see _spec_key), since (4.0, 2, 2) equals (4, 2, 2).
_SEQUENCE_KINDS = frozenset((Input.kind, ChannelSplit.kind))


# --------------------------------------------------------------------------
# Graph
# --------------------------------------------------------------------------

class Edge(NamedTuple):
    """An input as an edge.  A tuple: it compares equal to, and unpacks
    like, ``(src, src_port, dst, dst_port)``."""

    src: int
    src_port: int
    dst: int
    dst_port: int


class Node(NamedTuple):
    """A node and its inputs: (producer id, producer port) per input port,
    in port order.  A tuple: it compares equal to, and unpacks like,
    ``(id, spec, name, inputs)``."""

    id: int
    spec: NodeSpec
    name: str
    inputs: tuple[tuple[int, int], ...]


class Graph:
    """Append-only DAG of layer nodes, valid by construction.

    ``add_node`` is the only writer.  It checks each node's arity, name and
    inputs, and accepts only producers that already exist, through output
    ports they have.  So node ids are dense, insertion order is topological,
    names are unique, and every node has exactly the inputs its kind needs.
    """

    def __init__(self) -> None:
        self._nodes: list[Node] = []
        self._names: set[str] = set()
        self._outputs: list[int] = []  # output-port count per node id
        self._specs: dict[tuple, NodeSpec] = {}  # see spec()

    @property
    def nodes(self) -> tuple[Node, ...]:
        return tuple(self._nodes)

    @property
    def edges(self) -> tuple[Edge, ...]:
        """Every input as an edge, in consumer id order, then port order."""
        return tuple(Edge(src, port, node.id, dst_port) for node in self._nodes
                     for dst_port, (src, port) in enumerate(node.inputs))

    def __len__(self) -> int:
        return len(self._nodes)

    def node(self, node_id: int) -> Node:
        if not 0 <= node_id < len(self._nodes):
            raise UnknownInputError(f"no node with id {node_id}")
        return self._nodes[node_id]

    def spec(self, cls: type[NodeSpec], *args) -> NodeSpec:
        """``cls(*args)``, made once per distinct value among this graph's
        nodes, so that nodes with equal specs share one object.  Keyed by
        class, arguments and each argument's exact type, so ``1``, ``True``
        and an int subclass never share a spec.  The table dies with the
        graph."""
        key = (cls, *args, *map(type, args))
        spec = self._specs.get(key)
        if spec is None:
            spec = self._specs[key] = cls(*args)
        return spec

    def add_node(self, spec: NodeSpec, inputs: list[tuple[int, int]] | tuple = (),
                 name: str = "") -> int:
        """Append a node fed by ``inputs`` (list of (producer id, output port)).

        Raises UnknownInputError, ArityMismatchError, DuplicateNameError, or
        GraphError for a name that is not a string; on error the graph is
        left unchanged.
        """
        inputs = tuple(inputs)
        lo, hi = spec.arity
        if len(inputs) < lo or (hi is not None and len(inputs) > hi):
            want = f">= {lo}" if hi is None else (str(lo) if lo == hi else f"{lo}..{hi}")
            raise ArityMismatchError(
                f"{spec.kind} node {name!r} takes {want} inputs, got {len(inputs)}")
        nodes, outputs, names = self._nodes, self._outputs, self._names
        node_id = len(nodes)
        for src, port in inputs:
            if type(src) is not int or type(port) is not int:
                raise UnknownInputError(
                    f"node {name!r} input {(src, port)!r} is not a pair of integers")
            if not 0 <= src < node_id:
                raise UnknownInputError(f"node {name!r} references unknown input {src}")
            if not 0 <= port < outputs[src]:
                raise UnknownInputError(
                    f"node {name!r} references port {port} of node {src}, "
                    f"which has {outputs[src]} outputs")
        if not name:
            name = f"{spec.kind}_{node_id}"
        elif not isinstance(name, str):
            raise GraphError(f"node name {name!r} is not a string")
        if name in names:
            raise DuplicateNameError(f"duplicate node name {name!r}")

        outputs.append(spec.num_outputs())
        nodes.append(tuple.__new__(Node, (node_id, spec, name, inputs)))
        names.add(name)
        return node_id

    def inputs_of(self, node_id: int) -> list[tuple[int, int]]:
        """(producer id, producer port) per input port, in port order."""
        return list(self.node(node_id).inputs)

    def validate(self) -> list:
        """Always ``[]``: every graph is valid by construction (see the class
        doc), so there is nothing left to report."""
        return []

    def topo_order(self) -> list[int]:
        """Node ids in insertion order, which is topological (see class doc)."""
        return list(range(len(self._nodes)))

    def input_nodes(self) -> list[Node]:
        return [node for node in self._nodes if isinstance(node.spec, Input)]

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        nodes = [{"id": node.id, "name": node.name, "kind": node.spec.kind,
                  "attrs": {name: _json_value(getattr(node.spec, name))
                            for name in _ATTR_NAMES[type(node.spec)]}}
                 for node in self._nodes]
        edges = [[src, port, node.id, dst_port] for node in self._nodes
                 for dst_port, (src, port) in enumerate(node.inputs)]
        return {"nodes": nodes, "edges": edges}

    def to_json(self) -> str:
        """Exactly ``json.dumps(self.to_json_dict(), indent=2, sort_keys=True)``.

        Written directly, because the standard encoder leaves its C path
        whenever ``indent`` is set and then takes most of a round trip.
        Each distinct spec object is formatted once per call.
        """
        # id(spec) -> its text before the id and between the id and the
        # name.  Keyed by identity, so no spec is hashed or compared: equal
        # specs that are distinct objects are formatted twice, to one text.
        texts: dict[int, tuple[str, str]] = {}
        nodes, edges = [], []
        for node_id, spec, name, inputs in self._nodes:
            text = texts.get(id(spec))
            if text is None:
                attrs = ",".join([f'{_ATTR_PAD}"{attr}": {_attr_json(getattr(spec, attr))}'
                                  for attr in _ATTR_NAMES[type(spec)]])
                attrs = f"{{{attrs}\n      }}" if attrs else "{}"
                text = texts[id(spec)] = (
                    f'    {{\n      "attrs": {attrs},\n      "id": ',
                    f',\n      "kind": {_json_str(spec.kind)},\n      "name": ')
            nodes.append(f"{text[0]}{node_id}{text[1]}{_json_str(name)}\n    }}")
            if len(inputs) == 1:  # most nodes; without enumerate, to_json is ~15% faster
                (src, port), = inputs
                edges.append(f"    [\n      {src},\n      {port},\n      {node_id},\n"
                             "      0\n    ]")
                continue
            for dst_port, (src, port) in enumerate(inputs):
                edges.append(f"    [\n      {src},\n      {port},\n      {node_id},\n"
                             f"      {dst_port}\n    ]")
        edges = "[\n" + ",\n".join(edges) + "\n  ]" if edges else "[]"
        nodes = "[\n" + ",\n".join(nodes) + "\n  ]" if nodes else "[]"
        return f'{{\n  "edges": {edges},\n  "nodes": {nodes}\n}}'

    @classmethod
    def from_json_dict(cls, doc: dict) -> "Graph":
        """Inverse of :meth:`to_json_dict`.  A malformed document raises a
        one-line GraphError that names the offending node or edge.  Nodes
        and edges may come in any order.

        Each distinct spec is decoded once per call, so nodes with equal
        specs share one spec object; specs are frozen, so only ``is`` can
        tell.
        """
        try:
            items, edges = list(doc["nodes"]), list(doc["edges"])
        except (KeyError, TypeError) as err:
            raise GraphError("a graph document is an object with 'nodes' and "
                             f"'edges' lists; {type(err).__name__}: {err}") from None
        # spec key -> spec, for this call only.  A key holds the kind and
        # each attribute's name, value and exact type, so that 1, True and
        # 1.0 never share an entry; _spec_key keys a list value.
        specs: dict[tuple, NodeSpec] = {}
        decoded = []
        for pos, item in enumerate(items):
            try:
                item_id, kind, attrs, name = _NODE_FIELDS(item)
                try:
                    if kind in _SEQUENCE_KINDS:
                        key = _spec_key(kind, attrs)
                    else:
                        values = attrs.values()
                        key = (kind, *attrs, *values, *map(type, values))
                    spec = specs.get(key)
                except (AttributeError, TypeError):  # not an object, or a value
                    key = spec = None                 # unhashable: decode it as is
                if spec is None:  # every key in specs holds a known kind
                    spec_cls = _KIND_CLASSES.get(kind)
                    if spec_cls is None:
                        raise GraphError(f"node {_label(item, pos)} has unknown kind {kind!r}")
                if type(item_id) is not int:
                    raise TypeError(f"id {item_id!r} is not an integer")
                if type(name) is not str or not name:
                    raise TypeError(f"name {name!r} is not a non-empty string")
                if spec is None:
                    spec = spec_cls.from_attrs(attrs)
                    if key is not None:
                        specs[key] = spec
                decoded.append((item_id, spec, name))
            except KeyError as err:
                raise GraphError(f"node {_label(item, pos)} lacks the key {err}") from None
            except (TypeError, ValueError, ArithmeticError) as err:
                raise GraphError(f"node {_label(item, pos)}: {err}") from None
        n = len(decoded)
        if list(map(_ID, decoded)) != list(range(n)):
            decoded.sort(key=_ID)
            if list(map(_ID, decoded)) != list(range(n)):
                raise GraphError(f"node ids must be 0..{n - 1}, each exactly once")

        if not (set(map(type, edges)) <= {list, tuple} and set(map(len, edges)) <= {4}
                and set(map(type, chain.from_iterable(edges))) <= {int}):
            edges = list(map(_edge, edges))  # or raise, naming the first bad edge
        # to_json writes the edges grouped by consumer, then port, so one
        # walk finds each node's inputs; any other order is sorted into it
        bounds = _walk(edges, 0, n)
        if len(bounds) <= n or bounds[-1] < len(edges):
            edges.sort(key=_DST_PORT)
            bounds = _walk(edges, bisect_left(edges, 0, key=_DST), n)
        pairs = tuple(map(_SOURCE, edges))
        graph = cls()
        for (_, spec, name), start, end in zip(decoded, bounds, bounds[1:]):
            graph.add_node(spec, pairs[start:end], name)
        if len(bounds) <= n:  # the nodes before it are built first: their errors win
            node_id = len(bounds) - 1
            ports = [edge[3] for edge in edges if edge[2] == node_id]
            raise GraphError(f"node {decoded[node_id][2]!r} has input ports {ports}; "
                             f"they must be 0..{len(ports) - 1}, each exactly once")
        if bounds[0] or bounds[-1] < len(edges):
            raise GraphError("an edge feeds a node id that does not exist")
        return graph

    @classmethod
    def from_json(cls, text: str) -> "Graph":
        """Inverse of :meth:`to_json`.  Malformed JSON, nesting too deep and
        an integer over Python's digit limit raise a one-line GraphError,
        as a malformed document does."""
        try:
            doc = json.loads(text)
        except (ValueError, RecursionError) as err:  # incl. JSONDecodeError
            raise GraphError(f"malformed graph JSON: {err}") from None
        return cls.from_json_dict(doc)


# --------------------------------------------------------------------------
# JSON helpers.  The writers build the text of json.dumps(..., indent=2,
# sort_keys=True) from templates: nodes sit at indent level 2, attribute
# values at level 4.
# --------------------------------------------------------------------------

_ATTR_PAD = "\n" + " " * 8


def _json_value(value):
    """An attribute value as ``to_json_dict`` holds it."""
    if isinstance(value, TensorShape):
        return [value.channels, value.height, value.width]
    if isinstance(value, tuple):
        return [str(v) if isinstance(v, Fraction) else v for v in value]
    return value


_ID = itemgetter(0)
_NODE_FIELDS = itemgetter("id", "kind", "attrs", "name")
_SOURCE, _DST, _DST_PORT = itemgetter(0, 1), itemgetter(2), itemgetter(2, 3)


def _label(item, pos: int) -> str:
    """How a decode error names a node: its name, else its position."""
    if isinstance(item, dict) and "name" in item:
        return repr(item["name"])
    return f"#{pos}"


def _spec_key(kind: str, attrs: dict) -> tuple:
    """The decode key of a spec of a kind that takes a list: a list or tuple
    value keys as its type, its items and each item's type, so that it
    shares with neither a scalar (``[1]`` and ``1``) nor a value of another
    type."""
    return (kind, *[(name, type(value), *value, *map(type, value))
                    if isinstance(value, (list, tuple)) else (name, value, type(value))
                    for name, value in attrs.items()])


def _walk(edges: list, start: int, n: int) -> list[int]:
    """Node i's inputs are ``edges[bounds[i]:bounds[i + 1]]``, read from
    ``start`` in (dst, dst_port) order.  The walk stops at the first node
    whose ports do not read 0..k-1: with fewer than n + 1 bounds, node
    ``len(bounds) - 1`` has bad ports or the edges are out of order."""
    bounds, pos, count = [start], start, len(edges)
    for node_id in range(n):
        first = pos
        while pos < count and edges[pos][2] == node_id:
            if edges[pos][3] != pos - first:
                return bounds
            pos += 1
        bounds.append(pos)
    return bounds


def _edge(edge) -> tuple[int, int, int, int]:
    """``edge`` as a tuple, if it is four integers [src, src_port, dst,
    dst_port]; else a GraphError that names it."""
    try:
        src, src_port, dst, dst_port = edge
        if type(src) is type(src_port) is type(dst) is type(dst_port) is int:
            return src, src_port, dst, dst_port
    except (TypeError, ValueError):
        pass
    raise GraphError(f"edge {edge!r} is not a list of four integers "
                     "[src, src_port, dst, dst_port]")


def _attr_json(value) -> str:
    """``_json_value(value)`` encoded at an attribute's indent level.  The
    node kinds' constructors admit only an int, a bool, a TensorShape or a
    non-empty tuple of Fractions."""
    kind = type(value)
    if kind is int:
        return str(value)
    if kind is bool:
        return "true" if value else "false"
    pad = _ATTR_PAD + "  "
    if kind is TensorShape:
        return (f"[{pad}{value.channels},{pad}{value.height},{pad}{value.width}"
                f"{_ATTR_PAD}]")
    return f"[{','.join(pad + _json_str(str(v)) for v in value)}{_ATTR_PAD}]"
