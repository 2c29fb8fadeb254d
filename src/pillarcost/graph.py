"""Typed DAG representation of 2D convolutional network structure.

A graph keeps three columns indexed by node id: each node's spec (layer
attributes only: no tensors, no weights), its name and its inputs, one
(producer id, producer output port) pair per input port.  ``Graph.columns``
is how other modules read them.  Graphs are append-only during construction
and treated as immutable afterwards.
"""
from __future__ import annotations

import json
import marshal
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii as _json_str
from operator import itemgetter
from typing import ClassVar, NamedTuple

from .core import ExactDecimal, NumberError, PillarcostError, Record, exact_fraction, typed_repr


class GraphError(PillarcostError):
    """A graph's structure is invalid, or it lacks what an operation needs."""


class FieldError(GraphError, ValueError):
    """A node kind or a shape was given a field value it does not take."""


class ShapeError(PillarcostError):
    """A node's input shapes violate its kind constraints."""


def _require_int(value: int, what: str, minimum: int = 1) -> int:
    if type(value) is not int or value < minimum:
        raise FieldError(f"{what} must be an integer >= {minimum}, got {typed_repr(value)}")
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


def _shape(value, what: str) -> TensorShape:
    """A TensorShape, or its JSON form: a list or tuple of three ints."""
    if not isinstance(value, (list, tuple)) or len(value) != 3:  # bytes unpack into ints
        raise FieldError(f"{what} must be a list of 3 integers, got {value!r}")
    return value if type(value) is TensorShape else TensorShape(*value)


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


class NodeSpec(Record):
    """Base of the node kinds; each kind defines all of its behaviour here.

    ``arity`` is the (min, max) number of inputs, max None = unbounded.  The
    defaults describe a single-input, single-output, shape-preserving node
    that costs nothing; kinds override what differs.  Input shapes are given
    in port order, and one output shape is returned per output port.
    A field's annotation names its check (``_check_of``); ``Count`` (an int
    >= 1) and ``Offset`` (an int >= 0) name checks, not types.  The checks
    also read each field's JSON form, so ``cls(**attrs)`` decodes the
    ``attrs`` object that ``Graph.to_json_dict`` writes; they raise
    FieldError.
    """

    kind: ClassVar[str]
    arity: ClassVar[tuple[int, int | None]] = (1, 1)
    _check_of = {"Count": _require_int, "Offset": _non_negative, "bool": _bool,
                 "TensorShape": _shape, "tuple[Fraction, ...]": _split}

    def num_outputs(self) -> int:
        return 1

    def output_shapes(self, input_shapes: list[TensorShape]) -> list[TensorShape]:
        (s,) = input_shapes
        return [s]

    def cost(self, input_shapes: list[TensorShape],
             output_shapes: list[TensorShape]) -> tuple[int, int]:
        """(MAdds, params), read off the shapes that ``output_shapes`` gave."""
        return 0, 0

    def madds(self, input_shapes: list[TensorShape]) -> int:
        return self.cost(input_shapes, self.output_shapes(input_shapes))[0]

    def params(self, input_shapes: list[TensorShape]) -> int:
        return self.cost(input_shapes, self.output_shapes(input_shapes))[1]


class Input(NodeSpec):
    kind: ClassVar[str] = "input"
    arity: ClassVar[tuple[int, int | None]] = (0, 0)
    shape: TensorShape

    def output_shapes(self, input_shapes: list[TensorShape]) -> list[TensorShape]:
        return [self.shape]


def _window_out(size: int, pad: int, kernel: int, stride: int, kind: str,
                axis: str) -> int:
    out = (size + 2 * pad - kernel) // stride + 1
    if out < 1:
        raise ShapeError(
            f"{kind} {axis}: window (k={kernel}, s={stride}, p={pad}) over size {size} "
            f"yields output dim {out}")
    return out


class _Window(NodeSpec):
    """Sliding-window kinds, which share the spatial rule ``_out_hw``."""

    def _out_hw(self, s: TensorShape) -> tuple[int, int]:
        return (_window_out(s.height, self.pad_h, self.kernel_h, self.stride_h,
                            self.kind, "height"),
                _window_out(s.width, self.pad_w, self.kernel_w, self.stride_w,
                            self.kind, "width"))


class _Conv(_Window):
    """What Conv and TransposedConv share: the group check, made by the shape
    rule alone, and a cost read off the shapes that rule gave: the weight
    count, and one MAdd per weight at every pixel the kernel is applied to.
    They differ in which pixels those are (``_kernel_pixels`` of the input
    and output shapes) and in the spatial rule (``_out_hw``)."""

    def output_shapes(self, input_shapes: list[TensorShape]) -> list[TensorShape]:
        (s,) = input_shapes
        if s.channels % self.groups or self.out_channels % self.groups:
            raise ShapeError(
                f"{self.kind} channels ({s.channels} -> {self.out_channels}) "
                f"not divisible by groups={self.groups}")
        return [TensorShape(self.out_channels, *self._out_hw(s))]

    def cost(self, input_shapes: list[TensorShape],
             output_shapes: list[TensorShape]) -> tuple[int, int]:
        """Weights times kernel pixels; a bias adds one MAdd per output
        element and one parameter per output channel."""
        (si,), (so,) = input_shapes, output_shapes
        weights = (self.out_channels * (si.channels // self.groups)
                   * self.kernel_h * self.kernel_w)
        bias = self.out_channels if self.has_bias else 0
        return weights * self._kernel_pixels(si, so) + bias * so.pixels, weights + bias


class Conv(_Conv):
    kind: ClassVar[str] = "conv"
    out_channels: Count
    kernel_h: Count
    kernel_w: Count
    stride_h: Count = 1
    stride_w: Count = 1
    pad_h: Offset = 0
    pad_w: Offset = 0
    groups: Count = 1
    has_bias: bool = False

    def _kernel_pixels(self, si: TensorShape, so: TensorShape) -> int:
        return so.pixels


class TransposedConv(_Conv):
    kind: ClassVar[str] = "transposed_conv"
    out_channels: Count
    kernel_h: Count
    kernel_w: Count
    stride_h: Count = 1
    stride_w: Count = 1
    pad_h: Offset = 0
    pad_w: Offset = 0
    output_pad_h: Offset = 0
    output_pad_w: Offset = 0
    groups: Count = 1
    has_bias: bool = False

    def _out_hw(self, s: TensorShape) -> tuple[int, int]:
        h = (s.height - 1) * self.stride_h - 2 * self.pad_h + self.kernel_h + self.output_pad_h
        w = (s.width - 1) * self.stride_w - 2 * self.pad_w + self.kernel_w + self.output_pad_w
        if h < 1 or w < 1:
            raise ShapeError(f"transposed conv output dims {h}x{w}")
        return h, w

    def _kernel_pixels(self, si: TensorShape, so: TensorShape) -> int:
        # each input pixel is multiplied by the full kernel before the
        # strided scatter-add
        return si.pixels


class BatchNorm(NodeSpec):
    kind: ClassVar[str] = "batch_norm"

    def cost(self, input_shapes: list[TensorShape],
             output_shapes: list[TensorShape]) -> tuple[int, int]:
        """One fused scale-and-shift per element; a scale and a shift per channel."""
        (si,) = input_shapes
        return si.channels * si.pixels, 2 * si.channels


class ReLU(NodeSpec):
    kind: ClassVar[str] = "relu"


class MaxPool(_Window):
    kind: ClassVar[str] = "max_pool"
    kernel_h: Count
    kernel_w: Count
    stride_h: Count = 1
    stride_w: Count = 1
    pad_h: Offset = 0
    pad_w: Offset = 0

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
                raise ShapeError(f"add inputs differ: {first} vs {other}")
        return [first]


class Concat(NodeSpec):
    """Channel-axis concatenation of >= 2 inputs with equal spatial dims."""

    kind: ClassVar[str] = "concat"
    arity: ClassVar[tuple[int, int | None]] = (2, None)

    def output_shapes(self, input_shapes: list[TensorShape]) -> list[TensorShape]:
        first = input_shapes[0]
        for other in input_shapes[1:]:
            if (other.height, other.width) != (first.height, first.width):
                raise ShapeError(f"concat spatial dims differ: {first} vs {other}")
        return [TensorShape(sum(s.channels for s in input_shapes),
                            first.height, first.width)]


class ChannelSplit(NodeSpec):
    """Multi-output partition of channels into the given fractions."""

    kind: ClassVar[str] = "channel_split"
    fractions: tuple[Fraction, ...]

    def num_outputs(self) -> int:
        return len(self.fractions)

    def output_shapes(self, input_shapes: list[TensorShape]) -> list[TensorShape]:
        (s,) = input_shapes
        outs = []
        for frac in self.fractions:
            part = Fraction(s.channels) * frac
            if part.denominator != 1:
                raise ShapeError(f"fraction {frac} of {s.channels} channels is not integral")
            outs.append(TensorShape(int(part), s.height, s.width))
        return outs


class ChannelShuffle(NodeSpec):
    kind: ClassVar[str] = "channel_shuffle"
    groups: Count

    def output_shapes(self, input_shapes: list[TensorShape]) -> list[TensorShape]:
        (s,) = input_shapes
        if s.channels % self.groups:
            raise ShapeError(
                f"{s.channels} channels not divisible by shuffle groups={self.groups}")
        return [s]


class Scatter(NodeSpec):
    """Zero-cost placement of per-pillar feature columns onto a 2D grid.

    Channels are preserved; the spatial extent is replaced by the grid size.
    """

    kind: ClassVar[str] = "scatter"
    out_height: Count
    out_width: Count

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


# --------------------------------------------------------------------------
# Graph
# --------------------------------------------------------------------------

class Graph:
    """Append-only DAG of layer nodes, valid by construction.

    ``add_node`` is the one public writer: it checks each new node's kind,
    arity, name and inputs, and accepts only producers that already exist,
    through output ports they have.  The network builder also appends
    copies of nodes that passed those checks (``_repeat``).  So node ids
    are dense, insertion order is topological, names are unique, and every
    node has exactly the inputs its kind needs.
    Nodes are kept as columns (see the module doc), read through ``columns``.
    A graph keeps no spec table: ``arch`` shares equal specs across builds.
    """

    def __init__(self) -> None:
        self._spec_col: list[NodeSpec] = []
        self._name_col: list[str] = []
        self._input_col: list[tuple[tuple[int, int], ...]] = []
        self._names: set[str] = set()

    def columns(self) -> tuple[tuple[NodeSpec, ...], tuple[str, ...], tuple[tuple, ...]]:
        """(spec, name, inputs) per node id: three fresh tuples."""
        return tuple(self._spec_col), tuple(self._name_col), tuple(self._input_col)

    @property
    def edges(self) -> tuple[tuple[int, int, int, int], ...]:
        """Every input as an edge ``(src, src_port, dst, dst_port)``, in
        consumer id order, then port order."""
        return tuple((src, port, dst, dst_port)
                     for dst, feeds in enumerate(self._input_col)
                     for dst_port, (src, port) in enumerate(feeds))

    def __len__(self) -> int:
        return len(self._spec_col)

    def add_node(self, spec: NodeSpec, inputs: tuple[tuple[int, int], ...] | list = (),
                 name: str = "") -> int:
        """Append a node fed by ``inputs``, (producer id, output port) per
        input port, and store them as a tuple of tuples, so that no caller
        can change them afterwards.

        An empty name becomes ``<kind>_<id>``.  Raises GraphError, leaving
        the graph unchanged, for a spec that is not an instance of one of
        the eleven kinds, inputs that are not a list or a tuple, a wrong
        number of inputs, an input that is not a pair of integers or names
        no output, or a name that is not a ``str``, holds a lone surrogate
        (UTF-8 cannot encode it) or is taken.  Port 0 needs no check: every
        kind has at least one output.
        """
        if type(spec) not in _ATTR_NAMES:
            raise GraphError(f"node {name!r} spec {spec!r} is not an instance of a node kind")
        if type(inputs) is not tuple:
            if not isinstance(inputs, (list, tuple)):
                raise GraphError(f"node {name!r} inputs {inputs!r} are not a list or a tuple")
            inputs = tuple(inputs)
        lo, hi = spec.arity
        if len(inputs) < lo or (hi is not None and len(inputs) > hi):
            want = f">= {lo}" if hi is None else (str(lo) if lo == hi else f"{lo}..{hi}")
            raise GraphError(
                f"{spec.kind} node {name!r} takes {want} inputs, got {len(inputs)}")
        specs, names = self._spec_col, self._names
        node_id, copy = len(specs), False
        try:
            for item in inputs:
                src, port = item
                if type(src) is not int or type(port) is not int:
                    raise ValueError
                if not 0 <= src < node_id:
                    raise GraphError(f"node {name!r} references unknown input {src}")
                if port and not 0 <= port < specs[src].num_outputs():
                    raise GraphError(
                        f"node {name!r} references port {port} of node {src}, "
                        f"which has {specs[src].num_outputs()} outputs")
                if type(item) is not tuple:
                    copy = True
            if copy:  # a list pair stays the caller's to change: keep its items
                inputs = tuple([(src, port) for src, port in inputs])
        except (TypeError, ValueError):  # not two items, or not two integers
            raise GraphError(
                f"node {name!r} input {item!r} is not a pair of integers") from None
        if type(name) is not str:
            raise GraphError(f"node name {name!r} is not a string")
        if not name:
            name = f"{spec.kind}_{node_id}"
        elif not name.isascii():  # a lone surrogate: no UTF-8 writer takes it
            try:
                name.encode("utf-8")
            except UnicodeEncodeError as err:
                raise GraphError(f"node {name!r}: {err}") from None
        if name in names:
            raise GraphError(f"duplicate node name {name!r}")

        specs.append(spec)
        self._name_col.append(name)
        self._input_col.append(inputs)
        names.add(name)
        return node_id

    def _repeat(self, first: int, label: str, labels: list[str]) -> int:
        """Append one copy of the template, nodes ``first`` to the last, per
        label, and return the last node's id.  Copies share the template's
        specs, swap its names' ``label`` prefix for their label, and take
        its feeds moved on by its length: where node ``first - 1`` fed the
        template, the last node of the copy before feeds each copy.  Nothing
        is checked: ``arch._units``, the one caller, states what it passes."""
        specs, size = self._spec_col, len(self._spec_col) - first
        template, cut = self._input_col[first:], len(label)
        tails = [name[cut:] for name in self._name_col[first:]]
        new_names = [new + tail for new in labels for tail in tails]
        specs.extend(specs[first:] * len(labels))
        self._name_col.extend(new_names)
        self._names.update(new_names)
        self._input_col.extend([
            ((feeds[0][0] + offset, feeds[0][1]),) if len(feeds) == 1
            else tuple([(s + offset, p) for s, p in feeds])
            for offset in range(size, size * len(labels) + 1, size)
            for feeds in template])
        return len(specs) - 1

    def inputs_of(self, node_id: int) -> list[tuple[int, int]]:
        """(producer id, producer port) per input port, in port order."""
        if type(node_id) is not int:
            raise GraphError(f"node id {typed_repr(node_id)} is not an int")
        if not 0 <= node_id < len(self._input_col):
            raise GraphError(f"no node with id {node_id}")
        return list(self._input_col[node_id])

    def validate(self) -> list:
        """Always ``[]``: every graph is valid by construction (see the class
        doc), so there is nothing left to report."""
        return []

    def topo_order(self) -> list[int]:
        """Node ids in insertion order, which is topological (see class doc)."""
        return list(range(len(self._spec_col)))

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        nodes = [{"id": node_id, "name": name, "kind": spec.kind,
                  "attrs": {attr: _json_value(getattr(spec, attr))
                            for attr in _ATTR_NAMES[type(spec)]}}
                 for node_id, (spec, name) in enumerate(zip(self._spec_col, self._name_col))]
        return {"nodes": nodes, "edges": [list(edge) for edge in self.edges]}

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
        for node_id, spec, name, inputs in zip(range(len(self)), self._spec_col,
                                               self._name_col, self._input_col):
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
        # spec key -> spec, for this call only.  marshal writes each value
        # with its exact type at any depth (a bytes-like one as bytes, which
        # no kind takes), so 1, true and 1.0 never share an entry, nor do
        # [4, 2, 2] and [4.0, 2, 2]; version 0 writes no marks that depend
        # on reference counts.
        specs: dict[bytes, NodeSpec] = {}
        decoded = []
        for pos, item in enumerate(items):
            try:
                item_id, kind, attrs, name = _NODE_FIELDS(item)
                if type(item_id) is not int:
                    raise TypeError(f"id {item_id!r} is not an integer")
                if type(name) is not str or not name:
                    raise TypeError(f"name {name!r} is not a non-empty string")
                try:
                    key = marshal.dumps((kind, attrs), 0)
                except ValueError:  # a type marshal does not write (an int
                    key = None      # subclass), or too deep: decode it unshared
                spec = specs.get(key)
                if spec is None:  # every key in specs holds a known kind
                    spec_cls = _KIND_CLASSES.get(kind)
                    if spec_cls is None:
                        raise GraphError(f"node {_label(item, pos)} has unknown kind {kind!r}")
                    spec = spec_cls(**attrs)
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
        # sorted by consumer, then port, each edge is its consumer's next
        # input; the first that is not stops the walk at the lowest node with
        # bad ports.  to_json writes edges in that order, so the sort is one pass.
        edges.sort(key=_DST_PORT)
        inputs: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        stray, bad = False, n
        for src, port, dst, dst_port in edges:
            if not 0 <= dst < n:
                stray = True
            elif dst_port == len(inputs[dst]):
                inputs[dst].append((src, port))
            else:
                bad = dst
                break
        graph = cls()
        for (_, spec, name), node_inputs in zip(decoded[:bad], inputs):
            graph.add_node(spec, node_inputs, name)
        if bad < n:  # the nodes before it are built first: their errors win
            ports = [edge[3] for edge in edges if edge[2] == bad]
            raise GraphError(f"node {decoded[bad][2]!r} has input ports {ports}; "
                             f"they must be 0..{len(ports) - 1}, each exactly once")
        if stray:
            raise GraphError("an edge feeds a node id that does not exist")
        return graph

    @classmethod
    def from_json(cls, text: str) -> "Graph":
        """Inverse of :meth:`to_json`.  A number with a fraction or an
        exponent is read exactly, as an ``ExactDecimal``.  Malformed JSON,
        nesting too deep, an integer over Python's digit limit and a number
        ``exact_fraction`` refuses raise a one-line GraphError, as a
        malformed document does."""
        try:
            doc = json.loads(text, parse_float=ExactDecimal)
        except (ValueError, RecursionError) as err:  # incl. JSONDecodeError, NumberError
            raise GraphError(f"malformed graph JSON: {err}") from None
        return cls.from_json_dict(doc)


# --------------------------------------------------------------------------
# JSON helpers.  The writers build the text of json.dumps(..., indent=2,
# sort_keys=True) from templates: nodes sit at indent level 2, attribute
# values at level 4.
# --------------------------------------------------------------------------

_ATTR_PAD = "\n" + " " * 8


def _json_value(value):
    """An attribute value as ``to_json_dict`` holds it: a TensorShape is a
    list of ints, and a split's Fractions a list of strings."""
    if isinstance(value, tuple):
        return [str(v) if isinstance(v, Fraction) else v for v in value]
    return value


_ID = itemgetter(0)
_NODE_FIELDS = itemgetter("id", "kind", "attrs", "name")
_DST_PORT = itemgetter(2, 3)


def _label(item, pos: int) -> str:
    """How a decode error names a node: its name, else its position."""
    if isinstance(item, dict) and "name" in item:
        return repr(item["name"])
    return f"#{pos}"


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
    """``_json_value(value)`` encoded at an attribute's indent level: an int,
    a bool, or a list of ints or of strings."""
    value = _json_value(value)
    kind = type(value)
    if kind is int:
        return str(value)
    if kind is bool:
        return "true" if value else "false"
    if kind is str:
        return _json_str(value)
    pad = _ATTR_PAD + "  "
    return f"[{','.join([pad + _attr_json(v) for v in value])}{_ATTR_PAD}]"
