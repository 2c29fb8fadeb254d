"""Structural graph behavior: construction, validation, ordering, JSON."""
import json
import random
import re
from fractions import Fraction

import pytest

from pillarcost.graph import (
    Add, BatchNorm, ChannelShuffle, ChannelSplit, Concat, Conv, FieldError,
    Graph, GraphError, Input, MaxPool, ReLU, Scatter, ShapeError, TensorShape,
    TransposedConv, _KIND_CLASSES,
)
from pillarcost.arch import build_pointpillars
from pillarcost.core import Variant
from pillarcost.cost import NodeCost, graph_cost
from pillarcost.shapes import infer_all


class Int(int):
    """An int subclass: shapes and node fields take exact ints only."""


class Str(str):
    """A str subclass: a node name is an exact str."""


def small_chain() -> Graph:
    g = Graph()
    a = g.add_node(Input(TensorShape(3, 8, 8)), name="in")
    b = g.add_node(Conv(16, 3, 3, pad_h=1, pad_w=1), [(a, 0)], name="conv")
    c = g.add_node(BatchNorm(), [(b, 0)], name="bn")
    g.add_node(ReLU(), [(c, 0)], name="relu")
    return g


def two_equal_convs() -> Graph:
    g = Graph()
    a = g.add_node(Input(TensorShape(4, 8, 8)), name="in")
    b = g.add_node(Conv(4, 3, 3, pad_h=1, pad_w=1), [(a, 0)], name="a")
    g.add_node(Conv(4, 3, 3, pad_h=1, pad_w=1), [(b, 0)], name="b")
    return g


class TestTensorShape:
    def test_accessors(self):
        s = TensorShape(3, 4, 5)
        assert s.pixels == 20

    @pytest.mark.parametrize("bad", [(0, 1, 1), (1, -2, 1), (1, 1, 0), (True, 1, 1),
                                     (1, Int(2), 1), (1, 1, 2.0)])
    def test_rejects_non_positive_dims(self, bad):
        with pytest.raises(ValueError, match="must be an integer >= 1"):
            TensorShape(*bad)

    def test_replace_is_checked(self):
        assert TensorShape(3, 4, 5)._replace(width=6) == TensorShape(3, 4, 6)
        with pytest.raises(ValueError, match="channels must be an integer >= 1"):
            TensorShape(3, 4, 5)._replace(channels=0)


class TestRecords:
    """The per-node records are tuples with named fields.  Error messages
    such as ``add inputs differ`` embed their reprs."""

    @pytest.mark.parametrize("record, text, values", [
        (TensorShape(3, 4, 5), "TensorShape(channels=3, height=4, width=5)", (3, 4, 5)),
        (NodeCost("conv", "conv", 432, 16),
         "NodeCost(name='conv', kind='conv', madds=432, params=16)",
         ("conv", "conv", 432, 16)),
    ], ids=["TensorShape", "NodeCost"])
    def test_repr_frozen_fields_and_tuple_equality(self, record, text, values):
        assert repr(record) == text
        field = text[text.index("(") + 1:text.index("=")]
        with pytest.raises(AttributeError):
            setattr(record, field, values[0])
        with pytest.raises(AttributeError):
            record.extra = 1
        assert record == values and hash(record) == hash(values)
        first, *_ = record
        assert first == values[0] == getattr(record, field)

    def test_error_message_embeds_shape_reprs(self):
        g = Graph()
        a = g.add_node(Input(TensorShape(3, 8, 8)), name="in")
        b = g.add_node(Conv(4, 3, 3), [(a, 0)], name="conv")
        g.add_node(Add(), [(a, 0), (b, 0)], name="add")
        with pytest.raises(ShapeError, match=re.escape(
                "add: add inputs differ: TensorShape(channels=3, height=8, width=8) "
                "vs TensorShape(channels=4, height=6, width=6)")):
            infer_all(g)


class TestNodeSpecs:
    def test_split_fractions_normalized(self):
        split = ChannelSplit(fractions=("1/2", Fraction(1, 2)))
        assert split.fractions == (Fraction(1, 2), Fraction(1, 2))

    def test_split_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError):
            ChannelSplit(fractions=(Fraction(1, 2), Fraction(1, 3)))

    @pytest.mark.parametrize("fractions", [5, ("x",), ("1/2", None)],
                             ids=["int", "text", "none"])
    def test_bad_split_fractions_are_field_errors(self, fractions):
        with pytest.raises(FieldError, match=r"^fractions must be a list of numbers, got "):
            ChannelSplit(fractions=fractions)

    def test_a_zero_split_fraction_is_refused(self):
        with pytest.raises(FieldError, match="^split fractions must be positive$"):
            ChannelSplit((Fraction(0), Fraction(1)))

    @pytest.mark.parametrize("pad, zero, dims, one, out", [
        ({"pad_h": 1}, (2, 1, 5), "0x6", (2, 2, 5), (4, 1, 6)),
        ({"pad_w": 1}, (2, 5, 1), "6x0", (2, 5, 2), (4, 6, 1)),
    ], ids=["height", "width"])
    def test_transposed_conv_output_must_be_at_least_one(self, pad, zero, dims, one, out):
        conv = TransposedConv(4, 2, 2, **pad)
        with pytest.raises(ShapeError, match=f"^transposed conv output dims {dims}$"):
            conv.output_shapes([TensorShape(*zero)])
        assert conv.output_shapes([TensorShape(*one)]) == [out]

    def test_conv_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            Conv(0, 3, 3)
        with pytest.raises(ValueError):
            Conv(8, 3, 3, pad_h=-1)
        with pytest.raises(ValueError, match="out_channels"):
            Conv(Int(8), 3, 3)

    @pytest.mark.parametrize("make", [
        lambda bias: Conv(8, 3, 3, has_bias=bias),
        lambda bias: TransposedConv(8, 3, 3, has_bias=bias),
    ], ids=["conv", "transposed_conv"])
    def test_conv_kinds_reject_a_bias_flag_that_is_not_a_bool(self, make):
        assert make(True).has_bias is True
        for bad in ("yes", 1, 0, None):
            with pytest.raises(ValueError, match="has_bias"):
                make(bad)

    def test_input_reads_a_shape_from_its_json_form(self):
        assert Input([3, 8, 8]) == Input((3, 8, 8)) == Input(TensorShape(3, 8, 8))
        assert type(Input([3, 8, 8]).shape) is TensorShape
        for shape in (b"\x03\x08\x08", "388", 3, [3, 8], [3, 8, 8, 1]):
            with pytest.raises(FieldError) as info:
                Input(shape)
            assert str(info.value) == f"shape must be a list of 3 integers, got {shape!r}"

    @pytest.mark.parametrize("make", [
        lambda pad: Conv(8, 3, 3, pad_h=pad),
        lambda pad: TransposedConv(8, 3, 3, pad_h=pad),
        lambda pad: MaxPool(3, 3, pad_h=pad),
    ], ids=["conv", "transposed_conv", "max_pool"])
    def test_window_kinds_reject_float_padding(self, make):
        assert make(1).pad_h == 1
        with pytest.raises(ValueError, match="pad_h"):
            make(1.0)

    def test_arity_table(self):
        assert Input(TensorShape(1, 1, 1)).arity == (0, 0)
        assert Add().arity == (2, None)
        assert Concat().arity == (2, None)
        assert Conv(8, 1, 1).arity == (1, 1)

    def test_num_outputs(self):
        split = ChannelSplit(fractions=(Fraction(1, 4),) * 4)
        assert split.num_outputs() == 4
        assert ReLU().num_outputs() == 1

    # one instance of every kind, with input shapes it accepts
    SAMPLES = {
        "input": (Input(TensorShape(4, 6, 6)), []),
        "conv": (Conv(8, 3, 3, 2, 2, 1, 1, groups=2, has_bias=True), [TensorShape(4, 6, 6)]),
        "transposed_conv": (TransposedConv(2, 2, 2, 2, 2, output_pad_h=1),
                            [TensorShape(4, 6, 6)]),
        "batch_norm": (BatchNorm(), [TensorShape(4, 6, 6)]),
        "relu": (ReLU(), [TensorShape(4, 6, 6)]),
        "max_pool": (MaxPool(3, 3, 2, 2, 1, 1), [TensorShape(4, 6, 6)]),
        "add": (Add(), [TensorShape(4, 6, 6)] * 3),
        "concat": (Concat(), [TensorShape(4, 6, 6)] * 2),
        "channel_split": (ChannelSplit((Fraction(1, 4), Fraction(3, 4))),
                          [TensorShape(4, 6, 6)]),
        "channel_shuffle": (ChannelShuffle(2), [TensorShape(4, 6, 6)]),
        "scatter": (Scatter(5, 7), [TensorShape(4, 6, 6)]),
    }

    def test_samples_cover_every_kind(self):
        assert set(self.SAMPLES) == set(_KIND_CLASSES)

    @pytest.mark.parametrize("kind", sorted(_KIND_CLASSES))
    def test_every_kind_defines_its_behaviour(self, kind):
        spec, in_shapes = self.SAMPLES[kind]
        assert type(spec) is _KIND_CLASSES[kind] and spec.kind == kind
        lo, hi = spec.arity
        assert lo <= len(in_shapes) and (hi is None or len(in_shapes) <= hi)
        out_shapes = spec.output_shapes(in_shapes)
        assert len(out_shapes) == spec.num_outputs() >= 1
        assert all(isinstance(s, TensorShape) for s in out_shapes)
        assert spec.madds(in_shapes) >= 0
        assert spec.params(in_shapes) >= 0

        g = Graph()
        if in_shapes:
            src = g.add_node(Input(in_shapes[0]), name="in")
            g.add_node(spec, [(src, 0)] * len(in_shapes), name="node")
        else:
            g.add_node(spec, name="node")
        restored = Graph.from_json(g.to_json())
        assert restored.columns()[0][-1] == spec
        assert restored.to_json() == g.to_json()


class TestAddNode:
    def test_ids_are_dense_insertion_order(self):
        g = small_chain()
        assert len(g) == 4 and list(map(len, g.columns())) == [4, 4, 4]
        assert g.add_node(ReLU(), [(3, 0)]) == 4

    def test_unknown_input_rejected_and_graph_unchanged(self):
        g = small_chain()
        before = g.columns()
        with pytest.raises(GraphError, match="^node 'bad' references unknown input 99$"):
            g.add_node(ReLU(), [(99, 0)], name="bad")
        assert g.columns() == before

    def test_bad_port_rejected(self):
        g = small_chain()
        with pytest.raises(GraphError, match="^node 'bad' references port 1 of node 1, "
                                             "which has 1 outputs$"):
            g.add_node(ReLU(), [(1, 1)], name="bad")
        # True == 1 and 0.0 == 0 pass the range checks, but the JSON form of
        # an edge holds integers
        for bad in [(True, 0), (1, False), (1, 0.0), ("1", 0)]:
            with pytest.raises(GraphError, match="^node 'bad' input .* is not a pair of integers$"):
                g.add_node(ReLU(), [bad], name="bad")
        # a multi-output producer has exactly its own ports
        split = g.add_node(ChannelSplit((Fraction(1, 2),) * 2), [(3, 0)], name="split")
        g.add_node(ReLU(), [(split, 1)], name="second_half")
        with pytest.raises(GraphError, match="^node 'bad' references port 2 of node 4, "
                                             "which has 2 outputs$"):
            g.add_node(ReLU(), [(split, 2)], name="bad")
        assert len(g) == 6

    @pytest.mark.parametrize("bad", [(0,), (0, 0, 0), 0, None],
                             ids=["one_item", "three_items", "int", "none"])
    def test_an_input_that_is_not_two_items_is_refused(self, bad):
        # unpacking it raises ValueError or TypeError, which add_node names
        g = small_chain()
        before = g.columns()
        with pytest.raises(GraphError) as info:
            g.add_node(ReLU(), [bad], name="bad")
        assert str(info.value) == f"node 'bad' input {bad!r} is not a pair of integers"
        assert g.columns() == before

    @pytest.mark.parametrize("bad", [5, None, {(0, 0): "x"}], ids=["int", "none", "dict"])
    def test_inputs_that_are_not_a_list_or_a_tuple_are_refused(self, bad):
        # a dict would be read as its keys, so only a list or a tuple is taken
        g = small_chain()
        before = g.columns()
        with pytest.raises(GraphError) as info:
            g.add_node(ReLU(), bad, name="bad")
        assert str(info.value) == f"node 'bad' inputs {bad!r} are not a list or a tuple"
        assert g.columns() == before

    def test_a_pair_that_is_a_list_is_stored_as_a_tuple(self):
        # the caller keeps its lists: changing them later changes no graph
        g = small_chain()
        feed, second = [3, 0], [2, 0]
        relu = g.add_node(ReLU(), [feed], "r")
        add = g.add_node(Add(), ([relu, 0], second), "add")
        want = (g.columns(), g.to_json(), graph_cost(g))
        assert want[0][2][relu:] == (((3, 0),), ((relu, 0), (2, 0)))
        feed[0] = 5
        feed.append(7)
        second[1] = 1
        assert (g.columns(), g.to_json(), graph_cost(g)) == want
        assert {type(pair) for pair in g.columns()[2][add]} == {tuple}

    @pytest.mark.parametrize("spec", [ReLU, "relu", None], ids=["class", "str", "none"])
    def test_a_spec_that_is_not_a_node_kind_is_refused(self, spec):
        # a kind's class has its arity, but cost and JSON know only instances
        g = small_chain()
        before = g.columns()
        with pytest.raises(GraphError) as info:
            g.add_node(spec, [(3, 0)], name="bad")
        assert str(info.value) == f"node 'bad' spec {spec!r} is not an instance of a node kind"
        assert g.columns() == before and g._names == set(before[1])

    def test_arity_enforced(self):
        g = small_chain()
        with pytest.raises(GraphError, match="^add node 'lonely_add' takes >= 2 inputs, got 1$"):
            g.add_node(Add(), [(3, 0)], name="lonely_add")
        with pytest.raises(GraphError, match="^input node 'fed_input' takes 0 inputs, got 1$"):
            g.add_node(Input(TensorShape(1, 1, 1)), [(3, 0)], name="fed_input")

    def test_duplicate_name_rejected(self):
        g = small_chain()
        with pytest.raises(GraphError, match="^duplicate node name 'conv'$"):
            g.add_node(ReLU(), [(3, 0)], name="conv")

    @pytest.mark.parametrize("name", [0, False, None, (), 5, b"x", Str("relu_4")],
                             ids=["zero", "false", "none", "empty_tuple", "int", "bytes",
                                  "str_subclass"])
    def test_a_name_that_is_not_a_str_is_refused(self, name):
        # a falsy name is refused too, not given the default <kind>_<id>
        g = small_chain()
        with pytest.raises(GraphError) as info:
            g.add_node(ReLU(), [(3, 0)], name=name)
        assert str(info.value) == f"node name {name!r} is not a string"
        assert len(g) == 4

    @pytest.mark.parametrize("char", ["\ud800", "\udc80", "\udfff"],
                             ids=["ud800", "udc80", "udfff"])
    def test_a_name_utf8_cannot_encode_is_refused(self, char):
        g = small_chain()
        with pytest.raises(GraphError) as info:
            g.add_node(ReLU(), [(3, 0)], name=f"pfn.{char}")
        assert str(info.value) == (f"node {f'pfn.{char}'!r}: 'utf-8' codec can't encode "
                                   f"character {char!r} in position 4: surrogates not allowed")
        assert len(g) == 4
        g.add_node(ReLU(), [(3, 0)], name="pfn.é中")  # non-ASCII that UTF-8 encodes
        assert g.columns()[1][4] == "pfn.é中"

    def test_autogenerated_names_are_unique(self):
        g = Graph()
        a = g.add_node(Input(TensorShape(1, 2, 2)))
        g.add_node(ReLU(), [(a, 0)])
        g.add_node(ReLU(), [(1, 0)])
        assert g.columns()[1] == ("input_0", "relu_1", "relu_2")

    def test_inputs_of_preserves_port_order(self):
        g = Graph()
        a = g.add_node(Input(TensorShape(4, 2, 2)), name="in")
        b = g.add_node(ReLU(), [(a, 0)], name="r1")
        c = g.add_node(ReLU(), [(a, 0)], name="r2")
        d = g.add_node(Concat(), [(c, 0), (b, 0)], name="cat")
        assert g.inputs_of(d) == [(c, 0), (b, 0)]
        assert g.columns()[2][d] == ((c, 0), (b, 0))

    def test_node_inputs_match_inputs_of_and_edges(self):
        g = Graph()
        a = g.add_node(Input(TensorShape(4, 2, 2)), name="in")
        s = g.add_node(ChannelSplit(fractions=(Fraction(1, 2), Fraction(1, 2))),
                       [(a, 0)], name="split")
        g.add_node(Concat(), [(s, 1), (a, 0), (s, 0)], name="cat")
        inputs = list(map(list, g.columns()[2]))
        assert inputs == [[], [(a, 0)], [(s, 1), (a, 0), (s, 0)]]
        assert inputs == [g.inputs_of(i) for i in range(len(g))]
        # edges are a view of the inputs: consumer id order, then port order
        assert g.edges == ((a, 0, s, 0), (s, 1, 2, 0), (a, 0, 2, 1), (s, 0, 2, 2))
        assert {type(edge) for edge in g.edges} == {tuple}

    def test_a_negative_port_is_refused_and_graph_unchanged(self):
        # port 0 is taken unchecked (every kind has an output); any other
        # port, a negative one too, is checked against the producer's outputs
        g = small_chain()
        split = g.add_node(ChannelSplit((Fraction(1, 2),) * 2), [(3, 0)], name="split")
        before = g.columns()
        for src, outputs in [(1, 1), (split, 2)]:
            with pytest.raises(GraphError) as info:
                g.add_node(ReLU(), [(src, -1)], name="bad")
            assert str(info.value) == (f"node 'bad' references port -1 of node {src}, "
                                       f"which has {outputs} outputs")
            assert g.columns() == before

    def test_inputs_of_unknown_node_rejected(self):
        with pytest.raises(GraphError, match="^no node with id 4$"):
            small_chain().inputs_of(4)
        with pytest.raises(GraphError, match="^no node with id -1$"):
            small_chain().inputs_of(-1)

    @pytest.mark.parametrize("bad, text", [(True, "True"), (False, "False"), ("1", "'1'"),
                                           (1.0, "1.0"), (None, "None"),
                                           (Int(1), "1 of type Int")],
                             ids=["true", "false", "str", "float", "none", "int_subclass"])
    def test_a_node_id_that_is_not_an_int_is_refused(self, bad, text):
        with pytest.raises(GraphError) as info:
            small_chain().inputs_of(bad)
        assert str(info.value) == f"node id {text} is not an int"


class TestColumns:
    """A graph keeps its nodes as columns, read through ``columns``."""

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_nodes_node_and_json_agree(self, variant):
        # the columns, each node's inputs_of and the JSON round trip
        g = build_pointpillars(variant)
        specs, names, inputs = g.columns()
        assert len(specs) == len(names) == len(inputs) == len(g)
        assert list(map(list, inputs)) == [g.inputs_of(i) for i in range(len(g))]
        assert Graph.from_json(g.to_json()).columns() == (specs, names, inputs)

    def test_columns_are_fresh_tuples_in_id_order(self):
        g = small_chain()
        specs, names, inputs = g.columns()
        assert names == ("in", "conv", "bn", "relu")
        assert inputs == ((), ((0, 0),), ((1, 0),), ((2, 0),))
        assert specs[1] == Conv(16, 3, 3, pad_h=1, pad_w=1)
        assert type(specs) is type(names) is type(inputs) is tuple
        assert g.columns()[0] is not specs


def unit_to_repeat() -> tuple[Graph, int]:
    """An input, a stem, and a residual unit ``u1`` fed by the stem: the
    graph and the unit's first id."""
    g = Graph()
    x = g.add_node(Input(TensorShape(4, 8, 8)), name="in")
    stem = g.add_node(ReLU(), [(x, 0)], "stem")
    conv = g.add_node(Conv(4, 3, 3, pad_h=1, pad_w=1), [(stem, 0)], "u1.conv")
    bn = g.add_node(BatchNorm(), [(conv, 0)], "u1.bn")
    g.add_node(Add(), [(stem, 0), (bn, 0)], "u1.add")
    return g, conv


class TestRepeat:
    """``_repeat`` copies the nodes added last, each copy fed by the one before."""

    def test_copies_chain_and_share_specs(self):
        g, first = unit_to_repeat()
        assert g._repeat(first, "u1", ["u2", "u3"]) == 10
        specs, names, inputs = g.columns()
        assert names[5:] == ("u2.conv", "u2.bn", "u2.add", "u3.conv", "u3.bn", "u3.add")
        assert inputs[5:] == (((4, 0),), ((5, 0),), ((4, 0), (6, 0)),
                              ((7, 0),), ((8, 0),), ((7, 0), (9, 0)))
        assert all(copy is spec for copy, spec in zip(specs[5:], specs[2:5] * 2))
        # as if each node had been added by add_node
        want, _ = unit_to_repeat()
        for label in ("u2", "u3"):
            conv = want.add_node(Conv(4, 3, 3, pad_h=1, pad_w=1), [(len(want) - 1, 0)],
                                 f"{label}.conv")
            bn = want.add_node(BatchNorm(), [(conv, 0)], f"{label}.bn")
            want.add_node(Add(), [(conv - 1, 0), (bn, 0)], f"{label}.add")
        assert g.to_json() == want.to_json()
        with pytest.raises(GraphError, match="duplicate node name 'u3.bn'"):
            g.add_node(ReLU(), [(0, 0)], "u3.bn")

    def test_no_label_appends_nothing(self):
        g, first = unit_to_repeat()
        before = g.columns()
        assert g._repeat(first, "u1", ()) == len(g) - 1 == 4
        assert g.columns() == before

    def test_a_template_fed_by_nothing_outside_is_copied(self):
        g = Graph()
        g.add_node(Input(TensorShape(4, 8, 8)), name="in")
        first = g.add_node(Input(TensorShape(4, 8, 8)), name="x1.in")
        g.add_node(ReLU(), [(first, 0)], "x1.relu")
        assert g._repeat(first, "x1", ["x2"]) == 4
        assert g.columns()[2][3:] == ((), ((3, 0),))

    def test_a_port_the_last_node_has_feeds_each_copy(self):
        g = Graph()
        x = g.add_node(Input(TensorShape(8, 4, 4)), name="in")
        split = g.add_node(ChannelSplit((Fraction(1, 2), Fraction(1, 2))), [(x, 0)], "split")
        first = g.add_node(ChannelSplit((Fraction(1, 2), Fraction(1, 2))), [(split, 1)],
                           "s1.split")
        assert g._repeat(first, "s1", ["s2", "s3"]) == 4
        assert g.columns()[2][3:] == (((2, 1),), ((3, 1),))


class TestValidate:
    def test_valid_graph_has_no_diagnostics(self):
        # every graph is valid by construction; validate() stays for callers
        assert small_chain().validate() == []

    def test_cycle_detected(self):
        doc = small_chain().to_json_dict()
        doc["edges"].append([3, 0, 1, 1])  # back edge relu -> conv
        with pytest.raises(GraphError):
            Graph.from_json_dict(doc)

    def test_dangling_edge_detected(self):
        doc = small_chain().to_json_dict()
        doc["edges"].append([17, 0, 3, 1])
        with pytest.raises(GraphError):
            Graph.from_json_dict(doc)


class TestTopoOrder:
    def test_chain_order(self):
        assert small_chain().topo_order() == [0, 1, 2, 3]

    def test_ties_break_by_insertion_order(self):
        g = Graph()
        a = g.add_node(Input(TensorShape(4, 2, 2)), name="in")
        b = g.add_node(ReLU(), [(a, 0)], name="b")
        c = g.add_node(ReLU(), [(a, 0)], name="c")
        g.add_node(Add(), [(b, 0), (c, 0)], name="sum")
        assert g.topo_order() == [a, b, c, 3]

    def test_every_edge_respected(self):
        g = small_chain()
        pos = {nid: i for i, nid in enumerate(g.topo_order())}
        assert all(pos[src] < pos[dst] for src, _, dst, _ in g.edges)

    def test_invalid_graph_raises(self):
        doc = small_chain().to_json_dict()
        doc["edges"].append([3, 0, 1, 1])
        with pytest.raises(GraphError):
            Graph.from_json_dict(doc).topo_order()


class TestJsonRoundTrip:
    def test_round_trip_preserves_structure(self):
        g = Graph()
        a = g.add_node(Input(TensorShape(8, 6, 6)), name="in")
        s = g.add_node(ChannelSplit(fractions=(Fraction(1, 2), Fraction(1, 2))),
                       [(a, 0)], name="split")
        left = g.add_node(MaxPool(2, 2, 2, 2), [(s, 0)], name="pool")
        right = g.add_node(Conv(4, 3, 3, stride_h=2, stride_w=2, pad_h=1,
                                pad_w=1, groups=2, has_bias=True),
                           [(s, 1)], name="conv")
        cat = g.add_node(Concat(), [(left, 0), (right, 0)], name="cat")
        g.add_node(ChannelShuffle(2), [(cat, 0)], name="shuffle")
        g.add_node(TransposedConv(8, 2, 2, stride_h=2, stride_w=2),
                   [(cat, 0)], name="up")
        g.add_node(Scatter(10, 12), [(a, 0)], name="scatter")

        restored = Graph.from_json(g.to_json())
        assert restored.to_json() == g.to_json()
        assert restored.columns()[0] == g.columns()[0]
        assert restored.edges == g.edges

    def test_nodes_and_edges_load_in_any_order(self):
        g = Graph()
        a = g.add_node(Input(TensorShape(4, 6, 6)), name="in")
        b = g.add_node(ReLU(), [(a, 0)], name="relu")
        g.add_node(Concat(), [(b, 0), (a, 0), (b, 0)], name="cat")
        doc = g.to_json_dict()
        doc["nodes"].reverse()
        doc["edges"].reverse()
        assert Graph.from_json_dict(doc).to_json() == g.to_json()

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_edges_are_the_documents_edges_as_tuples(self, variant):
        g = build_pointpillars(variant)
        # to_json writes its edges itself; to_json_dict lists Graph.edges
        for doc in (g.to_json_dict(), json.loads(g.to_json())):
            assert g.edges == tuple(map(tuple, doc["edges"]))
        assert len(g.edges) == sum(map(len, g.columns()[2]))

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_shuffled_edges_decode_as_sorted_ones(self, variant):
        g = build_pointpillars(variant)
        doc = g.to_json_dict()
        random.Random(variant.value).shuffle(doc["edges"])
        assert doc["edges"] != g.to_json_dict()["edges"]
        assert Graph.from_json_dict(doc).to_json() == g.to_json()

    def test_serialization_is_deterministic(self):
        assert small_chain().to_json() == small_chain().to_json()

    def test_unknown_kind_rejected(self):
        doc = small_chain().to_json_dict()
        doc["nodes"][1]["kind"] = "warp"
        with pytest.raises(Exception):
            Graph.from_json_dict(doc)

    @pytest.mark.parametrize("ids", [[0, 2, 3, 4], [1, 2, 3, 4], [0, 1, 1, 2]])
    def test_non_dense_ids_rejected(self, ids):
        # with ids 0, 2, 3, 4 the edge 2 -> 4 used to feed "c" from "b"
        relu = {"kind": "relu", "attrs": {}}
        doc = {"nodes": [{"id": ids[0], "name": "in", "kind": "input",
                          "attrs": {"shape": [4, 2, 2]}}]
                        + [dict(relu, id=i, name=n) for i, n in zip(ids[1:], "abc")],
               "edges": [[ids[0], 0, ids[1], 0], [ids[1], 0, ids[2], 0],
                         [ids[1], 0, ids[3], 0]]}
        with pytest.raises(GraphError, match="node ids"):
            Graph.from_json_dict(doc)

    def test_id_gap_names_the_ids_expected(self):
        doc = {"nodes": [{"id": i, "name": f"in{i}", "kind": "input",
                          "attrs": {"shape": [4, 2, 2]}} for i in (0, 2)],
               "edges": []}
        with pytest.raises(GraphError) as info:
            Graph.from_json_dict(doc)
        assert str(info.value) == "node ids must be 0..1, each exactly once"

    @pytest.mark.parametrize("ports", [[0, 7], [0, 0], [1, 2], [0, 1, 1]])
    def test_input_ports_must_be_dense(self, ports):
        # these used to load renumbered as ports 0..k-1
        doc = {"nodes": [{"id": 0, "name": "in", "kind": "input",
                          "attrs": {"shape": [4, 2, 2]}},
                         {"id": 1, "name": "cat", "kind": "concat", "attrs": {}}],
               "edges": [[0, 0, 1, port] for port in ports]}
        with pytest.raises(GraphError, match="input ports"):
            Graph.from_json_dict(doc)

    def test_edge_to_missing_node_rejected(self):
        for dst in (9, 4, -1):  # far past, just past and below the ids 0..3
            doc = small_chain().to_json_dict()
            doc["edges"].append([3, 0, dst, 0])
            with pytest.raises(GraphError,
                               match="^an edge feeds a node id that does not exist$"):
                Graph.from_json_dict(doc)

    def test_port_error_wins_over_an_edge_to_a_missing_node(self):
        # node errors come first, in id order; a missing node comes last
        doc = {"nodes": [{"id": 0, "name": "in", "kind": "input",
                          "attrs": {"shape": [4, 2, 2]}},
                         {"id": 1, "name": "cat", "kind": "concat", "attrs": {}},
                         {"id": 2, "name": "relu", "kind": "relu", "attrs": {}}],
               "edges": [[0, 0, -1, 0], [0, 0, 9, 0], [0, 0, 1, 0], [0, 0, 1, 7],
                         [1, 0, 2, 1]]}
        with pytest.raises(GraphError) as info:
            Graph.from_json_dict(doc)
        assert str(info.value) == ("node 'cat' has input ports [0, 7]; "
                                   "they must be 0..1, each exactly once")

    def test_earlier_node_error_wins_over_a_later_port_error(self):
        doc = {"nodes": [{"id": 0, "name": "in", "kind": "input",
                          "attrs": {"shape": [4, 2, 2]}},
                         {"id": 1, "name": "relu", "kind": "relu", "attrs": {}},
                         {"id": 2, "name": "cat", "kind": "concat", "attrs": {}}],
               "edges": [[0, 0, 2, 0], [0, 0, 2, 2], [0, 0, 1, 0], [0, 0, 1, 1]]}
        with pytest.raises(GraphError, match="^relu node 'relu' takes 1 inputs, got 2$"):
            Graph.from_json_dict(doc)

    @pytest.mark.parametrize("breakage, names", [
        (lambda doc: doc["nodes"][1]["attrs"].update(bogus=1), "'conv'"),
        (lambda doc: doc["nodes"][1].pop("attrs"), "'conv'.*'attrs'"),
        (lambda doc: doc["nodes"][1].pop("name"), "#1.*'name'"),
        (lambda doc: doc["nodes"][1].pop("kind"), "'conv'.*'kind'"),
        (lambda doc: doc["nodes"][1].pop("id"), "'conv'.*'id'"),
        (lambda doc: doc.pop("nodes"), "'nodes'"),
        (lambda doc: doc.pop("edges"), "'edges'"),
        (lambda doc: doc["nodes"][1]["attrs"].update(pad_h=-1), "'conv'.*pad_h"),
        (lambda doc: doc["nodes"][0]["attrs"].update(shape=[3, 8]), "'in'"),
        (lambda doc: doc["nodes"][1].update(id="1"), "'conv'"),
        (lambda doc: doc["nodes"][1].update(name=7), "7"),
        (lambda doc: doc["nodes"][3].update(name=None), "None.*non-empty string"),
        (lambda doc: doc["nodes"][3].update(name=""), "''.*non-empty string"),
        (lambda doc: doc["nodes"][1]["attrs"].update(has_bias="yes"), "'conv'.*has_bias"),
        (lambda doc: doc["nodes"][1]["attrs"].update(has_bias=1), "'conv'.*has_bias"),
        (lambda doc: doc["edges"][0].__setitem__(1, "0"), r"edge \[0, '0', 1, 0\]"),
        (lambda doc: doc["edges"][0].__setitem__(1, True), r"edge \[0, True, 1, 0\]"),
        (lambda doc: doc["edges"][0].pop(), r"edge \[0, 0, 1\]"),
        (lambda doc: doc["nodes"][1].update(attrs=[16, 3, 3]), "'conv'.*mapping"),
        (lambda doc: doc["nodes"][1].update(attrs="16"), "'conv'.*mapping"),
        (lambda doc: doc["nodes"][1].update(attrs=None), "'conv'.*mapping"),
        (lambda doc: doc["nodes"][1].update(attrs=16), "'conv'.*mapping"),
        (lambda doc: doc["nodes"][3].update(attrs=[]), "'relu'.*mapping"),
        (lambda doc: doc["nodes"][0].update(attrs=[[3, 8, 8]]), "'in'"),
        (lambda doc: doc["nodes"][1]["attrs"].update(kernel_h=[3]), r"'conv'.*kernel_h.*\[3\]"),
        (lambda doc: doc["nodes"][1]["attrs"].update(groups={}), r"'conv'.*groups.*\{\}"),
    ], ids=["unknown_attr", "no_attrs", "no_name", "no_kind", "no_id",
            "no_nodes", "no_edges", "negative_pad", "short_shape", "string_id",
            "int_name", "null_name", "empty_name", "string_bias", "int_bias",
            "string_port", "bool_port", "three_item_edge", "list_attrs",
            "string_attrs", "null_attrs", "number_attrs", "list_attrs_of_relu",
            "list_attrs_of_input", "list_attr_value", "object_attr_value"])
    def test_malformed_document_is_one_line_graph_error(self, breakage, names):
        doc = small_chain().to_json_dict()
        breakage(doc)
        with pytest.raises(GraphError, match=names) as info:
            Graph.from_json_dict(doc)
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("pos, field, kind", [
        (0, "shape", "Input"), (1, "out_channels", "Conv"), (1, "kernel_h", "Conv"),
    ])
    def test_a_missing_field_has_one_text_for_every_kind(self, pos, field, kind):
        # an input node is decoded by its constructor, as every other kind is
        doc = small_chain().to_json_dict()
        del doc["nodes"][pos]["attrs"][field]
        name = doc["nodes"][pos]["name"]
        with pytest.raises(GraphError) as info:
            Graph.from_json_dict(doc)
        assert str(info.value) == (f"node {name!r}: {kind}.__init__() missing 1 required "
                                   f"positional argument: {field!r}")

    @pytest.mark.parametrize("escape", [r"\ud800", r"\udc80", r"\udfff"])
    def test_a_name_utf8_cannot_encode_is_refused(self, escape):
        # json.loads reads a lone surrogate escape as a str no UTF-8 writer takes
        text = small_chain().to_json().replace('"name": "relu"', f'"name": "pfn.{escape}"')
        with pytest.raises(GraphError) as info:
            Graph.from_json(text)
        message = str(info.value)
        assert message.startswith(f"node 'pfn.{escape}': 'utf-8' codec can't encode")
        assert "\n" not in message

    def test_an_edge_error_wins_over_a_name_utf8_cannot_encode(self):
        # add_node checks the name, so it is reported with each node's inputs
        doc = small_chain().to_json_dict()
        doc["nodes"][3]["name"] = "pfn.\ud800"
        doc["edges"][0] = [0, 0, 1]
        with pytest.raises(GraphError, match=r"^edge \[0, 0, 1\]"):
            Graph.from_json_dict(doc)
        doc["edges"][0] = [0, 0, 1, 0]
        with pytest.raises(GraphError) as info:
            Graph.from_json_dict(doc)
        assert str(info.value).startswith(r"node 'pfn.\ud800': 'utf-8' codec can't encode")

    def test_a_non_ascii_name_loads_and_writes(self):
        text = small_chain().to_json().replace('"name": "relu"', r'"name": "pfn.\u00e9\u4e2d"')
        g = Graph.from_json(text)
        assert "pfn.é中" in g.columns()[1]
        assert "pfn.é中,relu," in graph_cost(g).to_csv().encode("utf-8").decode("utf-8")

    @pytest.mark.parametrize("attr, first, second", [
        ("has_bias", True, 1), ("groups", 1, True), ("kernel_h", 3, 3.0),
    ])
    def test_decoded_spec_is_not_reused_for_a_value_of_another_type(self, attr, first,
                                                                     second):
        # 1, True and 1.0 are equal and hash alike; only the first is valid
        doc = two_equal_convs().to_json_dict()
        doc["nodes"][1]["attrs"][attr] = first
        doc["nodes"][2]["attrs"][attr] = second
        with pytest.raises(GraphError, match=f"^node 'b': {attr} ") as info:
            Graph.from_json_dict(doc)
        assert "\n" not in str(info.value)

    def test_decoded_spec_is_not_reused_for_an_int_subclass(self):
        # Int(4) equals 4 and hashes alike, but no node field takes it
        doc = two_equal_convs().to_json_dict()
        doc["nodes"][2]["attrs"]["out_channels"] = Int(4)
        with pytest.raises(GraphError, match="^node 'b': out_channels ") as info:
            Graph.from_json_dict(doc)
        assert "\n" not in str(info.value)

    def test_decoded_input_shape_is_not_reused_for_an_int_subclass_item(self):
        doc = {"nodes": [{"id": 0, "name": "a", "kind": "input",
                          "attrs": {"shape": [4, 2, 2]}},
                         {"id": 1, "name": "b", "kind": "input",
                          "attrs": {"shape": [Int(4), 2, 2]}}],
               "edges": []}
        with pytest.raises(GraphError, match="^node 'b': channels ") as info:
            Graph.from_json_dict(doc)
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("form", [bytes, bytearray], ids=lambda form: form.__name__)
    def test_a_bytes_like_input_shape_is_refused(self, form):
        # no kind takes a bytes-like value, which the decode key writes as bytes
        doc = {"nodes": [{"id": 0, "name": "a", "kind": "input",
                          "attrs": {"shape": form([4, 2, 2])}}],
               "edges": []}
        with pytest.raises(GraphError, match="^node 'a': shape must be a list of 3 integers, "
                                             "got "):
            Graph.from_json_dict(doc)

    @pytest.mark.parametrize("shape", [[3, 8], [3, 8, 8, 1]], ids=["short", "long"])
    def test_a_shape_of_the_wrong_length_names_its_field(self, shape):
        doc = {"nodes": [{"id": 0, "name": "a", "kind": "input", "attrs": {"shape": shape}}],
               "edges": []}
        with pytest.raises(GraphError) as info:
            Graph.from_json_dict(doc)
        assert str(info.value) == f"node 'a': shape must be a list of 3 integers, got {shape}"

    def test_decoded_input_shape_is_checked_for_every_node(self):
        # the tuple (4.0, 2, 2) equals (4, 2, 2), and the list [4.0, 2, 2] [4, 2, 2]
        for form in (tuple, list):
            doc = {"nodes": [{"id": 0, "name": "a", "kind": "input",
                              "attrs": {"shape": form((4, 2, 2))}},
                             {"id": 1, "name": "b", "kind": "input",
                              "attrs": {"shape": form((4.0, 2, 2))}}],
                   "edges": []}
            with pytest.raises(GraphError, match="^node 'b': channels .* got 4.0$") as info:
                Graph.from_json_dict(doc)
            assert "\n" not in str(info.value)

    @pytest.mark.parametrize("fractions, message", [
        ([True], "True is not a number"),  # [True] equals [1]
        (1, "fractions must be a list of numbers, got 1"),  # must not share [1]'s spec
    ], ids=["bool_item", "scalar"])
    def test_decoded_split_fractions_are_checked_for_every_node(self, fractions, message):
        # after a node whose fractions are [1], a valid one-way split
        doc = {"nodes": [{"id": 0, "name": "in", "kind": "input", "attrs": {"shape": [4, 2, 2]}},
                         {"id": 1, "name": "a", "kind": "channel_split",
                          "attrs": {"fractions": [1]}},
                         {"id": 2, "name": "b", "kind": "channel_split",
                          "attrs": {"fractions": fractions}}],
               "edges": [[0, 0, 1, 0], [1, 0, 2, 0]]}
        with pytest.raises(GraphError, match=f"^node 'b': {message}$"):
            Graph.from_json_dict(doc)

    def test_equal_list_specs_decode_to_one_object_per_call(self):
        g = Graph()
        for side in "ab":
            a = g.add_node(Input(TensorShape(4, 2, 2)), name=f"in_{side}")
            g.add_node(ChannelSplit(fractions=(Fraction(1, 2), Fraction(1, 2))),
                       [(a, 0)], name=f"split_{side}")
        text = g.to_json()
        decoded = Graph.from_json(text)
        specs = decoded.columns()[0]
        assert specs[0] is specs[2] and specs[1] is specs[3]
        assert Graph.from_json(text).columns()[0][0] is not specs[0]
        assert decoded.to_json() == text

    def test_equal_specs_decode_to_one_object_per_call(self):
        text = two_equal_convs().to_json()
        g = Graph.from_json(text)
        specs = g.columns()[0]
        assert specs[1] is specs[2] and specs[0] is not specs[1]
        assert Graph.from_json(text).columns()[0][1] is not specs[1]
        assert g.to_json() == text

    def test_huge_decimal_exponent_in_a_split_is_graph_error(self):
        doc = {"nodes": [{"id": 0, "name": "in", "kind": "input", "attrs": {"shape": [4, 2, 2]}},
                         {"id": 1, "name": "split", "kind": "channel_split",
                          "attrs": {"fractions": ["1e-99999999", "1"]}}],
               "edges": [[0, 0, 1, 0]]}
        with pytest.raises(GraphError, match="^node 'split': number '1e-99999999' has a "
                                             "decimal exponent over 4300") as info:
            Graph.from_json(json.dumps(doc))
        assert "\n" not in str(info.value)

    def test_decimals_are_read_exactly(self):
        doc = {"nodes": [{"id": 0, "name": "in", "kind": "input", "attrs": {"shape": [10, 2, 2]}},
                         {"id": 1, "name": "split", "kind": "channel_split",
                          "attrs": {"fractions": [0.3, 0.7]}}],
               "edges": [[0, 0, 1, 0]]}
        spec = Graph.from_json(json.dumps(doc)).columns()[0][1]
        assert spec.fractions == (Fraction(3, 10), Fraction(7, 10))
        assert [type(f) for f in spec.fractions] == [Fraction, Fraction]

    def test_a_decimal_integer_field_is_refused_as_written(self):
        doc = {"nodes": [{"id": 0, "name": "in", "kind": "input", "attrs": {"shape": [4, 2, 2]}},
                         {"id": 1, "name": "conv", "kind": "conv",
                          "attrs": {"out_channels": 4, "kernel_h": 3.0, "kernel_w": 3}}],
               "edges": [[0, 0, 1, 0]]}
        with pytest.raises(GraphError) as info:
            Graph.from_json(json.dumps(doc))
        assert str(info.value) == "node 'conv': kernel_h must be an integer >= 1, got 3.0"

    @pytest.mark.parametrize("fractions", [[True], [False, 1], ["1/2", True]],
                             ids=["true", "false", "mixed"])
    def test_boolean_split_fraction_is_graph_error(self, fractions):
        # Fraction(True) is 1, so [true] would load as a valid one-way split
        doc = {"nodes": [{"id": 0, "name": "in", "kind": "input", "attrs": {"shape": [4, 2, 2]}},
                         {"id": 1, "name": "split", "kind": "channel_split",
                          "attrs": {"fractions": fractions}}],
               "edges": [[0, 0, 1, 0]]}
        with pytest.raises(GraphError, match="^node 'split': (True|False) is not a number$"):
            Graph.from_json(json.dumps(doc))

    @pytest.mark.parametrize("fractions", [5, ["x"], ["1/2", None]],
                             ids=["int", "text", "none"])
    def test_bad_split_fractions_are_one_line_graph_errors(self, fractions):
        doc = {"nodes": [{"id": 0, "name": "in", "kind": "input", "attrs": {"shape": [4, 2, 2]}},
                         {"id": 1, "name": "split", "kind": "channel_split",
                          "attrs": {"fractions": fractions}}],
               "edges": [[0, 0, 1, 0]]}
        with pytest.raises(GraphError, match="^node 'split': fractions must be a list of "
                                             "numbers, got ") as info:
            Graph.from_json(json.dumps(doc))
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("text", ["[" * 100_000, "[" + "9" * 5000 + "]", "{", "",
                                      "[1e99999999]"],
                             ids=["too_deep", "int_over_digit_limit", "truncated", "empty",
                                  "huge_decimal_exponent"])
    def test_malformed_json_is_one_line_graph_error(self, text):
        with pytest.raises(GraphError, match="^malformed graph JSON: ") as info:
            Graph.from_json(text)
        assert "\n" not in str(info.value)
