"""Structural graph behavior: construction, validation, ordering, JSON."""
from fractions import Fraction

import pytest

from pillarcost.graph import (
    Add, ArityMismatchError, BatchNorm, ChannelShuffle, ChannelSplit, Concat,
    Conv, DuplicateNameError, Edge, Graph, GraphError, Input,
    InvalidGraphError, MaxPool, ReLU, Scatter, TensorShape, TransposedConv, UnknownInputError,
    input_arity, num_outputs,
)


def small_chain() -> Graph:
    g = Graph()
    a = g.add_node(Input(TensorShape(3, 8, 8)), name="in")
    b = g.add_node(Conv(16, 3, 3, pad_h=1, pad_w=1), [(a, 0)], name="conv")
    c = g.add_node(BatchNorm(), [(b, 0)], name="bn")
    g.add_node(ReLU(), [(c, 0)], name="relu")
    return g


class TestTensorShape:
    def test_accessors(self):
        s = TensorShape(3, 4, 5)
        assert s.pixels == 20
        assert s.with_channels(7) == TensorShape(7, 4, 5)

    @pytest.mark.parametrize("bad", [(0, 1, 1), (1, -2, 1), (1, 1, 0)])
    def test_rejects_non_positive_dims(self, bad):
        with pytest.raises(ValueError):
            TensorShape(*bad)


class TestNodeSpecs:
    def test_split_fractions_normalized(self):
        split = ChannelSplit(fractions=("1/2", Fraction(1, 2)))
        assert split.fractions == (Fraction(1, 2), Fraction(1, 2))

    def test_split_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError):
            ChannelSplit(fractions=(Fraction(1, 2), Fraction(1, 3)))

    def test_conv_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            Conv(0, 3, 3)
        with pytest.raises(ValueError):
            Conv(8, 3, 3, pad_h=-1)

    def test_arity_table(self):
        assert input_arity(Input(TensorShape(1, 1, 1))) == (0, 0)
        assert input_arity(Add()) == (2, None)
        assert input_arity(Concat()) == (2, None)
        assert input_arity(Conv(8, 1, 1)) == (1, 1)

    def test_num_outputs(self):
        split = ChannelSplit(fractions=(Fraction(1, 4),) * 4)
        assert num_outputs(split) == 4
        assert num_outputs(ReLU()) == 1


class TestAddNode:
    def test_ids_are_dense_insertion_order(self):
        g = small_chain()
        assert [n.id for n in g.nodes] == [0, 1, 2, 3]
        assert len(g) == 4

    def test_unknown_input_rejected_and_graph_unchanged(self):
        g = small_chain()
        before = (g.nodes, g.edges)
        with pytest.raises(UnknownInputError):
            g.add_node(ReLU(), [(99, 0)], name="bad")
        assert (g.nodes, g.edges) == before

    def test_bad_port_rejected(self):
        g = small_chain()
        with pytest.raises(UnknownInputError):
            g.add_node(ReLU(), [(1, 1)], name="bad")

    def test_arity_enforced(self):
        g = small_chain()
        with pytest.raises(ArityMismatchError):
            g.add_node(Add(), [(3, 0)], name="lonely_add")
        with pytest.raises(ArityMismatchError):
            g.add_node(Input(TensorShape(1, 1, 1)), [(3, 0)], name="fed_input")

    def test_duplicate_name_rejected(self):
        g = small_chain()
        with pytest.raises(DuplicateNameError):
            g.add_node(ReLU(), [(3, 0)], name="conv")

    def test_autogenerated_names_are_unique(self):
        g = Graph()
        a = g.add_node(Input(TensorShape(1, 2, 2)))
        g.add_node(ReLU(), [(a, 0)])
        g.add_node(ReLU(), [(1, 0)])
        assert not g.validate()

    def test_inputs_of_preserves_port_order(self):
        g = Graph()
        a = g.add_node(Input(TensorShape(4, 2, 2)), name="in")
        b = g.add_node(ReLU(), [(a, 0)], name="r1")
        c = g.add_node(ReLU(), [(a, 0)], name="r2")
        d = g.add_node(Concat(), [(c, 0), (b, 0)], name="cat")
        assert g.inputs_of(d) == [(c, 0), (b, 0)]
        assert sorted(g.consumers_of(a)) == [b, c]

    def test_input_table_matches_inputs_of(self):
        g = Graph()
        a = g.add_node(Input(TensorShape(4, 2, 2)), name="in")
        s = g.add_node(ChannelSplit(fractions=(Fraction(1, 2), Fraction(1, 2))),
                       [(a, 0)], name="split")
        g.add_node(Concat(), [(s, 1), (a, 0), (s, 0)], name="cat")
        table = g.input_table()
        assert table == [[], [(a, 0)], [(s, 1), (a, 0), (s, 0)]]
        assert table == [g.inputs_of(n.id) for n in g.nodes]

    def test_inputs_of_unknown_node_rejected(self):
        with pytest.raises(UnknownInputError):
            small_chain().inputs_of(4)


class TestValidate:
    def test_valid_graph_has_no_diagnostics(self):
        assert small_chain().validate() == []

    def test_cycle_detected(self):
        g = small_chain()
        g._edges.append(Edge(3, 0, 1, 1))  # back edge, bypassing add_node
        codes = {d.code for d in g.validate()}
        assert "CycleDetected" in codes

    def test_dangling_edge_detected(self):
        g = small_chain()
        g._edges.append(Edge(17, 0, 3, 1))
        codes = {d.code for d in g.validate()}
        assert "DanglingEdge" in codes

    def test_missing_input_port_detected(self):
        g = small_chain()
        g._edges.pop()  # relu loses its only input
        codes = {d.code for d in g.validate()}
        assert "ArityMismatch" in codes


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
        assert all(pos[e.src] < pos[e.dst] for e in g.edges)

    def test_invalid_graph_raises(self):
        g = small_chain()
        g._edges.append(Edge(3, 0, 1, 1))
        with pytest.raises(InvalidGraphError):
            g.topo_order()


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
        assert [n.spec for n in restored.nodes] == [n.spec for n in g.nodes]
        assert restored.edges == g.edges

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

    def test_edge_to_missing_node_rejected(self):
        doc = small_chain().to_json_dict()
        doc["edges"].append([3, 0, 9, 0])
        with pytest.raises(GraphError, match="does not exist"):
            Graph.from_json_dict(doc)
