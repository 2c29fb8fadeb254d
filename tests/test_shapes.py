"""Shape propagation rules for every node kind."""
from fractions import Fraction

import pytest

from pillarcost.cost import graph_cost
from pillarcost.graph import (
    Add, BatchNorm, ChannelShuffle, ChannelSplit, Concat, Conv, Graph,
    GraphError, Input, MaxPool, ReLU, Scatter, ShapeError, TensorShape,
    TransposedConv,
)
from pillarcost.shapes import infer_all, node_output_shape


def out1(spec, *shapes):
    (result,) = node_output_shape(spec, list(shapes))
    return result


class TestConv:
    def test_same_padding_preserves_size(self):
        shape = out1(Conv(16, 3, 3, pad_h=1, pad_w=1), TensorShape(8, 10, 12))
        assert shape == TensorShape(16, 10, 12)

    def test_stride_two_halves_rounding_down(self):
        shape = out1(Conv(16, 3, 3, stride_h=2, stride_w=2, pad_h=1, pad_w=1),
                     TensorShape(8, 11, 10))
        assert shape == TensorShape(16, 6, 5)

    @pytest.mark.parametrize("size,k,s,p,expect", [
        (5, 1, 1, 0, 5), (5, 3, 1, 0, 3), (5, 3, 1, 1, 5),
        (5, 3, 2, 1, 3), (4, 2, 2, 0, 2), (7, 3, 2, 0, 3),
    ])
    def test_window_formula(self, size, k, s, p, expect):
        shape = out1(Conv(4, k, k, stride_h=s, stride_w=s, pad_h=p, pad_w=p),
                     TensorShape(4, size, size))
        assert shape.height == shape.width == expect

    def test_groups_must_divide_channels(self):
        with pytest.raises(ShapeError,
                           match=r"^conv channels \(8 -> 16\) not divisible by groups=3$"):
            out1(Conv(16, 3, 3, groups=3), TensorShape(8, 10, 10))
        with pytest.raises(ShapeError,
                           match=r"^conv channels \(8 -> 15\) not divisible by groups=2$"):
            out1(Conv(15, 3, 3, groups=2), TensorShape(8, 10, 10))

    def test_kernel_larger_than_input_rejected(self):
        with pytest.raises(ShapeError, match=r"^conv height: .* yields output dim -1$"):
            out1(Conv(4, 5, 5), TensorShape(4, 3, 3))


class TestTransposedConv:
    def test_stride_two_doubles(self):
        shape = out1(TransposedConv(64, 2, 2, stride_h=2, stride_w=2),
                     TensorShape(128, 62, 54))
        assert shape == TensorShape(64, 124, 108)

    def test_inverse_of_strided_conv(self):
        # (in-1)*s - 2p + k recovers the pre-conv size for matching k, s, p
        shape = out1(TransposedConv(8, 4, 4, stride_h=4, stride_w=4),
                     TensorShape(8, 31, 27))
        assert (shape.height, shape.width) == (124, 108)

    def test_output_padding(self):
        shape = out1(TransposedConv(8, 3, 3, stride_h=2, stride_w=2, pad_h=1,
                                    pad_w=1, output_pad_h=1, output_pad_w=1),
                     TensorShape(8, 10, 10))
        assert (shape.height, shape.width) == (20, 20)

    def test_group_mismatch(self):
        with pytest.raises(ShapeError, match=r"^transposed_conv channels \(8 -> 8\) "
                                             r"not divisible by groups=3$"):
            out1(TransposedConv(8, 2, 2, groups=3), TensorShape(8, 4, 4))


class TestElementwise:
    def test_shape_preserving_kinds(self):
        s = TensorShape(6, 5, 4)
        assert out1(BatchNorm(), s) == s
        assert out1(ReLU(), s) == s
        assert out1(ChannelShuffle(3), s) == s

    def test_shuffle_needs_divisible_channels(self):
        with pytest.raises(ShapeError, match="^6 channels not divisible by shuffle groups=4$"):
            out1(ChannelShuffle(4), TensorShape(6, 5, 4))

    def test_add_requires_identical_shapes(self):
        s = TensorShape(6, 5, 4)
        assert out1(Add(), s, s, s) == s
        with pytest.raises(ShapeError, match=r"^add inputs differ: .*height=5, width=4\) "
                                             r"vs .*height=5, width=5\)$"):
            out1(Add(), s, TensorShape(6, 5, 5))

    def test_concat_sums_channels(self):
        got = out1(Concat(), TensorShape(6, 5, 4), TensorShape(10, 5, 4))
        assert got == TensorShape(16, 5, 4)
        with pytest.raises(ShapeError, match=r"^concat spatial dims differ: .*height=5, width=4\) "
                                             r"vs .*height=4, width=4\)$"):
            out1(Concat(), TensorShape(6, 5, 4), TensorShape(6, 4, 4))


class TestSplitPoolScatter:
    def test_split_partitions_channels(self):
        outs = node_output_shape(
            ChannelSplit(fractions=(Fraction(1, 4), Fraction(3, 4))),
            [TensorShape(8, 5, 5)])
        assert [s.channels for s in outs] == [2, 6]

    def test_split_must_be_integral(self):
        with pytest.raises(ShapeError, match="^fraction 1/3 of 8 channels is not integral$"):
            node_output_shape(ChannelSplit(fractions=(Fraction(1, 3),
                                                      Fraction(2, 3))),
                              [TensorShape(8, 5, 5)])

    def test_pool_keeps_channels(self):
        got = out1(MaxPool(1, 32, 1, 32), TensorShape(64, 16000, 32))
        assert got == TensorShape(64, 16000, 1)

    def test_scatter_replaces_spatial_extent(self):
        got = out1(Scatter(496, 432), TensorShape(64, 16000, 1))
        assert got == TensorShape(64, 496, 432)


class TestInferAll:
    def test_total_map_over_all_ports(self):
        g = Graph()
        a = g.add_node(Input(TensorShape(8, 6, 6)), name="in")
        s = g.add_node(ChannelSplit(fractions=(Fraction(1, 2), Fraction(1, 2))),
                       [(a, 0)], name="split")
        g.add_node(Concat(), [(s, 0), (s, 1)], name="cat")
        shapes = infer_all(g)
        assert shapes[(s, 0)] == shapes[(s, 1)] == TensorShape(4, 6, 6)
        assert shapes[(2, 0)] == TensorShape(8, 6, 6)
        assert set(shapes) == {(0, 0), (1, 0), (1, 1), (2, 0)}

    # infer_all and graph_cost share one walk, so each check runs through both

    def test_requires_exactly_one_input_node(self):
        g = Graph()
        a = g.add_node(Input(TensorShape(2, 4, 4)), name="a")
        b = g.add_node(Input(TensorShape(2, 4, 4)), name="b")
        g.add_node(Add(), [(a, 0), (b, 0)], name="sum")
        for walk in (infer_all, graph_cost):
            with pytest.raises(GraphError, match="^shape inference needs exactly one "
                                                 "input node, found 2$"):
                walk(g)

    def test_error_names_offending_node(self):
        g = Graph()
        a = g.add_node(Input(TensorShape(7, 4, 4)), name="in")
        g.add_node(ChannelShuffle(2), [(a, 0)], name="bad_shuffle")
        for walk in (infer_all, graph_cost):
            with pytest.raises(ShapeError, match="^bad_shuffle: 7 channels not divisible "
                                                 "by shuffle groups=2$"):
                walk(g)

    @pytest.mark.parametrize("spec,text", [
        (Conv(6, 3, 3, groups=4), r"conv channels \(8 -> 6\) not divisible by groups=4"),
        (Conv(6, 9, 9), r"conv height: .* yields output dim -4"),
        (ChannelSplit(fractions=(Fraction(1, 3), Fraction(2, 3))),
         "fraction 1/3 of 8 channels is not integral"),
        (Add(), r"add inputs differ: .*height=4, width=4\) vs .*height=2, width=2\)"),
        (Concat(), r"concat spatial dims differ: .*height=4, width=4\) vs .*height=2, width=2\)"),
    ], ids=["spec0-GroupMismatch", "spec1-NegativeOutputDim", "spec2-NonIntegralSplit",
            "spec3-AddShapeMismatch", "spec4-ConcatSpatialMismatch"])
    def test_conflict_raised_alike_by_infer_all_and_graph_cost(self, spec, text):
        g = Graph()
        a = g.add_node(Input(TensorShape(8, 4, 4)), name="in")
        pool = g.add_node(MaxPool(2, 2, 2, 2), [(a, 0)], name="pool")
        inputs = [(a, 0), (pool, 0)] if isinstance(spec, (Add, Concat)) else [(a, 0)]
        g.add_node(spec, inputs, name="culprit")
        for walk in (infer_all, graph_cost):
            with pytest.raises(ShapeError, match=f"^culprit: {text}$"):
                walk(g)


class TestErrorTexts:
    """Shape error messages, word for word."""

    @pytest.mark.parametrize("spec,shape,text", [
        (Conv(4, 5, 1), TensorShape(2, 3, 8),
         "conv height: window (k=5, s=1, p=0) over size 3 yields output dim -1"),
        (Conv(4, 1, 7, stride_w=2, pad_w=1), TensorShape(2, 8, 3),
         "conv width: window (k=7, s=2, p=1) over size 3 yields output dim 0"),
        (MaxPool(4, 1), TensorShape(2, 3, 8),
         "max_pool height: window (k=4, s=1, p=0) over size 3 yields output dim 0"),
        (MaxPool(1, 4, stride_w=3), TensorShape(2, 8, 3),
         "max_pool width: window (k=4, s=3, p=0) over size 3 yields output dim 0"),
        (TransposedConv(4, 3, 3, pad_h=3), TensorShape(2, 1, 1),
         "transposed conv output dims -3x3"),
    ], ids=["conv_height", "conv_width", "pool_height", "pool_width", "transposed"])
    def test_negative_output_dim(self, spec, shape, text):
        with pytest.raises(ShapeError) as info:
            node_output_shape(spec, [shape])
        assert str(info.value) == text

    @pytest.mark.parametrize("spec,text", [
        (Conv(6, 3, 3, groups=4), "conv channels (8 -> 6) not divisible by groups=4"),
        (TransposedConv(8, 2, 2, groups=3),
         "transposed_conv channels (8 -> 8) not divisible by groups=3"),
    ], ids=["conv", "transposed"])
    def test_group_mismatch(self, spec, text):
        with pytest.raises(ShapeError) as info:
            node_output_shape(spec, [TensorShape(8, 4, 4)])
        assert str(info.value) == text

    def test_walk_prefixes_the_node_name(self):
        g = Graph()
        a = g.add_node(Input(TensorShape(8, 4, 4)), name="in")
        g.add_node(Conv(8, 9, 1), [(a, 0)], name="too.tall")
        for walk in (infer_all, graph_cost):
            with pytest.raises(ShapeError) as info:
                walk(g)
            assert str(info.value) == (
                "too.tall: conv height: window (k=9, s=1, p=0) over size 4 "
                "yields output dim -4")

    def test_input_count_message(self):
        g = Graph()
        for name in ("a", "b", "c"):
            g.add_node(Input(TensorShape(2, 4, 4)), name=name)
        for walk in (infer_all, graph_cost):
            with pytest.raises(GraphError) as info:
                walk(g)
            assert str(info.value) == "shape inference needs exactly one input node, found 3"

    @pytest.mark.parametrize("second_input_first", [True, False],
                             ids=["before-the-fault", "after-the-fault"])
    def test_input_count_is_raised_before_a_shape_error(self, second_input_first):
        # the walk counts Inputs as it goes, so a second Input after the
        # node whose shapes fail must still win
        g = Graph()
        a = g.add_node(Input(TensorShape(8, 4, 4)), name="a")
        if second_input_first:
            g.add_node(Input(TensorShape(2, 4, 4)), name="b")
        g.add_node(Conv(8, 9, 1), [(a, 0)], name="too.tall")
        if not second_input_first:
            g.add_node(Input(TensorShape(2, 4, 4)), name="b")
        for walk in (infer_all, graph_cost):
            with pytest.raises(GraphError) as info:
                walk(g)
            assert str(info.value) == "shape inference needs exactly one input node, found 2"

    def test_an_empty_graph_has_no_input(self):
        for walk in (infer_all, graph_cost):
            with pytest.raises(GraphError) as info:
                walk(Graph())
            assert str(info.value) == "shape inference needs exactly one input node, found 0"
