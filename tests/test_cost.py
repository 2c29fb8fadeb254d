"""Multiply-add and parameter accounting, checked against loop oracles."""
import csv
import gc
import importlib
import io
import json
import pickle
from collections import Counter
from pathlib import Path

import pytest

import pillarcost.shapes
from pillarcost.arch import ArchConfig, Variant, build_pointpillars
from pillarcost.cost import CostReport, NodeCost, graph_cost
from pillarcost.graph import (
    Add, BatchNorm, ChannelShuffle, Concat, Conv, Graph, Input, MaxPool, ReLU,
    Scatter, ShapeError, TensorShape, TransposedConv, _Window,
)
from pillarcost.shapes import infer_all, node_output_shape, shape_table


def conv_madds_oracle(spec: Conv, shape: TensorShape) -> int:
    """Count multiplies of a naive grouped convolution, one loop step each."""
    (out,) = node_output_shape(spec, [shape])
    in_per_group = shape.channels // spec.groups
    count = 0
    for _oc in range(out.channels):
        for _oy in range(out.height):
            for _ox in range(out.width):
                for _ic in range(in_per_group):
                    for _ky in range(spec.kernel_h):
                        for _kx in range(spec.kernel_w):
                            count += 1
    if spec.has_bias:
        count += out.channels * out.height * out.width
    return count


def tconv_madds_oracle(spec: TransposedConv, shape: TensorShape) -> int:
    """Each input pixel is pushed through the full kernel once."""
    (out,) = node_output_shape(spec, [shape])
    in_per_group = shape.channels // spec.groups
    count = 0
    for _iy in range(shape.height):
        for _ix in range(shape.width):
            for _oc in range(out.channels):
                for _ic in range(in_per_group):
                    count += spec.kernel_h * spec.kernel_w
    if spec.has_bias:
        count += out.channels * out.height * out.width
    return count


class TestNodeMadds:
    @pytest.mark.parametrize("spec,shape", [
        (Conv(16, 3, 3, pad_h=1, pad_w=1), TensorShape(8, 7, 5)),
        (Conv(16, 3, 3, stride_h=2, stride_w=2, pad_h=1, pad_w=1),
         TensorShape(8, 9, 9)),
        (Conv(8, 3, 3, pad_h=1, pad_w=1, groups=8), TensorShape(8, 6, 6)),
        (Conv(12, 1, 1, has_bias=True), TensorShape(5, 4, 4)),
        (Conv(6, 1, 3, pad_w=1), TensorShape(6, 5, 5)),
    ])
    def test_conv_matches_loop_oracle(self, spec, shape):
        assert spec.madds([shape]) == conv_madds_oracle(spec, shape)

    @pytest.mark.parametrize("spec,shape", [
        (TransposedConv(64, 2, 2, stride_h=2, stride_w=2), TensorShape(128, 6, 5)),
        (TransposedConv(8, 4, 4, stride_h=4, stride_w=4), TensorShape(16, 3, 3)),
        (TransposedConv(8, 1, 1), TensorShape(4, 7, 7)),
        (TransposedConv(4, 2, 2, stride_h=2, stride_w=2, groups=4,
                        has_bias=True), TensorShape(4, 3, 3)),
    ])
    def test_transposed_conv_matches_loop_oracle(self, spec, shape):
        assert spec.madds([shape]) == tconv_madds_oracle(spec, shape)

    def test_batchnorm_one_madd_per_element(self):
        s = TensorShape(32, 10, 12)
        assert BatchNorm().madds([s]) == 32 * 10 * 12

    @pytest.mark.parametrize("spec", [
        ReLU(), Add(), Concat(), MaxPool(2, 2, 2, 2), ChannelShuffle(2),
        Scatter(4, 4),
    ])
    def test_madd_free_kinds(self, spec):
        s = TensorShape(4, 4, 4)
        shapes = [s, s] if isinstance(spec, (Add, Concat)) else [s]
        assert spec.madds(shapes) == 0

    def test_depthwise_is_cheap(self):
        s = TensorShape(64, 10, 10)
        dense = Conv(64, 3, 3, pad_h=1, pad_w=1)
        depthwise = Conv(64, 3, 3, pad_h=1, pad_w=1, groups=64)
        full = dense.madds([s])
        cheap = depthwise.madds([s])
        assert full == 64 * cheap


class TestNodeParams:
    def test_conv_weight_count(self):
        assert Conv(16, 3, 3).params([TensorShape(8, 9, 9)]) == 16 * 8 * 9
        assert Conv(16, 3, 3, has_bias=True).params(
            [TensorShape(8, 9, 9)]) == 16 * 8 * 9 + 16

    def test_grouped_conv_weight_count(self):
        assert Conv(8, 3, 3, groups=8).params([TensorShape(8, 9, 9)]) == 8 * 1 * 9

    def test_transposed_conv_weight_count(self):
        assert TransposedConv(128, 2, 2, stride_h=2, stride_w=2).params(
            [TensorShape(64, 4, 4)]) == 128 * 64 * 4

    def test_batchnorm_scale_and_shift(self):
        assert BatchNorm().params([TensorShape(32, 4, 4)]) == 64

    def test_parameter_free_kinds(self):
        s = TensorShape(4, 4, 4)
        assert ReLU().params([s]) == 0
        assert MaxPool(2, 2).params([s]) == 0


def tiny_graph() -> Graph:
    g = Graph()
    a = g.add_node(Input(TensorShape(3, 8, 8)), name="stem.in")
    b = g.add_node(Conv(16, 3, 3, pad_h=1, pad_w=1), [(a, 0)], name="stem.conv")
    c = g.add_node(BatchNorm(), [(b, 0)], name="stem.bn")
    d = g.add_node(ReLU(), [(c, 0)], name="stem.relu")
    g.add_node(Conv(4, 1, 1, has_bias=True), [(d, 0)], name="head.cls")
    return g


S = TensorShape


class TestInconsistentShapes:
    """A cost method raises where the kind's shape rule does, with the
    rule's own ShapeError text: the rule is the one check of the inputs."""

    @pytest.mark.parametrize("spec,shape,text", [
        (Conv(4, 1, 1, groups=2), S(3, 4, 4),
         "conv channels (3 -> 4) not divisible by groups=2"),
        (TransposedConv(4, 2, 2, groups=2), S(3, 4, 4),
         "transposed_conv channels (3 -> 4) not divisible by groups=2"),
    ], ids=["conv", "transposed_conv"])
    @pytest.mark.parametrize("method", ["output_shapes", "madds", "params"])
    def test_group_mismatch(self, spec, shape, text, method):
        with pytest.raises(ShapeError) as info:
            getattr(spec, method)([shape])
        assert str(info.value) == text

    @pytest.mark.parametrize("spec,shapes,text", [
        (Conv(8, 5, 5), [S(3, 2, 2)],
         "conv height: window (k=5, s=1, p=0) over size 2 yields output dim -2"),
        (Add(), [S(4, 4, 4), S(4, 2, 2)],
         "add inputs differ: TensorShape(channels=4, height=4, width=4) vs "
         "TensorShape(channels=4, height=2, width=2)"),
        (ChannelShuffle(3), [S(4, 4, 4)], "4 channels not divisible by shuffle groups=3"),
    ], ids=["window_too_small", "add_mismatch", "shuffle_groups"])
    @pytest.mark.parametrize("method", ["output_shapes", "madds", "params"])
    def test_shape_rule_error(self, spec, shapes, text, method):
        with pytest.raises(ShapeError) as info:
            getattr(spec, method)(shapes)
        assert str(info.value) == text


def test_graph_cost_runs_each_window_rule_once_per_entry(monkeypatch):
    # the shape walk derives each entry's output size; the cost reads it
    calls = Counter()
    for cls in (_Window, TransposedConv):
        def counted(self, s, rule=vars(cls)["_out_hw"]):
            calls[id(self), s] += 1
            return rule(self, s)
        monkeypatch.setattr(cls, "_out_hw", counted)
    for variant in Variant:
        graph = build_pointpillars(variant)
        windows = {(id(spec), in_shapes[0]) for spec, in_shapes, _ in shape_table(graph)[1]
                   if isinstance(spec, _Window)}
        calls.clear()
        graph_cost(graph)
        assert set(calls) == windows and set(calls.values()) == {1}, variant


class TestGraphCost:
    def test_totals_and_rows(self):
        report = graph_cost(tiny_graph())
        assert len(report.per_node) == 5
        conv = 16 * 3 * 9 * 64
        bn = 16 * 64
        head = 4 * 16 * 64 + 4 * 64
        assert report.total_madds == conv + bn + head
        assert report.total_params == 16 * 3 * 9 + 32 + (4 * 16 + 4)

    def test_rows_follow_topo_order(self):
        g = tiny_graph()
        report = graph_cost(g)
        names = [g.columns()[1][i] for i in g.topo_order()]
        assert [c.name for c in report.per_node] == names

    def test_per_stage_groups_by_leading_component(self):
        stages = graph_cost(tiny_graph()).per_stage()
        assert set(stages) == {"stem", "head"}
        assert stages["head"] == (4 * 16 * 64 + 4 * 64, 4 * 16 + 4)

    def test_batchnorm_folding(self):
        full = graph_cost(tiny_graph())
        folded = graph_cost(tiny_graph(), count_batchnorm=False)
        assert full.total_madds - folded.total_madds == 16 * 64
        assert full.total_params - folded.total_params == 32

    def test_csv_is_reparseable_and_totals(self):
        report = graph_cost(tiny_graph())
        text = report.to_csv()
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["name", "kind", "madds", "params"]
        assert rows[-1][0] == "TOTAL"
        assert int(rows[-1][2]) == report.total_madds
        assert sum(int(r[2]) for r in rows[1:-1]) == report.total_madds

    def test_csv_quotes_node_names(self):
        doc = tiny_graph().to_json_dict()
        doc["nodes"][2]["name"] = "a,b"
        doc["nodes"][3]["name"] = 'say "hi"'
        report = graph_cost(Graph.from_json(json.dumps(doc)))
        rows = list(csv.reader(io.StringIO(report.to_csv())))
        assert [r[0] for r in rows[1:-1]] == [c.name for c in report.per_node]
        assert rows[3] == ["a,b", "batch_norm", str(16 * 64), "32"]
        assert all(len(r) == 4 for r in rows)

    @pytest.mark.parametrize("count_batchnorm", [True, False])
    def test_single_walk(self, monkeypatch, count_batchnorm):
        """One shape inference per distinct (spec object, input shapes); no
        validation pass, no per-node edge scan and no separate ordering
        pass."""
        graph = build_pointpillars(Variant.SHUFFLENET_V2)
        shapes = infer_all(graph)
        specs, _, inputs = graph.columns()
        distinct = {(id(spec), tuple(shapes[feed] for feed in feeds))
                    for spec, feeds in zip(specs, inputs)}
        calls = Counter()

        def count(owner, name):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)

        for name in ("validate", "inputs_of", "topo_order"):
            count(Graph, name)
        count(pillarcost.shapes, "node_output_shape")
        report = graph_cost(graph, count_batchnorm=count_batchnorm)
        assert len(report.per_node) == len(graph)
        assert calls == {"node_output_shape": len(distinct)}

    def test_a_lone_input_costs_one_zero_row(self):
        g = Graph()
        g.add_node(Input(TensorShape(3, 4, 4)), name="in")
        (row,) = graph_cost(g).per_node
        assert type(row) is NodeCost and row == ("in", "input", 0, 0)

    def test_json_report(self):
        report = graph_cost(tiny_graph())
        doc = json.loads(report.to_json())
        assert doc["total_madds"] == report.total_madds
        assert doc["per_stage"]["stem"]["params"] == 16 * 3 * 9 + 32
        assert len(doc["per_node"]) == 5


class TestKeptSums:
    """A report sums its stages once and keeps the sums beside its four
    columns; no reader, and nothing that compares or copies reports, can
    tell."""

    @staticmethod
    def read(report: CostReport) -> CostReport:
        report.to_csv(), report.to_json(), report.per_stage()
        return report

    def test_a_mutated_per_stage_dict_changes_no_later_read(self):
        report = graph_cost(tiny_graph())
        stages, text, csv_text = report.per_stage(), report.to_json(), report.to_csv()
        totals = report.total_madds, report.total_params
        mutated = report.per_stage()
        mutated["stem"] = (0, 0)
        mutated["extra"] = (1, 1)
        del mutated["head"]
        assert report.per_stage() == stages and report.per_stage() is not mutated
        assert report.to_json() == text and report.to_csv() == csv_text
        assert (report.total_madds, report.total_params) == totals

    def test_a_read_report_equals_hashes_prints_and_pickles_as_a_fresh_one(self):
        columns = graph_cost(tiny_graph())._values()
        read, fresh = self.read(CostReport(*columns)), CostReport(*columns)
        assert read == fresh and hash(read) == hash(fresh)
        assert repr(read) == repr(fresh)
        assert pickle.dumps(read) == pickle.dumps(fresh)
        restored = pickle.loads(pickle.dumps(read))
        assert restored == fresh and restored.to_json() == fresh.to_json()

    def test_a_replaced_report_sums_its_own_rows(self):
        read = self.read(graph_cost(tiny_graph()))
        head = read._replace(names=read.names[-1:], kinds=read.kinds[-1:],
                             madds=read.madds[-1:], params=read.params[-1:])
        assert head.per_stage() == {"head": (4 * 16 * 64 + 4 * 64, 4 * 16 + 4)}
        assert head.total_madds == read.madds[-1]
        assert read._replace() == read and read._replace().to_csv() == read.to_csv()


class TestOncePerKey:
    """graph_cost shapes and costs each distinct (spec object, input shapes)
    once per call; every node still gets its own row."""

    @staticmethod
    def count_shape_calls(monkeypatch) -> Counter:
        calls = Counter()
        original = pillarcost.shapes.node_output_shape

        def counted(spec, input_shapes):
            calls[spec] += 1
            return original(spec, input_shapes)
        monkeypatch.setattr(pillarcost.shapes, "node_output_shape", counted)
        return calls

    def test_one_spec_at_two_resolutions(self, monkeypatch):
        conv = Conv(8, 3, 3, pad_h=1, pad_w=1)
        g = Graph()
        a = g.add_node(Input(TensorShape(8, 8, 8)), name="in")
        b = g.add_node(conv, [(a, 0)], name="fine")
        c = g.add_node(conv, [(b, 0)], name="fine.again")
        d = g.add_node(MaxPool(2, 2, 2, 2), [(c, 0)], name="pool")
        g.add_node(conv, [(d, 0)], name="coarse")
        calls = self.count_shape_calls(monkeypatch)
        rows = {name: rest for name, *rest in graph_cost(g).per_node}
        weights = 8 * 8 * 9
        assert rows["fine"] == rows["fine.again"] == ["conv", weights * 64, weights]
        assert rows["coarse"] == ["conv", weights * 16, weights]
        assert calls[conv] == 2  # fine.again reuses fine's shapes
        assert infer_all(g)[(4, 0)] == TensorShape(8, 4, 4)

    def test_equal_distinct_specs_cost_alike(self, monkeypatch):
        first, second = Conv(4, 1, 1, has_bias=True), Conv(4, 1, 1, has_bias=True)
        assert first == second and first is not second
        g = Graph()
        a = g.add_node(Input(TensorShape(4, 5, 5)), name="in")
        b = g.add_node(first, [(a, 0)], name="first")
        g.add_node(second, [(b, 0)], name="second")
        calls = self.count_shape_calls(monkeypatch)
        report = graph_cost(g)
        expected = 4 * 4 * 25 + 4 * 25, 4 * 4 + 4
        assert [(r.madds, r.params) for r in report.per_node[1:]] == [expected] * 2
        assert calls[first] == 2  # keyed by object: equal specs are shaped apart

    def test_error_names_the_first_failing_node(self):
        narrow = Conv(8, 3, 3)
        g = Graph()
        a = g.add_node(Input(TensorShape(8, 4, 4)), name="in")
        b = g.add_node(narrow, [(a, 0)], name="fits")
        c = g.add_node(narrow, [(b, 0)], name="first.bad")
        g.add_node(narrow, [(b, 0)], name="second.bad")
        g.add_node(ReLU(), [(c, 0)], name="after")
        for walk in (infer_all, graph_cost):
            with pytest.raises(ShapeError, match="^first.bad: conv height"):
                walk(g)

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_infer_all_matches_a_walk_without_sharing(self, variant):
        graph = build_pointpillars(variant, ArchConfig(block_units=(2, 2, 2)))
        expected = {}
        for node_id, (spec, _, feeds) in enumerate(zip(*graph.columns())):
            ins = [expected[feed] for feed in feeds]
            for port, shape in enumerate(spec.output_shapes(ins)):
                expected[(node_id, port)] = shape
        assert infer_all(graph) == expected


@pytest.mark.parametrize("count_batchnorm", [True, False], ids=["bn", "folded"])
@pytest.mark.parametrize("units", [None, (12, 12, 12)], ids=["paper", "units12"])
@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
def test_graph_cost_matches_independent_recount(monkeypatch, variant, units, count_batchnorm):
    """Every row agrees with bench/refcount.py, which shares no code with
    the package."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    refcount = importlib.import_module("refcount")
    graph = build_pointpillars(variant, units and ArchConfig(block_units=units))
    report = graph_cost(graph, count_batchnorm=count_batchnorm)
    assert list(report.per_node) == refcount.recount(graph.to_json_dict(), count_batchnorm)
    assert report.per_node == tuple(zip(report.names, report.kinds, report.madds, report.params))
    assert all(len(column) == len(graph) for column in report._values())


class TestColumns:
    """A report holds four columns of one length; its NodeCost rows are made
    only when ``per_node`` is read."""

    @pytest.mark.parametrize("at", range(4))
    def test_columns_of_unequal_length_raise(self, at):
        columns = [("a", "b"), ("conv", "relu"), (1, 0), (2, 0)]
        columns[at] = columns[at][:1]
        lengths = ", ".join(f"{name} {1 if i == at else 2}"
                            for i, name in enumerate(CostReport._fields))
        with pytest.raises(ValueError, match=f"^cost columns differ in length: {lengths}$"):
            CostReport(*columns)
        with pytest.raises(ValueError, match="^cost columns differ in length"):
            CostReport(("a",), ("conv",), (1,), (2,))._replace(**{CostReport._fields[at]: ()})

    def test_per_node_is_a_fresh_tuple_of_rows(self):
        report = graph_cost(tiny_graph())
        rows = report.per_node
        assert rows == report.per_node and rows is not report.per_node
        assert all(type(row) is NodeCost for row in rows)

    def test_graph_cost_makes_no_node_cost(self):
        graph = build_pointpillars(Variant.SHUFFLENET_V2, ArchConfig(block_units=(48, 48, 48)))
        enabled = gc.isenabled()
        gc.disable()  # a collection would stop tracking the rows it finds
        try:
            before = [o for o in gc.get_objects() if type(o) is NodeCost]
            report = graph_cost(graph)
            after = [o for o in gc.get_objects() if type(o) is NodeCost]
        finally:
            if enabled:
                gc.enable()
        assert len(report.names) == len(graph) and len(after) == len(before)

