"""Property-based and randomized invariants over graphs, shapes and costs."""
import csv
import io
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pillarcost.analysis import DesignPoint, TimingProfile, amdahl, amdahl_max, \
    default_dataset_path, fmt2, load_points, map_of, pareto_front
from pillarcost import arch
from pillarcost.arch import ArchConfig, ArchError, build_pointpillars
from pillarcost.cli import _csv_text
from pillarcost.core import ExactDecimal, PillarcostError, Variant
from pillarcost.cost import CostReport, graph_cost
from pillarcost.graph import (
    Add, BatchNorm, ChannelShuffle, ChannelSplit, Concat, Conv, Graph, GraphError, Input,
    MaxPool, ReLU, Scatter, TensorShape, TransposedConv, _KIND_CLASSES,
)
from pillarcost.shapes import ShapeError, infer_all, node_output_shape

# -- hypothesis strategies --------------------------------------------------

shapes = st.builds(TensorShape,
                   st.integers(1, 32), st.integers(1, 24), st.integers(1, 24))

convs = st.builds(
    Conv,
    out_channels=st.integers(1, 32),
    kernel_h=st.integers(1, 3), kernel_w=st.integers(1, 3),
    stride_h=st.integers(1, 2), stride_w=st.integers(1, 2),
    pad_h=st.integers(0, 2), pad_w=st.integers(0, 2),
    groups=st.integers(1, 4),
    has_bias=st.booleans())


@given(spec=convs, shape=shapes)
def test_conv_madds_equal_params_times_output_pixels(spec, shape):
    try:
        outs = node_output_shape(spec, [shape])
    except ShapeError:
        return
    assert spec.madds([shape]) == spec.params([shape]) * outs[0].pixels


transposed_convs = st.builds(
    TransposedConv,
    out_channels=st.integers(1, 16),
    kernel_h=st.integers(1, 3), kernel_w=st.integers(1, 3),
    stride_h=st.integers(1, 2), stride_w=st.integers(1, 2),
    pad_h=st.integers(0, 3), pad_w=st.integers(0, 3),
    groups=st.integers(1, 4),
    has_bias=st.booleans())


@given(spec=st.one_of(convs, transposed_convs), shape=shapes)
def test_conv_cost_raises_exactly_when_its_shape_rule_does(spec, shape):
    def error_of(method):
        try:
            method([shape])
        except ShapeError as err:
            return str(err)
        return None

    assert error_of(spec.madds) == error_of(spec.params) == error_of(spec.output_shapes)


@given(spec=convs, shape=shapes)
def test_conv_cost_scales_linearly_in_output_channels(spec, shape):
    try:
        madds = spec.madds([shape])
    except ShapeError:
        return
    if spec.has_bias:
        return
    doubled = spec._replace(out_channels=2 * spec.out_channels)
    assert doubled.madds([shape]) == 2 * madds


@given(spec=convs, shape=shapes)
def test_conv_output_dims_never_exceed_padded_input(spec, shape):
    try:
        (out,) = node_output_shape(spec, [shape])
    except ShapeError:
        return
    assert 1 <= out.height <= shape.height + 2 * spec.pad_h
    assert 1 <= out.width <= shape.width + 2 * spec.pad_w


@given(shape=shapes,
       spec=st.builds(TransposedConv,
                      out_channels=st.integers(1, 16),
                      kernel_h=st.integers(1, 4), kernel_w=st.integers(1, 4),
                      stride_h=st.integers(1, 4), stride_w=st.integers(1, 4)))
def test_transposed_conv_cost_independent_of_output_size(spec, shape):
    try:
        madds = spec.madds([shape])
    except ShapeError:
        return
    expected = (spec.out_channels * shape.channels
                * spec.kernel_h * spec.kernel_w * shape.pixels)
    assert madds == expected


@given(shape=shapes, parts=st.integers(1, 4))
def test_split_partitions_channels_exactly(shape, parts):
    spec = ChannelSplit(fractions=(Fraction(1, parts),) * parts)
    try:
        outs = node_output_shape(spec, [shape])
    except ShapeError:
        assert shape.channels % parts != 0
        return
    assert sum(s.channels for s in outs) == shape.channels
    assert all((s.height, s.width) == (shape.height, shape.width) for s in outs)


@given(parts=st.lists(st.integers(1, 10 ** 6), min_size=1, max_size=8))
def test_every_kind_has_an_output_port(parts):
    # add_node takes port 0 of any producer unchecked; this is what makes it valid
    split = ChannelSplit(tuple(Fraction(part, sum(parts)) for part in parts))
    one_of_each = [Input(TensorShape(1, 1, 1)), Conv(1, 1, 1), TransposedConv(1, 1, 1),
                   BatchNorm(), ReLU(), MaxPool(1, 1), Add(), Concat(), split,
                   ChannelShuffle(1), Scatter(1, 1)]
    assert sorted(spec.kind for spec in one_of_each) == sorted(_KIND_CLASSES)
    assert all(spec.num_outputs() >= 1 for spec in one_of_each)
    assert split.num_outputs() == len(parts)


@given(st.fractions(min_value="1/100", max_value="99/100"),
       st.fractions(min_value=1, max_value=1000))
def test_amdahl_is_bounded_and_at_least_one(p, s):
    value = amdahl(p, s)
    assert 1 <= value <= amdahl_max(p)


@given(st.fractions(min_value="1/1000", max_value=100))
def test_round2_is_idempotent_and_close(value):
    """``fmt2``'s rounding to two decimals."""
    once = fmt2(value)
    assert fmt2(Fraction(once)) == once
    assert abs(Fraction(once) - value) <= Fraction(1, 200)


@given(st.integers(min_value=-10 ** 30, max_value=10 ** 30),
       st.integers(min_value=1, max_value=10 ** 30))
def test_round2_matches_integer_half_up_rounding(num, den):
    """fmt2 rounds the exact value half up: cents from an integer division,
    rounded up when the remainder is at least half the divisor."""
    cents, rest = divmod(abs(num) * 100, den)
    cents += 2 * rest >= den
    want = f"{'-' if num < 0 else ''}{cents // 100}.{cents % 100:02d}"
    assert fmt2(Fraction(num, den)) == want


points_lists = st.lists(
    st.builds(
        lambda name, cost, ap: DesignPoint(
            name=name, gmadds=cost,
            ap={(c, d): ap for c in ("Car", "Pedestrian", "Cyclist")
                for d in ("Easy", "Moderate", "Hard")}),
        st.uuids().map(str), st.fractions(min_value="1/10", max_value=100),
        st.fractions(min_value=0, max_value=100)),
    min_size=1, max_size=12)


@given(points_lists)
def test_pareto_front_members_do_not_dominate_each_other(points):
    front = pareto_front(points)
    assert front
    by_name = {p.name: p for p in points}
    members = [by_name[n] for n in front]
    for a in members:
        for b in members:
            strictly_better = (a.gmadds <= b.gmadds and
                               map_of(a) >= map_of(b) and
                               (a.gmadds < b.gmadds or map_of(a) > map_of(b)))
            assert not strictly_better


@given(points_lists)
def test_pareto_front_contains_cheapest_and_best(points):
    front = set(pareto_front(points))
    cheapest = min(points, key=lambda p: (p.gmadds, -map_of(p)))
    best = max(points, key=lambda p: (map_of(p), -p.gmadds))
    assert cheapest.name in front
    assert best.name in front


# -- randomized DAG fuzzing -------------------------------------------------

def random_graph(rng: random.Random) -> Graph:
    """A random valid DAG built only through the public construction API."""
    g = Graph()
    g.add_node(Input(TensorShape(rng.choice((2, 4, 8, 12)),
                                 rng.randint(3, 12), rng.randint(3, 12))),
               name="n0")
    for i in range(1, rng.randint(2, 9)):
        src = (rng.randrange(len(g)), 0)
        # only port 0 producers are used as sources, so any node qualifies
        while g.columns()[0][src[0]].num_outputs() == 0:
            src = (rng.randrange(len(g)), 0)
        roll = rng.random()
        if roll < 0.35:
            spec = Conv(rng.choice((2, 4, 8)), rng.choice((1, 3)),
                        rng.choice((1, 3)), pad_h=1, pad_w=1)
            g.add_node(spec, [src], name=f"n{i}")
        elif roll < 0.5:
            g.add_node(ReLU(), [src], name=f"n{i}")
        elif roll < 0.6:
            g.add_node(BatchNorm(), [src], name=f"n{i}")
        elif roll < 0.7:
            g.add_node(MaxPool(2, 2, 2, 2, 1, 1), [src], name=f"n{i}")
        elif roll < 0.8:
            g.add_node(ChannelShuffle(rng.choice((1, 2, 3))), [src], name=f"n{i}")
        elif roll < 0.9:
            other = (rng.randrange(len(g)), 0)  # self-merge is allowed
            g.add_node(Add(), [src, other], name=f"n{i}")
        else:
            other = (rng.randrange(len(g)), 0)
            g.add_node(Concat(), [src, other], name=f"n{i}")
    return g


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_edges_decode_alike_in_any_order(seed, data):
    g = random_graph(random.Random(seed))
    # a multi-output producer fed to one consumer in crossed port order
    split = g.add_node(ChannelSplit(fractions=(Fraction(1, 2), Fraction(1, 2))),
                       [(0, 0)], name="split")
    g.add_node(Concat(), [(split, 1), (split, 0)], name="cross")
    doc = g.to_json_dict()
    doc["edges"] = data.draw(st.permutations(doc["edges"]))
    assert Graph.from_json_dict(doc).to_json() == g.to_json()


# ShufflenetV2 has Concat nodes of two and three inputs, so a node's ports
# are not all 0: its document exercises the edge walk of Graph.from_json_dict.
SHUFFLENET_V2 = build_pointpillars(Variant.SHUFFLENET_V2)
STRAY = "an edge feeds a node id that does not exist"


def _decoded(edges) -> str:
    """ShufflenetV2's document with ``edges`` decoded: its ``to_json``, or
    the one-line GraphError it raises."""
    try:
        return Graph.from_json_dict({**SHUFFLENET_V2.to_json_dict(), "edges": edges}).to_json()
    except GraphError as err:
        assert "\n" not in str(err)
        return str(err)


def _port_error(node_id: int, ports: list[int]) -> str:
    return (f"node {SHUFFLENET_V2.columns()[1][node_id]!r} has input ports {sorted(ports)}; "
            f"they must be 0..{len(ports) - 1}, each exactly once")


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_shufflenet_v2_edges_decode_alike_in_any_order(seed):
    edges = SHUFFLENET_V2.to_json_dict()["edges"]
    random.Random(seed).shuffle(edges)
    assert _decoded(edges) == SHUFFLENET_V2.to_json()


@settings(max_examples=200, deadline=None)
@given(fault=st.sampled_from(["shift", "duplicate", "drop", "below", "past", "stray"]),
       seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_one_edge_fault_raises_its_one_line_error(fault, seed, data):
    edges = SHUFFLENET_V2.to_json_dict()["edges"]
    n = len(SHUFFLENET_V2)
    i = data.draw(st.integers(0, len(edges) - 1))
    dst, dst_port = edges[i][2:]
    if fault == "shift":
        edges[i][3] = data.draw(st.integers(-2, 4).filter(lambda port: port != dst_port))
    elif fault == "duplicate":
        edges.insert(data.draw(st.integers(0, len(edges))), list(edges[i]))
    elif fault == "drop":
        del edges[i]
    elif fault == "stray":  # a copy of the edge that feeds no node
        stray = data.draw(st.integers(-3, -1) | st.integers(n, n + 3))
        edges.append([*edges[i][:2], stray, dst_port])
    else:
        edges[i][2] = data.draw(st.integers(-3, -1) if fault == "below" else
                                st.integers(n, n + 3))
    ports = [edge[3] for edge in edges if edge[2] == dst]
    random.Random(seed).shuffle(edges)
    got = _decoded(edges)
    specs, names, _ = SHUFFLENET_V2.columns()
    spec, name = specs[dst], names[dst]
    lo, hi = spec.arity
    if sorted(ports) != list(range(len(ports))):
        assert got == _port_error(dst, ports)
    elif len(ports) < lo:  # the node lost its last port, which it needs
        want = lo if lo == hi else f">= {lo}"
        assert got == f"{spec.kind} node {name!r} takes {want} inputs, got {len(ports)}"
    elif fault == "drop":  # the concat of three loses its last input and still loads
        assert (spec.kind, len(ports)) == ("concat", 2)
        assert json.loads(got)["edges"] == sorted(edges, key=lambda edge: edge[2:])
    else:
        assert got == STRAY


@settings(max_examples=100, deadline=None)
@given(faulted=st.lists(st.integers(0, len(SHUFFLENET_V2.edges) - 1), min_size=1,
                        max_size=3, unique_by=lambda i: SHUFFLENET_V2.edges[i][2]),
       shift=st.booleans(), stray=st.sampled_from([None, -1, len(SHUFFLENET_V2)]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_a_port_error_names_the_lowest_node_with_bad_ports(faulted, shift, stray, seed):
    edges = SHUFFLENET_V2.to_json_dict()["edges"]
    for i in faulted:  # one consumer each, so no second fault mends the first
        if shift:
            edges[i][3] += 1
        else:
            edges.append(list(edges[i]))
    if stray is not None:
        edges.append([0, 0, stray, 0])
    lowest = min(edges[i][2] for i in faulted)
    ports = [edge[3] for edge in edges if edge[2] == lowest]
    random.Random(seed).shuffle(edges)
    assert _decoded(edges) == _port_error(lowest, ports)


def test_ten_thousand_random_dags_uphold_invariants():
    rng = random.Random(20260823)
    for _ in range(10_000):
        g = random_graph(rng)
        assert list(g.edges) == sorted(g.edges, key=lambda edge: edge[2:])
        order = g.topo_order()
        assert sorted(order) == list(range(len(g)))
        pos = {nid: k for k, nid in enumerate(order)}
        assert all(pos[src] < pos[dst] for src, _, dst, _ in g.edges)
        try:
            shapes = infer_all(g)
        except ShapeError:
            continue  # shape conflict is a legal, reported outcome
        assert all(min(s.channels, s.height, s.width) >= 1
                   for s in shapes.values())
        report = graph_cost(g)
        assert report.total_madds >= 0 and report.total_params >= 0
        assert len(report.per_node) == len(g)


# -- JSON writers against the reference encoder -----------------------------

def reference_json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


def reference_report_doc(report: CostReport) -> dict:
    """The document that CostReport.to_json passed to json.dumps before it
    wrote its text directly, its sums made here from the rows, apart from
    the sums the report keeps."""
    stages: dict[str, dict[str, int]] = {}
    for c in report.per_node:
        stage = stages.setdefault(c.name.split(".", 1)[0], {"madds": 0, "params": 0})
        stage["madds"] += c.madds
        stage["params"] += c.params
    return {
        "per_node": [{"name": c.name, "kind": c.kind, "madds": c.madds,
                      "params": c.params} for c in report.per_node],
        "per_stage": stages,
        "total_madds": sum(c.madds for c in report.per_node),
        "total_params": sum(c.params for c in report.per_node),
    }


def reference_rows(rows) -> str:
    """The csv module's text for ``rows``, each ended by a newline: every
    row is written with the ``"\\r\\n"`` terminator, so that a field with a
    carriage return is quoted as one with a newline is, and that row's
    final ``"\\r\\n"`` becomes ``"\\n"``."""
    text = []
    for row in rows:
        out = io.StringIO()
        csv.writer(out, lineterminator="\r\n").writerow(row)
        text.append(out.getvalue()[:-2] + "\n")
    return "".join(text)


def read_csv(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text, newline="")))


def reference_csv(report: CostReport) -> str:
    """What CostReport.to_csv writes, through the csv module."""
    return reference_rows([("name", "kind", "madds", "params"), *report.per_node,
                           ("TOTAL", "", sum(c.madds for c in report.per_node),
                            sum(c.params for c in report.per_node))])


def assert_writers_match_reference(g: Graph) -> None:
    text = g.to_json()
    assert text == reference_json(g.to_json_dict())
    restored = Graph.from_json(text)
    assert restored.to_json() == text
    assert restored.columns()[0] == g.columns()[0]
    assert restored.edges == g.edges
    try:
        reports = [graph_cost(g), graph_cost(g, count_batchnorm=False)]
    except ShapeError:
        return
    for report in reports:
        assert report.to_json() == reference_json(reference_report_doc(report))
        assert report.to_csv() == reference_csv(report)


def test_writers_match_reference_encoder_on_random_dags():
    rng = random.Random(20261018)
    for _ in range(2_000):
        g = random_graph(rng)
        # the two kinds random_graph does not draw: a multi-output split
        # feeding a transposed conv from a random port
        fractions = rng.choice(((Fraction(1, 2),) * 2, (Fraction(1, 4), Fraction(3, 4)),
                                (Fraction(1, 3), Fraction(2, 3))))
        split = g.add_node(ChannelSplit(fractions), [(rng.randrange(len(g)), 0)],
                           name="split")
        g.add_node(TransposedConv(rng.choice((2, 4)), 2, 3, 2, 1, 0, 1,
                                  output_pad_h=rng.randint(0, 1),
                                  has_bias=rng.random() < 0.5),
                   [(split, rng.randrange(len(fractions)))], name="up")
        assert_writers_match_reference(g)


@pytest.mark.parametrize("units", [(1, 1, 1), None, (12, 12, 12)],
                         ids=["units1", "default", "units12"])
@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
def test_writers_match_reference_encoder_on_variants(variant, units):
    cfg = ArchConfig() if units is None else ArchConfig(block_units=units)
    assert_writers_match_reference(build_pointpillars(variant, cfg))


def test_writers_match_reference_encoder_on_empty_inputs():
    assert Graph().to_json() == reference_json({"edges": [], "nodes": []})
    empty = CostReport((), (), (), ())
    assert empty.to_json() == reference_json(reference_report_doc(empty))
    assert empty.to_csv() == reference_csv(empty) == \
        "name,kind,madds,params\nTOTAL,,0,0\n"


def test_writers_escape_names_like_the_reference_encoder():
    g = Graph()
    src = g.add_node(Input(TensorShape(4, 6, 6)), name='in"put')
    for i, name in enumerate(["back\\slash", "new\nline", "caf\u00e9.x", "a,b",
                              "\u2603.tab\t", ""]):
        src = g.add_node(ReLU(), [(src, 0)], name=name)
    assert_writers_match_reference(g)


# names with each character the CSV quoting rule turns on, a dot (the
# stage separator) and any other text a graph name may hold
csv_names = st.text(st.sampled_from(',"\n\r.') | st.characters(exclude_categories=("Cs",)),
                    min_size=1, max_size=8)


@settings(max_examples=300, deadline=None)
@given(names=st.lists(csv_names, min_size=2, max_size=7, unique=True))
def test_writers_match_reference_encoder_on_any_node_name(names):
    # to_csv, in both batch-norm modes, against the csv module's writer
    g = Graph()
    src = g.add_node(Input(TensorShape(4, 6, 6)), name=names[0])
    specs = (Conv(4, 3, 3, pad_h=1, pad_w=1), BatchNorm(), ReLU())
    for i, name in enumerate(names[1:]):
        src = g.add_node(specs[i % len(specs)], [(src, 0)], name=name)
    assert_writers_match_reference(g)
    assert [row[0] for row in read_csv(graph_cost(g).to_csv())[1:-1]] == names


@settings(max_examples=300, deadline=None)
@given(header=st.lists(csv_names, min_size=1, max_size=5),
       rows=st.lists(st.lists(csv_names | st.integers(), min_size=1, max_size=5),
                     max_size=5))
def test_cli_csv_text_matches_the_csv_module(header, rows):
    # compare, pareto and amdahl write their CSV through core._csv_field,
    # the rule CostReport.to_csv writes its names with
    text = _csv_text(tuple(header), iter(rows))
    assert text == reference_rows([header, *rows])
    assert read_csv(text) == [header, *[list(map(str, row)) for row in rows]]


@pytest.mark.parametrize("has_bias", [
    True, False, None, 1, 1.5, float("inf"), "yes", (), (Fraction(1, 2), 3),
    [1, {"b": [2, {}], "a": []}], {"z": (3, 4), "k": None},
], ids=["true", "false", "none", "int", "float", "inf", "str", "empty_tuple",
        "mixed_tuple", "nested_list", "nested_dict"])
def test_writers_match_reference_encoder_on_any_attribute_value(has_bias):
    # the writers meet only the values a constructor admits: has_bias must be
    # a bool, and any other value is refused before a graph can hold it
    if type(has_bias) is not bool:
        with pytest.raises(ValueError, match="has_bias"):
            Conv(8, 3, 3, 1, 1, 1, 1, has_bias=has_bias)
        return
    g = Graph()
    src = g.add_node(Input(TensorShape(4, 6, 6)), name="in")
    g.add_node(Conv(8, 3, 3, 1, 1, 1, 1, has_bias=has_bias), [(src, 0)], name="conv")
    assert g.to_json() == reference_json(g.to_json_dict())


# -- config loaders: any input either loads or raises ArchError -------------

CONFIG_KEYS = ["block_units", "block_strides", "block_channels", "max_pillars",
               "num_classes", "neck_upsample", "resnet_bottleneck",
               "shufflenet_v1_groups", "squeezenext_reduce", "depth", ""]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 600) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(CONFIG_KEYS), inner, max_size=3),
    max_leaves=8)

config_keys = st.sampled_from(CONFIG_KEYS) | st.text(max_size=8)
raw_values = (json_values.map(json.dumps) | st.text(max_size=12)
              | st.builds("{}/{}".format, st.integers(-3, 9), st.integers(-3, 9)))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.builds("{}={}".format, config_keys, raw_values),
                          st.text(max_size=12)), max_size=4))
def test_overrides_load_or_raise_arch_error(overrides):
    try:
        cfg = ArchConfig().with_overrides(overrides)
    except ArchError:
        return
    assert isinstance(cfg, ArchConfig)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(ArchConfig._fields),
       json_values | st.lists(st.integers(-1, 600), min_size=3, max_size=3))
def test_constructing_checks_as_loading_does(field, value):
    try:
        cfg = ArchConfig(**{field: value})
    except ArchError:
        with pytest.raises(ArchError):
            ArchConfig.from_dict({field: value})
        return
    loaded = ArchConfig.from_dict({field: value})
    assert cfg == loaded and hash(cfg) == hash(loaded)


class _Int(int):
    """An int subclass: it equals and hashes like its int, so only the
    types in ``arch._spec``'s key keep it from an int's cached spec."""


conv_args = st.tuples(st.integers(1, 32), st.integers(1, 3), st.integers(1, 3),
                      st.integers(1, 2), st.integers(1, 2), st.integers(0, 2),
                      st.integers(0, 2), st.integers(1, 4), st.booleans())

# an equal value of another type, or None where the swap makes no equal value
_SWAPS = {
    "bool-int": lambda v: (int(v) if type(v) is bool
                           else bool(v) if v in (0, 1) else None),
    "int-subclass": lambda v: _Int(v),
    "exact-decimal": lambda v: ExactDecimal(f"{int(v)}.0"),
    "float": lambda v: float(v),
}


def _outcome(make):
    """What ``make()`` returns, or the type and text of what it raises."""
    try:
        return make()
    except Exception as err:  # any error: the two calls must raise alike
        return type(err), str(err)


@given(conv_args, st.integers(0, 8), st.sampled_from(sorted(_SWAPS)))
def test_spec_checks_an_equal_argument_of_another_type_as_the_kind_does(args, position,
                                                                        swap):
    first = arch._spec(Conv, *args)  # the valid spec is in the table first
    assert first == Conv(*args) and arch._spec(Conv, *args) is first
    value = _SWAPS[swap](args[position])
    if value is None:
        return
    assert value == args[position] and type(value) is not type(args[position])
    swapped = args[:position] + (value,) + args[position + 1:]
    assert _outcome(lambda: arch._spec(Conv, *swapped)) == _outcome(lambda: Conv(*swapped))


def _json_object_text(pairs) -> str:
    """A JSON object written pair by pair, so that a key may repeat."""
    return "{" + ", ".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in pairs) + "}"


pairs = st.lists(st.tuples(config_keys, json_values), max_size=4)
config_texts = st.one_of(
    st.text(max_size=40),
    st.text(max_size=40).map("{".__add__),
    pairs.map(_json_object_text),
    st.builds(lambda text, cut: text[:cut], pairs.map(_json_object_text),
              st.integers(0, 60)),
    st.lists(st.builds("{} = {}".format, config_keys, raw_values), max_size=4)
    .map("\n".join),
)


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "cfg"


@settings(max_examples=200, deadline=None)
@given(text=config_texts)
def test_config_files_load_or_raise_arch_error(config_path, text):
    config_path.write_text(text)
    try:
        cfg = ArchConfig.from_file(config_path)
    except ArchError:
        return
    assert isinstance(cfg, ArchConfig)


# -- JSON loaders: any text either loads or raises a PillarcostError -------

LOADER_KEYS = ["points", "name", "gmadds", "ap", "Car", "Easy", "Mod", "fps_total",
               "stage_fractions", "base_latency_ms", "backbone", "nodes", "edges",
               "id", "kind", "attrs", "shape", "fractions", "input", "channel_split", ""]

loader_values = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 600) | st.floats() | st.text(max_size=6)
    | st.sampled_from(LOADER_KEYS),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(LOADER_KEYS), inner, max_size=4),
    max_leaves=12)


def _replace_one(doc, rnd: random.Random, value):
    """A copy of ``doc`` with one list item or object value, chosen by
    ``rnd``, replaced by ``value``."""
    doc = json.loads(json.dumps(doc))
    slots = []

    def collect(node):
        items = (node.items() if isinstance(node, dict)
                 else enumerate(node) if isinstance(node, list) else ())
        for key, child in items:
            slots.append((node, key))
            collect(child)
    collect(doc)
    owner, key = rnd.choice(slots)
    owner[key] = value
    return doc


def _loader_texts(valid_doc):
    """Arbitrary text, arbitrary JSON, and ``valid_doc`` with one value
    replaced, whole or cut short."""
    near_valid = st.builds(_replace_one, st.just(valid_doc), st.randoms(),
                           loader_values).map(json.dumps)
    return st.one_of(
        st.text(max_size=40),
        loader_values.map(json.dumps),
        near_valid,
        st.builds(lambda text, cut: text[:cut], near_valid, st.integers(0, 400)),
    )


def _small_graph_doc() -> dict:
    g = Graph()
    src = g.add_node(Input(TensorShape(4, 6, 6)), name="in")
    split = g.add_node(ChannelSplit((Fraction(1, 2), Fraction(1, 2))), [(src, 0)], name="split")
    conv = g.add_node(Conv(2, 3, 3, 1, 1, 1, 1), [(split, 1)], name="conv")
    g.add_node(Concat(), [(split, 0), (conv, 0)], name="cat")
    return g.to_json_dict()


@pytest.fixture(scope="module")
def json_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.json"


@settings(max_examples=200, deadline=None)
@given(text=_loader_texts(json.loads(
    (default_dataset_path().parent / "mmdet3d_timing.json").read_text())))
def test_timing_profiles_load_or_raise_pillarcost_error(json_path, text):
    json_path.write_text(text)
    try:
        profile = TimingProfile.from_file(json_path)
    except PillarcostError:
        return
    assert isinstance(profile, TimingProfile)


@settings(max_examples=200, deadline=None)
@given(text=_loader_texts(json.loads(default_dataset_path().read_text())["points"][:2]))
def test_datasets_load_or_raise_pillarcost_error(json_path, text):
    json_path.write_text(text)
    try:
        points = load_points(json_path)
    except PillarcostError:
        return
    assert points and all(isinstance(p, DesignPoint) for p in points)


@settings(max_examples=200, deadline=None)
@given(text=_loader_texts(_small_graph_doc()))
def test_graph_json_loads_or_raises_pillarcost_error(text):
    try:
        graph = Graph.from_json(text)
    except PillarcostError:
        return
    assert isinstance(graph, Graph)


# -- copied units ----------------------------------------------------------

def repeat_through_add_node(graph, first, label, labels):
    """Graph._repeat's reference: every copied node appended by add_node."""
    specs, names, inputs = graph.columns()
    for new in labels:
        shift = len(graph) - first
        for spec, name, feeds in zip(specs[first:], names[first:], inputs[first:]):
            graph.add_node(spec, [(s + shift, p) for s, p in feeds], new + name[len(label):])
    return len(graph) - 1


def units_one_by_one(g, node, names, unit):
    """arch._units without copies: each unit built by its builder."""
    for name in names:
        node = unit(node, name)
    return node


def assert_checked_as_add_node_checks(graph):
    """Graph._repeat checks nothing, so a build is checked here for what
    add_node checks of each node: every feed names an earlier node through
    a port that node has, and the names are unique."""
    specs, names, inputs = graph.columns()
    for node, feeds in enumerate(inputs):
        assert all(type(src) is type(port) is int and 0 <= src < node
                   and 0 <= port < specs[src].num_outputs() for src, port in feeds), node
    assert len(set(names)) == len(names)
    assert graph._names == set(names)


@settings(max_examples=30, deadline=None)
@given(units=st.tuples(st.integers(1, 7), st.integers(1, 7), st.integers(1, 7)))
def test_copied_units_equal_units_appended_one_by_one(units):
    """A build that copies units equals one whose copies go through add_node
    and one that builds every unit: the copy is right, and every unit ends
    with its output, which the chain of copies relies on.  Every build
    holds what add_node checks.  Runs of 0 to 6 equal units and odd
    Xception counts are drawn."""
    cfg = ArchConfig(block_units=units)
    for variant in Variant:
        graph = build_pointpillars(variant, cfg)
        assert_checked_as_add_node_checks(graph)
        want = (graph.to_json(), graph_cost(graph), graph_cost(graph, count_batchnorm=False))
        for owner, attr, stand_in in ((Graph, "_repeat", repeat_through_add_node),
                                      (arch, "_units", units_one_by_one)):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(owner, attr, stand_in)
                other = build_pointpillars(variant, cfg)
            assert_checked_as_add_node_checks(other)
            assert (other.to_json(), graph_cost(other),
                    graph_cost(other, count_batchnorm=False)) == want, (variant, attr)
