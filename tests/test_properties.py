"""Property-based and randomized invariants over graphs, shapes and costs."""
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pillarcost.analysis import DesignPoint, TimingProfile, amdahl, amdahl_max, \
    default_dataset_path, fmt2, load_points, map_of, pareto_front
from pillarcost.arch import ArchConfig, ArchError, build_pointpillars
from pillarcost.core import PillarcostError, Variant
from pillarcost.cost import CostReport, graph_cost
from pillarcost.graph import (
    Add, BatchNorm, ChannelShuffle, ChannelSplit, Concat, Conv, Graph, Input,
    MaxPool, ReLU, Scatter, TensorShape, TransposedConv,
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
    assert spec.madds([shape], outs) == \
        spec.params([shape]) * outs[0].pixels


@given(spec=convs, shape=shapes)
def test_conv_cost_scales_linearly_in_output_channels(spec, shape):
    try:
        outs = node_output_shape(spec, [shape])
    except ShapeError:
        return
    if spec.has_bias or spec.out_channels % spec.groups:
        return
    doubled = spec._replace(out_channels=2 * spec.out_channels)
    douts = node_output_shape(doubled, [shape])
    assert doubled.madds([shape], douts) == \
        2 * spec.madds([shape], outs)


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
        outs = node_output_shape(spec, [shape])
    except ShapeError:
        return
    expected = (spec.out_channels * shape.channels
                * spec.kernel_h * spec.kernel_w * shape.pixels)
    assert spec.madds([shape], outs) == expected


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
def test_round2_below_26_integer_digits_matches_the_default_context(num, den):
    """Where quantizing in decimal's default 28-digit context works, fmt2
    rounds as that does: through 28 significant digits, then half up."""
    from decimal import ROUND_HALF_UP, Decimal, DefaultContext, localcontext
    if abs(num) // den >= 10 ** 26 - 1:
        return
    with localcontext(DefaultContext):
        dec = Decimal(num) / Decimal(den)
        want = str(dec.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))
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
        while g.node(src[0]).spec.num_outputs() == 0:
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


def test_ten_thousand_random_dags_uphold_invariants():
    rng = random.Random(20260823)
    for _ in range(10_000):
        g = random_graph(rng)
        assert list(g.edges) == sorted(g.edges, key=lambda e: (e.dst, e.dst_port))
        order = g.topo_order()
        assert sorted(order) == list(range(len(g)))
        pos = {nid: k for k, nid in enumerate(order)}
        assert all(pos[e.src] < pos[e.dst] for e in g.edges)
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
    wrote its text directly."""
    return {
        "per_node": [{"name": c.name, "kind": c.kind, "madds": c.madds,
                      "params": c.params} for c in report.per_node],
        "per_stage": {stage: {"madds": madds, "params": params}
                      for stage, (madds, params) in sorted(report.per_stage().items())},
        "total_madds": report.total_madds,
        "total_params": report.total_params,
    }


def assert_writers_match_reference(g: Graph) -> None:
    text = g.to_json()
    assert text == reference_json(g.to_json_dict())
    restored = Graph.from_json(text)
    assert restored.to_json() == text
    assert [n.spec for n in restored.nodes] == [n.spec for n in g.nodes]
    assert restored.edges == g.edges
    try:
        reports = [graph_cost(g), graph_cost(g, count_batchnorm=False)]
    except ShapeError:
        return
    for report in reports:
        assert report.to_json() == reference_json(reference_report_doc(report))


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
    assert CostReport(()).to_json() == reference_json(reference_report_doc(CostReport(())))


def test_writers_escape_names_like_the_reference_encoder():
    g = Graph()
    src = g.add_node(Input(TensorShape(4, 6, 6)), name='in"put')
    for i, name in enumerate(["back\\slash", "new\nline", "caf\u00e9.x", "a,b",
                              "\u2603.tab\t", ""]):
        src = g.add_node(ReLU(), [(src, 0)], name=name)
    assert_writers_match_reference(g)


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
