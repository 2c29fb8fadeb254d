"""Architecture construction: config handling, units, blocks, full networks."""
import hashlib
import weakref
from fractions import Fraction

import pytest

import pillarcost.arch
from pillarcost.arch import (
    ArchConfig, ArchError, Variant, build_pointpillars,
)
from pillarcost.core import exact_fraction
from pillarcost.cost import graph_cost
from pillarcost.graph import Conv, Graph, Input, ShapeError, TensorShape
from pillarcost.shapes import infer_all

ALL_VARIANTS = list(Variant)
CONFIGS = {"default": ArchConfig(), "units3": ArchConfig(block_units=(3, 3, 3))}


class I(int):
    """An int subclass: equal to and hashing like its int, yet not an int
    to the node specs' checks."""


class TestVariant:
    def test_eleven_variants_in_stable_order(self):
        assert [v.value for v in Variant] == [
            "base", "SqueezeNext", "ResNet", "ResNeXt", "MobilenetV1",
            "MobilenetV2", "ShufflenetV1", "ShufflenetV2", "Darknet",
            "CSPDarknet", "Xception"]

    def test_parse_is_case_insensitive(self):
        assert Variant.parse("BASE") is Variant.BASE
        assert Variant.parse("shufflenetv2") is Variant.SHUFFLENET_V2

    def test_parse_rejects_unknown(self):
        with pytest.raises(ArchError):
            Variant.parse("VGG")


class TestArchConfig:
    def test_defaults(self):
        cfg = ArchConfig()
        assert (cfg.pseudo_image_channels, cfg.pseudo_image_height,
                cfg.pseudo_image_width) == (64, 496, 432)
        assert cfg.block_channels == (64, 128, 256)

    def test_list_length_mismatch_rejected(self):
        with pytest.raises(ArchError):
            ArchConfig(block_units=(4, 6))
        with pytest.raises(ArchError):
            ArchConfig(neck_upsample=(1, 2))

    @pytest.mark.parametrize("empty", [(), []], ids=["tuple", "list"])
    def test_plan_with_no_blocks_rejected(self, empty):
        # the lists agree in length, so only this check keeps the plan out
        # of the build, whose neck concat would get no inputs
        lists = ("block_channels", "block_units", "block_strides", "neck_out_channels",
                 "neck_upsample")
        with pytest.raises(ArchError, match=r"^block_channels must list at least one block$"):
            ArchConfig(**dict.fromkeys(lists, empty))

    def test_non_positive_counts_rejected(self):
        with pytest.raises(ArchError):
            ArchConfig(num_classes=0)

    @pytest.mark.parametrize("kwargs, message", [
        ({"num_classes": 0}, "num_classes must be >= 1, got 0"),
        ({"block_units": (4, 0, 6)}, "block_units[1] must be >= 1, got 0"),
        ({"mobilenet_v2_expand": -1}, "mobilenet_v2_expand must be >= 1, got -1"),
        ({"resnext_width": 0}, "resnext_width must be > 0, got 0"),
        ({"block_strides": (0, 2, 2)}, "block_strides[0]: stride must be 1 or 2, got 0"),
        ({"max_pillars": "x"}, "max_pillars must be an integer, got 'x'"),
        ({"block_units": (4, "a", 6)}, "block_units[1] must be an integer, got 'a'"),
        ({"squeezenext_reduce": None},
         "squeezenext_reduce must be a number or fraction, got None"),
        # an int subclass is refused by the config, as by the node kinds,
        # and named by its type, since it prints as the int it equals
        ({"max_pillars": I(16000)}, "max_pillars must be an integer, got 16000 of type I"),
        ({"block_channels": (I(64), 128, 256)},
         "block_channels[0] must be an integer, got 64 of type I"),
        ({"block_strides": (2, 2, I(2))},
         "block_strides[2]: stride must be 1 or 2, got 2 of type I"),
    ], ids=["count", "count_in_list", "knob", "fraction", "stride_zero", "str_count",
            "str_in_list", "none_fraction", "int_subclass_count", "int_subclass_in_list",
            "int_subclass_stride"])
    def test_constructed_value_is_checked_naming_its_field(self, kwargs, message):
        with pytest.raises(ArchError) as info:
            ArchConfig(**kwargs)
        assert (type(info.value), str(info.value)) == (ArchError, message)

    def test_list_is_stored_as_a_tuple(self):
        cfg = ArchConfig(block_units=[4, 6, 6])
        assert cfg == ArchConfig() and hash(cfg) == hash(ArchConfig())
        assert type(cfg.block_units) is tuple

    def test_float_knob_is_read_exactly(self):
        cfg = ArchConfig(squeezenext_reduce=0.5)
        assert cfg == ArchConfig() and type(cfg.squeezenext_reduce) is Fraction
        got, want = (graph_cost(build_pointpillars(Variant.SQUEEZENEXT, c))
                     for c in (cfg, ArchConfig()))
        assert (got.total_madds, got.total_params) == (want.total_madds, want.total_params)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ArchError):
            ArchConfig.from_dict({"depth": 50})

    def test_from_json_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"pseudo_image_height": 320, "block_units": [2, 2, 2]}')
        cfg = ArchConfig.from_file(path)
        assert cfg.pseudo_image_height == 320
        assert cfg.block_units == (2, 2, 2)

    def test_from_key_value_file(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(
            "# comment\n"
            "pseudo_image_width = 400\n"
            "resnet_bottleneck = 1/4\n"
            "block_channels = [32, 64, 128]\n")
        cfg = ArchConfig.from_file(path)
        assert cfg.pseudo_image_width == 400
        assert cfg.resnet_bottleneck == Fraction(1, 4)
        assert cfg.block_channels == (32, 64, 128)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("# comment\n\n  just words  # note\n")
        with pytest.raises(ArchError) as info:
            ArchConfig.from_file(path)
        assert str(info.value) == f"{path}:3: 'just words' is not of the form key=value"

    @pytest.mark.parametrize("items", [
        ["resnet_bottleneck=1/4=2"], ["resnet_bottleneck = 1/4=2"]])
    def test_value_holding_equals_is_the_text_after_the_first(self, tmp_path, items):
        message = "resnet_bottleneck must be a number or fraction, got '1/4=2'"
        with pytest.raises(ArchError, match=f"^{message}$"):
            ArchConfig().with_overrides(items)
        path = tmp_path / "cfg"
        path.write_text("\n".join(items))
        with pytest.raises(ArchError, match=f"^{message}$"):
            ArchConfig.from_file(path)

    @pytest.mark.parametrize("text, where", [
        ('{"block_units": [1, 1, 1], "block_units": [2, 2, 2]}', ""),
        ('{"neck_upsample": [1, 2, 4], "block_units": [1, 1, 1],\n'
         ' "neck_upsample": [1, 2, 4]}', ""),
        ("block_units = [1, 1, 1]\n# again\nblock_units = [2, 2, 2]\n", ":3"),
    ], ids=["json", "json_equal_values", "key_value"])
    def test_key_given_twice_rejected(self, tmp_path, text, where):
        path = tmp_path / "cfg"
        path.write_text(text)
        with pytest.raises(ArchError, match="given twice") as info:
            ArchConfig.from_file(path)
        assert str(info.value).startswith(f"{path}{where}: ")

    @pytest.mark.parametrize("text", [
        "{", '{"block_units": [1, 1, 1],}', '{"block_units": [1, 2 3]}',
        '{"max_pillars": ' + "1" * 5000 + "}", '{"block_units": ' + "[" * 100_000,
    ], ids=["open_brace", "trailing_comma", "missing_comma", "int_over_digit_limit",
            "too_deep"])
    def test_malformed_json_rejected_naming_the_path(self, tmp_path, text):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        with pytest.raises(ArchError, match="malformed JSON") as info:
            ArchConfig.from_file(path)
        assert str(info.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("override", [
        "max_pillars=" + "1" * 5000, "block_units=" + "[" * 100_000,
    ], ids=["int_over_digit_limit", "too_deep"])
    def test_unparsable_value_is_arch_error(self, tmp_path, override):
        with pytest.raises(ArchError, match=override.split("=")[0]):
            ArchConfig().with_overrides([override])
        path = tmp_path / "cfg"
        path.write_text(override + "\n")
        with pytest.raises(ArchError):
            ArchConfig.from_file(path)

    @pytest.mark.parametrize("number", ["1e99999999", "1e-99999999", "1e4301", "1e-4301"])
    def test_huge_decimal_exponent_is_arch_error(self, tmp_path, number):
        # Fraction would expand the exponent exactly, for minutes
        with pytest.raises(ArchError, match=f"squeezenext_reduce .*'{number}'"):
            ArchConfig().with_overrides([f'squeezenext_reduce="{number}"'])
        path = tmp_path / "cfg.json"
        path.write_text(f'{{"squeezenext_reduce": "{number}"}}')
        with pytest.raises(ArchError, match=f"'{number}'"):
            ArchConfig.from_file(path)

    @pytest.mark.parametrize("number, value", [
        ("1e4300", Fraction(10 ** 4300)), ("1e-4300", Fraction(1, 10 ** 4300)),
        ("1E+04300", Fraction(10 ** 4300))])
    def test_decimal_exponent_of_4300_is_read_exactly(self, number, value):
        assert exact_fraction(number) == value
        cfg = ArchConfig().with_overrides([f'squeezenext_reduce="{number}"'])
        assert cfg.squeezenext_reduce == value

    @pytest.mark.parametrize("source", ["set", "json", "flat"])
    def test_decimal_is_read_exactly(self, tmp_path, source):
        values = {"squeezenext_reduce": "0.1", "pseudo_image_channels": "80",
                  "block_channels": "[80, 160, 320]"}
        if source == "set":
            cfg = ArchConfig().with_overrides([f"{k}={v}" for k, v in values.items()])
        else:
            path = tmp_path / "cfg"
            path.write_text(
                "{" + ", ".join(f'"{k}": {v}' for k, v in values.items()) + "}"
                if source == "json" else "".join(f"{k} = {v}\n" for k, v in values.items()))
            cfg = ArchConfig.from_file(path)
        tenth = ArchConfig().with_overrides(
            [f"{k}={v}" for k, v in {**values, "squeezenext_reduce": "1/10"}.items()])
        assert cfg == tenth
        assert type(cfg.squeezenext_reduce) is Fraction
        assert repr(cfg) == repr(tenth)
        assert (build_pointpillars(Variant.SQUEEZENEXT, cfg).to_json()
                == build_pointpillars(Variant.SQUEEZENEXT, tenth).to_json())

    def test_overrides(self):
        cfg = ArchConfig().with_overrides(
            ["num_classes=1", "neck_out_channels=[64,64,64]"])
        assert cfg.num_classes == 1
        assert cfg.neck_out_channels == (64, 64, 64)
        with pytest.raises(ArchError, match="^'nonsense' is not of the form key=value$"):
            ArchConfig().with_overrides(["nonsense"])
        with pytest.raises(ArchError):
            ArchConfig().with_overrides(["depth=50"])

    @pytest.mark.parametrize("overrides", [
        ["max_pillars=x", "max_pillars=5"], ["max_pillars=5", "max_pillars=5"],
        ["max_pillars=5", "num_classes=2", " max_pillars =6"],
    ], ids=["bad_then_good", "equal_values", "spaced"])
    def test_override_key_given_twice_rejected(self, overrides):
        # a config file refuses a repeated key too
        with pytest.raises(ArchError) as info:
            ArchConfig().with_overrides(overrides)
        assert str(info.value) == "key 'max_pillars' given twice"


def block_outputs(g) -> list[int]:
    """Each backbone block's output: the producer of ``neck.branch<i>.deconv``."""
    _, names, inputs = g.columns()
    return [feeds[0][0] for name, feeds in zip(names, inputs)
            if name.startswith("neck.branch") and name.endswith(".deconv")]


def unit_graph(variant, in_ch, out_ch, stride, **knobs):
    """A network whose backbone is one block of two units on a 16x16
    pseudo-image: the strided first unit, then one of stride 1 (Xception's
    block spans both); returns the graph and the block's output."""
    cfg = ArchConfig(pseudo_image_channels=in_ch, pseudo_image_height=16,
                     pseudo_image_width=16, block_channels=(out_ch,), block_units=(2,),
                     block_strides=(stride,), neck_out_channels=(out_ch,),
                     neck_upsample=(1,), **knobs)
    g = build_pointpillars(variant, cfg)
    (out,) = block_outputs(g)
    return g, out


def test_builds_given_no_config_share_one_default(monkeypatch):
    made = []
    monkeypatch.setattr(ArchConfig, "__post_init__", lambda self: made.append(self))
    graph = build_pointpillars(Variant.RESNET)
    assert made == []
    assert graph.to_json() == build_pointpillars(Variant.RESNET, ArchConfig()).to_json()


class TestBasicUnit:
    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_stride_one_preserves_spatial_dims(self, variant):
        g, out = unit_graph(variant, 64, 64, 1)
        assert len(graph_cost(g).per_node) == len(g)
        shape = infer_all(g)[(out, 0)]
        assert shape == TensorShape(64, 16, 16)

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_stride_two_halves_and_widens(self, variant):
        g, out = unit_graph(variant, 64, 128, 2)
        shape = infer_all(g)[(out, 0)]
        assert shape == TensorShape(128, 8, 8)

    def test_unsupported_stride_rejected(self):
        with pytest.raises(ArchError, match=r"^block_strides\[0\]: stride must be 1 or 2, got 3$"):
            unit_graph(Variant.BASE, 64, 64, 3)

    def test_channel_constraints_enforced(self):
        # ResNeXt needs the bottleneck width divisible by its group count;
        # the graph builds, and its shape walk names the conv that fails
        g, _ = unit_graph(Variant.RESNEXT, 8, 8, 1)
        for walk in (infer_all, graph_cost):
            with pytest.raises(ShapeError, match=(
                    r"^backbone\.block1\.unit1\.conv3x3\.conv: "
                    r"conv channels \(8 -> 8\) not divisible by groups=32$")):
                walk(g)

    def test_mobilenet_v2_expansion_knob(self):
        g1, _ = unit_graph(Variant.MOBILENET_V2, 64, 64, 1)
        g6, _ = unit_graph(Variant.MOBILENET_V2, 64, 64, 1, mobilenet_v2_expand=6)
        assert graph_cost(g6).total_madds > graph_cost(g1).total_madds

    @pytest.mark.parametrize("ratio, expands", [(1, False), (2, True)])
    def test_mobilenet_v2_expands_at_any_ratio_over_one(self, ratio, expands):
        g, _ = unit_graph(Variant.MOBILENET_V2, 64, 64, 1, mobilenet_v2_expand=ratio)
        specs, names, _ = g.columns()
        specs = dict(zip(names, specs))
        assert ("backbone.block1.unit1.expand.conv" in specs) is expands
        assert specs["backbone.block1.unit1.dw.conv"].out_channels == 64 * ratio

    def test_squeezenext_reduce_to_exactly_one_channel_builds_and_costs(self):
        g, _ = unit_graph(Variant.SQUEEZENEXT, 64, 64, 1, squeezenext_reduce=Fraction(1, 64))
        specs, names, _ = g.columns()
        assert dict(zip(names, specs))["backbone.block1.unit1.reduce.conv"].out_channels == 1
        assert len(graph_cost(g).per_node) == len(g)
        with pytest.raises(ArchError, match=(
                r"^backbone\.block1\.unit1: ratio 1/128 of 64 channels is not a "
                r"positive integer$")):
            unit_graph(Variant.SQUEEZENEXT, 64, 64, 1, squeezenext_reduce=Fraction(1, 128))


class TestBuildBackbone:
    """The backbone stage of a built network, read at the block outputs."""

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_block_boundary_shapes_shared(self, variant):
        g = build_pointpillars(variant)
        assert len(graph_cost(g).per_node) == len(g)
        shapes = infer_all(g)
        assert [shapes[(o, 0)] for o in block_outputs(g)] == [
            TensorShape(64, 248, 216),
            TensorShape(128, 124, 108),
            TensorShape(256, 62, 54)]


class TestBuildPointPillars:
    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_block_strides_must_be_one_or_two(self, variant):
        # ShufflenetV1, ShufflenetV2 and Xception used to build stride 2
        # where the config said 3, while the other families honoured it
        with pytest.raises(ArchError, match=r"^block_strides\[0\]: stride must be 1 or 2, got 3$"):
            build_pointpillars(variant, ArchConfig(block_strides=(3, 2, 2)))
        g = build_pointpillars(variant, ArchConfig(block_strides=(1, 2, 2)))
        shapes = infer_all(g)
        assert [shapes[(out, 0)].height for out in block_outputs(g)] == [496, 248, 124]

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_single_unit_blocks_build_and_cost(self, variant):
        # Xception's strided single-unit block used to project its skip with
        # stride 2 but not downsample its separable conv
        g = build_pointpillars(variant, ArchConfig(block_units=(1, 1, 1)))
        shapes = infer_all(g)
        assert [shapes[(out, 0)] for out in block_outputs(g)] == [
            TensorShape(64, 248, 216),
            TensorShape(128, 124, 108),
            TensorShape(256, 62, 54)]
        assert len(graph_cost(g).per_node) == len(g)

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_graphs_validate_and_infer(self, variant):
        g = build_pointpillars(variant)
        assert len(graph_cost(g).per_node) == len(g)
        assert [type(spec) for spec in g.columns()[0]].count(Input) == 1
        infer_all(g)

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_non_backbone_stages_identical(self, variant):
        base_rows = [c for c in graph_cost(build_pointpillars(Variant.BASE)).per_node
                     if not c.name.startswith("backbone.")]
        rows = [c for c in graph_cost(build_pointpillars(variant)).per_node
                if not c.name.startswith("backbone.")]
        assert rows == base_rows

    def test_head_output_shapes(self):
        g = build_pointpillars(Variant.BASE)
        shapes = infer_all(g)
        by_name = {name: i for i, name in enumerate(g.columns()[1])}
        assert shapes[(by_name["head.cls"], 0)] == TensorShape(18, 248, 216)
        assert shapes[(by_name["head.box"], 0)] == TensorShape(42, 248, 216)
        assert shapes[(by_name["head.dir"], 0)] == TensorShape(12, 248, 216)

    def test_base_exact_totals(self):
        report = graph_cost(build_pointpillars(Variant.BASE))
        assert report.total_madds == 34_587_828_736
        assert report.total_params == 4_834_888

    def test_backbone_dominates_base_cost(self):
        report = graph_cost(build_pointpillars(Variant.BASE))
        madds, _ = report.per_stage()["backbone"]
        assert madds > Fraction(3, 4) * report.total_madds

    def test_mobilenet_versions_match_at_unit_expansion(self):
        v1 = graph_cost(build_pointpillars(Variant.MOBILENET_V1))
        v2 = graph_cost(build_pointpillars(Variant.MOBILENET_V2))
        assert v1.total_madds == v2.total_madds
        assert v1.total_params == v2.total_params

    def test_custom_grid_scales_cost(self):
        small = ArchConfig(pseudo_image_height=248, pseudo_image_width=216)
        full = graph_cost(build_pointpillars(Variant.BASE)).total_madds
        quarter = graph_cost(build_pointpillars(Variant.BASE, small)).total_madds
        assert full / 5 < quarter < full / 3.5  # pfn term does not scale


# One SHA-256 over the 11 variants' to_json() texts, in Variant order, at
# configs that bench/expected.json does not pin; a builder refactor must
# keep every one
PINNED_BUILDS = {
    "units123": ({"block_units": (1, 2, 3)},
                 "4e5c43835694cffc929df3ea5fa956f19a2e83ae0f9bdbb8350d7759b512416f"),
    "strides122": ({"block_strides": (1, 2, 2)},
                   "0373525e5db3e2460da7d9f94e0adca340473ab15f560401f550491b6f60e835"),
    "v2expand6": ({"mobilenet_v2_expand": 6},
                  "209a355cec7a3b9ce294df1c634d5c7158929e0bc69e0741565f2391d353e315"),
    "v1groups4": ({"shufflenet_v1_groups": 4},
                  "2bc751dc3e7885bfc4adcdb617b3093553fca5cf7c237eb41cbd3893886ddfa3"),
    "resnext8": ({"resnext_groups": 8},
                 "5c28a7c18fdf5be3e566f9c922d10c88f228f1dbc410ec2492dd476056dd0030"),
    "channels": ({"block_channels": (32, 128, 256)},
                 "57f302d66220601623e6083521f701c9b3c608bc7ac783cc6cc2df3f300ba144"),
}


@pytest.mark.parametrize("config", PINNED_BUILDS)
def test_builds_keep_their_bytes_and_same_padding(config):
    """Every variant's graph at a non-default config keeps its bytes, and
    every conv is padded by half its kernel on each axis."""
    kwargs, want = PINNED_BUILDS[config]
    digest = hashlib.sha256()
    for variant in ALL_VARIANTS:
        graph = build_pointpillars(variant, ArchConfig(**kwargs))
        digest.update(graph.to_json().encode())
        for spec, name, _ in zip(*graph.columns()):
            if isinstance(spec, Conv):
                assert (spec.pad_h, spec.pad_w) == \
                    (spec.kernel_h // 2, spec.kernel_w // 2), name
    assert digest.hexdigest() == want


class TestSpecSharing:
    """Nodes with equal specs share one spec object within a build, and
    builds share only the specs whose arguments are literals."""

    @pytest.mark.parametrize("config", CONFIGS)
    @pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda v: v.value)
    def test_one_object_per_distinct_spec_within_a_build(self, variant, config):
        specs = build_pointpillars(variant, CONFIGS[config]).columns()[0]
        assert len({id(spec) for spec in specs}) == len(set(specs))

    @pytest.mark.parametrize("config", CONFIGS)
    @pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda v: v.value)
    def test_two_builds_share_no_conv(self, variant, config):
        first, second = (build_pointpillars(variant, CONFIGS[config]) for _ in range(2))
        convs = [{id(spec) for spec in g.columns()[0] if isinstance(spec, Conv)}
                 for g in (first, second)]
        assert convs[0] and not convs[0] & convs[1]

    def test_no_conv_spec_outlives_its_graph(self):
        graph = build_pointpillars(Variant.RESNET)
        conv = weakref.ref(next(spec for spec in graph.columns()[0] if isinstance(spec, Conv)))
        del graph
        assert conv() is None

    def test_int_subclass_channel_still_rejected(self):
        # block 3's width equals block 2's in value, but not in type: the
        # config refuses it, so no build can share a spec between them
        with pytest.raises(ArchError, match=r"^block_channels\[2\] must be an integer, "
                                            r"got 128 of type I$"):
            ArchConfig(block_channels=(64, 128, I(128)))

    @pytest.mark.parametrize("field,value", [
        ("block_channels", (64, 128, 128)), ("block_strides", (2, 1, 1)),
    ], ids=["channels", "strides"])
    @pytest.mark.parametrize("config", CONFIGS)
    @pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda v: v.value)
    def test_sharing_changes_no_outcome(self, monkeypatch, variant, config, field, value):
        """When two blocks repeat a width or a stride, a build ends as it
        does when every node gets a new spec: the same graph or the same
        error."""
        cfg = CONFIGS[config]._replace(**{field: value})

        def outcome():
            try:
                return build_pointpillars(variant, cfg).to_json()
            except (ArchError, ValueError) as err:
                return f"{type(err).__name__}: {err}"

        shared = outcome()
        monkeypatch.setattr(Graph, "spec", lambda g, cls, *args: cls(*args))
        assert shared == outcome()

    def test_builds_leave_no_state_in_the_module(self):
        """Each graph holds its own spec table, so building every variant
        grows no container at the module level of ``pillarcost.arch``."""
        def sizes():
            return {name: len(value) for name, value in vars(pillarcost.arch).items()
                    # a class such as Variant has a length too, but no state
                    if hasattr(value, "__len__") and not isinstance(value, (str, tuple, type))}

        before = sizes()
        graphs = [build_pointpillars(variant, cfg)
                  for variant in ALL_VARIANTS for cfg in CONFIGS.values()]
        assert graphs and sizes() == before
