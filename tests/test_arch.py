"""Architecture construction: config handling, units, blocks, full networks."""
import weakref
from fractions import Fraction

import pytest

import pillarcost.arch
from pillarcost.arch import (
    ArchConfig, ArchError, ChannelConstraintError, UnsupportedStrideError,
    Variant, build_backbone, build_pointpillars,
)
from pillarcost.cost import graph_cost
from pillarcost.graph import Conv, Graph, TensorShape
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
        assert cfg.pseudo_image == TensorShape(64, 496, 432)
        assert cfg.block_channels == (64, 128, 256)

    def test_list_length_mismatch_rejected(self):
        with pytest.raises(ArchError):
            ArchConfig(block_units=(4, 6))
        with pytest.raises(ArchError):
            ArchConfig(neck_upsample=(1, 2))

    def test_non_positive_counts_rejected(self):
        with pytest.raises(ArchError):
            ArchConfig(num_classes=0)

    @pytest.mark.parametrize("kwargs, error, message", [
        ({"num_classes": 0}, ArchError, "num_classes must be >= 1, got 0"),
        ({"block_units": (4, 0, 6)}, ArchError, "block_units[1] must be >= 1, got 0"),
        ({"mobilenet_v2_expand": -1}, ArchError, "mobilenet_v2_expand must be >= 1, got -1"),
        ({"resnext_width": 0}, ArchError, "resnext_width must be > 0, got 0"),
        ({"block_strides": (0, 2, 2)}, UnsupportedStrideError,
         "block_strides[0]: stride must be 1 or 2, got 0"),
        ({"max_pillars": "x"}, ArchError, "max_pillars must be an integer, got 'x'"),
        ({"block_units": (4, "a", 6)}, ArchError,
         "block_units must be a list of integers, got (4, 'a', 6)"),
        ({"squeezenext_reduce": None}, ArchError,
         "squeezenext_reduce must be a number or fraction, got None"),
    ], ids=["count", "count_in_list", "knob", "fraction", "stride_zero", "str_count",
            "str_in_list", "none_fraction"])
    def test_constructed_value_is_checked_naming_its_field(self, kwargs, error, message):
        with pytest.raises(ArchError) as info:
            ArchConfig(**kwargs)
        assert (type(info.value), str(info.value)) == (error, message)

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
        path.write_text("just words\n")
        with pytest.raises(ArchError):
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

    @pytest.mark.parametrize("number", ["1e99999999", "1e-99999999"])
    def test_huge_decimal_exponent_is_arch_error(self, tmp_path, number):
        # Fraction would expand the exponent exactly, for minutes
        with pytest.raises(ArchError, match=f"squeezenext_reduce .*'{number}'"):
            ArchConfig().with_overrides([f'squeezenext_reduce="{number}"'])
        path = tmp_path / "cfg.json"
        path.write_text(f'{{"squeezenext_reduce": "{number}"}}')
        with pytest.raises(ArchError, match=f"'{number}'"):
            ArchConfig.from_file(path)

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
        with pytest.raises(ArchError):
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


def unit_graph(variant, in_ch, out_ch, stride, **knobs):
    """A backbone of one block of two units on a 16x16 input: the strided
    first unit, then one of stride 1 (Xception's block spans both)."""
    cfg = ArchConfig(pseudo_image_channels=in_ch, pseudo_image_height=16,
                     pseudo_image_width=16, block_channels=(out_ch,), block_units=(2,),
                     block_strides=(stride,), neck_out_channels=(out_ch,),
                     neck_upsample=(1,), **knobs)
    g, (out,) = build_backbone(variant, cfg)
    return g, out


def test_builds_given_no_config_share_one_default(monkeypatch):
    made = []
    monkeypatch.setattr(ArchConfig, "__post_init__", lambda self: made.append(self))
    graph = build_pointpillars(Variant.RESNET)
    build_backbone(Variant.RESNET)
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
        with pytest.raises(UnsupportedStrideError):
            unit_graph(Variant.BASE, 64, 64, 3)

    def test_channel_constraints_enforced(self):
        # ResNeXt needs the bottleneck width divisible by its group count
        with pytest.raises(ChannelConstraintError):
            unit_graph(Variant.RESNEXT, 8, 8, 1)

    def test_mobilenet_v2_expansion_knob(self):
        g1, _ = unit_graph(Variant.MOBILENET_V2, 64, 64, 1)
        g6, _ = unit_graph(Variant.MOBILENET_V2, 64, 64, 1, mobilenet_v2_expand=6)
        assert graph_cost(g6).total_madds > graph_cost(g1).total_madds


class TestBuildBackbone:
    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_block_boundary_shapes_shared(self, variant):
        g, outputs = build_backbone(variant)
        assert len(graph_cost(g).per_node) == len(g)
        shapes = infer_all(g)
        assert [shapes[(o, 0)] for o in outputs] == [
            TensorShape(64, 248, 216),
            TensorShape(128, 124, 108),
            TensorShape(256, 62, 54)]

    def test_standalone_backbone_has_single_input(self):
        g, _ = build_backbone(Variant.BASE)
        assert len(g.input_nodes()) == 1


class TestBuildPointPillars:
    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_block_strides_must_be_one_or_two(self, variant):
        # ShufflenetV1, ShufflenetV2 and Xception used to build stride 2
        # where the config said 3, while the other families honoured it
        with pytest.raises(UnsupportedStrideError, match=r"block_strides\[0\]"):
            build_pointpillars(variant, ArchConfig(block_strides=(3, 2, 2)))
        g, outputs = build_backbone(variant, ArchConfig(block_strides=(1, 2, 2)))
        shapes = infer_all(g)
        assert [shapes[(out, 0)].height for out in outputs] == [496, 248, 124]

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_single_unit_blocks_build_and_cost(self, variant):
        # Xception's strided single-unit block used to project its skip with
        # stride 2 but not downsample its separable conv
        cfg = ArchConfig(block_units=(1, 1, 1))
        g, outputs = build_backbone(variant, cfg)
        shapes = infer_all(g)
        assert [shapes[(out, 0)] for out in outputs] == [
            TensorShape(64, 248, 216),
            TensorShape(128, 124, 108),
            TensorShape(256, 62, 54)]
        g = build_pointpillars(variant, cfg)
        assert len(graph_cost(g).per_node) == len(g)

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_graphs_validate_and_infer(self, variant):
        g = build_pointpillars(variant)
        assert len(graph_cost(g).per_node) == len(g)
        assert len(g.input_nodes()) == 1
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
        by_name = {g.node(i).name: i for i in range(len(g))}
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


class TestSpecSharing:
    """Nodes with equal specs share one spec object within a build, and
    builds share only the specs whose arguments are literals."""

    @pytest.mark.parametrize("config", CONFIGS)
    @pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda v: v.value)
    def test_one_object_per_distinct_spec_within_a_build(self, variant, config):
        specs = [node.spec for node in build_pointpillars(variant, CONFIGS[config]).nodes]
        assert len({id(spec) for spec in specs}) == len(set(specs))

    @pytest.mark.parametrize("config", CONFIGS)
    @pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda v: v.value)
    def test_two_builds_share_no_conv(self, variant, config):
        first, second = (build_pointpillars(variant, CONFIGS[config]) for _ in range(2))
        convs = [{id(node.spec) for node in g.nodes if isinstance(node.spec, Conv)}
                 for g in (first, second)]
        assert convs[0] and not convs[0] & convs[1]

    def test_no_conv_spec_outlives_its_graph(self):
        graph = build_pointpillars(Variant.RESNET)
        conv = weakref.ref(next(n.spec for n in graph.nodes if isinstance(n.spec, Conv)))
        del graph
        assert conv() is None

    def test_int_subclass_channel_still_rejected(self):
        # block 3's first conv equals block 2's in value, but not in type
        with pytest.raises(ValueError, match=r"^out_channels must be an integer >= 1, got 128$"):
            build_pointpillars(Variant.BASE, ArchConfig(block_channels=(64, 128, I(128))))

    @pytest.mark.parametrize("field,value", [
        ("block_channels", (64, 128, I(128))), ("block_strides", (2, 2, I(2))),
    ], ids=["channels", "strides"])
    @pytest.mark.parametrize("config", CONFIGS)
    @pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda v: v.value)
    def test_sharing_changes_no_outcome(self, monkeypatch, variant, config, field, value):
        """With an int subclass in the config, a build ends as it does when
        every node gets a new spec: the same graph or the same error."""
        cfg = CONFIGS[config]._replace(**{field: value})

        def outcome():
            try:
                return build_pointpillars(variant, cfg).to_json()
            except ValueError as err:
                return f"ValueError: {err}"

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
