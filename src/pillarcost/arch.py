"""Builders for the PointPillars graph and its backbone replacements.

The network has four stages: a pillar feature encoder (``pfn``), a strided
``backbone``, an upsampling ``neck`` and a detection ``head``.  Swapping the
backbone type replaces each 3x3 Conv-BN-ReLU of the original with the chosen
family's basic unit while keeping the block plan (channel widths, unit
counts, strides) and every other stage fixed.

Per-family hyperparameters that the published tables do not pin down
(bottleneck widths, group counts, expansion ratios) are config knobs whose
defaults were tuned to reproduce the measured MAdd/parameter counts.
"""
from __future__ import annotations

import json
from fractions import Fraction
from functools import partial
from pathlib import Path

from .core import (  # re-exported: the same classes as in core
    ArchError, ChannelConstraintError, UnsupportedStrideError, Variant,
)
from .core import ExactDecimal, Record, exact_fraction, read_json
from .graph import (
    Add, BatchNorm, ChannelShuffle, ChannelSplit, Concat, Conv, Graph, Input,
    MaxPool, ReLU, Scatter, TensorShape, TransposedConv,
)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _count(value, name: str) -> int:
    if not _is_int(value):
        raise ArchError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ArchError(f"{name} must be >= 1, got {value}")
    return value


def _ints(value, name: str) -> tuple[int, ...]:
    if not isinstance(value, (list, tuple)) or not all(map(_is_int, value)):
        raise ArchError(f"{name} must be a list of integers, got {value!r}")
    return tuple(value)


def _counts(value, name: str) -> tuple[int, ...]:
    value = _ints(value, name)
    for i, item in enumerate(value):
        _count(item, f"{name}[{i}]")
    return value


def _strides(value, name: str) -> tuple[int, ...]:
    value = _ints(value, name)
    for i, stride in enumerate(value):
        if stride not in (1, 2):
            raise UnsupportedStrideError(f"{name}[{i}]: stride must be 1 or 2, got {stride}")
    return value


def _fraction(value, name: str) -> Fraction:
    try:
        fraction = exact_fraction(value)
    except (TypeError, ValueError, ArithmeticError):
        raise ArchError(f"{name} must be a number or fraction, got {value!r}") from None
    if fraction <= 0:
        raise ArchError(f"{name} must be > 0, got {fraction}")
    return fraction


# Each annotation's check: the one place a config field's type and range live
_CHECK_OF = {"int": _count, "tuple[int, ...]": _counts, "Fraction": _fraction}


class ArchConfig(Record):
    """Structural parameters of the network; defaults follow the reference
    KITTI configuration (pseudo-image 64x496x432, three blocks).

    Every field is checked by its annotation's check (``_CHECK_OF``), and
    ``block_strides`` by its own, however the config is made: directly, by
    ``_replace``, or by a loader."""

    pseudo_image_channels: int = 64
    pseudo_image_height: int = 496
    pseudo_image_width: int = 432
    max_pillars: int = 16000
    points_per_pillar: int = 32
    pfn_in_features: int = 10
    block_channels: tuple[int, ...] = (64, 128, 256)
    block_units: tuple[int, ...] = (4, 6, 6)
    block_strides: tuple[int, ...] = (2, 2, 2)
    neck_out_channels: tuple[int, ...] = (128, 128, 128)
    neck_upsample: tuple[int, ...] = (1, 2, 4)
    num_classes: int = 3
    anchors_per_location: int = 6
    box_code_size: int = 7
    dir_bins: int = 2
    # per-family reconstruction knobs
    mobilenet_v2_expand: int = 1
    shufflenet_v1_groups: int = 2
    squeezenext_reduce: Fraction = Fraction(1, 2)
    resnet_bottleneck: Fraction = Fraction(3, 8)
    resnext_width: Fraction = Fraction(1, 1)
    resnext_groups: int = 32

    _checks = {name: _CHECK_OF[kind] for name, kind in __annotations__.items()}
    _checks["block_strides"] = _strides

    def __post_init__(self) -> None:
        lengths = {len(self.block_channels), len(self.block_units),
                   len(self.block_strides)}
        if len(lengths) != 1:
            raise ArchError("block_channels/block_units/block_strides lengths differ")
        if len(self.neck_out_channels) != len(self.neck_upsample) or \
                len(self.neck_out_channels) != len(self.block_channels):
            raise ArchError("neck lists must match the number of blocks")

    @property
    def pseudo_image(self) -> TensorShape:
        return TensorShape(self.pseudo_image_channels,
                           self.pseudo_image_height, self.pseudo_image_width)

    # -- loading and overrides ---------------------------------------------

    @classmethod
    def from_dict(cls, doc: dict) -> "ArchConfig":
        unknown = set(doc) - set(cls._fields)
        if unknown:
            raise ArchError(f"unknown config keys: {sorted(unknown)}")
        return cls(**doc)

    @classmethod
    def from_file(cls, path: str | Path) -> "ArchConfig":
        """Read a JSON document or a flat ``key = value`` file; text that is
        not UTF-8, malformed JSON and a key given twice raise ``ArchError``
        naming the path."""
        try:
            text = Path(path).read_text()
        except UnicodeDecodeError as err:
            raise ArchError(f"{path}: {err}") from err
        if text.lstrip().startswith("{"):
            return cls.from_dict(read_json(path, ArchError, text))
        doc = {}
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ArchError(f"{path}:{lineno}: expected 'key = value'")
            key, raw = (part.strip() for part in line.split("=", 1))
            if key in doc:
                raise ArchError(f"{path}:{lineno}: key {key!r} given twice")
            doc[key] = _parse_value(raw)
        return cls.from_dict(doc)

    def with_overrides(self, overrides: list[str]) -> "ArchConfig":
        """Apply repeated ``--set key=value`` strings; a key given twice
        raises ``ArchError``, as it does in a config file."""
        doc, given = dict(zip(self._fields, self._values())), set()
        for item in overrides:
            if "=" not in item:
                raise ArchError(f"override {item!r} is not of the form key=value")
            key, raw = (part.strip() for part in item.split("=", 1))
            if key in given:
                raise ArchError(f"key {key!r} given twice")
            given.add(key)
            doc[key] = _parse_value(raw)
        return self.from_dict(doc)


def _parse_value(raw: str):
    """A JSON value, else the text itself (``1/4`` is left to the check)."""
    try:
        return json.loads(raw, parse_float=ExactDecimal)
    except (ValueError, RecursionError):  # too deep, or a number too large
        return raw


# --------------------------------------------------------------------------
# Specs.  Specs are frozen, so nodes with equal specs can share one object.
# --------------------------------------------------------------------------

# The specs whose arguments are literals here, shared by every graph; the
# ones made from config values come from each graph's table (``Graph.spec``)
_BATCH_NORM = BatchNorm()
_RELU = ReLU()
_ADD = Add()
_CONCAT = Concat()
_SPLIT_HALVES = ChannelSplit((Fraction(1, 2), Fraction(1, 2)))
_SHUFFLE_2 = ChannelShuffle(2)
_POOL_3X3_S2 = MaxPool(3, 3, 2, 2, 1, 1)


# --------------------------------------------------------------------------
# Small builder helpers
# --------------------------------------------------------------------------

def _conv(g: Graph, src: int, name: str, in_ch: int, out_ch: int,
          kernel=(1, 1), stride=(1, 1), pad=(0, 0), groups: int = 1,
          bias: bool = False, port: int = 0) -> int:
    """Conv fed by output ``port`` of ``src`` (ChannelSplit has several)."""
    if in_ch % groups or out_ch % groups:
        raise ChannelConstraintError(
            f"{name}: channels {in_ch}->{out_ch} not divisible by groups={groups}")
    spec = g.spec(Conv, out_ch, kernel[0], kernel[1], stride[0], stride[1],
                  pad[0], pad[1], groups, bias)
    return g.add_node(spec, [(src, port)], name)


def _bn_relu(g: Graph, src: int, prefix: str, relu: bool = True) -> int:
    node = g.add_node(_BATCH_NORM, [(src, 0)], f"{prefix}.bn")
    if relu:
        node = g.add_node(_RELU, [(node, 0)], f"{prefix}.relu")
    return node


def _cbr(g: Graph, src: int, name: str, in_ch: int, out_ch: int,
         kernel=(3, 3), stride=(1, 1), pad=(1, 1), groups: int = 1,
         relu: bool = True) -> int:
    node = _conv(g, src, f"{name}.conv", in_ch, out_ch, kernel, stride, pad, groups)
    return _bn_relu(g, node, name, relu)


def _skip(g: Graph, src: int, name: str, in_ch: int, out_ch: int,
          stride: int) -> int:
    """A unit's residual skip: ``src`` itself when the unit keeps its shape,
    else a strided 1x1 projection conv and batch norm."""
    if stride == 1 and in_ch == out_ch:
        return src
    node = _conv(g, src, f"{name}.proj.conv", in_ch, out_ch, (1, 1),
                 (stride, stride))
    return g.add_node(_BATCH_NORM, [(node, 0)], f"{name}.proj.bn")


def _dw(g: Graph, src: int, name: str, channels: int, stride: int) -> int:
    return _conv(g, src, name, channels, channels, (3, 3), (stride, stride),
                 (1, 1), groups=channels)


def _frac_channels(total: int, ratio: Fraction, name: str) -> int:
    value = Fraction(total) * ratio
    if value.denominator != 1 or value < 1:
        raise ChannelConstraintError(
            f"{name}: ratio {ratio} of {total} channels is not a positive integer")
    return int(value)


# --------------------------------------------------------------------------
# Basic units
# --------------------------------------------------------------------------

def _unit_base(g, src, in_ch, out_ch, stride, name, cfg) -> int:
    return _cbr(g, src, name, in_ch, out_ch, stride=(stride, stride))


def _unit_squeezenext(g, src, in_ch, out_ch, stride, name, cfg) -> int:
    hidden = _frac_channels(in_ch, cfg.squeezenext_reduce, name)
    node = _cbr(g, src, f"{name}.reduce", in_ch, hidden, (1, 1),
                (stride, stride), (0, 0))
    node = _cbr(g, node, f"{name}.conv1x3", hidden, hidden, (1, 3), pad=(0, 1))
    node = _cbr(g, node, f"{name}.conv3x1", hidden, hidden, (3, 1), pad=(1, 0))
    node = _cbr(g, node, f"{name}.expand", hidden, out_ch, (1, 1), pad=(0, 0))
    skip = _skip(g, src, name, in_ch, out_ch, stride)
    node = g.add_node(_ADD, [(skip, 0), (node, 0)], f"{name}.add")
    return g.add_node(_RELU, [(node, 0)], f"{name}.out_relu")


def _unit_bottleneck(g, src, in_ch, out_ch, stride, name, cfg,
                     width: Fraction, groups: int) -> int:
    hidden = _frac_channels(out_ch, width, name)
    if hidden % groups:
        raise ChannelConstraintError(
            f"{name}: bottleneck width {hidden} not divisible by groups={groups}")
    node = _cbr(g, src, f"{name}.reduce", in_ch, hidden, (1, 1),
                (stride, stride), (0, 0))
    node = _cbr(g, node, f"{name}.conv3x3", hidden, hidden, groups=groups)
    node = _cbr(g, node, f"{name}.expand", hidden, out_ch, (1, 1),
                pad=(0, 0), relu=False)
    skip = _skip(g, src, name, in_ch, out_ch, stride)
    node = g.add_node(_ADD, [(skip, 0), (node, 0)], f"{name}.add")
    return g.add_node(_RELU, [(node, 0)], f"{name}.out_relu")


def _unit_resnet(g, src, in_ch, out_ch, stride, name, cfg) -> int:
    return _unit_bottleneck(g, src, in_ch, out_ch, stride, name, cfg,
                            cfg.resnet_bottleneck, 1)


def _unit_resnext(g, src, in_ch, out_ch, stride, name, cfg) -> int:
    return _unit_bottleneck(g, src, in_ch, out_ch, stride, name, cfg,
                            cfg.resnext_width, cfg.resnext_groups)


def _unit_mobilenet_v1(g, src, in_ch, out_ch, stride, name, cfg) -> int:
    node = _dw(g, src, f"{name}.dw.conv", in_ch, stride)
    node = _bn_relu(g, node, f"{name}.dw")
    node = _conv(g, node, f"{name}.pw.conv", in_ch, out_ch)
    return _bn_relu(g, node, f"{name}.pw")


def _unit_mobilenet_v2(g, src, in_ch, out_ch, stride, name, cfg) -> int:
    t = cfg.mobilenet_v2_expand
    hidden = in_ch * t
    node = src
    if t > 1:  # expansion layer is skipped at ratio 1, as in the original family
        node = _cbr(g, node, f"{name}.expand", in_ch, hidden, (1, 1), pad=(0, 0))
    node = _dw(g, node, f"{name}.dw.conv", hidden, stride)
    node = _bn_relu(g, node, f"{name}.dw")
    node = _conv(g, node, f"{name}.project.conv", hidden, out_ch)
    node = g.add_node(_BATCH_NORM, [(node, 0)], f"{name}.project.bn")
    if stride == 1 and in_ch == out_ch:
        node = g.add_node(_ADD, [(src, 0), (node, 0)], f"{name}.add")
    return node


def _shuffle_branch(g, src, name, in_ch, out_ch, stride, groups) -> int:
    node = _cbr(g, src, f"{name}.gconv1", in_ch, out_ch, (1, 1), pad=(0, 0),
                groups=groups)
    node = g.add_node(g.spec(ChannelShuffle, groups), [(node, 0)], f"{name}.shuffle")
    node = _dw(g, node, f"{name}.dw.conv", out_ch, stride)
    node = g.add_node(_BATCH_NORM, [(node, 0)], f"{name}.dw.bn")
    node = _conv(g, node, f"{name}.gconv2.conv", out_ch, out_ch, groups=groups)
    return g.add_node(_BATCH_NORM, [(node, 0)], f"{name}.gconv2.bn")


def _unit_shufflenet_v1(g, src, in_ch, out_ch, stride, name, cfg) -> int:
    groups = cfg.shufflenet_v1_groups
    if stride == 1:
        if in_ch != out_ch:
            raise ChannelConstraintError(
                f"{name}: stride-1 shuffle unit needs in == out channels")
        branch = _shuffle_branch(g, src, name, in_ch, out_ch, 1, groups)
        node = g.add_node(_ADD, [(src, 0), (branch, 0)], f"{name}.add")
        return g.add_node(_RELU, [(node, 0)], f"{name}.out_relu")
    if out_ch > in_ch:
        # downsampling unit: pooled identity concatenated with the branch
        branch = _shuffle_branch(g, src, name, in_ch, out_ch - in_ch, 2, groups)
        skip = _pool(g, src, f"{name}.pool")
        node = g.add_node(_CONCAT, [(skip, 0), (branch, 0)], f"{name}.concat")
    else:
        branch = _shuffle_branch(g, src, name, in_ch, out_ch, 2, groups)
        skip = _skip(g, src, name, in_ch, out_ch, 2)
        node = g.add_node(_ADD, [(skip, 0), (branch, 0)], f"{name}.add")
    return g.add_node(_RELU, [(node, 0)], f"{name}.out_relu")


def _shufflenet_v2_unit(g, src, in_ch, out_ch, stride, name, cfg) -> int:
    if stride == 1:
        if in_ch != out_ch or in_ch % 2:
            raise ChannelConstraintError(
                f"{name}: stride-1 unit needs even, equal in/out channels")
        c = in_ch // 2
        split = g.add_node(_SPLIT_HALVES, [(src, 0)], f"{name}.split")
        node = _conv(g, split, f"{name}.pw1.conv", c, c, port=1)
        node = _bn_relu(g, node, f"{name}.pw1")
        node = _dw(g, node, f"{name}.dw.conv", c, 1)
        node = g.add_node(_BATCH_NORM, [(node, 0)], f"{name}.dw.bn")
        node = _conv(g, node, f"{name}.pw2.conv", c, c)
        node = _bn_relu(g, node, f"{name}.pw2")
        node = g.add_node(_CONCAT, [(split, 0), (node, 0)], f"{name}.concat")
        return g.add_node(_SHUFFLE_2, [(node, 0)], f"{name}.shuffle")

    if out_ch % 2:
        raise ChannelConstraintError(f"{name}: output channels must be even")
    branch = out_ch // 2
    left = _dw(g, src, f"{name}.left.dw.conv", in_ch, 2)
    left = g.add_node(_BATCH_NORM, [(left, 0)], f"{name}.left.dw.bn")
    left = _conv(g, left, f"{name}.left.pw.conv", in_ch, branch)
    left = _bn_relu(g, left, f"{name}.left.pw")
    right = _cbr(g, src, f"{name}.right.pw1", in_ch, branch, (1, 1), pad=(0, 0))
    right = _dw(g, right, f"{name}.right.dw.conv", branch, 2)
    right = g.add_node(_BATCH_NORM, [(right, 0)], f"{name}.right.dw.bn")
    right = _conv(g, right, f"{name}.right.pw2.conv", branch, branch)
    right = _bn_relu(g, right, f"{name}.right.pw2")
    node = g.add_node(_CONCAT, [(left, 0), (right, 0)], f"{name}.concat")
    return g.add_node(_SHUFFLE_2, [(node, 0)], f"{name}.shuffle")


def _darknet_unit(g, src, channels, hidden, name) -> int:
    node = _cbr(g, src, f"{name}.reduce", channels, hidden, (1, 1), pad=(0, 0))
    node = _cbr(g, node, f"{name}.conv3x3", hidden, channels)
    return g.add_node(_ADD, [(src, 0), (node, 0)], f"{name}.add")


def _sepconv(g, src, name, in_ch, out_ch, relu: bool = True) -> int:
    node = _dw(g, src, f"{name}.dw", in_ch, 1)
    node = _conv(g, node, f"{name}.pw", in_ch, out_ch)
    return _bn_relu(g, node, name, relu)


def _pool(g, src, name) -> int:
    return g.add_node(_POOL_3X3_S2, [(src, 0)], name)


def _unit_xception(g, src, in_ch, out_ch, stride, name, single: bool) -> int:
    """Xception block: two separable convs with a skip; the stride-2 form
    pools between them and projects the skip with a strided 1x1.  The
    ``single`` block that ends an odd unit count keeps only ``sep1``."""
    if stride == 1 and in_ch != out_ch and not single:
        raise ChannelConstraintError(f"{name}: stride-1 block needs in == out")
    node = _sepconv(g, src, f"{name}.sep1", in_ch, out_ch)
    if stride == 2:
        node = _pool(g, node, f"{name}.pool")
    if not single:
        node = _sepconv(g, node, f"{name}.sep2", out_ch, out_ch)
    skip = _skip(g, src, name, in_ch, out_ch, stride)
    return g.add_node(_ADD, [(skip, 0), (node, 0)], f"{name}.add")


_UNIT_BUILDERS = {
    Variant.BASE: _unit_base,
    Variant.SQUEEZENEXT: _unit_squeezenext,
    Variant.RESNET: _unit_resnet,
    Variant.RESNEXT: _unit_resnext,
    Variant.MOBILENET_V1: _unit_mobilenet_v1,
    Variant.MOBILENET_V2: _unit_mobilenet_v2,
    Variant.SHUFFLENET_V1: _unit_shufflenet_v1,
    Variant.SHUFFLENET_V2: _shufflenet_v2_unit,
}


# The config of a build given none; records are frozen, so builds share it
_DEFAULT = ArchConfig()


# --------------------------------------------------------------------------
# Blocks and full network
# --------------------------------------------------------------------------

def _block_of_units(unit, g, src, in_ch, out_ch, units, stride, prefix, cfg,
                    first_block) -> int:
    """``units`` basic units in a row; only the first is strided."""
    node = src
    for i in range(units):
        node = unit(g, node, in_ch, out_ch, stride, f"{prefix}.unit{i + 1}", cfg)
        in_ch, stride = out_ch, 1
    return node


def _block_darknet(g, src, in_ch, out_ch, units, stride, prefix, cfg,
                   first_block) -> int:
    node = _cbr(g, src, f"{prefix}.entry", in_ch, out_ch, stride=(stride, stride))
    for i in range(1, units):
        node = _darknet_unit(g, node, out_ch, out_ch // 2, f"{prefix}.unit{i}")
    return node


def _block_cspdarknet(g, src, in_ch, out_ch, units, stride, prefix, cfg,
                      first_block) -> int:
    """Cross-stage partial wrapper: the first block keeps the lane at full
    width (as the original CSP backbone does), later blocks halve it."""
    node = _cbr(g, src, f"{prefix}.entry", in_ch, out_ch, stride=(stride, stride))
    lane_ch = out_ch if first_block else out_ch // 2
    skip = _cbr(g, node, f"{prefix}.route_skip", out_ch, lane_ch, (1, 1), pad=(0, 0))
    lane = _cbr(g, node, f"{prefix}.route_lane", out_ch, lane_ch, (1, 1), pad=(0, 0))
    for i in range(1, units):
        lane = _darknet_unit(g, lane, lane_ch, out_ch // 2, f"{prefix}.unit{i}")
    lane = _cbr(g, lane, f"{prefix}.post", lane_ch, lane_ch, (1, 1), pad=(0, 0))
    node = g.add_node(_CONCAT, [(skip, 0), (lane, 0)], f"{prefix}.concat")
    return _cbr(g, node, f"{prefix}.final", 2 * lane_ch, out_ch, (1, 1), pad=(0, 0))


def _block_xception(g, src, in_ch, out_ch, units, stride, prefix, cfg,
                    first_block) -> int:
    """Each Xception block covers two of the original conv units; only the
    first is strided."""
    node = src
    for index, start in enumerate(range(0, units, 2), 1):
        node = _unit_xception(g, node, in_ch, out_ch, stride, f"{prefix}.block{index}",
                              single=start + 1 == units)
        in_ch, stride = out_ch, 1
    return node


_BLOCK_BUILDERS = {
    **{variant: partial(_block_of_units, unit) for variant, unit in _UNIT_BUILDERS.items()},
    Variant.DARKNET: _block_darknet,
    Variant.CSPDARKNET: _block_cspdarknet,
    Variant.XCEPTION: _block_xception,
}


def build_backbone(variant: Variant, cfg: ArchConfig | None = None,
                   graph: Graph | None = None, input_id: int | None = None,
                   ) -> tuple[Graph, list[int]]:
    """Build the strided backbone; returns the graph and per-block outputs.

    When no graph is given, a fresh one is created with the pseudo-image as
    its input node.
    """
    cfg = cfg or _DEFAULT
    if graph is None:
        graph = Graph()
        input_id = graph.add_node(Input(cfg.pseudo_image), name="backbone.input")
    assert input_id is not None
    node = input_id
    in_ch = cfg.pseudo_image_channels
    outputs: list[int] = []
    for i, (out_ch, units, stride) in enumerate(
            zip(cfg.block_channels, cfg.block_units, cfg.block_strides)):
        node = _BLOCK_BUILDERS[variant](graph, node, in_ch, out_ch, units, stride,
                                        f"backbone.block{i + 1}", cfg, i == 0)
        outputs.append(node)
        in_ch = out_ch
    return graph, outputs


def build_pointpillars(variant: Variant, cfg: ArchConfig | None = None) -> Graph:
    """Full network graph: pfn -> scatter -> backbone -> neck -> head."""
    cfg = cfg or _DEFAULT
    g = Graph()

    # pillar feature encoder: a linear layer over (features x pillars x points)
    # modeled as a 1x1 conv, then a max-reduction over the points axis
    pfn_in = g.add_node(
        Input(TensorShape(cfg.pfn_in_features, cfg.max_pillars,
                          cfg.points_per_pillar)),
        name="pfn.input")
    node = _cbr(g, pfn_in, "pfn.linear", cfg.pfn_in_features,
                cfg.pseudo_image_channels, (1, 1), pad=(0, 0))
    node = g.add_node(MaxPool(1, cfg.points_per_pillar, 1, cfg.points_per_pillar),
                      [(node, 0)], "pfn.maxpool")
    node = g.add_node(Scatter(cfg.pseudo_image_height, cfg.pseudo_image_width),
                      [(node, 0)], "pfn.scatter")

    _, block_outputs = build_backbone(variant, cfg, g, node)

    # neck: one transposed conv per block output, then channel concat
    branches: list[int] = []
    for i, (src, out_ch, up) in enumerate(
            zip(block_outputs, cfg.neck_out_channels, cfg.neck_upsample)):
        in_ch = cfg.block_channels[i]
        name = f"neck.branch{i + 1}"
        branch = g.add_node(g.spec(TransposedConv, out_ch, up, up, up, up),
                            [(src, 0)], f"{name}.deconv")
        branch = _bn_relu(g, branch, name)
        branches.append(branch)
    neck = g.add_node(_CONCAT, [(b, 0) for b in branches], "neck.concat")

    # SSD-style head: parallel 1x1 predictors (with bias; no BN follows)
    head_in = sum(cfg.neck_out_channels)
    for name, out_ch in (
            ("cls", cfg.anchors_per_location * cfg.num_classes),
            ("box", cfg.anchors_per_location * cfg.box_code_size),
            ("dir", cfg.anchors_per_location * cfg.dir_bins)):
        _conv(g, neck, f"head.{name}", head_in, out_ch, bias=True)
    return g
