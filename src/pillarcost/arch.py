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
from functools import lru_cache, partial
from pathlib import Path

from .core import (  # ArchError and Variant are re-exported
    ArchError, ExactDecimal, Record, Variant, exact_fraction, read_json, read_key_values,
    typed_repr,
)
from .graph import (
    Add, BatchNorm, ChannelShuffle, ChannelSplit, Concat, Conv, Graph, Input,
    MaxPool, ReLU, Scatter, TensorShape, TransposedConv,
)


def _count(value, name: str) -> int:
    if type(value) is not int:  # not a bool, nor any other int subclass
        raise ArchError(f"{name} must be an integer, got {typed_repr(value)}")
    if value < 1:
        raise ArchError(f"{name} must be >= 1, got {value}")
    return value


def _items(value, name: str) -> tuple:
    if not isinstance(value, (list, tuple)):
        raise ArchError(f"{name} must be a list of integers, got {value!r}")
    return tuple(value)


def _counts(value, name: str) -> tuple[int, ...]:
    return tuple([_count(item, f"{name}[{i}]") for i, item in enumerate(_items(value, name))])


def _strides(value, name: str) -> tuple[int, ...]:
    value = _items(value, name)
    for i, stride in enumerate(value):
        if type(stride) is not int or stride not in (1, 2):
            raise ArchError(f"{name}[{i}]: stride must be 1 or 2, got {typed_repr(stride)}")
    return value


def _fraction(value, name: str) -> Fraction:
    try:
        fraction = exact_fraction(value)
    except (TypeError, ValueError, ArithmeticError):
        raise ArchError(f"{name} must be a number or fraction, got {value!r}") from None
    if fraction <= 0:
        raise ArchError(f"{name} must be > 0, got {fraction}")
    return fraction


class ArchConfig(Record):
    """Structural parameters of the network; defaults follow the reference
    KITTI configuration (pseudo-image 64x496x432, three blocks).

    Every field is checked by the check its annotation names (``_check_of``),
    however the config is made: directly, by ``_replace``, or by a loader.
    ``Strides`` names a check, not a type: a list of 1s and 2s."""

    _check_of = {"int": _count, "tuple[int, ...]": _counts, "Fraction": _fraction,
                 "Strides": _strides}
    pseudo_image_channels: int = 64
    pseudo_image_height: int = 496
    pseudo_image_width: int = 432
    max_pillars: int = 16000
    points_per_pillar: int = 32
    pfn_in_features: int = 10
    block_channels: tuple[int, ...] = (64, 128, 256)
    block_units: tuple[int, ...] = (4, 6, 6)
    block_strides: Strides = (2, 2, 2)
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

    def __post_init__(self) -> None:
        lengths = {len(self.block_channels), len(self.block_units),
                   len(self.block_strides)}
        if len(lengths) != 1:
            raise ArchError("block_channels/block_units/block_strides lengths differ")
        if len(self.neck_out_channels) != len(self.neck_upsample) or \
                len(self.neck_out_channels) != len(self.block_channels):
            raise ArchError("neck lists must match the number of blocks")
        if not self.block_channels:
            raise ArchError("block_channels must list at least one block")

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
            text = Path(path).read_text(encoding="utf-8")
        except UnicodeDecodeError as err:
            raise ArchError(f"{path}: {err}") from err
        if text.lstrip().startswith("{"):
            return cls.from_dict(read_json(path, ArchError, text))
        lines = ((f"{path}:{lineno}: ", line.split("#", 1)[0].strip())
                 for lineno, line in enumerate(text.splitlines(), 1))
        return cls.from_dict(_parse_values((where, line) for where, line in lines if line))

    def with_overrides(self, overrides: list[str]) -> "ArchConfig":
        """Apply repeated ``--set key=value`` strings, read as config-file
        lines are; a key given twice raises ``ArchError``."""
        return self.from_dict({**dict(zip(self._fields, self._values())),
                               **_parse_values(("", item) for item in overrides)})


def _parse_values(items) -> dict:
    """The ``(where, "key = value")`` items, as ``read_key_values`` reads
    them, with each value read as JSON, else kept as text (``1/4`` is left
    to the check)."""
    doc = read_key_values(items, ArchError)
    for key, raw in doc.items():
        try:
            doc[key] = json.loads(raw, parse_float=ExactDecimal)
        except (ValueError, RecursionError):  # too deep, or a number too large
            pass
    return doc


# --------------------------------------------------------------------------
# Specs.  Specs are frozen, so nodes with equal specs, in one graph or in
# many, can share one object.  Each spec here is a module constant (its
# arguments are literals) or comes from ``_spec``.
# --------------------------------------------------------------------------

@lru_cache(maxsize=256, typed=True)
def _spec(cls, *args):
    """``cls(*args)``, made once per distinct value for every build.  The
    arguments are exact ints and bools (``ArchConfig`` refuses int
    subclasses) or a ``TensorShape``, so ``typed`` keeps ``1`` and ``True``
    apart; a miss is checked by ``cls`` itself, and an error is not cached.
    Every variant at paper size and at ``block_units`` 12, 24 and 48 makes
    52 distinct specs, so the bound of 256 evicts none of them, yet keeps a
    session that sweeps widths from growing without limit."""
    return cls(*args)


_BATCH_NORM = BatchNorm()
_RELU = ReLU()
_ADD = Add()
_CONCAT = Concat()
_HALF = Fraction(1, 2)
_SPLIT_HALVES = ChannelSplit((_HALF, _HALF))
_SHUFFLE_2 = ChannelShuffle(2)
_POOL_3X3_S2 = MaxPool(3, 3, 2, 2, 1, 1)


# --------------------------------------------------------------------------
# Small builder helpers
# --------------------------------------------------------------------------

def _conv(g: Graph, src: int, name: str, out_ch: int,
          kernel=(1, 1), stride: int = 1, groups: int = 1,
          bias: bool = False, port: int = 0) -> int:
    """Conv fed by output ``port`` of ``src`` (ChannelSplit has several),
    "same"-padded: each side is padded by half the kernel, rounded down.
    Its channels are checked against ``groups`` by the shape walk."""
    spec = _spec(Conv, out_ch, kernel[0], kernel[1], stride, stride,
                 kernel[0] // 2, kernel[1] // 2, groups, bias)
    return g.add_node(spec, ((src, port),), name)


def _bn_relu(g: Graph, src: int, prefix: str, relu: bool = True) -> int:
    node = g.add_node(_BATCH_NORM, ((src, 0),), f"{prefix}.bn")
    if relu:
        node = g.add_node(_RELU, ((node, 0),), f"{prefix}.relu")
    return node


def _cbr(g: Graph, src: int, name: str, out_ch: int,
         kernel=(3, 3), stride: int = 1, groups: int = 1,
         relu: bool = True) -> int:
    node = _conv(g, src, f"{name}.conv", out_ch, kernel, stride, groups)
    return _bn_relu(g, node, name, relu)


def _dw(g: Graph, src: int, name: str, channels: int, stride: int,
        relu: bool = True) -> int:
    """3x3 depthwise conv, batch norm and, unless ``relu`` is false, ReLU."""
    return _cbr(g, src, name, channels, stride=stride, groups=channels, relu=relu)


def _skip(g: Graph, src: int, name: str, in_ch: int, out_ch: int,
          stride: int) -> int:
    """A unit's residual skip: ``src`` itself when the unit keeps its shape,
    else a strided 1x1 projection conv and batch norm."""
    if stride == 1 and in_ch == out_ch:
        return src
    return _cbr(g, src, f"{name}.proj", out_ch, (1, 1), stride, relu=False)


def _add_relu(g: Graph, skip: int, node: int, name: str) -> int:
    """A residual unit's tail: ``skip + node``, then ReLU."""
    node = g.add_node(_ADD, ((skip, 0), (node, 0)), f"{name}.add")
    return g.add_node(_RELU, ((node, 0),), f"{name}.out_relu")


def _frac_channels(total: int, ratio: Fraction, name: str) -> int:
    value = Fraction(total) * ratio
    if value.denominator != 1:
        raise ArchError(f"{name}: ratio {ratio} of {total} channels is not a positive integer")
    return int(value)


# --------------------------------------------------------------------------
# Basic units
# --------------------------------------------------------------------------

def _unit_base(g, src, in_ch, out_ch, stride, name, cfg) -> int:
    return _cbr(g, src, name, out_ch, stride=stride)


def _unit_squeezenext(g, src, in_ch, out_ch, stride, name, cfg) -> int:
    hidden = _frac_channels(in_ch, cfg.squeezenext_reduce, name)
    node = _cbr(g, src, f"{name}.reduce", hidden, (1, 1), stride)
    node = _cbr(g, node, f"{name}.conv1x3", hidden, (1, 3))
    node = _cbr(g, node, f"{name}.conv3x1", hidden, (3, 1))
    node = _cbr(g, node, f"{name}.expand", out_ch, (1, 1))
    return _add_relu(g, _skip(g, src, name, in_ch, out_ch, stride), node, name)


def _unit_bottleneck(g, src, in_ch, out_ch, stride, name, cfg,
                     width: Fraction, groups: int) -> int:
    hidden = _frac_channels(out_ch, width, name)
    node = _cbr(g, src, f"{name}.reduce", hidden, (1, 1), stride)
    node = _cbr(g, node, f"{name}.conv3x3", hidden, groups=groups)
    node = _cbr(g, node, f"{name}.expand", out_ch, (1, 1), relu=False)
    return _add_relu(g, _skip(g, src, name, in_ch, out_ch, stride), node, name)


def _unit_resnet(g, src, in_ch, out_ch, stride, name, cfg) -> int:
    return _unit_bottleneck(g, src, in_ch, out_ch, stride, name, cfg,
                            cfg.resnet_bottleneck, 1)


def _unit_resnext(g, src, in_ch, out_ch, stride, name, cfg) -> int:
    return _unit_bottleneck(g, src, in_ch, out_ch, stride, name, cfg,
                            cfg.resnext_width, cfg.resnext_groups)


def _unit_mobilenet_v1(g, src, in_ch, out_ch, stride, name, cfg) -> int:
    node = _dw(g, src, f"{name}.dw", in_ch, stride)
    return _cbr(g, node, f"{name}.pw", out_ch, (1, 1))


def _unit_mobilenet_v2(g, src, in_ch, out_ch, stride, name, cfg) -> int:
    t = cfg.mobilenet_v2_expand
    hidden = in_ch * t
    node = src
    if t > 1:  # expansion layer is skipped at ratio 1, as in the original family
        node = _cbr(g, node, f"{name}.expand", hidden, (1, 1))
    node = _dw(g, node, f"{name}.dw", hidden, stride)
    node = _cbr(g, node, f"{name}.project", out_ch, (1, 1), relu=False)
    if stride == 1 and in_ch == out_ch:
        node = g.add_node(_ADD, ((src, 0), (node, 0)), f"{name}.add")
    return node


def _shuffle_branch(g, src, name, out_ch, stride, groups) -> int:
    node = _cbr(g, src, f"{name}.gconv1", out_ch, (1, 1), groups=groups)
    node = g.add_node(_spec(ChannelShuffle, groups), ((node, 0),), f"{name}.shuffle")
    node = _dw(g, node, f"{name}.dw", out_ch, stride, relu=False)
    return _cbr(g, node, f"{name}.gconv2", out_ch, (1, 1), groups=groups, relu=False)


def _unit_shufflenet_v1(g, src, in_ch, out_ch, stride, name, cfg) -> int:
    groups = cfg.shufflenet_v1_groups
    if stride == 1 and in_ch != out_ch:
        raise ArchError(f"{name}: stride-1 shuffle unit needs in == out channels")
    if out_ch > in_ch:  # stride 2: a stride-1 unit has in == out
        # downsampling unit: pooled identity concatenated with the branch
        branch = _shuffle_branch(g, src, name, out_ch - in_ch, 2, groups)
        skip = _pool(g, src, f"{name}.pool")
        node = g.add_node(_CONCAT, ((skip, 0), (branch, 0)), f"{name}.concat")
        return g.add_node(_RELU, ((node, 0),), f"{name}.out_relu")
    branch = _shuffle_branch(g, src, name, out_ch, stride, groups)
    return _add_relu(g, _skip(g, src, name, in_ch, out_ch, stride), branch, name)


def _shufflenet_v2_unit(g, src, in_ch, out_ch, stride, name, cfg) -> int:
    if stride == 1:
        if in_ch != out_ch or in_ch % 2:
            raise ArchError(f"{name}: stride-1 unit needs even, equal in/out channels")
        c = in_ch // 2
        split = g.add_node(_SPLIT_HALVES, ((src, 0),), f"{name}.split")
        node = _conv(g, split, f"{name}.pw1.conv", c, port=1)
        node = _bn_relu(g, node, f"{name}.pw1")
        node = _dw(g, node, f"{name}.dw", c, 1, relu=False)
        node = _cbr(g, node, f"{name}.pw2", c, (1, 1))
        node = g.add_node(_CONCAT, ((split, 0), (node, 0)), f"{name}.concat")
        return g.add_node(_SHUFFLE_2, ((node, 0),), f"{name}.shuffle")

    if out_ch % 2:
        raise ArchError(f"{name}: output channels must be even")
    branch = out_ch // 2
    left = _dw(g, src, f"{name}.left.dw", in_ch, 2, relu=False)
    left = _cbr(g, left, f"{name}.left.pw", branch, (1, 1))
    right = _cbr(g, src, f"{name}.right.pw1", branch, (1, 1))
    right = _dw(g, right, f"{name}.right.dw", branch, 2, relu=False)
    right = _cbr(g, right, f"{name}.right.pw2", branch, (1, 1))
    node = g.add_node(_CONCAT, ((left, 0), (right, 0)), f"{name}.concat")
    return g.add_node(_SHUFFLE_2, ((node, 0),), f"{name}.shuffle")


def _darknet_unit(g, src, channels, hidden, name) -> int:
    node = _cbr(g, src, f"{name}.reduce", hidden, (1, 1))
    node = _cbr(g, node, f"{name}.conv3x3", channels)
    return g.add_node(_ADD, ((src, 0), (node, 0)), f"{name}.add")


def _sepconv(g, src, name, in_ch, out_ch) -> int:
    node = _conv(g, src, f"{name}.dw", in_ch, (3, 3), groups=in_ch)
    node = _conv(g, node, f"{name}.pw", out_ch)
    return _bn_relu(g, node, name)


def _pool(g, src, name) -> int:
    return g.add_node(_POOL_3X3_S2, ((src, 0),), name)


def _unit_xception(g, src, in_ch, out_ch, stride, name, single: bool) -> int:
    """Xception block: two separable convs with a skip; the stride-2 form
    pools between them and projects the skip with a strided 1x1.  The
    ``single`` block that ends an odd unit count keeps only ``sep1``."""
    if stride == 1 and in_ch != out_ch and not single:
        raise ArchError(f"{name}: stride-1 block needs in == out")
    node = _sepconv(g, src, f"{name}.sep1", in_ch, out_ch)
    if stride == 2:
        node = _pool(g, node, f"{name}.pool")
    if not single:
        node = _sepconv(g, node, f"{name}.sep2", out_ch, out_ch)
    skip = _skip(g, src, name, in_ch, out_ch, stride)
    return g.add_node(_ADD, ((skip, 0), (node, 0)), f"{name}.add")


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

def _units(g: Graph, node: int, names: list[str], unit) -> int:
    """Equal units in a chain, one per name: the first as ``unit(node,
    name)`` builds it, then ``Graph._repeat`` copies it for the rest.

    ``_repeat`` checks nothing, so this is its contract: the template is
    the nodes ``unit(node, name)`` builds; only ``node``, the last node
    added before it, feeds it from outside, through port 0; each of its
    names starts with ``name.``; and the unit ends with its output."""
    if not names:
        return node
    first = len(g)
    unit(node, names[0])
    return g._repeat(first, names[0], names[1:])


def _block_of_units(unit, g, src, in_ch, out_ch, units, stride, prefix, cfg,
                    first_block) -> int:
    """``units`` basic units in a row; only the first is strided."""
    node = unit(g, src, in_ch, out_ch, stride, f"{prefix}.unit1", cfg)
    return _units(g, node, [f"{prefix}.unit{i}" for i in range(2, units + 1)],
                  lambda node, name: unit(g, node, out_ch, out_ch, 1, name, cfg))


def _block_darknet(g, src, in_ch, out_ch, units, stride, prefix, cfg,
                   first_block) -> int:
    """An entry conv, then residual units whose 1x1 halves the width; a
    one-unit block has no unit, so its width need not be even."""
    node = _cbr(g, src, f"{prefix}.entry", out_ch, stride=stride)
    half = _frac_channels(out_ch, _HALF, prefix) if units > 1 else None
    return _units(g, node, [f"{prefix}.unit{i}" for i in range(1, units)],
                  lambda node, name: _darknet_unit(g, node, out_ch, half, name))


def _block_cspdarknet(g, src, in_ch, out_ch, units, stride, prefix, cfg,
                      first_block) -> int:
    """Cross-stage partial wrapper: the first block keeps the lane at full
    width (as the original CSP backbone does), later blocks halve it."""
    node = _cbr(g, src, f"{prefix}.entry", out_ch, stride=stride)
    half = _frac_channels(out_ch, _HALF, prefix) if units > 1 or not first_block else None
    lane_ch = out_ch if first_block else half
    skip = _cbr(g, node, f"{prefix}.route_skip", lane_ch, (1, 1))
    lane = _cbr(g, node, f"{prefix}.route_lane", lane_ch, (1, 1))
    lane = _units(g, lane, [f"{prefix}.unit{i}" for i in range(1, units)],
                  lambda node, name: _darknet_unit(g, node, lane_ch, half, name))
    lane = _cbr(g, lane, f"{prefix}.post", lane_ch, (1, 1))
    node = g.add_node(_CONCAT, ((skip, 0), (lane, 0)), f"{prefix}.concat")
    return _cbr(g, node, f"{prefix}.final", out_ch, (1, 1))


def _block_xception(g, src, in_ch, out_ch, units, stride, prefix, cfg,
                    first_block) -> int:
    """Each Xception block covers two of the original conv units; only the
    first is strided, and an odd count ends with a ``single`` block."""
    node = _unit_xception(g, src, in_ch, out_ch, stride, f"{prefix}.block1",
                          single=units == 1)
    pairs = units // 2
    node = _units(g, node, [f"{prefix}.block{i}" for i in range(2, pairs + 1)],
                  lambda node, name: _unit_xception(g, node, out_ch, out_ch, 1, name, False))
    if units % 2 and pairs:
        node = _unit_xception(g, node, out_ch, out_ch, 1, f"{prefix}.block{pairs + 1}",
                              single=True)
    return node


_BLOCK_BUILDERS = {
    **{variant: partial(_block_of_units, unit) for variant, unit in _UNIT_BUILDERS.items()},
    Variant.DARKNET: _block_darknet,
    Variant.CSPDARKNET: _block_cspdarknet,
    Variant.XCEPTION: _block_xception,
}


def build_pointpillars(variant: Variant, cfg: ArchConfig | None = None) -> Graph:
    """Full network graph: pfn -> scatter -> backbone -> neck -> head."""
    cfg = cfg or _DEFAULT
    g = Graph()

    # pillar feature encoder: a linear layer over (features x pillars x points)
    # modeled as a 1x1 conv, then a max-reduction over the points axis
    points = cfg.points_per_pillar
    pfn_in = g.add_node(
        _spec(Input, TensorShape(cfg.pfn_in_features, cfg.max_pillars, points)),
        name="pfn.input")
    node = _cbr(g, pfn_in, "pfn.linear", cfg.pseudo_image_channels, (1, 1))
    node = g.add_node(_spec(MaxPool, 1, points, 1, points), ((node, 0),), "pfn.maxpool")
    node = g.add_node(_spec(Scatter, cfg.pseudo_image_height, cfg.pseudo_image_width),
                      ((node, 0),), "pfn.scatter")

    # backbone: the strided blocks, each fed by the one before
    in_ch, outputs = cfg.pseudo_image_channels, []
    for i, (out_ch, units, stride) in enumerate(
            zip(cfg.block_channels, cfg.block_units, cfg.block_strides)):
        node = _BLOCK_BUILDERS[variant](g, node, in_ch, out_ch, units, stride,
                                        f"backbone.block{i + 1}", cfg, i == 0)
        outputs.append(node)
        in_ch = out_ch

    # neck: one transposed conv per block output, then a channel concat of
    # the branches; a one-block network's neck is its one branch
    branches: list[int] = []
    for i, (src, out_ch, up) in enumerate(
            zip(outputs, cfg.neck_out_channels, cfg.neck_upsample)):
        name = f"neck.branch{i + 1}"
        branch = g.add_node(_spec(TransposedConv, out_ch, up, up, up, up),
                            ((src, 0),), f"{name}.deconv")
        branch = _bn_relu(g, branch, name)
        branches.append(branch)
    neck = branches[0] if len(branches) == 1 else \
        g.add_node(_CONCAT, tuple((b, 0) for b in branches), "neck.concat")

    # SSD-style head: parallel 1x1 predictors (with bias; no BN follows)
    for name, out_ch in (
            ("cls", cfg.anchors_per_location * cfg.num_classes),
            ("box", cfg.anchors_per_location * cfg.box_code_size),
            ("dir", cfg.anchors_per_location * cfg.dir_bins)):
        _conv(g, neck, f"head.{name}", out_ch, bias=True)
    return g
