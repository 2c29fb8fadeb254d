"""The frozen-record contract that every ``core.Record`` subclass keeps:
the 11 node kinds, ArchConfig, DesignPoint, TimingProfile and CostReport.

The pinned reprs are the text these classes printed when they were
dataclasses; error messages embed them, so they must not drift.
"""
import copy
import itertools
import pickle
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pillarcost.analysis import (
    SCOPES, DesignPoint, TimingProfile, default_dataset_path, load_points, map_of, project_fps,
)
from pillarcost.arch import ArchConfig, ArchError
from pillarcost.core import Record
from pillarcost.cost import CostReport
from pillarcost.graph import (
    Add, BatchNorm, ChannelShuffle, ChannelSplit, Concat, Conv, Graph, Input,
    MaxPool, ReLU, Scatter, TensorShape, TransposedConv,
)

# (class, arguments of an instance, its repr, arguments of an unequal one)
CASES = [
    (Input, (TensorShape(64, 496, 432),),
     "Input(shape=TensorShape(channels=64, height=496, width=432))",
     (TensorShape(64, 496, 431),)),
    (Conv, (64, 3, 3, 2, 2, 1, 1, 1, False),
     "Conv(out_channels=64, kernel_h=3, kernel_w=3, stride_h=2, stride_w=2, "
     "pad_h=1, pad_w=1, groups=1, has_bias=False)",
     (64, 3, 3, 2, 2, 1, 1, 1, True)),
    (TransposedConv, (128, 2, 2, 2, 2),
     "TransposedConv(out_channels=128, kernel_h=2, kernel_w=2, stride_h=2, "
     "stride_w=2, pad_h=0, pad_w=0, output_pad_h=0, output_pad_w=0, groups=1, "
     "has_bias=False)",
     (128, 2, 2, 2, 2, 0, 0, 1)),
    (BatchNorm, (), "BatchNorm()", None),
    (ReLU, (), "ReLU()", None),
    (MaxPool, (3, 3, 2, 2, 1, 1),
     "MaxPool(kernel_h=3, kernel_w=3, stride_h=2, stride_w=2, pad_h=1, pad_w=1)",
     (3, 3, 2, 2)),
    (Add, (), "Add()", None),
    (Concat, (), "Concat()", None),
    (ChannelSplit, (("1/4", 0.75),),
     "ChannelSplit(fractions=(Fraction(1, 4), Fraction(3, 4)))",
     ((Fraction(3, 4), Fraction(1, 4)),)),
    (ChannelShuffle, (2,), "ChannelShuffle(groups=2)", (4,)),
    (Scatter, (496, 432), "Scatter(out_height=496, out_width=432)", (432, 496)),
    (ArchConfig, (),
     "ArchConfig(pseudo_image_channels=64, pseudo_image_height=496, "
     "pseudo_image_width=432, max_pillars=16000, points_per_pillar=32, "
     "pfn_in_features=10, block_channels=(64, 128, 256), block_units=(4, 6, 6), "
     "block_strides=(2, 2, 2), neck_out_channels=(128, 128, 128), "
     "neck_upsample=(1, 2, 4), num_classes=3, anchors_per_location=6, "
     "box_code_size=7, dir_bins=2, mobilenet_v2_expand=1, shufflenet_v1_groups=2, "
     "squeezenext_reduce=Fraction(1, 2), resnet_bottleneck=Fraction(3, 8), "
     "resnext_width=Fraction(1, 1), resnext_groups=32)",
     (32,)),
    (DesignPoint, ("y", Fraction(7), {("Car", "Easy"): Fraction(1, 3)}, Fraction(10)),
     "DesignPoint(name='y', gmadds=Fraction(7, 1), ap=FrozenMap({('Car', 'Easy'): "
     "Fraction(1, 3)}), fps_backbone=Fraction(10, 1), fps_total=None)",
     ("y", Fraction(7))),
    (TimingProfile, ({"backbone": Fraction(1, 2)}, Fraction(25)),
     "TimingProfile(stage_fractions=FrozenMap({'backbone': Fraction(1, 2)}), "
     "base_latency_ms=Fraction(25, 1))",
     ({"backbone": Fraction(1, 2)}, Fraction(26))),
    (CostReport, (("a",), ("conv",), (1,), (2,)),
     "CostReport(names=('a',), kinds=('conv',), madds=(1,), params=(2,))",
     (("b",), ("conv",), (1,), (2,))),
]
IDS = [case[0].__name__ for case in CASES]
FIELDLESS = (ReLU, Add, BatchNorm, Concat)


def test_every_record_class_is_covered():
    covered = {case[0] for case in CASES}
    assert len(covered) == 15
    assert all(issubclass(cls, Record) for cls in covered)


@pytest.mark.parametrize("cls, args, text, other", CASES, ids=IDS)
class TestContract:
    def test_repr_is_pinned(self, cls, args, text, other):
        assert repr(cls(*args)) == text

    def test_equality_and_hash_agree(self, cls, args, text, other):
        first, second = cls(*args), cls(*args)
        assert first == second and not first != second
        assert hash(first) == hash(second) == hash(first)
        if other is not None:
            assert cls(*other) != first
        assert first != tuple(getattr(first, name) for name in cls._fields)

    def test_fields_cannot_be_set_or_deleted(self, cls, args, text, other):
        record = cls(*args)
        for name in (*cls._fields, "extra"):
            with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
                setattr(record, name, 1)
            with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
                delattr(record, name)
        assert repr(record) == text

    def test_bad_arguments_raise_type_error(self, cls, args, text, other):
        with pytest.raises(TypeError, match="unexpected keyword argument 'nope'"):
            cls(*args, nope=1)
        with pytest.raises(TypeError, match="positional argument"):
            cls(*args, *[1] * (len(cls._fields) - len(args) + 1))
        required = [name for name in cls._fields if name not in cls._defaults]
        if required:
            with pytest.raises(TypeError, match=f"missing {len(required)} required"):
                cls()
        if args:
            with pytest.raises(TypeError, match="multiple values for argument"):
                cls(*args, **{cls._fields[0]: args[0]})

    def test_weak_referenceable(self, cls, args, text, other):
        record = cls(*args)
        assert weakref.ref(record)() is record

    def test_replace_copy_and_pickle(self, cls, args, text, other):
        record = cls(*args)
        assert record._replace() == record
        assert copy.copy(record) == record == copy.deepcopy(record)
        assert pickle.loads(pickle.dumps(record)) == record
        if cls._fields:
            name = cls._fields[0]
            changed = record._replace(**{name: getattr(cls(*other), name)})
            assert getattr(changed, name) == getattr(cls(*other), name)


# the required fields each class reports when called with none
MISSING = {
    Input: "1 required positional argument: 'shape'",
    Conv: "3 required positional arguments: 'out_channels', 'kernel_h', and 'kernel_w'",
    TransposedConv: "3 required positional arguments: 'out_channels', 'kernel_h', "
                    "and 'kernel_w'",
    MaxPool: "2 required positional arguments: 'kernel_h' and 'kernel_w'",
    ChannelSplit: "1 required positional argument: 'fractions'",
    ChannelShuffle: "1 required positional argument: 'groups'",
    Scatter: "2 required positional arguments: 'out_height' and 'out_width'",
    DesignPoint: "2 required positional arguments: 'name' and 'gmadds'",
    TimingProfile: "2 required positional arguments: 'stage_fractions' and 'base_latency_ms'",
    CostReport: "4 required positional arguments: 'names', 'kinds', 'madds', and 'params'",
}


@pytest.mark.parametrize("cls, args, text, other", CASES, ids=IDS)
class TestBinder:
    def test_keywords_bind_as_positions_do(self, cls, args, text, other):
        values = cls(*args)._values()
        for split in range(len(values) + 1):
            # named in reverse: fields bind by name, not by call order
            named = dict(reversed(list(zip(cls._fields, values))[split:]))
            record = cls(*values[:split], **named)
            assert record == cls(*args) and repr(record) == text

    def test_too_many_positions_win_over_a_bad_keyword(self, cls, args, text, other):
        # Python's order: a bad keyword is reported before too many positions,
        # which are reported only when every keyword binds
        extra = (1,) * (len(cls._fields) + 1)
        prefix = rf"^{cls.__qualname__}\.__init__\(\) "
        with pytest.raises(TypeError, match=f"{prefix}got an unexpected keyword argument 'nope'$"):
            cls(*extra, nope=1)
        with pytest.raises(TypeError, match=rf"{prefix}takes .* but {len(extra) + 1} were given$"):
            cls(*extra)

    def test_the_first_bad_keyword_in_call_order_wins(self, cls, args, text, other):
        prefix = rf"^{cls.__qualname__}\.__init__\(\) got "
        for first, second in (("nope", "zap"), ("zap", "nope")):
            with pytest.raises(TypeError,
                               match=f"{prefix}an unexpected keyword argument '{first}'$"):
                cls(*args, **{first: 1, second: 1})
        if cls._fields:
            values = cls(*args)._values()
            name = cls._fields[0]
            with pytest.raises(TypeError, match=f"{prefix}multiple values for argument '{name}'$"):
                cls(*values, **{name: values[0]}, nope=1)
            with pytest.raises(TypeError, match=f"{prefix}an unexpected keyword argument 'nope'$"):
                cls(*values, nope=1, **{name: values[0]})

    def test_missing_fields_are_reported_last(self, cls, args, text, other):
        if cls not in MISSING:
            assert all(name in cls._defaults for name in cls._fields)
            return
        with pytest.raises(TypeError, match="unexpected keyword argument 'nope'"):
            cls(nope=1)
        with pytest.raises(TypeError) as caught:
            cls()
        assert str(caught.value) == f"{cls.__qualname__}.__init__() missing {MISSING[cls]}"


def test_extra_positions_are_reported_before_a_bad_keyword():
    # Python's order: the bad keyword is reported first
    with pytest.raises(TypeError) as caught:
        Conv(64, 3, 3, 1, 1, 1, 1, 1, False, 9, nope=1)
    assert str(caught.value) == "Conv.__init__() got an unexpected keyword argument 'nope'"
    with pytest.raises(TypeError) as caught:
        Conv(64, 3, 3, 1, 1, 1, 1, 1, False, 9)
    assert str(caught.value) == \
        "Conv.__init__() takes from 4 to 10 positional arguments but 11 were given"


def plain_init(cls):
    """A plain ``def __init__(self, ...)`` with the signature of ``cls``."""
    params = [f"{name}=None" if name in cls._defaults else name for name in cls._fields]
    namespace: dict = {}
    exec(f"def __init__(self, {', '.join(params)}): pass", namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


def type_error(call) -> str | None:
    try:
        call()
    except TypeError as err:
        return str(err)
    return None


@pytest.mark.parametrize("cls, args, text, other", CASES, ids=IDS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_arguments_bind_as_a_plain_init_binds_them(cls, args, text, other, data):
    values = cls(*args)._values()  # a valid value for each field
    valid = dict(zip(cls._fields, values))
    count = data.draw(st.integers(0, len(cls._fields) + 2), label="positions")
    positions = [*values[:count], *[1] * (count - len(values))]
    # drawn in random order: a call passes its keywords in this order
    names = data.draw(st.lists(st.sampled_from([*cls._fields, "nope", "zap", "args", "kwargs"]),
                               unique=True), label="keywords")
    keywords = {name: valid.get(name, 1) for name in names}
    expected = type_error(lambda: plain_init(cls)(None, *positions, **keywords))
    assert type_error(lambda: cls(*positions, **keywords)) == expected


def test_a_keyword_named_cls_is_given_twice():
    # the binder's first parameter is named _cls, where a plain __init__ has self
    for cls in (case[0] for case in CASES):
        with pytest.raises(TypeError) as caught:
            cls(_cls=1)
        assert str(caught.value) == \
            f"{cls.__qualname__}.__init__() got multiple values for argument '_cls'"


@pytest.mark.parametrize("base", [Conv, Record], ids=lambda cls: cls.__name__)
def test_a_required_field_after_a_defaulted_one_fails_when_the_class_is_made(base):
    with pytest.raises(TypeError,
                       match=r"\.Odd: non-default argument 'depth' follows default argument$"):
        class Odd(base):
            _check_of = base._check_of or {"int": int}
            width: "int" = 1
            depth: "int"


def test_fieldless_kinds_differ_from_each_other():
    for a, b in itertools.combinations(FIELDLESS, 2):
        assert a() != b() and b() != a()
    assert len({cls() for cls in FIELDLESS}) == len(FIELDLESS)


def test_graph_of_fieldless_kinds_round_trips_byte_identical():
    g = Graph()
    x = g.add_node(Input(TensorShape(4, 8, 8)), name="in")
    bn = g.add_node(BatchNorm(), [(x, 0)], name="bn")
    relu = g.add_node(ReLU(), [(bn, 0)], name="relu")
    add = g.add_node(Add(), [(x, 0), (relu, 0)], name="add")
    g.add_node(Concat(), [(add, 0), (relu, 0), (bn, 0)], name="cat")
    text = g.to_json()
    again = Graph.from_json(text)
    assert again.to_json() == text
    assert [spec.kind for spec in again.columns()[0]] == [
        "input", "batch_norm", "relu", "add", "concat"]


def test_each_design_point_gets_a_fresh_ap_dict():
    given = {("Car", "Easy"): Fraction(1)}
    point = DesignPoint("a", Fraction(1), given)
    given[("Car", "Easy")] = Fraction(2)
    assert point.ap == {("Car", "Easy"): Fraction(1)}
    assert DesignPoint("b", Fraction(1)).ap == {}


@pytest.mark.parametrize("load, field, key, score", [
    (lambda: load_points(default_dataset_path())[0], "ap", ("Car", "Easy"),
     lambda point: [map_of(point, scope) for scope in SCOPES]),
    (lambda: TimingProfile.from_file(default_dataset_path().parent / "fpga_timing.json"),
     "stage_fractions", "backbone", lambda profile: project_fps(profile, {"backbone": 2})),
], ids=["ap", "stage_fractions"])
def test_a_mapping_field_cannot_change_after_its_checks(load, field, key, score):
    record = load()
    before, mapping = score(record), getattr(record, field)
    with pytest.raises(TypeError, match="does not support item assignment"):
        mapping[key] = 1000
    with pytest.raises(TypeError, match="does not support item deletion"):
        del mapping[key]
    for name in ("update", "pop", "clear", "setdefault", "__ior__"):
        assert not hasattr(mapping, name)
    assert hash(record) == hash(copy.deepcopy(record))
    assert hash(mapping) == hash(frozenset(dict(mapping).items()))
    assert mapping == dict(mapping) and dict(mapping) == mapping and key in mapping
    assert score(record) == before


def test_a_replaced_record_is_checked():
    with pytest.raises(ValueError, match="^out_channels must be an integer >= 1, got 0$"):
        Conv(8, 3, 3)._replace(out_channels=0)
    assert Conv(8, 3, 3)._replace(pad_h=1) == Conv(8, 3, 3, pad_h=1)


# the 11 node kinds and ArchConfig check every field; the other records none
CHECKED = [case[0] for case in CASES[:12]]


@pytest.mark.parametrize("cls", [case[0] for case in CASES], ids=IDS)
def test_each_field_has_its_annotations_check_in_field_order(cls):
    checked = [(index, name) for index, name, _ in cls._check_at]
    assert checked == (list(enumerate(cls._fields)) if cls in CHECKED else [])
    assert (cls._check_of is not None) == (cls in CHECKED)


@pytest.mark.parametrize("base", [Conv, ArchConfig, Record], ids=lambda cls: cls.__name__)
def test_an_annotation_without_a_check_fails_when_the_class_is_made(base):
    with pytest.raises(TypeError, match=r"\.Odd\.width: no check for 'float'$"):
        class Odd(base):
            _check_of = base._check_of or {"int": int}
            width: "float" = 1.0  # text, as the package's annotations are


@pytest.mark.parametrize("make, field", [
    (lambda: Conv(0, 0, 1), "out_channels"),
    (lambda: Conv(8, 0, 1, pad_h=-1, has_bias=1), "kernel_h"),
    (lambda: TransposedConv(8, 2, 2, output_pad_w=-1, pad_h=-1), "pad_h"),
    (lambda: ArchConfig(resnext_groups=0, max_pillars=0), "max_pillars"),
], ids=["conv_count", "conv_kernel", "transposed_pad", "arch_config"])
def test_the_first_bad_field_in_field_order_is_reported(make, field):
    with pytest.raises((ArchError, ValueError)) as info:
        make()
    assert str(info.value).startswith(f"{field} must be ")
