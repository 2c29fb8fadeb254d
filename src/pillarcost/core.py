"""Names shared by every pillarcost module: the error base class, the
architecture errors, the backbone variants, the readers of numbers, JSON
files and ``key = value`` items from outside (``exact_fraction``,
``read_json``, ``read_key_values``), how an error shows a value
(``typed_repr``), the CSV field rule (``_csv_field``), the frozen record
base (``Record``) and the read-only mapping a record field holds
(``FrozenMap``).

This module imports no graph code, so a command that only names the
variants or reads the dataset loads nothing more than it needs.
"""
from __future__ import annotations

import collections
import json
from collections.abc import Mapping
from enum import Enum
from fractions import Fraction
from pathlib import Path

# Python refuses to read an int string of more digits than this; a decimal
# exponent larger in magnitude would make Fraction build such a number.
MAX_EXPONENT = 4300


class PillarcostError(Exception):
    """Base class of the errors the command line reports as domain errors."""


class NumberError(PillarcostError, ValueError):
    """A number from outside that pillarcost will not read exactly."""


def exact_fraction(value) -> Fraction:
    """``Fraction(value)``, except that a bool (a JSON ``true``) or a string
    whose decimal exponent is over MAX_EXPONENT in magnitude raises a
    NumberError naming it: Fraction reads ``True`` as 1, and expands the
    exponent exactly, in time that grows faster than it."""
    if isinstance(value, bool):
        raise NumberError(f"{value!r} is not a number")
    if isinstance(value, str):
        _, e, exponent = value.lower().partition("e")
        exponent = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
        if e and exponent.isdecimal() and (len(exponent) > len(str(MAX_EXPONENT))
                                           or int(exponent) > MAX_EXPONENT):
            raise NumberError(f"number {value!r} has a decimal exponent over "
                              f"{MAX_EXPONENT} in magnitude")
    return Fraction(value)


def typed_repr(value) -> str:
    """``repr(value)``, naming its type where the repr hides it: an int
    subclass other than bool prints as the int it equals."""
    if isinstance(value, int) and type(value) not in (int, bool):
        return f"{value!r} of type {type(value).__name__}"
    return repr(value)


class ExactDecimal(Fraction):
    """A JSON number with a fraction or an exponent, read exactly (``0.1``
    is 1/10); its repr is the number as written, so an error names ``64.0``
    rather than ``Fraction(64, 1)``.  Records hold plain Fractions."""

    def __new__(cls, text: str) -> "ExactDecimal":
        self = super().__new__(cls, exact_fraction(text))
        self._text = text
        return self

    def __repr__(self) -> str:
        return self._text


def read_json(path: str | Path, error: type[PillarcostError], text: str | None = None):
    """The JSON document in the file at ``path`` (or in ``text``, read from
    it), with each number that has a fraction or an exponent read exactly as
    an ``ExactDecimal``.  Text that is not UTF-8, malformed JSON, nesting too
    deep, a number ``exact_fraction`` refuses, a key given twice in one
    object and a string UTF-8 cannot encode (a lone surrogate escape such as
    ``"\\ud800"``) raise ``error``, one line naming the path."""
    def unique_keys(pairs: list) -> dict:
        doc = dict(pairs)
        if len(doc) < len(pairs):
            seen: set = set()
            key = next(key for key, _ in pairs if key in seen or seen.add(key))
            raise error(f"{path}: key {key!r} given twice")
        return doc
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8") if text is None else text,
                         object_pairs_hook=unique_keys, parse_float=ExactDecimal)
        # a lone surrogate escape loads as a str that no UTF-8 writer takes
        json.dumps(doc, ensure_ascii=False, default=repr).encode("utf-8")
        return doc
    except UnicodeEncodeError as err:
        raise error(f"{path}: malformed JSON: a string holds {err.object[err.start]!r}, "
                    "which UTF-8 cannot encode") from err
    except (ValueError, RecursionError) as err:  # incl. JSONDecodeError, UnicodeDecodeError
        raise error(f"{path}: malformed JSON: {err}") from err


def read_key_values(items, error: type[PillarcostError]) -> dict[str, str]:
    """The ``(where, "key = value")`` items as a dict of value texts: the
    key is the text before the first ``=`` and the value the text after it,
    each stripped.  An item with no ``=`` and a key given twice raise
    ``error``, whose text starts with ``where`` (``path:line: `` in a file,
    ``speedup `` for ``--speedup``, nothing in ``--set``)."""
    doc = {}
    for where, item in items:
        key, equals, value = item.partition("=")
        if not equals:
            raise error(f"{where}{item!r} is not of the form key=value")
        key = key.strip()
        if key in doc:
            raise error(f"{where}key {key!r} given twice")
        doc[key] = value.strip()
    return doc


def _csv_field(text: str) -> str:
    """``text`` as a CSV field: quoted, its quotes doubled, when it holds a
    comma, a quote, a newline or a carriage return, as ``csv.writer(out,
    lineterminator="\\r\\n")`` writes it on Python 3.11."""
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


class Record:
    """Base of the frozen records: the node specs, ``ArchConfig``,
    ``DesignPoint``, ``TimingProfile`` and ``CostReport``.

    Fields are the annotated class attributes, in order, ``ClassVar`` ones
    excepted (annotations are read as text, as ``from __future__ import
    annotations`` leaves them, and never evaluated); a value is the field's
    default, shared by every record that takes it, so no default is
    mutable: a field that holds a mapping stores a ``FrozenMap``
    (``DesignPoint.ap``).  A class
    that sets ``_check_of`` (annotation text -> function of value and field
    name that returns the value to store or raises) has each field checked
    by its annotation's check, in field order.  An annotation the map lacks,
    or a field without a default after one with a default, raises TypeError
    when the class is made.  Python binds the arguments of ``__init__``, by
    position or keyword, through a namedtuple made once per class, so a call
    that fits no signature raises Python's TypeError; ``__init__`` then runs
    the checks, stores the fields and calls ``__post_init__`` if the class
    has one.

    A record cannot be changed; ``_replace(**changes)`` makes a changed copy
    and ``_fields`` names the fields.  Records are equal when their classes
    are the same and their fields equal, so ``ReLU() != Add()``; the hash
    covers the class too.
    """

    _fields: ClassVar[tuple[str, ...]] = ()
    _defaults: ClassVar[dict] = {}
    _check_of: ClassVar[dict | None] = None  # None: the fields are not checked
    _check_at: ClassVar[tuple] = ()  # (index, field, check), in field order
    _bind: ClassVar[type]  # binds a call's arguments to the fields, as Python does
    __post_init__ = None

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        own = {name: kind for name, kind in vars(cls).get("__annotations__", {}).items()
               if not kind.startswith("ClassVar")}
        cls._fields = fields = cls._fields + tuple(own)
        cls._defaults = {name: getattr(cls, name) for name in fields if hasattr(cls, name)}
        for name in fields[len(fields) - len(cls._defaults):]:
            if name not in cls._defaults:  # namedtuple would default the last fields
                raise TypeError(f"{cls.__qualname__}: non-default argument {name!r} "
                                "follows default argument")
        if cls._check_of is not None:
            for name, kind in own.items():
                if kind not in cls._check_of:
                    raise TypeError(f"{cls.__qualname__}.{name}: no check for {kind!r}")
                cls._check_at += ((fields.index(name), name, cls._check_of[kind]),)
        cls._bind = collections.namedtuple(cls.__name__, fields,
                                           defaults=cls._defaults.values())
        # Python names the function in a binding error by its __qualname__
        cls._bind.__new__.__qualname__ = f"{cls.__qualname__}.__init__"

    def __init__(self, *args, **kwargs) -> None:
        cls = self.__class__
        values = [*cls._bind(*args, **kwargs)]
        for index, name, check in cls._check_at:
            values[index] = check(values[index], name)
        for name, value in zip(cls._fields, values):
            _set(self, name, value)
        if cls.__post_init__ is not None:
            self.__post_init__()

    # Fields are read with getattr, never through __dict__: reading an
    # instance's __dict__ makes every later attribute read of it slower.
    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def _replace(self, **changes) -> "Record":
        """A copy with the named fields changed, checked as a new record is."""
        return self.__class__(**dict(zip(self._fields, self._values()), **changes))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash((self.__class__, *self._values()))

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={value!r}"
                            for name, value in zip(self._fields, self._values())])
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()


_set = object.__setattr__


class FrozenMap(Mapping):
    """A mapping that cannot be changed, so a record that holds one can be
    hashed and keeps the value its checks saw.  It equals any mapping with
    the same items, a plain dict too, and hashes as the frozenset of its
    items."""

    __slots__ = ("_dict",)

    def __init__(self, items=()) -> None:
        self._dict = dict(items)

    def __getitem__(self, key):
        return self._dict[key]

    def __iter__(self):
        return iter(self._dict)

    def __len__(self) -> int:
        return len(self._dict)

    def __hash__(self) -> int:
        return hash(frozenset(self._dict.items()))

    def __repr__(self) -> str:
        return f"FrozenMap({self._dict!r})"

    def __reduce__(self):
        return self.__class__, (self._dict,)


class ArchError(PillarcostError):
    """Invalid architecture configuration."""


class Variant(str, Enum):
    BASE = "base"
    SQUEEZENEXT = "SqueezeNext"
    RESNET = "ResNet"
    RESNEXT = "ResNeXt"
    MOBILENET_V1 = "MobilenetV1"
    MOBILENET_V2 = "MobilenetV2"
    SHUFFLENET_V1 = "ShufflenetV1"
    SHUFFLENET_V2 = "ShufflenetV2"
    DARKNET = "Darknet"
    CSPDARKNET = "CSPDarknet"
    XCEPTION = "Xception"

    @classmethod
    def parse(cls, text: str) -> "Variant":
        for variant in cls:
            if variant.value.lower() == text.lower():
                return variant
        raise ArchError(f"unknown variant {text!r}; choose from "
                        + ", ".join(v.value for v in cls))
