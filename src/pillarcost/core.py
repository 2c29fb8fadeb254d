"""Names shared by every pillarcost module: the error base class, the
architecture errors, the backbone variants, the readers of numbers and
JSON files from outside (``exact_fraction``, ``read_json``) and the frozen
record base (``Record``).

This module imports no graph code, so a command that only names the
variants or reads the dataset loads nothing more than it needs.
"""
from __future__ import annotations

import json
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
    deep, a number ``exact_fraction`` refuses and a key given twice in one
    object raise ``error``, one line naming the path."""
    def unique_keys(pairs: list) -> dict:
        doc = dict(pairs)
        if len(doc) < len(pairs):
            seen: set = set()
            key = next(key for key, _ in pairs if key in seen or seen.add(key))
            raise error(f"{path}: key {key!r} given twice")
        return doc
    try:
        return json.loads(Path(path).read_text() if text is None else text,
                          object_pairs_hook=unique_keys, parse_float=ExactDecimal)
    except (ValueError, RecursionError) as err:  # incl. JSONDecodeError, UnicodeDecodeError
        raise error(f"{path}: malformed JSON: {err}") from err


class Record:
    """Base of the frozen records: the node specs, ``ArchConfig``,
    ``DesignPoint``, ``TimingProfile`` and ``CostReport``.

    Fields are the annotated class attributes, in order, ``ClassVar`` ones
    excepted (annotations are read as text, as ``from __future__ import
    annotations`` leaves them); a value is the field's default, and a dict,
    list or set default is copied per record.  ``__init__`` takes fields by
    position or keyword, runs the check table ``_checks`` (field -> function
    of value and field name that returns the value to store or raises),
    stores the fields, then calls ``__post_init__`` if the class has one.

    A record cannot be changed; ``_replace(**changes)`` makes a changed copy
    and ``_fields`` names the fields.  Records are equal when their classes
    are the same and their fields equal, so ``ReLU() != Add()``.  The hash
    is computed once.
    """

    _fields: ClassVar[tuple[str, ...]] = ()
    _defaults: ClassVar[dict] = {}
    _checks: ClassVar[dict] = {}
    __post_init__ = None

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = fields = cls._fields + tuple(
            name for name, kind in vars(cls).get("__annotations__", {}).items()
            if not kind.startswith("ClassVar"))
        cls._defaults = {name: getattr(cls, name) for name in fields if hasattr(cls, name)}
        cls._check_at = tuple((fields.index(name), name, check)
                              for name, check in cls._checks.items())

    def __init__(self, *args, **kwargs) -> None:
        cls = self.__class__
        fields, defaults = cls._fields, cls._defaults
        # a call that fits no signature raises the TypeError Python would
        qualname = cls.__qualname__
        if len(args) > len(fields):
            most = len(fields) + 1  # Python counts self
            takes = f"from {most - len(defaults)} to {most}" if defaults else str(most)
            raise TypeError(f"{qualname}.__init__() takes {takes} positional argument"
                            f"{'' if takes == '1' else 's'} but {len(args) + 1} were given")
        values, missing = list(args), []
        for name in fields[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in defaults:
                value = defaults[name]
                values.append(type(value)(value) if type(value) in _MUTABLE_TYPES else value)
            else:
                missing.append(repr(name))
        for name in kwargs:  # the first one left over, in call order
            problem = ("multiple values for argument" if name in fields
                       else "an unexpected keyword argument")
            raise TypeError(f"{qualname}.__init__() got {problem} {name!r}")
        if missing:
            names = missing[0] if len(missing) == 1 else (
                f"{', '.join(missing[:-1])}{',' if len(missing) > 2 else ''} and {missing[-1]}")
            raise TypeError(f"{qualname}.__init__() missing {len(missing)} required positional "
                            f"argument{'s' if len(missing) > 1 else ''}: {names}")
        for index, name, check in cls._check_at:
            values[index] = check(values[index], name)
        for name, value in zip(fields, values):
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
        try:
            return self._hash
        except AttributeError:
            value = hash((self.__class__, *self._values()))
            _set(self, "_hash", value)
            return value

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
_MUTABLE_TYPES = (dict, list, set)


class ArchError(PillarcostError):
    """Invalid architecture configuration."""


class ChannelConstraintError(ArchError):
    """Channel counts violate a divisibility requirement of the unit."""


class UnsupportedStrideError(ArchError):
    """Unit asked for a stride other than 1 or 2."""


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
