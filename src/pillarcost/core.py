"""Names shared by every pillarcost module: the error base class, the
architecture errors, the backbone variants and the reader of numbers from
outside (``exact_fraction``).

This module imports no graph code, so a command that only names the
variants or reads the dataset loads nothing more than it needs.
"""
from __future__ import annotations

from enum import Enum
from fractions import Fraction

# Python refuses to read an int string of more digits than this; a decimal
# exponent larger in magnitude would make Fraction build such a number.
MAX_EXPONENT = 4300


class PillarcostError(Exception):
    """Base class of the errors the command line reports as domain errors."""


def exact_fraction(value) -> Fraction:
    """``Fraction(value)``, except that a string whose decimal exponent is
    over MAX_EXPONENT in magnitude raises a ValueError naming it: Fraction
    expands the exponent exactly, in time that grows faster than it."""
    if isinstance(value, str):
        _, e, exponent = value.lower().partition("e")
        exponent = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
        if e and exponent.isdecimal() and (len(exponent) > len(str(MAX_EXPONENT))
                                           or int(exponent) > MAX_EXPONENT):
            raise ValueError(f"number {value!r} has a decimal exponent over "
                             f"{MAX_EXPONENT} in magnitude")
    return Fraction(value)


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
