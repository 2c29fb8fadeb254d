"""Names shared by every pillarcost module: the error base class, the
architecture errors and the backbone variants.

This module imports no graph code, so a command that only names the
variants or reads the dataset loads nothing more than it needs.
"""
from __future__ import annotations

from enum import Enum


class PillarcostError(Exception):
    """Base class of the errors the command line reports as domain errors."""


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
