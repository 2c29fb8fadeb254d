"""Cost modeling for PointPillars backbone variants.

Builds each network as a static computation graph, counts multiply-add
operations and parameters exactly, and analyses the accuracy/cost
trade-off of the measured design points.

``import pillarcost`` loads ``analysis`` and ``core`` (the errors'
base class and ``Variant``); every other public name is imported from its
module on first use (PEP 562).
"""

import importlib

# eager: the benchmark's tracer reads sys.modules["pillarcost.analysis"],
# and analysis loads core
from .analysis import (AnalysisError, DesignPoint, TimingProfile, amdahl,
                       amdahl_max, default_dataset_path, load_points, map_of,
                       pareto_front, project_fps, ratio_table, round2)
from .core import ArchError, Variant

__version__ = "1.0.0"

__all__ = [
    "Add", "AnalysisError", "ArchConfig", "ArchError", "BatchNorm",
    "ChannelShuffle", "ChannelSplit", "Concat", "Conv", "CostReport",
    "DesignPoint", "Graph", "GraphError", "Input", "MaxPool", "NodeCost",
    "ReLU", "Scatter", "ShapeError", "TensorShape", "TimingProfile",
    "TransposedConv", "Variant", "amdahl", "amdahl_max", "basic_unit",
    "build_backbone", "build_pointpillars", "default_dataset_path",
    "graph_cost", "infer_all", "load_points", "map_of", "node_madds",
    "node_output_shape", "node_params", "pareto_front", "project_fps",
    "ratio_table", "render_scatter", "round2", "speedup_vs_base",
]

_LAZY = {name: module for module, names in (
    ("arch", ("ArchConfig", "basic_unit", "build_backbone",
              "build_pointpillars")),
    ("cost", ("CostReport", "NodeCost", "graph_cost", "node_madds",
              "node_params", "speedup_vs_base")),
    ("graph", ("Add", "BatchNorm", "ChannelShuffle", "ChannelSplit", "Concat",
               "Conv", "Graph", "GraphError", "Input", "MaxPool", "ReLU",
               "Scatter", "ShapeError", "TensorShape", "TransposedConv")),
    ("shapes", ("infer_all", "node_output_shape")),
    ("svg", ("render_scatter",)),
) for name in names}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))
