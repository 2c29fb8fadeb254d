"""Cost modeling for PointPillars backbone variants.

Builds each network as a static computation graph, counts multiply-add
operations and parameters exactly, and analyses the accuracy/cost
trade-off of the measured design points.

``import pillarcost`` loads ``analysis`` and ``core`` (the errors'
base class and ``Variant``); every other public name is imported from its
module on first use (PEP 562).
"""

import importlib
import types

# eager: the benchmark's tracer reads sys.modules["pillarcost.analysis"],
# and analysis loads core
from .analysis import (AnalysisError, DesignPoint, TimingProfile, amdahl,
                       amdahl_max, default_dataset_path, load_points, map_of,
                       pareto_front, project_fps, ratio_table)
from .core import ArchError, Variant

__version__ = "1.0.0"

_LAZY = {name: module for module, names in (
    ("arch", ("ArchConfig", "build_backbone", "build_pointpillars")),
    ("cost", ("CostReport", "NodeCost", "graph_cost")),
    ("graph", ("Add", "BatchNorm", "ChannelShuffle", "ChannelSplit", "Concat",
               "Conv", "Graph", "GraphError", "Input", "MaxPool", "ReLU",
               "Scatter", "ShapeError", "TensorShape", "TransposedConv")),
    ("shapes", ("infer_all", "node_output_shape")),
    ("svg", ("render_scatter",)),
) for name in names}

# the names imported above (not the submodules) and the lazy ones
__all__ = sorted([name for name, value in globals().items()
                  if not name.startswith("_") and not isinstance(value, types.ModuleType)]
                 + list(_LAZY))


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))
