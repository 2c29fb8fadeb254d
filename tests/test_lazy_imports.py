"""Cold start: each subcommand loads only the modules it runs.

The checks on what is loaded run in a fresh interpreter, since this test
process has long since imported every module.
"""
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import pillarcost
from pillarcost import analysis, arch, core, graph, shapes
from pillarcost.cli import CliError

SRC = Path(__file__).resolve().parents[1] / "src"
GRAPH_MODULES = ("pillarcost.graph", "pillarcost.arch", "pillarcost.cost",
                 "pillarcost.shapes")


def loaded_after(code: str) -> set[str]:
    """The modules loaded once ``code`` has run in a fresh interpreter (its
    own output goes to a buffer)."""
    script = ("import contextlib, io, json, sys\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              + "".join(f"    {line}\n" for line in code.splitlines())
              + "print(json.dumps(sorted(sys.modules)))\n")
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path},
                          timeout=60, check=True)
    return set(json.loads(proc.stdout))


def test_importing_the_cli_loads_no_graph_code():
    loaded = loaded_after("import pillarcost.cli")
    assert "pillarcost.analysis" in loaded
    assert not loaded & {*GRAPH_MODULES, "pillarcost.svg"}


@pytest.mark.parametrize("argv", [
    ["list"],
    ["pareto", "--scope", "car", "--format", "csv"],
    ["amdahl", "--profile", str(SRC / "pillarcost/data/fpga_timing.json"),
     "--speedup", "backbone=inf"],
    ["plot", "--scope", "overall"],
], ids=lambda argv: argv[0])
def test_commands_without_graphs_never_load_graph_code(argv):
    loaded = loaded_after(f"from pillarcost.cli import run\nassert run({argv!r}) == 0")
    assert not loaded & set(GRAPH_MODULES)


@pytest.mark.parametrize("argv", [
    ["list"], ["describe", "base"], ["cost", "ResNet", "--format", "csv"],
    ["compare", "--format", "json"], ["pareto", "--scope", "car"],
    ["amdahl", "--profile", str(SRC / "pillarcost/data/fpga_timing.json"),
     "--speedup", "backbone=2"],
    ["plot", "--scope", "overall"], ["export", "ShufflenetV2"],
], ids=lambda argv: argv[0])
def test_no_command_loads_dataclasses_or_inspect(argv):
    # dataclasses imports inspect, and both cost every cold start; csv too,
    # so core._csv_field stays the one CSV encoder; html and xml (html loads
    # html.entities), so the SVG labels are escaped by svg.render_scatter
    loaded = loaded_after(f"from pillarcost.cli import run\nassert run({argv!r}) == 0")
    assert "pillarcost.cli" in loaded
    assert not loaded & {"csv", "dataclasses", "html", "inspect", "xml"}


def test_costing_commands_load_what_they_run():
    loaded = loaded_after("from pillarcost.cli import run\nassert run(['describe', 'base']) == 0")
    assert set(GRAPH_MODULES) <= loaded
    assert "pillarcost.svg" not in loaded


def test_every_public_name_is_its_defining_modules_object():
    resolved = {}
    for name in pillarcost.__all__:
        value = getattr(pillarcost, name)
        home = sys.modules[value.__module__]
        assert getattr(home, name) is value, name
        resolved[name] = value
    assert vars(pillarcost).keys() >= resolved.keys()  # cached after first use
    assert pillarcost.ShapeError is shapes.ShapeError is graph.ShapeError


def test_arch_re_exports_the_core_classes():
    for name in ("ArchError", "Variant"):
        assert getattr(arch, name) is getattr(core, name)


def test_dir_covers_all():
    assert set(pillarcost.__all__) <= set(dir(pillarcost))


@pytest.mark.parametrize("path", [
    "analysis.round2", "arch.basic_unit", "cost.node_madds", "cost.node_params",
    "cost.speedup_vs_base", "cost.ZeroMAddsError", "graph.TensorShape.with_channels",
    "graph.UnknownInputError", "graph.ArityMismatchError", "graph.DuplicateNameError",
    "graph.InvalidGraphError", "graph.GroupMismatch", "graph.AddShapeMismatch",
    "graph.ConcatSpatialMismatch", "graph.NonIntegralSplit", "graph.ShuffleGroupMismatch",
    "graph.NegativeOutputDim", "graph.ShapeInconsistent", "analysis.MissingEntry",
    "analysis.MissingMetric", "analysis.UnknownStage", "analysis.DomainError",
    "core.ChannelConstraintError", "core.UnsupportedStrideError", "arch.build_backbone",
    "arch.ArchConfig.pseudo_image", "graph.Edge"])
def test_deleted_name_is_gone(path):
    # nothing in the package called these; the spec methods, fmt2 and the
    # backbone builders do their work, and no code caught an error subclass:
    # each of those raises now names its module's error class.
    # build_pointpillars builds every backbone, and Graph.edges lists plain
    # (src, src_port, dst, dst_port) tuples
    module, *owners, name = path.split(".")
    for home in (pillarcost, importlib.import_module(f"pillarcost.{module}")):
        for owner in owners:
            home = getattr(home, owner)
        assert not hasattr(home, name)
    assert name not in pillarcost.__all__


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        getattr(pillarcost, "no_such_name")
    assert not hasattr(pillarcost, "no_such_name")


@pytest.mark.parametrize("error", [arch.ArchError, graph.GraphError,
                                   graph.ShapeError, analysis.AnalysisError,
                                   CliError])
def test_domain_errors_share_one_base(error):
    # the error classes the package defines: one per kind of fault, and
    # FieldError and NumberError, which keep a builtin base
    modules = [importlib.import_module(f"pillarcost.{info.name}")
               for info in pkgutil.iter_modules(pillarcost.__path__)]
    defined = {value for module in modules for value in vars(module).values()
               if isinstance(value, type) and issubclass(value, core.PillarcostError)
               and value.__module__ == module.__name__}
    assert {cls.__name__ for cls in defined} == {
        "PillarcostError", "NumberError", "ArchError", "GraphError", "FieldError",
        "ShapeError", "AnalysisError", "CliError"}
    assert error in defined and issubclass(error, core.PillarcostError)


@pytest.mark.parametrize("error, builtin", [
    (graph.FieldError, ValueError), (core.NumberError, ValueError)])
def test_domain_errors_keep_the_builtin_base_they_replace(error, builtin):
    assert issubclass(error, core.PillarcostError) and issubclass(error, builtin)


@pytest.mark.parametrize("raise_it, error", [
    (lambda: graph.Conv(0, 3, 3), graph.FieldError),
    (lambda: graph.TensorShape(1, 0, 1), graph.FieldError),
    (lambda: graph.ChannelSplit(()), graph.FieldError),
    (lambda: core.exact_fraction("1e99999"), core.NumberError),
], ids=["conv_field", "shape", "split", "exact_fraction"])
def test_library_checks_raise_domain_errors(raise_it, error):
    with pytest.raises(error):
        raise_it()
