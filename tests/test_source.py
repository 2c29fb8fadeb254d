"""The package's source keeps to its floors: it parses as the oldest Python
that pyproject admits, it imports only the standard library and itself,
it reads every name it imports, it checks nothing with ``assert``,
which ``python -O`` strips, it runs no text as code, its commands
write CSV and JSON only through the command line's one writer, each
node kind states its cost in one method, only ``graph`` knows how a
graph stores its nodes, and it defines no public function, class or
method that nothing reads."""
import ast
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

import pillarcost

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "pillarcost").glob("*.py"))
FLOOR = tuple(map(int, re.search(r'^requires-python = ">=(\d+)\.(\d+)"$',
                                 (ROOT / "pyproject.toml").read_text(), re.M).groups()))


def imported(tree: ast.Module) -> set[str]:
    """The top-level name of each module that ``tree`` imports absolutely."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_parses_at_the_floor_and_imports_only_the_stdlib(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=FLOOR)
    assert imported(tree) - set(sys.stdlib_module_names) <= {"pillarcost"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_holds_no_assert(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)] == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_calls_no_exec_eval_or_compile(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("exec", "eval", "compile")] == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_reads_every_name_it_imports(path):
    # the package's re-exports, listed in pillarcost.__all__, are read by its users
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    bound = {alias.asname or alias.name.split(".")[0] for node in ast.walk(tree)
             if isinstance(node, ast.Import)
             or isinstance(node, ast.ImportFrom) and node.module != "__future__"
             for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    if path.name == "__init__.py":
        read |= set(pillarcost.__all__)
    assert sorted(bound - read) == []


def test_commands_write_csv_and_json_only_through_the_writer():
    # every cli._cmd_* gets its CSV and JSON from cli._render (cost's from
    # CostReport), so each form is written in one place
    tree = ast.parse((ROOT / "src" / "pillarcost" / "cli.py").read_text(encoding="utf-8"))
    writers = {"json.dumps", "dumps", "_csv_text"}
    calls = [(func.name, ast.unparse(node.func)) for func in tree.body
             if isinstance(func, ast.FunctionDef) and func.name.startswith("_cmd_")
             for node in ast.walk(func) if isinstance(node, ast.Call)]
    assert [call for call in calls if call[1] in writers] == []


def test_node_kinds_state_their_cost_only_in_cost():
    # madds() and params() read cost() on the base class; a kind overrides
    # cost(), so each kind's MAdds and parameters are stated together, once
    tree = ast.parse((ROOT / "src" / "pillarcost" / "graph.py").read_text(encoding="utf-8"))
    methods = {cls.name: {func.name for func in cls.body if isinstance(func, ast.FunctionDef)}
               for cls in tree.body if isinstance(cls, ast.ClassDef)}
    assert [name for name, defs in methods.items() if defs & {"madds", "params"}] == ["NodeSpec"]
    assert {"NodeSpec", "_Conv", "BatchNorm"} <= {
        name for name, defs in methods.items() if "cost" in defs}


def test_only_graph_reads_a_graphs_storage():
    # the attributes Graph.__init__ sets; other modules read the nodes
    # through Graph's methods, and shapes and cost through Graph.columns
    tree = ast.parse((ROOT / "src" / "pillarcost" / "graph.py").read_text(encoding="utf-8"))
    (graph,) = [cls for cls in tree.body if isinstance(cls, ast.ClassDef) and cls.name == "Graph"]
    (init,) = [func for func in graph.body
               if isinstance(func, ast.FunctionDef) and func.name == "__init__"]
    storage = {node.attr for node in ast.walk(init)
               if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)}
    assert len(storage) >= 3
    read = {}
    for path in MODULES:
        if path.name != "graph.py":
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            read[path.name] = sorted({node.attr for node in ast.walk(tree)
                                      if isinstance(node, ast.Attribute)} & storage)
    assert read == {name: [] for name in read}


def attribute_reads(tree: ast.AST) -> Counter:
    return Counter(node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))


def graph_public_methods() -> dict:
    tree = ast.parse((ROOT / "src" / "pillarcost" / "graph.py").read_text(encoding="utf-8"))
    (graph,) = [cls for cls in tree.body if isinstance(cls, ast.ClassDef) and cls.name == "Graph"]
    return {func.name: func for func in graph.body
            if isinstance(func, ast.FunctionDef) and not func.name.startswith("_")}


def name_reads(tree: ast.AST) -> Counter:
    """Each name and attribute read in ``tree``, by name."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))
                   and isinstance(node.ctx, ast.Load))


def public_definitions() -> dict:
    """``module.name`` and ``module.Class.name`` -> definition, for every
    public top-level function and class of the package and each public
    method of those classes."""
    defs = {}
    for path in MODULES:
        for node in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name[0] != "_":
                defs[f"{path.stem}.{node.name}"] = node
                if isinstance(node, ast.ClassDef):
                    defs.update((f"{path.stem}.{node.name}.{func.name}", func)
                                for func in node.body if isinstance(func, ast.FunctionDef)
                                and func.name[0] != "_")
    return defs


# public names that nothing in src/ or bench/ reads, and why they stay
UNREAD_KEPT = {
    "analysis.amdahl": "the one-stage reference that tests hold project_fps to",
    "analysis.ratio_table": "README's library example; ROADMAP item 2 builds on it",
}


def test_every_public_graph_method_is_read():
    # each public function, class and method of the package (Graph's
    # methods among them) is read in src/ or bench/*.py outside its own
    # definition, traced by name in bench/tracing.py, or kept on purpose
    defs = public_definitions()
    read = Counter()
    for path in [*MODULES, *sorted((ROOT / "bench").glob("*.py"))]:
        read += name_reads(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    tracing = ast.parse((ROOT / "bench" / "tracing.py").read_text(encoding="utf-8"))
    (traced,) = [ast.literal_eval(node.value) for node in tracing.body
                 if isinstance(node, ast.Assign) and ast.unparse(node.targets) == "TRACED"]
    traced = {f"{module}.{attr}" for module, attr, _ in traced}
    assert {"graph.Graph.edges", "arch.build_pointpillars", "cost.graph_cost"} <= defs.keys()
    assert sorted(path for path, node in defs.items() if path not in traced
                  and read[node.name] == name_reads(node)[node.name]) == sorted(UNREAD_KEPT)


@pytest.mark.parametrize("name", ["shapes.py", "cost.py"])
def test_shape_walk_and_costing_build_no_node_tuples(name):
    # the shape walk and costing read a graph only through columns()
    tree = ast.parse((ROOT / "src" / "pillarcost" / name).read_text(encoding="utf-8"))
    reads = attribute_reads(tree)
    assert "nodes" not in reads and "node" not in reads
    assert set(reads) & set(graph_public_methods()) == {"columns"}
