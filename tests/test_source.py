"""The package's source keeps to its floors: it parses as the oldest Python
that pyproject admits, it imports only the standard library and itself,
it reads every name it imports, it checks nothing with ``assert``,
which ``python -O`` strips, it runs no text as code, its commands
write CSV and JSON only through the command line's one writer, each
node kind states its cost in one method, only ``graph`` knows how a
graph stores its nodes, only ``Graph.add_node`` and ``Graph._repeat``
write them, only ``arch`` calls ``_repeat``, ``arch`` makes each spec as
a module constant or through ``_spec``, and it defines no public
function, class or method that nothing reads."""
import ast
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

import pillarcost
from pillarcost.graph import _KIND_CLASSES

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


def graph_storage() -> tuple[ast.ClassDef, set[str]]:
    """Graph's class definition and the attributes its ``__init__`` sets."""
    tree = ast.parse((ROOT / "src" / "pillarcost" / "graph.py").read_text(encoding="utf-8"))
    (graph,) = [cls for cls in tree.body if isinstance(cls, ast.ClassDef) and cls.name == "Graph"]
    (init,) = [func for func in graph.body
               if isinstance(func, ast.FunctionDef) and func.name == "__init__"]
    storage = {node.attr for node in ast.walk(init)
               if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)}
    assert len(storage) >= 3
    return graph, storage


def test_only_graph_reads_a_graphs_storage():
    # the attributes Graph.__init__ sets; other modules read the nodes
    # through Graph's methods, and shapes and cost through Graph.columns
    _, storage = graph_storage()
    read = {}
    for path in MODULES:
        if path.name != "graph.py":
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            read[path.name] = sorted({node.attr for node in ast.walk(tree)
                                      if isinstance(node, ast.Attribute)} & storage)
    assert read == {name: [] for name in read}


MUTATORS = {"append", "extend", "insert", "add", "update", "setdefault", "pop", "popitem",
            "remove", "discard", "clear", "sort", "reverse"}


def storage_writes(func: ast.FunctionDef, storage: set[str]) -> set[str]:
    """The storage attributes ``func`` writes: assigns or deletes, assigns
    or deletes an item of, updates in place, or calls a mutating method
    of, itself or through a local name bound to it."""
    aliases = {}  # local name -> the storage attribute it was bound to
    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                pairs = [(target, node.value)]
                if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                    pairs = zip(target.elts, node.value.elts)
                aliases.update((name.id, value.attr) for name, value in pairs
                               if isinstance(name, ast.Name) and isinstance(value, ast.Attribute)
                               and value.attr in storage)

    def held(node: ast.AST) -> str | None:
        if isinstance(node, ast.Attribute) and node.attr in storage:
            return node.attr
        return aliases.get(node.id) if isinstance(node, ast.Name) else None

    written = set()
    for node in ast.walk(func):
        if isinstance(node, (ast.Attribute, ast.Subscript)) and not isinstance(node.ctx, ast.Load):
            written.add(held(node) if isinstance(node, ast.Attribute) else held(node.value))
        elif isinstance(node, ast.AugAssign):
            written.add(held(node.target))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr in MUTATORS:
            written.add(held(node.func.value))
    return written - {None}


def test_only_add_node_and_repeat_write_a_graph():
    # Graph's doc and README: add_node is the one public writer, and the
    # builder's copier _repeat the one private one
    graph, storage = graph_storage()
    writes = {func.name: storage_writes(func, storage) for func in graph.body
              if isinstance(func, ast.FunctionDef)}
    assert writes["add_node"] >= {"_spec_col", "_name_col", "_input_col", "_names"}
    assert writes["_repeat"] >= {"_spec_col", "_name_col", "_input_col", "_names"}
    assert {name: attrs for name, attrs in writes.items() if attrs and name not in
            {"__init__", "add_node", "_repeat"}} == {}


def test_only_arch_calls_the_unit_copier():
    # Graph._repeat checks nothing; arch._units states what it passes, so
    # no other module may call it
    reads = {path.stem: name_reads(ast.parse(path.read_text(encoding="utf-8")))["_repeat"]
             for path in MODULES}
    assert reads.pop("arch") >= 1
    assert set(reads.values()) == {0}


def test_arch_makes_each_spec_as_a_constant_or_through_spec():
    # every spec a build holds is a module constant of arch or comes from
    # _spec, the one table all builds share: inside a function, a node
    # kind's class is only ever the first argument of a _spec call
    tree = ast.parse((ROOT / "src" / "pillarcost" / "arch.py").read_text(encoding="utf-8"))
    kinds = {cls.__name__ for cls in _KIND_CLASSES.values()}
    functions = [node for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.Lambda))]
    interned = {id(node.args[0]) for func in functions for node in ast.walk(func)
                if isinstance(node, ast.Call) and ast.unparse(node.func) == "_spec"
                and node.args}
    named = [node for func in functions for node in ast.walk(func)
             if isinstance(node, ast.Name) and node.id in kinds
             or isinstance(node, ast.Attribute) and node.attr in kinds]
    assert len(named) >= 6
    assert sorted({(node.lineno, ast.unparse(node)) for node in named
                   if id(node) not in interned}) == []


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
