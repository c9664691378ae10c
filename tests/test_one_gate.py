"""Structure graphs are built and validated once, by `StructureGraph.make`:
no library module other than core calls `.validate()` or the raw
`StructureGraph(...)` constructor.  Witnesses are checked independently:
`verify_witness` names none of the search's code or tables.  The search
reads one transition per shift class: none of its code names
`transitions`.  Periodic points are interned by core: no other module
calls `PeriodicPoint(...)` or reads `._hash`, so every point comes from
an orbit's `points`, `point` or `shift`.  The runtime is stdlib-only: no
module imports a package from outside the standard library."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "sofic2"


def validate_calls(tree):
    """Line numbers of the calls `<anything>.validate(...)` in the tree."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "validate")


def constructor_calls(tree):
    """Line numbers of the calls `StructureGraph(...)` and
    `<anything>.StructureGraph(...)` in the tree."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and (isinstance(node.func, ast.Name)
                       and node.func.id == "StructureGraph"
                       or isinstance(node.func, ast.Attribute)
                       and node.func.attr == "StructureGraph"))


def _outside_core(find):
    paths = sorted(p for p in SRC.glob("*.py") if p.name != "core.py")
    assert paths
    return ["%s:%d" % (p.name, line) for p in paths
            for line in find(ast.parse(p.read_text(), str(p)))]


def test_validate_calls_detects_attribute_calls():
    tree = ast.parse("def f(s):\n"
                     "    validate(s)\n"
                     "    return g(s).validate()\n"
                     "x = StructureGraph.make([], {}).validate()\n")
    assert validate_calls(tree) == [3, 4]


def test_only_core_calls_validate():
    assert _outside_core(validate_calls) == []


def test_constructor_calls_detects_raw_construction():
    tree = ast.parse("x = StructureGraph.make([], {})\n"
                     "y = StructureGraph((), ())\n"
                     "z = core.StructureGraph((), ())\n"
                     "t = StructureGraph\n"
                     "isinstance(x, StructureGraph)\n")
    assert constructor_calls(tree) == [2, 3]


def test_only_core_calls_the_constructor():
    assert _outside_core(constructor_calls) == []


def point_constructions(tree):
    """Line numbers of the calls `PeriodicPoint(...)` and
    `<anything>.PeriodicPoint(...)`, and of the reads of `<anything>._hash`,
    in the tree."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and (isinstance(node.func, ast.Name)
                       and node.func.id == "PeriodicPoint"
                       or isinstance(node.func, ast.Attribute)
                       and node.func.attr == "PeriodicPoint")
                  or isinstance(node, ast.Attribute) and node.attr == "_hash")


def test_point_constructions_detects_calls_and_hash_reads():
    tree = ast.parse("x = PeriodicPoint(o, 0)\n"
                     "y = core.PeriodicPoint(o, 1)\n"
                     "isinstance(x, PeriodicPoint)\n"
                     "h = x._hash\n"
                     "z = o.points[0].shift(1)\n")
    assert point_constructions(tree) == [1, 2, 4]


def test_only_core_constructs_points():
    assert _outside_core(point_constructions) == []


# the search, its tables and its helpers
SEARCH_NAMES = {"search", "_search_profile", "_target_profile", "_options",
                "_support", "_witness", "_covers_demand", "_refuted"}


def names_used(tree, function):
    """The names and attribute names that the body of `function` mentions,
    sorted; None when the tree defines no such function."""
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == function:
            return sorted({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
                          | {n.attr for n in ast.walk(node)
                             if isinstance(n, ast.Attribute)})
    return None


def test_names_used_sees_calls_and_attributes():
    tree = ast.parse("def f(s):\n"
                     "    return _options(s) + decisions._search_profile(s).x\n"
                     "def search():\n"
                     "    pass\n")
    assert SEARCH_NAMES & set(names_used(tree, "f")) == {"_options", "_search_profile"}
    assert names_used(tree, "g") is None


def test_verify_witness_shares_no_search_code():
    path = SRC / "decisions.py"
    used = names_used(ast.parse(path.read_text(), str(path)), "verify_witness")
    assert used is not None
    assert SEARCH_NAMES.isdisjoint(used), sorted(SEARCH_NAMES.intersection(used))


def test_search_never_names_transitions():
    path = SRC / "decisions.py"
    tree = ast.parse(path.read_text(), str(path))
    for function in sorted(SEARCH_NAMES):
        used = names_used(tree, function)
        assert used is not None, function
        assert "transitions" not in used, function


def outside_imports(tree):
    """The absolute imports in the tree whose top-level package is not in
    the standard library, as (line, name) pairs."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, n) for n in names
                  if n.split(".")[0] not in sys.stdlib_module_names]
    return found


def test_outside_imports_sees_both_import_forms():
    tree = ast.parse("import os, numpy.linalg\n"
                     "from networkx import Graph\n"
                     "from . import core\n"
                     "from __future__ import annotations\n")
    assert outside_imports(tree) == [(1, "numpy.linalg"), (2, "networkx")]


def test_runtime_imports_only_the_standard_library():
    paths = sorted(SRC.rglob("*.py"))
    assert paths
    found = ["%s:%d %s" % (p.name, line, name) for p in paths
             for (line, name) in outside_imports(ast.parse(p.read_text(), str(p)))]
    assert found == []
