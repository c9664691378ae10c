"""Structure graphs are built and validated once, by `StructureGraph.make`:
no library module other than core calls `.validate()` or the raw
`StructureGraph(...)` constructor."""

import ast
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
