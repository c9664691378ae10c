"""Structure graphs are validated once, when `StructureGraph.make` builds
them: no library module other than core calls `.validate()`."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "sofic2"


def validate_calls(tree):
    """Line numbers of the calls `<anything>.validate(...)` in the tree."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "validate")


def test_validate_calls_detects_attribute_calls():
    tree = ast.parse("def f(s):\n"
                     "    validate(s)\n"
                     "    return g(s).validate()\n"
                     "x = StructureGraph.make([], {}).validate()\n")
    assert validate_calls(tree) == [3, 4]


def test_only_core_calls_validate():
    paths = sorted(p for p in SRC.glob("*.py") if p.name != "core.py")
    assert paths
    offenders = ["%s:%d" % (p.name, line) for p in paths
                 for line in validate_calls(ast.parse(p.read_text(), str(p)))]
    assert offenders == []
