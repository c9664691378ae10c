"""No function in the library calls itself: no code path may depend on
Python's recursion limit."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "sofic2"


def self_calls(tree):
    """Names of functions, nested ones included, whose bodies call the
    function by its bare name.  Attribute calls (self.f, obj.f) are not
    counted."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == fn.name):
                found.append(fn.name)
                break
    return found


def test_self_calls_detects_nested_recursion():
    tree = ast.parse("def outer():\n"
                     "    def inner(i):\n"
                     "        return inner(i + 1)\n"
                     "    return self.outer()\n")
    assert self_calls(tree) == ["inner"]


def test_no_function_calls_itself():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    offenders = ["%s:%s" % (p.name, name) for p in paths
                 for name in self_calls(ast.parse(p.read_text(), str(p)))]
    assert offenders == []
