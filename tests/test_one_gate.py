"""Structure graphs are built and validated once, by `StructureGraph.make`:
no library module other than core calls `.validate()` or the raw
`StructureGraph(...)` constructor.  Witnesses are checked independently:
`verify_witness` names none of the search's code or tables.  The search
reads one transition per shift class: none of its code names
`transitions`.  Periodic points are interned by core: no other module
calls `PeriodicPoint(...)` or reads `._hash`, so every point comes from
an orbit's `points`, `point` or `shift`.  The runtime is stdlib-only: no
module imports a package from outside the standard library.  The search
keys no table by object identity: `decisions` never calls `id()`.  A graph
carries one cache of the decisions: the only explicit `__dict__` write
in the library is that of `decisions._tables`, under the key `_tables`.
Every search stops at a node budget: no parameter named `budget` or
`path_budget` defaults to None."""

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
SEARCH_NAMES = {"search", "_tables", "_source", "_options",
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
                     "    return _options(_tables(s)) + decisions._source(s).x\n"
                     "def search():\n"
                     "    pass\n")
    assert SEARCH_NAMES & set(names_used(tree, "f")) == {"_options", "_tables",
                                                         "_source"}
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


def id_calls(tree):
    """Line numbers of the calls `id(...)` in the tree."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name) and node.func.id == "id")


def test_id_calls_sees_only_calls_of_id():
    tree = ast.parse("def f(x):\n"
                     "    k = id(x)\n"
                     "    return {id(y): y for y in x}, x.id, ident(x), id\n"
                     "g = obj.id(1)\n")
    assert id_calls(tree) == [2, 3]


def test_decisions_keys_no_table_by_object_identity():
    path = SRC / "decisions.py"
    assert id_calls(ast.parse(path.read_text(), str(path))) == []


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


# the methods of a dict that change it
DICT_MUTATORS = {"setdefault", "update", "pop", "popitem", "clear",
                 "__setitem__", "__delitem__"}


def dict_writes(tree):
    """(line, key) for each explicit write to `<anything>.__dict__` or
    `vars(...)` in the tree: an item assigned or deleted, or a mutating
    method called; key is the item named by a constant, else None."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load):
            target, key = node.value, node.slice
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in DICT_MUTATORS):
            target, key = node.func.value, (node.args or [None])[0]
        else:
            continue
        if (isinstance(target, ast.Attribute) and target.attr == "__dict__"
                or isinstance(target, ast.Call)
                and isinstance(target.func, ast.Name) and target.func.id == "vars"):
            found.append((node.lineno,
                          key.value if isinstance(key, ast.Constant) else None))
    return sorted(found)


def test_dict_writes_sees_items_and_mutating_calls():
    tree = ast.parse("s.__dict__['a'] = 1\n"
                     "x = s.__dict__.get('b')\n"
                     "s.__dict__.setdefault('c', {})\n"
                     "del s.__dict__['d']\n"
                     "vars(s).update(e=1)\n"
                     "s.__dict__[k] += 1\n"
                     "y = s.__dict__['f'] + t['g']\n"
                     "t['h'] = s.__dict__\n"
                     "s.__dict__.clear()\n")
    assert dict_writes(tree) == [(1, "a"), (3, "c"), (4, "d"), (5, None),
                                 (6, None), (9, None)]


def test_only_the_decision_tables_write_a_dict():
    paths = sorted(SRC.rglob("*.py"))
    assert paths
    found = ["%s:%d %s" % (p.name, line, key) for p in paths
             for (line, key) in dict_writes(ast.parse(p.read_text(), str(p)))]
    assert found
    assert all(w.startswith("decisions.py:") and w.endswith(" _tables")
               for w in found), found


def unbounded_budgets(tree):
    """(line, name) for each parameter named `budget` or `path_budget` of a
    function or lambda in the tree whose default is None."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        a = node.args
        positional = a.posonlyargs + a.args
        pairs = list(zip(positional[len(positional) - len(a.defaults):],
                         a.defaults))
        pairs += [(arg, d) for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d]
        found += [(d.lineno, arg.arg) for arg, d in pairs
                  if arg.arg in ("budget", "path_budget")
                  and isinstance(d, ast.Constant) and d.value is None]
    return sorted(found)


def test_unbounded_budgets_sees_every_parameter_kind():
    tree = ast.parse("def f(x, budget=None, y=None): pass\n"
                     "def g(budget, path_budget=10): pass\n"
                     "async def h(*, path_budget=None, budget): pass\n"
                     "k = lambda budget=None: budget\n"
                     "def m(budget=LIMIT, other=None): pass\n")
    assert unbounded_budgets(tree) == [(1, "budget"), (3, "path_budget"),
                                       (4, "budget")]


def test_no_search_defaults_to_no_budget():
    paths = sorted(SRC.rglob("*.py"))
    assert paths
    found = ["%s:%d %s" % (p.name, line, name) for p in paths
             for (line, name) in unbounded_budgets(ast.parse(p.read_text(), str(p)))]
    assert found == []
