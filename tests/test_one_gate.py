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
Every enumeration stops at a budget: no parameter named `budget` or
`path_budget` defaults to None (`unbounded_budgets`), and no module but
core compares one with a constant (`budget_comparisons`), so a budget
below 1, or None, is refused by one rule, `core._check_budget`.  Every NO
that periods and class counts settle comes from one gate,
`decisions._refuted`: the rank-1 rules of `_rank1_targets` return no None
(`none_returns`).  The gadgets are written down, not built through the
pipeline: `reductions` imports nothing from `presentation` or `structure`
(`package_imports`), and they share one graph-to-shift writer: the one
`StructureGraph.make` call in `reductions` is in `_graph_shift`
(`structure_graph_makes`)."""

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


# the search, its tables and its helpers, and the gate's period-class flow
# with the rank-1 rules that read it
SEARCH_NAMES = {"search", "_tables", "_source", "_options",
                "_support", "_witness", "_covers_demand", "_refuted",
                "_cover", "_augment", "_rank1_targets"}


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


BUDGET_NAMES = ("budget", "path_budget")


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
                  if arg.arg in BUDGET_NAMES
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


def budget_comparisons(tree):
    """Line numbers of the comparisons in the tree between a constant and
    `budget` or `path_budget`, as a name or as an attribute like
    `args.budget`; a constant may carry a sign."""
    def named(n):
        return (isinstance(n, ast.Name) and n.id in BUDGET_NAMES
                or isinstance(n, ast.Attribute) and n.attr in BUDGET_NAMES)

    def constant(n):
        return isinstance(n.operand if isinstance(n, ast.UnaryOp) else n,
                          ast.Constant)

    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left] + node.comparators
            if any(map(named, operands)) and any(map(constant, operands)):
                found.append(node.lineno)
    return sorted(found)


def test_budget_comparisons_sees_names_attributes_and_signs():
    tree = ast.parse("def f(budget, path_budget, n):\n"
                     "    if budget is None or budget < 1: pass\n"
                     "    if 0 >= path_budget: pass\n"
                     "    if args.budget == -1: pass\n"
                     "    if n > budget or budget > limit: pass\n"
                     "    if n < 1 and budget: pass\n"
                     "k = lambda budget: 0 < budget <= 10\n")
    assert budget_comparisons(tree) == [2, 2, 3, 4, 7]


def test_only_core_refuses_a_budget():
    path = SRC / "core.py"
    assert budget_comparisons(ast.parse(path.read_text(), str(path)))
    assert _outside_core(budget_comparisons) == []


def none_returns(tree, function):
    """Line numbers of the bare `return` and `return None` statements in
    the body of `function`; None when the tree defines no such function."""
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == function:
            return sorted(n.lineno for n in ast.walk(node)
                          if isinstance(n, ast.Return)
                          and (n.value is None
                               or isinstance(n.value, ast.Constant)
                               and n.value.value is None))
    return None


def test_none_returns_sees_bare_and_explicit_none():
    tree = ast.parse("def f(x):\n"
                     "    if x:\n"
                     "        return\n"
                     "    if x > 1:\n"
                     "        return None\n"
                     "    return [x] or 0\n")
    assert none_returns(tree, "f") == [3, 5]
    assert none_returns(tree, "g") is None


def test_the_rank1_rules_only_build_witnesses():
    path = SRC / "decisions.py"
    assert none_returns(ast.parse(path.read_text(), str(path)),
                        "_rank1_targets") == []


def package_imports(tree):
    """(line, module) for each module of the package that the tree imports,
    relatively (`from .m import x`, `from . import m`) or by the package's
    name (`import sofic2.m`, `from sofic2.m import x`, `from sofic2 import
    m`); a name imported from the package itself counts as a module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name.split(".")[1]) for a in node.names
                      if a.name.startswith("sofic2.")]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module != "sofic2" and not module.startswith("sofic2."):
                    continue
                module = module[len("sofic2."):]
            if module:
                found.append((node.lineno, module.split(".")[0]))
            else:
                found += [(node.lineno, a.name) for a in node.names]
    return sorted(found)


def test_package_imports_sees_relative_and_absolute_forms():
    tree = ast.parse("from .core import word\n"
                     "from . import formats, structure\n"
                     "import sofic2.presentation\n"
                     "from sofic2.decisions import Mode\n"
                     "from sofic2 import errors\n"
                     "import os, sofic2\n"
                     "from collections import Counter\n")
    assert package_imports(tree) == [(1, "core"), (2, "formats"), (2, "structure"),
                                     (3, "presentation"), (4, "decisions"),
                                     (5, "errors")]


def test_reductions_never_runs_the_pipeline():
    path = SRC / "reductions.py"
    imported = {m for (_line, m) in package_imports(ast.parse(path.read_text(),
                                                              str(path)))}
    assert "core" in imported
    assert imported.isdisjoint({"presentation", "structure"}), sorted(imported)


def structure_graph_makes(tree):
    """(line, name of the innermost enclosing function, or None at module
    level) for each call `StructureGraph.make(...)` or
    `<anything>.StructureGraph.make(...)` in the tree."""
    found = []
    stack = [(tree, None)]
    while stack:
        node, function = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "make"
                and (isinstance(node.func.value, ast.Name)
                     and node.func.value.id == "StructureGraph"
                     or isinstance(node.func.value, ast.Attribute)
                     and node.func.value.attr == "StructureGraph")):
            found.append((node.lineno, function))
        stack += [(child, function) for child in ast.iter_child_nodes(node)]
    return sorted(found)


def test_structure_graph_makes_names_the_enclosing_function():
    tree = ast.parse("x = StructureGraph.make((), {})\n"
                     "def f(c):\n"
                     "    return core.StructureGraph.make((), c)\n"
                     "def g(c):\n"
                     "    def h():\n"
                     "        return StructureGraph.make((), c)\n"
                     "    return LabeledGraph.make([], c), StructureGraph(c), make(c)\n")
    assert structure_graph_makes(tree) == [(1, None), (3, "f"), (6, "h")]


def test_reductions_write_one_graph_shift():
    path = SRC / "reductions.py"
    makes = structure_graph_makes(ast.parse(path.read_text(), str(path)))
    assert [function for (_line, function) in makes] == ["_graph_shift"], makes
