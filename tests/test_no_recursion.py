"""No function in the library calls itself, and admission runs on long
inputs under a tight recursion limit: no code path may depend on Python's
recursion limit."""

import ast
import gc
import sys
import time
from pathlib import Path

from sofic2 import LabeledGraph
from sofic2.presentation import admit

from conftest import chain_graph

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


def _stack_depth():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def _chain(n):
    """A doubled-edge chain of n vertices between two fixed-point loops."""
    return chain_graph(n - 1)


def _cycle(n):
    return LabeledGraph.make([], [(i, (i + 1) % n, "ab"[i % 2]) for i in range(n)])


def test_admission_runs_under_a_tight_recursion_limit():
    graphs = [_chain(20_000), _cycle(20_000)]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 50)
    try:
        chain, cycle = (admit(g) for g in graphs)
    finally:
        sys.setrecursionlimit(limit)
    assert sum(x is not None for x in chain.points) == 2
    assert all(x is not None for x in cycle.points)


def test_admission_time_is_near_linear_in_length():
    def best_of_5(g):
        g.index  # the adjacency is built once per graph, outside the timing
        times = []
        for _ in range(5):
            t = time.perf_counter()
            admit(g)
            times.append(time.perf_counter() - t)
        return min(times)

    # a full collection costs in proportion to every live object of the
    # process, not to the input, so none may land in one timing only
    gc.disable()
    try:
        for shape in (_chain, _cycle):
            short, long = best_of_5(shape(5_000)), best_of_5(shape(20_000))
            # 4x the vertices: linear is 4x the time, quadratic 16x
            assert long < 8 * short, (shape.__name__, short, long)
    finally:
        gc.enable()
