"""Structure graph computation, its brute-force oracle, and inverse
synthesis of a presentation from a structure graph.

The exact counting in build_structure works on any right-resolving,
countable-certified, rank <= 2 presentation without assuming minimality,
so build_structure never minimizes its input:

* every aperiodic configuration has a unique shift representative anchored
  at the first position where it departs from its left periodic tail
  (right-resolvingness forces every presenting walk off its cycle exactly
  there);
* with the anchor fixed, distinct configurations correspond bijectively to
  walks in the determinized future graph seeded with the set of all cycle
  vertices that can emit the left tail, so transitional futures are counted
  by a frontier over subset states that sums the walks reaching each state
  and stops at the first state on a cycle;
* the anchored counts are then smeared over simultaneous shifts of both
  endpoints, one hit per distinct endpoint pair, and every periodic point
  contributes one extra orbit to its own diagonal edge.

Admission names the periodic point read off its cycle from each cycle
vertex.  The edge leaving a cycle vertex with its point's first symbol is
its cycle edge, unique because the presentation is right-resolving.  The
oracle shares admission and the last step with build_structure.
"""

from __future__ import annotations

from math import lcm

from .core import (
    LabeledGraph,
    EventuallyPeriodicPoint,
    StructureGraph,
    canonicalize_config,
)
from .errors import BudgetExceeded
from .presentation import admit

DEFAULT_PATH_BUDGET = 10 ** 6


def _smear(anchored):
    """Expand anchored per-orbit counts over simultaneous endpoint shifts."""
    final = {}
    for ((x, y), n) in anchored.items():
        for t in range(lcm(x.period, y.period)):
            key = (x.shift(t), y.shift(t))
            final[key] = final.get(key, 0) + n
    return final


def _anchored_counts(g: LabeledGraph, point_of):
    """Anchored transition counts, keyed by (left point, right point).

    For each periodic point x, a frontier of subset states of g starts at
    the set of cycle vertices emitting x, leaves it by every edge but its
    cycle edge, and stops at the first state that lies on a cycle of the
    future graph; counts are summed per state.
    """
    seeds = {}
    for v, pt in point_of.items():
        seeds.setdefault(pt, set()).add(v)
    anchored = {}
    steps = {}  # subset state -> its (label, successor set) pairs
    for x_hat, start in seeds.items():
        vec = {frozenset(start): 1}
        ell = 0
        while vec:
            # a transitional path is simple, so its length is at most the
            # number of distinct states stepped so far plus 1
            if ell > len(steps) + 1:
                raise AssertionError("transitional frontier failed to terminate")
            nxt = {}
            for state, cnt in vec.items():
                if ell:  # the start lies on x's cycle; the walk departs from it
                    # g is right-resolving with disjoint cycles, so stepping
                    # along a cycle word maps a set of vertices that all
                    # emit one point y bijectively onto itself: exactly
                    # such states lie on a cycle of the future graph, and
                    # y is their stream
                    y = point_of.get(next(iter(state)))
                    if y is not None and all(point_of.get(v) == y for v in state):
                        key = (x_hat, y.shift(-ell))
                        anchored[key] = anchored.get(key, 0) + cnt
                        continue
                out = steps.get(state)
                if out is None:
                    out = steps[state] = g.subset_step(state)
                for (s, b) in out:
                    # the start's edge labelled x_hat.at(0) is its cycle edge
                    if ell or s != x_hat.at(0):
                        nxt[b] = nxt.get(b, 0) + cnt
            vec = nxt
            ell += 1
    return anchored


def _structure_graph(point_of, anchored):
    """Smear the anchored counts, add one orbit on each periodic point's
    own diagonal edge, then make and validate."""
    counts = _smear(anchored)
    points = set(point_of.values())
    for pt in points:
        counts[(pt, pt)] = counts.get((pt, pt), 0) + 1
    return StructureGraph.make({pt.orbit for pt in points}, counts).validate()


def build_structure(g: LabeledGraph) -> StructureGraph:
    """Structure graph of the shift presented by g.

    Requires a right-resolving presentation whose trimmed form has pairwise
    disjoint cycles and no path through three of them; admit raises
    NotRightResolving, NotCountableCertified or RankTooHigh otherwise, and
    names the periodic point of each cycle vertex.  The presentation is
    used as given, never minimized.  Counts are exact arbitrary-precision
    ints.
    """
    g, point_of = admit(g)
    return _structure_graph(point_of, _anchored_counts(g, point_of))


def _transitional_paths(g: LabeledGraph, point_of, budget):
    """Every simple path from a cycle vertex that leaves by a non-cycle edge
    and ends at the first cycle vertex it meets, by DFS, as (labels, start
    vertex, end vertex) tuples."""
    found = 0
    for start, x in point_of.items():
        stack = [(start, (start,), ())]
        while stack:
            v, verts, labs = stack.pop()
            if labs and v in point_of:
                found += 1
                if found > budget:
                    raise BudgetExceeded("more than %d transitional paths" % budget)
                yield labs, start, v
                continue
            for (b, s) in sorted(g.out_map[v]):
                # the start's edge labelled x.at(0) is its cycle edge
                if labs or s != x.at(0):
                    if b in verts:
                        raise AssertionError("non-simple transitional path")
                    stack.append((b, verts + (b,), labs + (s,)))


def oracle_structure(g: LabeledGraph, path_budget: int = DEFAULT_PATH_BUDGET) -> StructureGraph:
    """Structure graph by definitional enumeration: every transitional path
    is expanded into its configuration, configurations are canonicalized and
    deduplicated per orbit, then counted.  Independent of build_structure's
    subset-state frontier; exact whenever the path count fits the budget."""
    g, point_of = admit(g)
    configs = set()
    for (labs, u, w) in _transitional_paths(g, point_of, path_budget):
        cfg = canonicalize_config(point_of[u], labs, point_of[w].shift(-len(labs)))
        if not isinstance(cfg, EventuallyPeriodicPoint):
            raise AssertionError("periodic junction in a right-resolving presentation")
        configs.add(cfg)
    anchored = {}
    for cfg in configs:
        key = (cfg.left, cfg.right)
        anchored[key] = anchored.get(key, 0) + 1
    return _structure_graph(point_of, anchored)


def _bits(n: int):
    out = []
    k = 0
    while n:
        if n & 1:
            out.append(k)
        n >>= 1
        k += 1
    return out


def _edge_classes(s: StructureGraph):
    """One representative per simultaneous-shift class of transition edges,
    in canonical order."""
    seen = set()
    classes = []
    for ((x, y), c) in s.transitions:
        if (x, y) in seen:
            continue
        for t in range(lcm(x.period, y.period)):
            seen.add((x.shift(t), y.shift(t)))
        classes.append((x, y, c))
    return classes


def synthesize(s: StructureGraph) -> LabeledGraph:
    """Right-resolving essential presentation over a fresh alphabet whose
    structure graph equals s with each orbit root renamed.

    Per orbit i of period m there is an outgoing cycle on q{i}_* and, when
    needed, an incoming cycle on p{i}_* wearing the same fresh labels.  Each
    transition-edge class with aperiodic count c' (the diagonal discounts
    the periodic point itself) becomes, per set bit 2^k of c', one gadget
    path q -> p with k doubled fresh-labeled edges, padded with single
    fresh-labeled edges to the least positive multiple of lcm(m_i, m_j)
    that is >= k + 2, so the gadget contributes exactly to its class.
    Every vertex lies on a cycle or on a gadget path between two, so the
    output is essential as built."""
    s.validate()
    orbits = list(s.orbits)
    index = {o: i for i, o in enumerate(orbits)}
    edges = []
    for i, o in enumerate(orbits):
        m = o.period
        for r in range(m):
            edges.append(("q%d_%d" % (i, r), "q%d_%d" % (i, (r + 1) % m),
                          "a%d_%d" % (i, r)))
    needs_p = set()
    gadget_edges = []
    gid = 0
    for (x, y, c) in _edge_classes(s):
        cp = c - 1 if x == y else c
        if cp == 0:
            continue
        i, j = index[x.orbit], index[y.orbit]
        needs_p.add(j)
        base = lcm(x.period, y.period)
        for k in _bits(cp):
            length = base * ((k + 2 + base - 1) // base)
            nodes = (["q%d_%d" % (i, x.phase)]
                     + ["x%d_%d" % (gid, t) for t in range(1, length)]
                     + ["p%d_%d" % (j, y.phase)])
            for t in range(length):
                if 1 <= t <= k:
                    gadget_edges.append((nodes[t], nodes[t + 1], "e%d_%da" % (gid, t)))
                    gadget_edges.append((nodes[t], nodes[t + 1], "e%d_%db" % (gid, t)))
                else:
                    gadget_edges.append((nodes[t], nodes[t + 1], "e%d_%d" % (gid, t)))
            gid += 1
    for j in sorted(needs_p):
        m = orbits[j].period
        for r in range(m):
            edges.append(("p%d_%d" % (j, r), "p%d_%d" % (j, (r + 1) % m),
                          "a%d_%d" % (j, r)))
    return LabeledGraph.make([], edges + gadget_edges)
