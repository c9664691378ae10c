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
  and stops at the first state on a cycle; a one-vertex state is its
  vertex's position in `LabeledGraph.index`, stepped on its row, and a
  larger one an interned set numbered after them, stepped once per build;
* counts are constant on each class of transitions under simultaneous
  shifts of both endpoints, and each anchored count adds to exactly one
  class, so the anchored counts are summed per class; every periodic orbit
  contributes one extra orbit to its own diagonal class.

Admission lists the periodic point read off its cycle from each cycle
vertex, by `index` position.  The edge leaving a cycle vertex with its
point's first symbol is its cycle edge, unique as the presentation is
right-resolving.  The oracle shares admission and the last step with build_structure.
"""

from __future__ import annotations

from collections import Counter
from itertools import compress
from math import lcm

from .core import (DEFAULT_BUDGET, LabeledGraph, EventuallyPeriodicPoint, StructureGraph,
                   _check_budget, _clip, _count_text, canonicalize_config)
from .errors import BudgetExceeded, SizeLimitExceeded
from .presentation import admit


def _anchored_counts(g: LabeledGraph, points):
    """Anchored transition counts, keyed by (left point, right point).

    For each periodic point x, a frontier of subset states of g starts at
    the cycle vertices whose entry in admission's point list is x, leaves
    it by every edge but its cycle edge, and stops at the first state that
    lies on a cycle of the future graph; counts are summed per state.  The
    seed is stepped once before the frontier starts, and never numbered.
    States get small int ids (the numbered subset construction, Rabin and
    Scott 1959).  State {v} is position v of `g.index`, stepped on v's own
    `index` row of (successor id, label) pairs, never mutated; only states
    of two or more positions become frozensets, numbered from len(points)
    when first met and stepped once into pairs of the same form.

    g is right-resolving with disjoint cycles, so stepping along a cycle
    word maps a set of vertices that all emit one point y bijectively onto
    itself: exactly such states lie on a cycle of the future graph, and y
    is their stream (None for every other state): the point list as it is.
    """
    out = g.index[1]
    stream = list(points)  # id -> its members' point, or None
    steps = list(out)  # id -> its (successor id, label) pairs, None until stepped
    ids = {}           # state of two or more positions -> its id
    members = {}       # id -> state of two or more positions

    def state_id(positions):
        state = frozenset(positions)
        if len(state) == 1:
            return positions[0]
        sid = ids.get(state)
        if sid is None:
            sid = ids[state] = len(stream)
            members[sid] = state
            y = stream[positions[0]]
            stream.append(y if y is not None and all(stream[v] is y for v in state) else None)
            steps.append(None)
        return sid

    seeds = {}
    for v in compress(range(len(points)), points):
        seeds.setdefault(points[v], []).append(v)
    anchored = {}
    for x_hat, start in seeds.items():
        # the walk departs from x's cycle: step the seed once by every
        # label but x_hat.at(0), its cycle edge's, without numbering it
        succ = {}
        for v in start:
            for (b, s) in out[v]:
                succ.setdefault(s, []).append(b)
        del succ[x_hat.at(0)]
        vec = {}
        for b in succ.values():
            sid = state_id(b)
            vec[sid] = vec.get(sid, 0) + 1
        ell = 1
        while vec:
            # a transitional path is simple, so the ell states along it after
            # the seed are distinct, and each has been numbered
            if ell > len(stream):
                raise AssertionError("transitional frontier failed to terminate")
            nxt = {}
            for sid, cnt in vec.items():
                if stream[sid] is not None:
                    key = (x_hat, stream[sid].shift(-ell))
                    anchored[key] = anchored.get(key, 0) + cnt
                    continue
                pairs = steps[sid]
                if pairs is None:
                    succ = {}
                    for v in members[sid]:
                        for (b, s) in out[v]:
                            succ.setdefault(s, []).append(b)
                    pairs = steps[sid] = [(state_id(b), s) for s, b in succ.items()]
                for (b, _s) in pairs:
                    nxt[b] = nxt.get(b, 0) + cnt
            vec = nxt
            ell += 1
    return anchored


def _structure_graph(points, anchored):
    """Sum the anchored counts per shift class, add one orbit on each
    periodic orbit's own diagonal class, then make the graph."""
    orbits = {pt.orbit for pt in filter(None, set(points))}
    counts = dict.fromkeys(((o, o, 0) for o in orbits), 1)
    for ((x, y), n) in anchored.items():
        key = StructureGraph.shift_class(x, y)
        counts[key] = counts.get(key, 0) + n
    return StructureGraph.make(orbits, {(xo.points[0], yo.points[r]): c
                                        for ((xo, yo, r), c) in counts.items()})


def build_structure(g: LabeledGraph) -> StructureGraph:
    """Structure graph of the shift presented by g.

    Requires a right-resolving presentation whose trimmed form has pairwise
    disjoint cycles and no path through three of them; admit raises
    NotRightResolving, NotCountableCertified or RankTooHigh otherwise, and
    lists the periodic point of each cycle vertex.  The presentation is
    used as given, never minimized.  Counts are exact arbitrary-precision
    ints.
    """
    g, points = admit(g)
    return _structure_graph(points, _anchored_counts(g, points))


def _transitional_paths(g: LabeledGraph, points, budget):
    """Every simple path from a cycle vertex that leaves by a non-cycle edge
    and ends at the first cycle vertex it meets, by DFS over the rows of
    `g.index`, as (labels, start position, end position) tuples."""
    out = g.index[1]
    found = 0
    for start in compress(range(len(points)), points):
        x = points[start]
        stack = [(start, (start,), ())]
        while stack:
            v, path, labs = stack.pop()
            if labs and points[v] is not None:
                found += 1
                if found > budget:
                    raise BudgetExceeded("more than %d transitional paths" % budget)
                yield labs, start, v
                continue
            for (b, s) in out[v]:
                # the start's edge labelled x.at(0) is its cycle edge
                if labs or s != x.at(0):
                    if b in path:
                        raise AssertionError("non-simple transitional path")
                    stack.append((b, path + (b,), labs + (s,)))


def oracle_structure(g: LabeledGraph, path_budget: int = DEFAULT_BUDGET) -> StructureGraph:
    """Structure graph by definitional enumeration: every transitional path
    is expanded into its configuration, configurations are canonicalized and
    deduplicated per orbit, then counted.  Independent of build_structure's
    subset-state frontier; exact whenever the path count fits the budget.
    It stops as `decisions.search` does, counting transitional paths."""
    _check_budget(path_budget, "path")
    g, points = admit(g)
    configs = set()
    for (labs, u, w) in _transitional_paths(g, points, path_budget):
        cfg = canonicalize_config(points[u], labs, points[w].shift(-len(labs)))
        if not isinstance(cfg, EventuallyPeriodicPoint):
            raise AssertionError("periodic junction in a right-resolving presentation")
        configs.add(cfg)
    return _structure_graph(points, Counter((cfg.left, cfg.right) for cfg in configs))


# the most edges `synthesize` builds: over 130 times the largest in the
# tests (1,507), perfbench (1,290, seeds 1-3) or demos (5).  Under Python
# 3.11, `sofic2 synthesize` peaks near 110MB writing 2 * 10 ** 5 edges, and
# near 490MB writing 10 ** 6
MAX_SYNTHESIZE_EDGES = 2 * 10 ** 5


def _gadget_paths(s: StructureGraph):
    """(x, y, k, length) per gadget path of `synthesize`, in the order it
    builds them: per transition class (x, y) and set bit 2^k of its
    aperiodic count, the least positive multiple of lcm(m_i, m_j) that is
    >= k + 2.  The bits are read off the count's binary digits, one pass."""
    for ((x, y), c) in s.transition_classes:
        aperiodic = c - 1 if x == y else c
        if aperiodic:
            base = lcm(x.period, y.period)
            for k, bit in enumerate(bin(aperiodic)[:1:-1]):
                if bit == "1":
                    yield x, y, k, base * -(-(k + 2) // base)


def synthesize(s: StructureGraph) -> LabeledGraph:
    """Right-resolving essential presentation over a fresh alphabet whose
    structure graph equals s with each orbit root renamed.

    Per orbit i of period m there is an outgoing cycle on q{i}_* and, when
    needed, an incoming cycle on p{i}_* wearing the same fresh labels.  Each
    shift class of transitions (its member in `s.transition_classes`) with
    aperiodic count c' (the diagonal discounts the periodic point itself)
    becomes, per set bit 2^k of c', one gadget path q -> p with k doubled
    fresh-labeled edges, padded with single fresh-labeled edges to the least
    positive multiple of lcm(m_i, m_j) that is >= k + 2, so the gadget
    contributes exactly to its class.  Every vertex lies on a cycle or on a
    gadget path between two, so the output is essential as built.

    Raises SizeLimitExceeded before building more than MAX_SYNTHESIZE_EDGES
    edges: one per cycle vertex, and length + k per gadget path."""
    orbits = list(s.orbits)
    index = {o: i for i, o in enumerate(orbits)}
    size, needs_p, paths = sum(o.period for o in orbits), set(), []
    for path in _gadget_paths(s):
        (_x, y, k, length) = path
        size += length + k
        needs_p.add(index[y.orbit])
        if size <= MAX_SYNTHESIZE_EDGES:  # a refused output's paths are not kept
            paths.append(path)
    size += sum(orbits[j].period for j in needs_p)
    if size > MAX_SYNTHESIZE_EDGES:
        raise SizeLimitExceeded("synthesize needs %s edges, more than %d"
                                % (_clip(_count_text(size)), MAX_SYNTHESIZE_EDGES))
    edges = []
    for i, o in enumerate(orbits):
        m = o.period
        for r in range(m):
            edges.append(("q%d_%d" % (i, r), "q%d_%d" % (i, (r + 1) % m),
                          "a%d_%d" % (i, r)))
    gadget_edges = []
    for gid, (x, y, k, length) in enumerate(paths):
        nodes = (["q%d_%d" % (index[x.orbit], x.phase)]
                 + ["x%d_%d" % (gid, t) for t in range(1, length)]
                 + ["p%d_%d" % (index[y.orbit], y.phase)])
        for t in range(length):
            if 1 <= t <= k:
                gadget_edges.append((nodes[t], nodes[t + 1], "e%d_%da" % (gid, t)))
                gadget_edges.append((nodes[t], nodes[t + 1], "e%d_%db" % (gid, t)))
            else:
                gadget_edges.append((nodes[t], nodes[t + 1], "e%d_%d" % (gid, t)))
    for j in sorted(needs_p):
        m = orbits[j].period
        for r in range(m):
            edges.append(("p%d_%d" % (j, r), "p%d_%d" % (j, (r + 1) % m),
                          "a%d_%d" % (j, r)))
    return LabeledGraph.make([], edges + gadget_edges)
