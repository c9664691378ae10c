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
"""

from __future__ import annotations

from math import lcm

from .core import (
    LabeledGraph,
    PeriodicOrbit,
    EventuallyPeriodicPoint,
    StructureGraph,
    canonicalize_config,
    canonicalize_point,
)
from .errors import BudgetExceeded
from .presentation import admit, trim_essential

DEFAULT_PATH_BUDGET = 10 ** 6


def _cycle_labels(g: LabeledGraph, cycles):
    """Label word along each cycle, aligned with its vertex tuple."""
    out = []
    for cyc in cycles:
        m = len(cyc)
        labs = []
        for k in range(m):
            found = [s for (b, s) in g.out_map[cyc[k]] if b == cyc[(k + 1) % m]]
            # certificate guarantees a unique cycle edge here
            labs.append(found[0])
        out.append(tuple(labs))
    return out


def _cycle_edge_set(cycles, labels):
    return {
        (cyc[k], cyc[(k + 1) % len(cyc)], labels[i][k])
        for i, cyc in enumerate(cycles)
        for k in range(len(cyc))
    }


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


def build_structure(g: LabeledGraph) -> StructureGraph:
    """Structure graph of the shift presented by g.

    Requires a right-resolving presentation whose trimmed form has pairwise
    disjoint cycles and no path through three of them; admit raises
    NotRightResolving, NotCountableCertified or RankTooHigh otherwise.  The
    presentation is used as given, never minimized.  Counts are exact
    arbitrary-precision ints.
    """
    g, cycles, _rank = admit(g)
    if g.is_empty():
        return StructureGraph.make((), {})
    starts = [canonicalize_point(w) for w in _cycle_labels(g, cycles)]
    point_of = {v: starts[i].shift(a)
                for i, cyc in enumerate(cycles) for a, v in enumerate(cyc)}
    orbits = sorted({pt.orbit for pt in starts}, key=PeriodicOrbit.sort_key)
    counts = _smear(_anchored_counts(g, point_of))
    for o in orbits:
        for r in range(o.period):
            pt = o.point(r)
            counts[(pt, pt)] = counts.get((pt, pt), 0) + 1
    return StructureGraph.make(orbits, counts).validate()


def _transitional_paths(g: LabeledGraph, cycles, labels, budget):
    """Every simple non-cycle-edge path between cycle vertices, by DFS, as
    (labels, start cycle, start index, end cycle, end index) tuples."""
    cyc_edges = _cycle_edge_set(cycles, labels)
    membership = {v: (i, a) for i, cyc in enumerate(cycles) for a, v in enumerate(cyc)}
    trans_out = {v: [] for v in g.vertices}
    for (a, b, s) in g.edges:
        if (a, b, s) not in cyc_edges:
            trans_out[a].append((s, b))
    found = 0
    for i, cyc in enumerate(cycles):
        for a, start in enumerate(cyc):
            stack = [(start, (start,), ())]
            while stack:
                v, verts, labs = stack.pop()
                if labs and v in membership:
                    found += 1
                    if found > budget:
                        raise BudgetExceeded("more than %d transitional paths" % budget)
                    yield (labs, i, a) + membership[v]
                    continue
                for (s, b) in sorted(trans_out[v]):
                    if b in verts:
                        raise AssertionError("non-simple transitional path")
                    stack.append((b, verts + (b,), labs + (s,)))


def oracle_structure(g: LabeledGraph, path_budget: int = DEFAULT_PATH_BUDGET) -> StructureGraph:
    """Structure graph by definitional enumeration: every transitional path
    is expanded into its configuration, configurations are canonicalized and
    deduplicated per orbit, then counted.  Independent of build_structure's
    subset-state frontier; exact whenever the path count fits the budget."""
    g, cycles, _rank = admit(g)
    if g.is_empty():
        return StructureGraph.make((), {})
    labels = _cycle_labels(g, cycles)
    starts = [canonicalize_point(w) for w in labels]
    configs = set()
    for (labs, i, a, j, b) in _transitional_paths(g, cycles, labels, path_budget):
        cfg = canonicalize_config(starts[i].shift(a), labs,
                                  starts[j].shift(b - len(labs)))
        if not isinstance(cfg, EventuallyPeriodicPoint):
            raise AssertionError("periodic junction in a right-resolving presentation")
        configs.add(cfg)
    anchored = {}
    for cfg in configs:
        key = (cfg.left, cfg.right)
        anchored[key] = anchored.get(key, 0) + 1
    counts = _smear(anchored)
    orbits = sorted({pt.orbit for pt in starts}, key=PeriodicOrbit.sort_key)
    for o in orbits:
        for r in range(o.period):
            pt = o.point(r)
            counts[(pt, pt)] = counts.get((pt, pt), 0) + 1
    return StructureGraph.make(orbits, counts).validate()


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
    that is >= k + 2, so the gadget contributes exactly to its class."""
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
    return trim_essential(LabeledGraph.make([], edges + gadget_edges))
