"""Hardness gadget generators and the brute-force graph oracles used to
validate the decision procedures against classical graph problems.  The
reductions share one encoding, `_graph_shift`: a graph becomes the shift
whose periodic orbits are its vertices and whose transitions are its arcs.
No presentation or structure builder is run, and `digraph_isomorphic` has
no search of its own: `decide` answers it."""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from math import lcm

from .core import (
    PeriodicOrbit,
    StructureGraph,
    _clip,
    _count_text,
    _sorted_names,
    canonicalize_point,
)
from .decisions import Mode, decide
from .errors import (ImproperColoring, IsolatedVertex, ReservedSymbol,
                     SizeLimitExceeded, SoficError, TooLarge)

BRUTE_CAP = 8


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected graph without self-loops or parallel edges, on vertex
    names that sort together: the gadgets and oracles take them in order."""

    vertices: frozenset
    edges: frozenset  # frozensets of size 2

    @classmethod
    def make(cls, vertices, edges) -> "SimpleGraph":
        vs = set(vertices)
        es = set()
        for e in edges:
            a, b = tuple(e)
            if a == b:
                raise ValueError("self-loop %s" % _clip(repr(a)))
            vs |= {a, b}
            es.add(frozenset((a, b)))
        _sorted_names(vs)
        return cls(frozenset(vs), frozenset(es))


@dataclass(frozen=True)
class ColoredGraph:
    """Simple graph with a proper {0,1} coloring of its vertices."""

    graph: SimpleGraph
    colors: tuple  # sorted (vertex, color) pairs

    @classmethod
    def make(cls, colors, edges) -> "ColoredGraph":
        g = SimpleGraph.make(colors.keys(), edges)
        for v in sorted(g.vertices):
            if colors.get(v) not in (0, 1):
                raise ImproperColoring("vertex %s lacks a 0/1 color" % _clip(repr(v)))
        for e in sorted(g.edges, key=sorted):
            a, b = tuple(e)
            if colors[a] == colors[b]:
                raise ImproperColoring("edge %s joins equal colors"
                                       % _clip(repr(sorted(e))))
        return cls(g, tuple(sorted(colors.items())))

    @cached_property
    def color(self):
        return dict(self.colors)


@dataclass(frozen=True)
class Digraph:
    """Plain directed multigraph (no labels)."""

    vertices: frozenset
    arcs: tuple  # sorted (src, dst) pairs, duplicates allowed

    @classmethod
    def make(cls, vertices, arcs) -> "Digraph":
        vs = set(vertices)
        out = []
        for (a, b) in arcs:
            vs |= {a, b}
            out.append((a, b))
        # each name by its type's name, then itself: names of types that do
        # not compare, such as 1 and 'a', still sort, and names of one type
        # keep their own order
        return cls(frozenset(vs), tuple(sorted(
            out, key=lambda arc: [(type(v).__name__, v) for v in arc])))


def _no_isolated(g: SimpleGraph):
    touched = {v for e in g.edges for v in e}
    lonely = sorted(g.vertices - touched)
    if lonely:
        raise IsolatedVertex("isolated vertices %s" % _clip(repr(lonely)))


def _graph_shift(orbits, arcs) -> StructureGraph:
    """The shift of a graph: vertex v is the orbit orbits[v], with a
    count-1 diagonal class, and each arc (u, v) adds one to the class from
    phase 0 of u's orbit to each phase of v's orbit, so a loop raises the
    diagonal and parallel arcs add up."""
    counts = Counter((o.points[0], o.points[0]) for o in orbits.values())
    counts.update((orbits[u].points[0], y) for (u, v) in arcs
                  for y in orbits[v].points)
    return StructureGraph.make((), counts)


def gi_gadget(g: ColoredGraph) -> StructureGraph:
    """Structure graph whose conjugacy class mirrors color-preserving
    isomorphism of g: the `_graph_shift` of g with a fixed point named by
    each vertex and every edge oriented from its 0-colored endpoint."""
    _no_isolated(g.graph)
    orbits = {v: PeriodicOrbit((v,)) for v in sorted(g.graph.vertices)}
    return _graph_shift(orbits, [sorted(e, key=g.color.get) for e in g.graph.edges])


MARKER = "%"


def hom_gadget(g: SimpleGraph) -> StructureGraph:
    """Structure graph of the shift that encodes graph homomorphisms from g,
    the union over the edges {u, v}, in both directions, of (m u)*(m v)*
    and (m u)*(v m)*, where m is the marker symbol MARKER: the
    `_graph_shift` of the period-2 orbits of (m, v) and both directions of
    every edge.  Reaching both phases of v's orbit makes it exact whichever
    rotation of (m, v) is canonical; the tests keep the structure builder
    run on a presentation of the union as its reference.  A vertex named
    MARKER raises ReservedSymbol.
    """
    _no_isolated(g)
    orbits = {}
    for v in sorted(g.vertices):
        if v == MARKER:
            raise ReservedSymbol("vertex name %r collides with the marker symbol"
                                 % (MARKER,))
        orbits[v] = canonicalize_point((MARKER, v)).orbit
    return _graph_shift(orbits, [a for e in g.edges for a in itertools.permutations(e)])


def digraph_count_table(*graphs):
    """Shared count -> path-length table (ascending counts mapped to
    4, 5, ...); rotation edges reserve length 3.  Both gadgets of a
    comparison must use one table.  Reads one count per shift class, as all
    members of a class share it."""
    counts = sorted({c for s in graphs for (_e, c) in s.transition_classes})
    return {c: 4 + i for i, c in enumerate(counts)}


# the most arcs `digraph_gadget` builds: over 390 times the largest in the
# tests (2,518), demos (148) or CLI fuzz; 2.8M arcs took 954MB
MAX_DIGRAPH_ARCS = 10 ** 6


def digraph_gadget(s: StructureGraph, count_table=None) -> Digraph:
    """Unlabeled digraph isomorphic-equivalent to the structure graph:
    every rotation edge becomes 3 parallel length-3 paths, every transition
    edge with count k becomes m parallel length-m paths for the table entry
    m of k; a table lacking a count of s is refused, naming the count.
    Raises SizeLimitExceeded before building a gadget of more than
    MAX_DIGRAPH_ARCS arcs: 9 per point, and m * m per member of a class."""
    if count_table is None:
        count_table = digraph_count_table(s)
    for (_e, c) in s.transition_classes:
        if c not in count_table:
            raise SoficError("no path length for count %s" % _clip(_count_text(c)))
    size = 9 * sum(o.period for o in s.orbits) + sum(
        lcm(x.period, y.period) * count_table[c] ** 2
        for ((x, y), c) in s.transition_classes)
    if size > MAX_DIGRAPH_ARCS:
        raise SizeLimitExceeded("the digraph gadget needs %s arcs, more than %d"
                                % (_clip(_count_text(size)), MAX_DIGRAPH_ARCS))
    pts = s.points()  # in sort_key order
    name = {p: "v%d" % i for i, p in enumerate(pts)}
    arcs = []
    fresh = itertools.count()

    def add_paths(src, dst, n_paths, length):
        for _ in range(n_paths):
            prev = src
            for step in range(length - 1):
                mid = "i%d" % next(fresh)
                arcs.append((prev, mid))
                prev = mid
            arcs.append((prev, dst))

    for p in pts:
        add_paths(name[p], name[p.shift(1)], 3, 3)
    for ((a, b), c) in s.transitions:
        m = count_table[c]
        add_paths(name[a], name[b], m, m)
    return Digraph.make(name.values(), arcs)


def _as_simple(g):
    if isinstance(g, ColoredGraph):
        return g.graph
    return g


def brute_graph_oracle(kind: str, g, h) -> bool:
    """Exhaustive enumeration of vertex maps for small instances.

    kinds: iso_colored (color-preserving isomorphism of colored graphs),
    hom (graph homomorphism), edge_injective_hom (homomorphism injective on
    vertices and hence on edges; vertex collapse would identify distinct
    periodic orbits, so this is the notion matched by shift embeddings),
    compaction (edge-surjective homomorphism).  Raises TooLarge beyond 8
    vertices per side.
    """
    gs, hs = _as_simple(g), _as_simple(h)
    if len(gs.vertices) > BRUTE_CAP or len(hs.vertices) > BRUTE_CAP:
        raise TooLarge("brute oracle capped at %d vertices" % BRUTE_CAP)
    if kind == "iso_colored":
        if not isinstance(g, ColoredGraph) or not isinstance(h, ColoredGraph):
            raise ValueError("iso_colored needs colored graphs")
        if len(gs.vertices) != len(hs.vertices) or len(gs.edges) != len(hs.edges):
            return False
        gv = sorted(gs.vertices)
        for perm in itertools.permutations(sorted(hs.vertices)):
            m = dict(zip(gv, perm))
            if any(g.color[v] != h.color[m[v]] for v in gv):
                continue
            if {frozenset((m[a], m[b])) for (a, b) in map(tuple, gs.edges)} == hs.edges:
                return True
        return False
    if kind not in ("hom", "edge_injective_hom", "compaction"):
        raise ValueError("unknown oracle kind %r" % (kind,))
    gv = sorted(gs.vertices)
    hv = sorted(hs.vertices)
    g_edges = [tuple(sorted(e)) for e in sorted(gs.edges, key=sorted)]
    for choice in itertools.product(hv, repeat=len(gv)):
        m = dict(zip(gv, choice))
        images = [frozenset((m[a], m[b])) for (a, b) in g_edges]
        if any(im not in hs.edges for im in images):
            continue
        if kind == "hom":
            return True
        if kind == "edge_injective_hom" and len(set(choice)) == len(gv):
            return True
        if kind == "compaction" and set(images) == set(hs.edges):
            return True
    return False


def _fixed_point_graph(d: Digraph) -> StructureGraph:
    """The `_graph_shift` of d with one fixed point per vertex: the
    diagonal class of a vertex has its number of loops plus one as its
    count, and each other vertex pair its number of arcs.  Vertices are
    indexed depth first along out-arcs, from roots by degree descending,
    then `str`, and named "v" plus the padded index, so `search` takes them
    in index order, most right after a neighbour whose image has already
    narrowed their choices."""
    degree, succ = Counter(), {}
    for (a, b) in d.arcs:
        degree[a] += 1
        degree[b] += 1
        succ.setdefault(a, []).append(b)
    index = {}
    # the roots wait at the bottom of the stack, the first on top
    stack = sorted(d.vertices, key=lambda v: (-degree[v], str(v)), reverse=True)
    while stack:
        v = stack.pop()
        if v not in index:
            index[v] = len(index)
            stack += reversed(succ.get(v, ()))
    width = len(str(len(index)))
    return _graph_shift({v: PeriodicOrbit(("v%0*d" % (width, i),))
                         for v, i in index.items()}, d.arcs)


def digraph_isomorphic(g: Digraph, h: Digraph) -> bool:
    """Isomorphism of directed multigraphs, parallel arcs counted, decided
    as conjugacy of their fixed-point graphs (`_fixed_point_graph`) by
    `decide`.  Raises BudgetExceeded once the search takes more than
    `core.DEFAULT_BUDGET` nodes.

    Its answers are exact.  Each shift class between fixed points is one
    vertex pair, so a conjugacy is a vertex bijection under which every
    pair keeps its count: loops and arc multiplicities are kept.  It maps
    classes one to one and both graphs have equally many, so every class
    of h has a preimage, and non-arcs go to non-arcs.
    """
    if len(g.vertices) != len(h.vertices) or len(g.arcs) != len(h.arcs):
        return False
    return decide(Mode.CONJUGACY, _fixed_point_graph(g),
                  _fixed_point_graph(h)) is not None
