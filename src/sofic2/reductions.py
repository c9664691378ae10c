"""Hardness gadget generators and the brute-force graph oracles used to
validate the decision procedures against classical graph problems."""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from .core import (
    PeriodicOrbit,
    StructureGraph,
    _check_symbol,
    comb_rep,
    refine_colors,
)
from .errors import ImproperColoring, IsolatedVertex, ReservedSymbol, TooLarge
from .presentation import from_comb_rep
from .structure import build_structure

BRUTE_CAP = 8


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected graph without self-loops or parallel edges."""

    vertices: frozenset
    edges: frozenset  # frozensets of size 2

    @classmethod
    def make(cls, vertices, edges) -> "SimpleGraph":
        vs = set(vertices)
        es = set()
        for e in edges:
            a, b = tuple(e)
            if a == b:
                raise ValueError("self-loop %r" % (a,))
            vs |= {a, b}
            es.add(frozenset((a, b)))
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
                raise ImproperColoring("vertex %r lacks a 0/1 color" % (v,))
        for e in g.edges:
            a, b = tuple(e)
            if colors[a] == colors[b]:
                raise ImproperColoring("edge %r joins equal colors" % (sorted(e),))
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
        return cls(frozenset(vs), tuple(sorted(out)))


def _no_isolated(g: SimpleGraph):
    touched = {v for e in g.edges for v in e}
    lonely = sorted(g.vertices - touched)
    if lonely:
        raise IsolatedVertex("isolated vertices %r" % (lonely,))


def gi_gadget(g: ColoredGraph) -> StructureGraph:
    """Structure graph whose conjugacy class mirrors color-preserving
    isomorphism of g: one fixed point per vertex with a count-1 self
    transition, plus a count-1 transition from the 0-colored endpoint to the
    1-colored endpoint of every edge."""
    _no_isolated(g.graph)
    pts = {}
    for v in sorted(g.graph.vertices):
        _check_symbol(v)
        pts[v] = PeriodicOrbit((v,)).point(0)
    counts = {(p, p): 1 for p in pts.values()}
    for e in sorted(g.graph.edges, key=sorted):
        a, b = sorted(e)
        if g.color[a] == 1:
            a, b = b, a
        counts[(pts[a], pts[b])] = 1
    return StructureGraph.make([p.orbit for p in pts.values()], counts)


MARKER = "%"


def hom_gadget(g: SimpleGraph) -> StructureGraph:
    """Structure graph of the shift that encodes graph homomorphisms from g:
    per vertex u a period-2 orbit spelled MARKER u, and per edge and per
    ordered direction the junction families of (m u)*(m v)* and
    (m u)*(v m)* where m is the fresh marker symbol.

    Computed by presenting the union and running the structure builder, so
    the junction phases come from the real configurations rather than a
    hand-derived pattern.  A vertex named MARKER raises ReservedSymbol.
    """
    _no_isolated(g)
    for v in sorted(g.vertices):
        _check_symbol(v)
        if v == MARKER:
            raise ReservedSymbol("vertex name %r collides with the marker symbol"
                                 % (MARKER,))
    raw = []
    for e in sorted(g.edges, key=sorted):
        for (u, v) in (tuple(sorted(e)), tuple(sorted(e))[::-1]):
            raw.append(((MARKER, u), (), (MARKER, v)))
            raw.append(((MARKER, u), (), (v, MARKER)))
    return build_structure(from_comb_rep(comb_rep(raw)))


def digraph_count_table(*graphs):
    """Shared count -> path-length table (ascending counts mapped to
    4, 5, ...); rotation edges reserve length 3.  Both gadgets of a
    comparison must use one table."""
    counts = sorted({c for s in graphs for (_e, c) in s.transitions})
    return {c: 4 + i for i, c in enumerate(counts)}


def digraph_gadget(s: StructureGraph, count_table=None) -> Digraph:
    """Unlabeled digraph isomorphic-equivalent to the structure graph:
    every rotation edge becomes 3 parallel length-3 paths, every transition
    edge with count k becomes m parallel length-m paths for the table entry
    m of k."""
    if count_table is None:
        count_table = digraph_count_table(s)
    pts = s.points()
    name = {p: "v%d" % i for i, p in enumerate(sorted(pts, key=lambda p: p.sort_key()))}
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

    for p in sorted(pts, key=lambda q: q.sort_key()):
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
    if kind not in ("hom", "edge_injective_hom", "compaction"):
        raise ValueError("unknown oracle kind %r" % (kind,))
    return False


def _refine_colors(g: Digraph):
    """Directed color refinement with arc multiplicities: the colors, and
    the out- and in-neighbour lists."""
    outs = {}
    ins = {}
    for (a, b) in g.arcs:
        outs.setdefault(a, []).append(b)
        ins.setdefault(b, []).append(a)
    color = refine_colors(g.vertices, lambda color, v: (
        tuple(sorted(color[w] for w in outs.get(v, ()))),
        tuple(sorted(color[w] for w in ins.get(v, ())))))
    return color, outs, ins


def digraph_isomorphic(g: Digraph, h: Digraph) -> bool:
    """Backtracking digraph isomorphism with color-refinement pruning, on
    an explicit stack; handles parallel arcs by multiplicity."""
    if len(g.vertices) != len(h.vertices) or len(g.arcs) != len(h.arcs):
        return False
    gc, gout, gin = _refine_colors(g)
    hc, hout, hin = _refine_colors(h)
    if Counter(gc.values()) != Counter(hc.values()):
        return False
    g_mult = Counter(g.arcs)
    h_mult = Counter(h.arcs)
    gv = sorted(g.vertices, key=lambda v: (-(len(gout.get(v, ())) + len(gin.get(v, ()))), str(v)))
    cands = {v: sorted((w for w in h.vertices if hc[w] == gc[v]), key=str) for v in gv}
    mapping = {}
    used = set()

    def consistent(v, w):
        for u in mapping:
            if g_mult.get((v, u), 0) != h_mult.get((w, mapping[u]), 0):
                return False
            if g_mult.get((u, v), 0) != h_mult.get((mapping[u], w), 0):
                return False
        return g_mult.get((v, v), 0) == h_mult.get((w, w), 0)

    # one candidate iterator per vertex of gv being tried, in gv order
    pending = [iter(cands[gv[0]])] if gv else []
    while pending:
        v = gv[len(pending) - 1]
        for w in pending[-1]:
            if w not in used and consistent(v, w):
                mapping[v] = w
                used.add(w)
                break
        else:
            pending.pop()
            if pending:
                used.discard(mapping.pop(gv[len(pending) - 1]))
            continue
        if len(pending) == len(gv):
            return True
        pending.append(iter(cands[gv[len(pending)]]))
    return not gv
