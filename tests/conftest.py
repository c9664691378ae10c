"""Shared fixtures and seeded random generators for the test suite."""

import itertools
import random
from math import lcm

import pytest

from sofic2 import (
    CombRep,
    LabeledGraph,
    Mode,
    PeriodicOrbit,
    StructureGraph,
    analyze,
    build_structure,
    canonicalize_point,
    comb_rep,
    from_comb_rep,
    trim_essential,
    word,
)
from sofic2.core import CombTerm
from sofic2.errors import InvalidCombRep

FIG1_TERMS = [("0", "1", "0"), ("0", "", "12"), ("0", "", "13"),
              ("12", "1", "13"), ("12", "2", "13")]


@pytest.fixture(scope="session")
def fig1_graph():
    return from_comb_rep(comb_rep(FIG1_TERMS))


@pytest.fixture(scope="session")
def fig1_structure(fig1_graph):
    return build_structure(fig1_graph)


def chain_graph(k):
    """Two fixed-point loops joined by k doubled transitional edges; the
    transition count between them is exactly 2**k."""
    edges = [("q0", "q0", "0"), ("q%d" % k, "q%d" % k, "3")]
    for i in range(k):
        edges.append(("q%d" % i, "q%d" % (i + 1), "1"))
        edges.append(("q%d" % i, "q%d" % (i + 1), "2"))
    return LabeledGraph.make([], edges)


def out_map(g):
    """Each vertex name -> its out edges as (target, label) pairs in edge
    order: the name-keyed adjacency that the reference copies in the tests
    read, independent of `LabeledGraph.index`."""
    m = {v: [] for v in sorted(g.vertices)}
    for (a, b, s) in g.edges:
        m[a].append((b, s))
    return m


def in_map(g):
    """Each vertex name -> its in edges as (source, label) pairs in edge
    order."""
    m = {v: [] for v in sorted(g.vertices)}
    for (a, b, s) in g.edges:
        m[b].append((a, s))
    return m


def by_name(g, per_position):
    """A list aligned with the positions of `g.index`, such as an admitted
    point list or the certificate's labels, as a dict keyed by vertex name,
    with its None entries left out."""
    verts = g.index[0]
    return {verts[v]: x for v, x in enumerate(per_position) if x is not None}


def words_of_length(g, n):
    """All length-n label words of paths in the essential part of g (the
    n-blocks of the presented shift); exponential output."""
    g = trim_essential(g)
    succ = out_map(g)
    frontier = {(): frozenset(g.vertices)}
    for _ in range(n):
        nxt = {}
        for w, vs in frontier.items():
            for v in sorted(vs):
                for (b, s) in succ.get(v, ()):
                    key = w + (s,)
                    nxt.setdefault(key, set()).add(b)
        frontier = {w: frozenset(vs) for w, vs in nxt.items()}
    return set(frontier)


def make_structure(diagonals, cross=()):
    """diagonals: [(root word, diagonal count)]; cross: [((root, phase),
    (root, phase), count)] expanded over simultaneous shifts."""
    counts = {}
    orbits = []
    for root, c in diagonals:
        o = PeriodicOrbit(word(root))
        orbits.append(o)
        for r in range(o.period):
            counts[(o.point(r), o.point(r))] = c
    for ((r1, p1), (r2, p2), c) in cross:
        x = canonicalize_point(r1, p1)
        y = canonicalize_point(r2, p2)
        for t in range(lcm(x.period, y.period)):
            counts[(x.shift(t), y.shift(t))] = c
    return StructureGraph.make(orbits, counts)


def periods_structure(periods, tag=0):
    """Rank-1 structure graph with the given orbit periods, roots minted
    from fresh symbols."""
    diags = []
    for i, p in enumerate(periods):
        diags.append((tuple("t%d_%d_%d" % (tag, i, k) for k in range(p)), 1))
    return make_structure(diags)


def fixed_points_structure(name, k, every=True, extra=None):
    """k fixed points name00, name01, ..., each with a count-1 diagonal,
    joined by a count-1 transition from every one to every other when
    `every`, else by one from the first to the second; plus, given
    `extra`, one orbit of that period."""
    diags = [(("%s%02d" % (name, i),), 1) for i in range(k)]
    if extra:
        diags.append((tuple("%s_%d" % (name, r) for r in range(extra)), 1))
    arcs = itertools.permutations(range(k), 2) if every else [(0, 1)]
    return make_structure(diags, [((diags[i][0], 0), (diags[j][0], 0), 1)
                                  for i, j in arcs])


def budget_exhausting_noes(k):
    """Two NO pairs that periods alone settle, as (mode, source, target),
    on which a search without that gate takes over 10^6 nodes at k = 10:
    k + 1 fixed points with one transition into k fixed points with every
    transition plus a period-2 orbit (embed), and k fixed points with
    every transition plus a period-2 orbit onto k - 2 with every transition
    plus a period-3 orbit (factor)."""
    return [(Mode.EMBEDDING, fixed_points_structure("a", k + 1, every=False),
             fixed_points_structure("b", k, extra=2)),
            (Mode.FACTOR, fixed_points_structure("a", k, extra=2),
             fixed_points_structure("b", k - 2, extra=3))]


def rename_structure(s, suffix):
    """Structure graph with every symbol renamed by appending a suffix;
    conjugate to s by construction."""
    def ren_word(w):
        return tuple("%s%s" % (sym, suffix) for sym in w)

    def ren_point(p):
        return canonicalize_point(ren_word(p.orbit.root), p.phase)

    counts = {(ren_point(a), ren_point(b)): c for ((a, b), c) in s.transitions}
    orbits = {ren_point(o.point(0)).orbit for o in s.orbits}
    return StructureGraph.make(orbits, counts)


# -- random generators --------------------------------------------------------


def random_word(rng, alphabet, min_len=1, max_len=3):
    return tuple(rng.choice(alphabet) for _ in range(rng.randint(min_len, max_len)))


def random_comb_rep(rng, max_arity=2, n_terms=None, alphabet="012"):
    """Random valid CombRep (junctions re-rolled until aperiodic)."""
    n_terms = n_terms or rng.randint(1, 4)
    terms = []
    for _ in range(n_terms):
        for _attempt in range(50):
            m = rng.randint(0, max_arity)
            us = [random_word(rng, alphabet) for _ in range(m + 1)]
            vs = [random_word(rng, alphabet, 0, 2) for _ in range(m)]
            try:
                CombRep.make([CombTerm(tuple(us), tuple(vs))])
                terms.append(CombTerm(tuple(us), tuple(vs)))
                break
            except InvalidCombRep:
                continue
        else:
            raise AssertionError("could not draw a valid term")
    return CombRep.make(terms)


def random_certified_graph(rng, max_vertices=12, alphabet="abc"):
    """Random right-resolving presentation with disjoint cycles and rank at
    most 2: source cycles, sink cycles, and random transitional paths that
    may share intermediate vertices and include doubled edges."""
    while True:
        used_out = {}
        edges = []

        def add_edge(a, b, s):
            if (a, s) in used_out:
                return False
            used_out[(a, s)] = b
            edges.append((a, b, s))
            return True

        def add_cycle(name, length):
            vs = ["%s_%d" % (name, i) for i in range(length)]
            for i in range(length):
                s = rng.choice(alphabet)
                assert add_edge(vs[i], vs[(i + 1) % length], s)
            return vs

        n_src = rng.randint(1, 2)
        n_snk = rng.randint(0, 2)
        sources = [add_cycle("s%d" % i, rng.randint(1, 3)) for i in range(n_src)]
        sinks = [add_cycle("k%d" % i, rng.randint(1, 3)) for i in range(n_snk)]
        mids = []
        budget = max_vertices - sum(map(len, sources)) - sum(map(len, sinks))
        if sinks:
            for pi in range(rng.randint(0, 4)):
                src = rng.choice(rng.choice(sources))
                dst = rng.choice(rng.choice(sinks))
                hops = rng.randint(0, min(2, max(0, budget)))
                path = [src]
                for _h in range(hops):
                    if mids and rng.random() < 0.4:
                        path.append(rng.choice(mids))
                    else:
                        v = "m%d" % len(mids)
                        mids.append(v)
                        budget -= 1
                        path.append(v)
                path.append(dst)
                ok = True
                for (a, b) in zip(path, path[1:]):
                    tried = list(alphabet)
                    rng.shuffle(tried)
                    for s in tried:
                        if add_edge(a, b, s):
                            break
                    else:
                        ok = False
                        break
                if not ok:
                    continue
                # sometimes double an edge of this path with a fresh label
                if rng.random() < 0.3 and len(path) >= 2:
                    a, b = path[0], path[1]
                    for s in alphabet:
                        if add_edge(a, b, s):
                            break
        g = trim_essential(LabeledGraph.make([], edges))
        if g.is_empty() or len(g.vertices) > max_vertices:
            continue
        rep = analyze(g)
        if rep.is_right_resolving and rep.is_countable_certified \
                and rep.rank in (1, 2):
            return g


def random_structure_graph(rng, max_orbits=6, max_period=4, max_count=10,
                           alphabet="abcd"):
    """Random well-formed structure graph (shift-equivariant by class
    construction, diagonals always present)."""
    orbits = []
    seen = set()
    for _ in range(rng.randint(1, max_orbits)):
        for _attempt in range(50):
            w = random_word(rng, alphabet, 1, max_period)
            o = canonicalize_point(w, 0).orbit
            if o not in seen:
                seen.add(o)
                orbits.append(o)
                break
    counts = {}
    for o in orbits:
        c = rng.randint(1, max_count)
        for r in range(o.period):
            counts[(o.point(r), o.point(r))] = c
    for _ in range(rng.randint(0, 2 * len(orbits))):
        o1, o2 = rng.choice(orbits), rng.choice(orbits)
        x = o1.point(rng.randrange(o1.period))
        y = o2.point(rng.randrange(o2.period))
        if any(x.shift(t) == y.shift(t) for t in range(lcm(x.period, y.period))):
            continue  # keep diagonal classes purely diagonal
        c = rng.randint(1, max_count)
        for t in range(lcm(x.period, y.period)):
            counts[(x.shift(t), y.shift(t))] = c
    return StructureGraph.make(orbits, counts)


def random_simple_graph(rng, max_vertices=6, name="uvwxyz"):
    """Random simple graph without isolated vertices (>= 1 edge)."""
    while True:
        n = rng.randint(2, max_vertices)
        vs = list(name[:n])
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.5:
                    edges.append((vs[i], vs[j]))
        if not edges:
            continue
        touched = {v for e in edges for v in e}
        from sofic2 import SimpleGraph
        return SimpleGraph.make(touched, edges)


def random_colored_graph(rng, max_vertices=7):
    """Random properly {0,1}-colored graph without isolated vertices."""
    from sofic2 import ColoredGraph
    while True:
        n = rng.randint(2, max_vertices)
        vs = ["c%d" % i for i in range(n)]
        colors = {v: rng.randint(0, 1) for v in vs}
        edges = [(a, b)
                 for i, a in enumerate(vs) for b in vs[i + 1:]
                 if colors[a] != colors[b] and rng.random() < 0.6]
        touched = {v for e in edges for v in e}
        if not edges:
            continue
        colors = {v: c for v, c in colors.items() if v in touched}
        return ColoredGraph.make(colors, edges)
