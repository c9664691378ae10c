"""Seeded input generators, frozen here so that later edits to the test
suite's generators cannot shift a benchmark workload.

The logic follows the test suite's chain, certified-graph, comb-rep,
structure-graph, simple-graph and period-multiset generators at the commit
that introduced this benchmark.  Only library constructors are called; every
random choice is drawn from the `random.Random` passed in.
"""

import random
from math import lcm

from sofic2 import core, presentation, reductions
from sofic2.errors import InvalidCombRep


def chain_graph(k):
    """Two fixed-point loops joined by k doubled transitional edges; the
    transition count between them is exactly 2**k."""
    edges = [("q0", "q0", "0"), ("q%d" % k, "q%d" % k, "3")]
    for i in range(k):
        edges.append(("q%d" % i, "q%d" % (i + 1), "1"))
        edges.append(("q%d" % i, "q%d" % (i + 1), "2"))
    return core.LabeledGraph.make([], edges)


def make_structure(diagonals):
    """diagonals: [(root word, diagonal count)]."""
    counts = {}
    orbits = []
    for root, c in diagonals:
        o = core.PeriodicOrbit(core.word(root))
        orbits.append(o)
        for r in range(o.period):
            counts[(o.point(r), o.point(r))] = c
    return core.StructureGraph.make(orbits, counts)


def periods_structure(periods, tag=0):
    """Rank-1 structure graph with the given orbit periods, roots minted
    from fresh symbols."""
    diags = []
    for i, p in enumerate(periods):
        diags.append((tuple("t%d_%d_%d" % (tag, i, k) for k in range(p)), 1))
    return make_structure(diags)


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
                core.CombRep.make([core.CombTerm(tuple(us), tuple(vs))])
                terms.append(core.CombTerm(tuple(us), tuple(vs)))
                break
            except InvalidCombRep:
                continue
        else:
            raise RuntimeError("could not draw a valid term")
    return core.CombRep.make(terms)


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
                if not add_edge(vs[i], vs[(i + 1) % length], s):
                    raise RuntimeError("fresh cycle vertex reused")
            return vs

        n_src = rng.randint(1, 2)
        n_snk = rng.randint(0, 2)
        sources = [add_cycle("s%d" % i, rng.randint(1, 3)) for i in range(n_src)]
        sinks = [add_cycle("k%d" % i, rng.randint(1, 3)) for i in range(n_snk)]
        mids = []
        budget = max_vertices - sum(map(len, sources)) - sum(map(len, sinks))
        if sinks:
            for _pi in range(rng.randint(0, 4)):
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
        g = presentation.trim_essential(core.LabeledGraph.make([], edges))
        if g.is_empty() or len(g.vertices) > max_vertices:
            continue
        rep = presentation.analyze(g)
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
            o = core.canonicalize_point(w, 0).orbit
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
    s = core.StructureGraph.make(orbits, counts)
    s.validate()
    return s


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
        return reductions.SimpleGraph.make(touched, edges)


def sub_rng(seed, name):
    """Independent stream per input family, so adding draws to one family
    leaves the others unchanged."""
    return random.Random("%s:%d" % (name, seed))
