"""The admission gate against reference copies of its parts.

`reference_make`, `reference_trim`, `reference_check_right_resolving` and
`reference_cycle_certificate` are the definitional versions: every label is
checked character by character, trimming always rebuilds the graph,
right-resolving is checked vertex by vertex, and the certificate runs
Tarjan's algorithm on vertex names, with dicts and sets for its marks, over
each vertex's sorted successor set, then certifies the components in a
second pass.  On seeded random graphs the library must give the same
results, or raise the same exception class with the same message."""

import random

import pytest

from sofic2 import (LabeledGraph, analyze, build_structure, check_right_resolving,
                    synthesize, trim_essential)
from sofic2 import core
from sofic2.core import _check_symbol, canonicalize_point
from sofic2.errors import NotCountableCertified, NotRightResolving, RankTooHigh
from sofic2.presentation import _cycle_certificate, admit

from conftest import (by_name, chain_graph, in_map, out_map, random_certified_graph,
                      random_structure_graph)


def reference_check_symbol(s):
    if not isinstance(s, str) or not s or any(c.isspace() for c in s):
        raise ValueError("bad symbol token: %r" % (s,))
    return s


def reference_make(vertices, edges):
    vs = set(vertices)
    es = []
    for (a, b, s) in edges:
        reference_check_symbol(s)
        vs.add(a)
        vs.add(b)
        es.append((a, b, s))
    return LabeledGraph(frozenset(vs), tuple(sorted(es)))


def reference_trim(g):
    indeg = dict.fromkeys(g.vertices, 0)
    outdeg = dict.fromkeys(g.vertices, 0)
    for (a, b, _s) in g.edges:
        outdeg[a] += 1
        indeg[b] += 1
    queue = [v for v in g.vertices if not indeg[v] or not outdeg[v]]
    gone = set(queue)
    outs, ins = out_map(g), in_map(g)
    while queue:
        v = queue.pop()
        for (deg, nbrs) in ((indeg, outs[v]), (outdeg, ins[v])):
            for (w, _s) in nbrs:
                deg[w] -= 1
                if not deg[w] and w not in gone:
                    gone.add(w)
                    queue.append(w)
    return reference_make(g.vertices - gone, [(a, b, s) for (a, b, s) in g.edges
                                              if a not in gone and b not in gone])


def reference_check_right_resolving(g):
    bad = []
    outs = out_map(g)
    for v in sorted(g.vertices):
        seen = {}
        for (b, s) in outs.get(v, ()):
            seen[s] = seen.get(s, 0) + 1
        bad.extend((v, s) for (s, n) in sorted(seen.items()) if n >= 2)
    return bad


def _tarjan_sccs(vertices, succ):
    """Iterative Tarjan on vertex names; returns SCCs in reverse
    topological order."""
    index = {}
    low = {}
    on_stack = set()
    stack = []
    sccs = []
    counter = [0]
    for root in sorted(vertices):
        if root in index:
            continue
        work = [(root, iter(succ.get(root, ())))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succ.get(w, ()))))
                    advanced = True
                    break
                elif w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                low[pv] = min(low[pv], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(tuple(comp))
    return sccs


def reference_cycle_certificate(g):
    outs = out_map(g)
    succ = {v: sorted({b for (b, s) in outs[v]}) for v in g.vertices}
    sccs = _tarjan_sccs(g.vertices, succ)
    comp_of = {v: i for i, comp in enumerate(sccs) for v in comp}
    best = []
    cycles = []
    label = {}
    deep = None
    for i, comp in enumerate(sccs):
        nxt = {}
        n_internal = 0
        succ_best = 0
        for v in comp:
            for (b, s) in outs[v]:
                j = comp_of[b]
                if j == i:
                    n_internal += 1
                    nxt[v] = b
                    label[v] = s
                else:
                    succ_best = max(succ_best, best[j])
        start = min(comp, key=str)
        if n_internal:
            if n_internal != len(comp):
                return None, None, None, start
            order = [start]
            while nxt[order[-1]] != start:
                order.append(nxt[order[-1]])
            cycles.append(tuple(order))
        best.append(succ_best + (n_internal > 0))
        if best[-1] >= 3 and deep is None:
            deep = start
    cycles.sort(key=lambda c: (len(c), c))
    return tuple(cycles), label, max(best, default=0), deep


def named_certificate(g):
    """`_cycle_certificate(g)` with its position tuples and its label list
    keyed back to vertex names, the form `reference_cycle_certificate`
    gives."""
    cycles, label, rank, vertex = _cycle_certificate(g)
    if cycles is None:
        return cycles, label, rank, vertex
    verts = g.index[0]
    return (tuple(tuple(verts[v] for v in c) for c in cycles), by_name(g, label),
            rank, vertex)


def named_admit(g):
    """`admit(g)` as (graph, points keyed by vertex name), the form
    `reference_admit` gives."""
    h, points = admit(g)
    return h, by_name(h, points)


def reference_admit(g):
    bad = reference_check_right_resolving(g)
    if bad:
        raise NotRightResolving("label collisions at %s" % core._clip(repr(bad[:5])))
    g = reference_trim(g)
    cycles, label, rank, vertex = reference_cycle_certificate(g)
    if cycles is None:
        raise NotCountableCertified(
            "the component of vertex %s is not a single cycle" % core._clip(repr(vertex)))
    if rank > 2:
        raise RankTooHigh("a path from the cycle through vertex %s visits "
                          "three or more cycles" % core._clip(repr(vertex)))
    points = {}
    for cyc in cycles:
        start = canonicalize_point(tuple(label[v] for v in cyc))
        points.update((v, start.shift(a)) for a, v in enumerate(cyc))
    return g, points


def outcome(f, *args):
    """f's result, or the class and message of what it raised."""
    try:
        return f(*args)
    except (ValueError, NotRightResolving, NotCountableCertified, RankTooHigh) as e:
        return (type(e), str(e))


def random_edges(rng):
    """Edges and extra vertices of a random presentation: one to four
    disjoint cycles joined by forward paths (rank up to four), and at
    random an edge between any two vertices (which may join cycles), a
    label collision, dangling tails and sources, and isolated vertices.
    Some graphs name every vertex past the 60 characters that a refusal
    quotes."""
    edges = []
    used = set()

    def add(a, b, collide=False):
        taken = sorted(s for (v, s) in used if v == a)
        free = [s for s in "abc" if s not in taken]
        s = rng.choice(taken) if collide and taken else rng.choice(free or "abc")
        used.add((a, s))
        edges.append((a, b, s))

    cycles = []
    for i in range(rng.randint(1, 4)):
        vs = ["c%d_%d" % (i, k) for k in range(rng.randint(1, 3))]
        for k, v in enumerate(vs):
            add(v, vs[(k + 1) % len(vs)])
        cycles.append(vs)
    mids = 0
    for _ in range(rng.randint(0, 5)):
        i = rng.randrange(len(cycles))
        j = rng.randrange(i, len(cycles))
        if i == j:
            continue
        path = [rng.choice(cycles[i])]
        for _h in range(rng.randint(0, 2)):
            path.append("m%d" % mids)
            mids += 1
        path.append(rng.choice(cycles[j]))
        for (a, b) in zip(path, path[1:]):
            add(a, b)
    every = sorted({v for e in edges for v in e[:2]})
    if rng.random() < 0.3:
        add(rng.choice(every), rng.choice(every))
    if rng.random() < 0.2:
        add(rng.choice(every), rng.choice(every), collide=True)
    if rng.random() < 0.3:
        add(rng.choice(every), "d0")
        add("d0", "d1")
    if rng.random() < 0.3:
        add("s0", rng.choice(every))
    extra = ["i0"] if rng.random() < 0.2 else []
    rng.shuffle(edges)
    if rng.random() < 0.3:
        long = "v" * 61
        extra = [long + v for v in extra]
        edges = [(long + a, long + b, s) for (a, b, s) in edges]
    return extra, edges


BAD_LABELS = ["", " ", "a b", "x\t", "　", "\x1c", "a ", 5, None, b"a"]


def test_admission_matches_reference():
    rng = random.Random(4242)
    kinds, clipped = set(), set()
    for _ in range(600):
        extra, edges = random_edges(rng)
        g = LabeledGraph.make(extra, edges)
        assert g == reference_make(extra, edges)
        trimmed = trim_essential(g)
        assert trimmed == reference_trim(g)
        assert check_right_resolving(g) == reference_check_right_resolving(g)
        assert named_certificate(trimmed) == reference_cycle_certificate(trimmed)
        got = outcome(named_admit, g)
        want = outcome(reference_admit, g)
        if isinstance(want, tuple) and isinstance(want[0], type):
            assert got == want
            kinds.add(want[0])
            if " characters)" in want[1]:
                clipped.add(want[0])
        else:
            assert got == want
            kinds.add("admitted")
        kinds.add("essential" if trimmed is g else "trimmed")
    assert kinds == {"admitted", NotRightResolving, NotCountableCertified, RankTooHigh,
                     "essential", "trimmed"}
    # each refusal also ran through the clip, on a long vertex name
    assert clipped == {NotRightResolving, NotCountableCertified, RankTooHigh}


def test_certified_graphs_match_reference():
    rng = random.Random(77)
    for _ in range(200):
        g = random_certified_graph(rng)
        assert trim_essential(g) is g
        assert named_certificate(g) == reference_cycle_certificate(g)
        assert named_admit(g) == reference_admit(g)


def test_long_and_synthesized_graphs_match_reference():
    # the shapes admission is tuned on: doubled-edge chains, and synthesized
    # presentations of about 400 vertices
    rng = random.Random(1913)
    graphs = [chain_graph(128), chain_graph(1024)]
    while len(graphs) < 5:
        g = synthesize(random_structure_graph(rng, max_orbits=20, max_count=100))
        if 300 <= len(g.vertices) <= 500:
            graphs.append(g)
    for g in graphs:
        assert named_certificate(g) == reference_cycle_certificate(g)
        assert named_admit(g) == reference_admit(g)


def test_int_vertex_names_are_ordered_by_str():
    # by str, 10 is below 9, though its position is above: the cycle starts
    # at 10, and the refusal names 10
    edges = [(9, 10, "a"), (10, 9, "b"), (10, 11, "c"), (11, 11, "d")]
    assert analyze(LabeledGraph.make([], edges)).cycles == ((11,), (10, 9))
    with pytest.raises(NotCountableCertified, match="^the component of vertex 10 is"):
        admit(LabeledGraph.make([], edges + [(9, 9, "c")]))


def test_int_named_graphs_match_reference():
    rng = random.Random(4243)
    for _ in range(400):
        extra, edges = random_edges(rng)
        named = sorted({v for e in edges for v in e[:2]} | set(extra))
        # ints of one to four digits, so str order and int order disagree
        to_int = dict(zip(named, rng.sample(range(1, 2000), len(named))))
        g = LabeledGraph.make([to_int[v] for v in extra],
                              [(to_int[a], to_int[b], s) for (a, b, s) in edges])
        trimmed = trim_essential(g)
        assert named_certificate(trimmed) == reference_cycle_certificate(trimmed)
        assert outcome(named_admit, g) == outcome(reference_admit, g)


def test_bad_labels_match_reference():
    rng = random.Random(9)
    for _ in range(300):
        extra, edges = random_edges(rng)
        for _k in range(rng.randint(1, 2)):
            i = rng.randrange(len(edges))
            a, b, _s = edges[i]
            edges[i] = (a, b, rng.choice(BAD_LABELS))
        want = outcome(reference_make, extra, edges)
        assert isinstance(want, tuple) and want[0] is ValueError
        assert outcome(LabeledGraph.make, extra, edges) == want


def test_check_symbol_agrees_with_isspace_on_every_code_point():
    def refused(s):
        try:
            _check_symbol(s)
        except ValueError:
            return True
        return False

    mismatches = [cp for cp in range(0x110000)
                  if refused(chr(cp)) != chr(cp).isspace()]
    assert mismatches == []
    for s in ["", "ab", "a b", " x", "x\u0085", "tok_1"]:
        assert refused(s) == (not s or any(c.isspace() for c in s))
    for s in [None, 5, b"a", ("a",)]:
        assert refused(s)


def test_make_names_the_first_bad_label_in_edge_order():
    edges = [("v", "w", "a"), ("w", "v", "b c"), ("a", "a", ""), ("v", "v", "b c")]
    with pytest.raises(ValueError, match=r"^bad symbol token: 'b c'$"):
        LabeledGraph.make([], edges)
    with pytest.raises(ValueError, match=r"^bad symbol token: ''$"):
        LabeledGraph.make([], [edges[2], edges[1]])
    with pytest.raises(ValueError, match=r"^bad symbol token: \['a'\]$"):
        LabeledGraph.make([], [edges[0], ("v", "v", ["a"])])


@pytest.fixture
def make_calls(monkeypatch):
    """Counts calls of LabeledGraph.make while the test runs."""
    calls = []
    real = LabeledGraph.make.__func__

    def counting(cls, vertices, edges):
        calls.append(1)
        return real(cls, vertices, edges)

    monkeypatch.setattr(core.LabeledGraph, "make", classmethod(counting))
    return calls


def test_essential_input_is_admitted_without_a_rebuild(fig1_graph, make_calls):
    rng = random.Random(3)
    graphs = [fig1_graph, chain_graph(6)]
    graphs += [synthesize(random_structure_graph(rng)) for _ in range(5)]
    del make_calls[:]
    for g in graphs:
        assert trim_essential(g) is g
        assert admit(g).graph is g
        assert analyze(g).is_essential
        build_structure(g)
    assert make_calls == []


def test_trimmed_input_is_not_rebuilt_through_make(make_calls):
    g = reference_make([], [("u", "u", "a"), ("u", "w", "b"), ("x", "u", "c")])
    assert not analyze(g).is_essential
    t = trim_essential(g)
    assert t == reference_make([], [("u", "u", "a")])
    assert admit(g).graph == t
    build_structure(g)
    assert make_calls == []
