"""Hardness gadgets and brute-force graph oracles."""

import hashlib
import itertools
import random
import time
from collections import Counter

import pytest

from sofic2 import (
    ColoredGraph,
    Digraph,
    Mode,
    PeriodicOrbit,
    SimpleGraph,
    StructureGraph,
    brute_graph_oracle,
    build_structure,
    canonicalize_point,
    comb_rep,
    decide,
    digraph_count_table,
    digraph_gadget,
    digraph_isomorphic,
    formats,
    from_comb_rep,
    gi_gadget,
    hom_gadget,
    oracle_structure,
    reductions,
)
from sofic2.cli import main
from sofic2.core import _check_symbol, refine_colors
from sofic2.errors import (BudgetExceeded, ImproperColoring, IsolatedVertex,
                           ReservedSymbol, SizeLimitExceeded, SoficError, TooLarge)

from conftest import (
    make_structure,
    periods_structure,
    random_colored_graph,
    random_simple_graph,
    random_structure_graph,
    rename_structure,
)


def path_graph(names):
    return SimpleGraph.make(names, list(zip(names, names[1:])))


def complete_graph(names):
    return SimpleGraph.make(names, [(a, b) for i, a in enumerate(names)
                                    for b in names[i + 1:]])


def cycle_graph(names):
    n = len(names)
    return SimpleGraph.make(names, [(names[i], names[(i + 1) % n])
                                    for i in range(n)])


def test_gi_gadget_single_edge():
    g = ColoredGraph.make({"u": 0, "v": 1}, [("u", "v")])
    s = gi_gadget(g)
    u, v = canonicalize_point("u"), canonicalize_point("v")
    assert dict(s.transitions) == {(u, u): 1, (v, v): 1, (u, v): 1}


def test_gi_gadget_matches_presentation_pipeline():
    # the gadget equals the structure graph of the union of u* v* languages
    g = ColoredGraph.make({"u": 0, "v": 1, "w": 0}, [("u", "v"), ("w", "v")])
    s1 = gi_gadget(g)
    s2 = build_structure(from_comb_rep(comb_rep([
        ("u", "", "v"), ("w", "", "v")])))
    assert s1 == s2


def test_gi_gadget_validation():
    with pytest.raises(IsolatedVertex):
        gi_gadget(ColoredGraph.make({"u": 0, "v": 1, "w": 0}, [("u", "v")]))
    with pytest.raises(ImproperColoring):
        ColoredGraph.make({"u": 0, "v": 0}, [("u", "v")])


def test_colored_graph_names_the_least_edge_joining_equal_colors():
    # the edge named does not hang on the hash order of the edge set
    for i in range(20):
        a, b, c, d = ("%s%d" % (x, i) for x in "abcd")
        with pytest.raises(ImproperColoring,
                           match=r"^edge \['%s', '%s'\] joins" % (a, b)):
            ColoredGraph.make(dict.fromkeys((a, b, c, d), 0),
                              [(c, d), (a, d), (b, a)])


def test_colored_graph_refuses_an_uncoloured_vertex():
    with pytest.raises(ImproperColoring, match="vertex 'w' lacks a 0/1 color"):
        ColoredGraph.make({"u": 0, "v": 1}, [("u", "v"), ("v", "w")])


def test_gi_gadget_isomorphic_triangles_with_pendant():
    c1 = ColoredGraph.make({"a": 0, "b": 1, "c": 0, "d": 1},
                           [("a", "b"), ("b", "c"), ("c", "d")])
    c2 = ColoredGraph.make({"w": 1, "x": 0, "y": 1, "z": 0},
                           [("x", "w"), ("w", "z"), ("z", "y")])
    assert brute_graph_oracle("iso_colored", c1, c2)
    assert decide(Mode.CONJUGACY, gi_gadget(c1), gi_gadget(c2)) is not None


def test_hom_gadget_structure():
    hg = hom_gadget(SimpleGraph.make([], [("u", "v")]))
    assert all(o.period == 2 for o in hg.orbits)
    offdiag = [((a, b), c) for ((a, b), c) in hg.transitions if a != b]
    assert len(offdiag) == 8 and all(c == 1 for (_e, c) in offdiag)


def test_hom_gadget_matches_oracle_on_direct_presentation():
    from sofic2.reductions import MARKER
    hg = hom_gadget(SimpleGraph.make([], [("u", "v")]))
    terms = []
    for (a, b) in (("u", "v"), ("v", "u")):
        terms.append(((MARKER, a), (), (MARKER, b)))
        terms.append(((MARKER, a), (), (b, MARKER)))
    g = from_comb_rep(comb_rep(terms))
    assert hg == oracle_structure(g)


def hom_presentation(g):
    """A presentation of the shift that `hom_gadget` encodes: the union of
    (m u)*(m v)* and (m u)*(v m)* over the edges {u, v} in both directions,
    where m is the marker."""
    m = reductions.MARKER
    raw = []
    for e in sorted(g.edges, key=sorted):
        for (u, v) in (tuple(sorted(e)), tuple(sorted(e))[::-1]):
            raw.append(((m, u), (), (m, v)))
            raw.append(((m, u), (), (v, m)))
    return from_comb_rep(comb_rep(raw))


def reference_hom_gadget(g):
    """The former `hom_gadget`, kept as its reference: its refusals, then
    the structure builder run on `hom_presentation`, so the junction phases
    come from the real configurations rather than a hand-derived pattern."""
    reductions._no_isolated(g)
    for v in sorted(g.vertices):
        _check_symbol(v)
        if v == reductions.MARKER:
            raise ReservedSymbol("vertex name %r collides with the marker symbol"
                                 % (reductions.MARKER,))
    return build_structure(hom_presentation(g))


# vertex names that sort before, after and around the marker "%"
_NAMES = ("!", "#", "$", "&", "(", "0", "9", "A", "Z", "a", "~", "%%", "%a",
          "x%", "\u00e9", "v12", "\u0665")


def _named_graph(rng, max_vertices):
    names = rng.sample(_NAMES, rng.randint(2, max_vertices))
    while True:
        edges = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]
                 if rng.random() < 0.4]
        if edges:
            return SimpleGraph.make((v for e in edges for v in e), edges)


def test_hom_gadget_matches_the_presentation_route():
    rng = random.Random(35)
    graphs = [SimpleGraph.make([], [])]
    graphs += [_named_graph(rng, 4 if i % 3 else 9) for i in range(330)]
    sizes = set()
    for g in graphs:
        hg = hom_gadget(g)
        assert hg == reference_hom_gadget(g), g
        sizes.add(len(g.vertices))
        if len(g.vertices) <= 3:
            assert hg == oracle_structure(hom_presentation(g)), g
    assert hom_gadget(graphs[0]).is_empty()
    assert sizes == set(range(10)) - {1}, sizes


# The count tables that `_graph_shift` replaced, kept as references: each
# wrote the one encoding out for its own gadget.

def reference_gi_table(g):
    pts = {}
    for v in sorted(g.graph.vertices):
        pts[v] = PeriodicOrbit((v,)).point(0)
    counts = {(p, p): 1 for p in pts.values()}
    for e in sorted(g.graph.edges, key=sorted):
        a, b = sorted(e)
        if g.color[a] == 1:
            a, b = b, a
        counts[(pts[a], pts[b])] = 1
    return StructureGraph.make([p.orbit for p in pts.values()], counts)


def reference_hom_table(g):
    m = reductions.MARKER
    pts = {v: canonicalize_point((m, v)).orbit.points for v in g.vertices}
    counts = {(p[0], p[0]): 1 for p in pts.values()}
    counts.update(((pts[u][0], y), 1) for e in g.edges
                  for (u, v) in itertools.permutations(e) for y in pts[v])
    return StructureGraph.make((), counts)


def reference_fixed_point_graph(d):
    degree, succ = Counter(), {}
    for (a, b) in d.arcs:
        degree[a] += 1
        degree[b] += 1
        succ.setdefault(a, []).append(b)
    index = {}
    stack = sorted(d.vertices, key=lambda v: (-degree[v], str(v)), reverse=True)
    while stack:
        v = stack.pop()
        if v not in index:
            index[v] = len(index)
            stack += reversed(succ.get(v, ()))
    width = len(str(len(index)))
    pts = {v: PeriodicOrbit(("v%0*d" % (width, i),)).point(0)
           for v, i in index.items()}
    counts = Counter((pts[a], pts[b]) for (a, b) in d.arcs)
    counts.update((p, p) for p in pts.values())
    return StructureGraph.make((), counts)


def _colored_graph(rng):
    names = rng.sample(_NAMES, rng.randint(2, 9))
    color = {v: rng.randint(0, 1) for v in names}
    edges = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]
             if color[a] != color[b] and rng.random() < 0.6]
    touched = {v for e in edges for v in e}
    return ColoredGraph.make({v: color[v] for v in touched}, edges)


def test_every_gadget_equals_its_former_count_table():
    rng = random.Random(36)
    loops = parallel = 0
    for i in range(330):
        g = _named_graph(rng, 4 if i % 3 else 9)
        assert hom_gadget(g) == reference_hom_table(g), g
        c = _colored_graph(rng)
        assert gi_gadget(c) == reference_gi_table(c), c
        names = rng.sample(_NAMES + ("%",), rng.randint(1, 6))
        d = Digraph.make(names, [(rng.choice(names), rng.choice(names))
                                 for _ in range(rng.randint(0, 12))])
        assert reductions._fixed_point_graph(d) == reference_fixed_point_graph(d), d
        loops += any(a == b for (a, b) in d.arcs)
        parallel += len(set(d.arcs)) < len(d.arcs)
    assert loops > 100 and parallel > 100, (loops, parallel)
    empty = ColoredGraph.make({}, [])
    assert gi_gadget(empty) == reference_gi_table(empty)
    assert hom_gadget(SimpleGraph.make([], [])).is_empty()
    assert reductions._fixed_point_graph(Digraph.make([], [])).is_empty()


def test_names_of_mixed_types_are_refused_or_sorted():
    # simple and coloured graphs refuse names that do not sort together
    for build in (lambda: hom_gadget(SimpleGraph.make([], [(1, "a")])),
                  lambda: ColoredGraph.make({1: 0, "a": 1}, [(1, "a")])):
        with pytest.raises(SoficError, match="^vertex names that do not sort together: "):
            build()
    # a digraph sorts them by type name first, and answers as before
    d = Digraph.make([], [("a", 1), (1, "a")])
    assert d.arcs == ((1, "a"), ("a", 1))
    assert digraph_isomorphic(d, Digraph.make([], [("x", "y"), ("y", "x")]))
    assert not digraph_isomorphic(d, Digraph.make([], [("x", "y"), ("x", "y")]))
    assert digraph_isomorphic(Digraph.make([], [(1, "a")]), Digraph.make([], [("b", 2)]))
    # names of one type keep their order
    rng = random.Random(37)
    for names in (_NAMES, range(-5, 5)):
        arcs = [(rng.choice(names), rng.choice(names)) for _ in range(60)]
        assert Digraph.make([], arcs).arcs == tuple(sorted(arcs))


def test_hom_gadget_refuses_what_the_presentation_route_refuses():
    cases = [SimpleGraph.make(["u", "v", "w"], [("u", "v")]),
             SimpleGraph.make([], [("%", "u")]),
             SimpleGraph.make([], [("a b", "u")]),
             SimpleGraph.make([], [("", "u")]),
             SimpleGraph.make([], [(7, 8)]),
             SimpleGraph.make(["lone"], [("%", "u"), ("a b", "u")])]
    for g in cases:
        refusals = []
        for build in (hom_gadget, reference_hom_gadget):
            with pytest.raises((SoficError, ValueError)) as info:
                build(g)
            refusals.append((type(info.value), str(info.value)))
        assert refusals[0] == refusals[1], refusals


def test_hom_gadget_p3_k3():
    P3 = path_graph("uvw")
    K3 = complete_graph("abc")
    for kind, mode in (("hom", Mode.BLOCK_MAP),
                       ("edge_injective_hom", Mode.EMBEDDING),
                       ("compaction", Mode.FACTOR)):
        want = brute_graph_oracle(kind, P3, K3)
        got = decide(mode, hom_gadget(P3), hom_gadget(K3)) is not None
        assert want == got


def test_hom_gadget_single_edges_both_ways():
    e1 = SimpleGraph.make([], [("u", "v")])
    e2 = SimpleGraph.make([], [("x", "y")])
    assert decide(Mode.BLOCK_MAP, hom_gadget(e1), hom_gadget(e2)) is not None
    assert decide(Mode.BLOCK_MAP, hom_gadget(e2), hom_gadget(e1)) is not None
    assert decide(Mode.CONJUGACY, hom_gadget(e1), hom_gadget(e2)) is not None


def test_brute_oracle_examples():
    C5 = cycle_graph("abcde")
    C3 = cycle_graph("abc")
    K3 = complete_graph("xyz")
    assert brute_graph_oracle("hom", C5, K3)
    assert not brute_graph_oracle("hom", C3, cycle_graph("vwxyz"))
    sq1 = ColoredGraph.make({"a": 0, "b": 1, "c": 0, "d": 1},
                            [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
    sq2 = ColoredGraph.make({"p": 1, "q": 0, "r": 1, "s": 0},
                            [("q", "p"), ("p", "s"), ("s", "r"), ("r", "q")])
    assert brute_graph_oracle("iso_colored", sq1, sq2)
    with pytest.raises(TooLarge):
        brute_graph_oracle("hom", complete_graph("abcdefghi"), K3)


def test_brute_compaction_onto_edge():
    # any connected bipartite graph with an edge compacts onto a single edge
    g = path_graph("uvwxyz")
    e = SimpleGraph.make([], [("a", "b")])
    assert brute_graph_oracle("compaction", g, e)
    # a triangle cannot map into a single edge at all
    assert not brute_graph_oracle("hom", cycle_graph("abc"), e)


def test_hom_correspondence_random():
    rng = random.Random(103)
    for _ in range(25):
        g = random_simple_graph(rng, max_vertices=5)
        h = random_simple_graph(rng, max_vertices=4)
        hg, hh = hom_gadget(g), hom_gadget(h)
        for kind, mode in (("hom", Mode.BLOCK_MAP),
                           ("edge_injective_hom", Mode.EMBEDDING),
                           ("compaction", Mode.FACTOR)):
            assert brute_graph_oracle(kind, g, h) == \
                (decide(mode, hg, hh) is not None), (kind, g, h)


def test_gi_correspondence_random():
    rng = random.Random(107)
    for _ in range(40):
        g = random_colored_graph(rng, max_vertices=6)
        h = random_colored_graph(rng, max_vertices=6)
        assert brute_graph_oracle("iso_colored", g, h) == \
            (decide(Mode.CONJUGACY, gi_gadget(g), gi_gadget(h)) is not None)


def test_digraph_gadget_fixed_point():
    s = gi_gadget(ColoredGraph.make({"u": 0, "v": 1}, [("u", "v")]))
    table = digraph_count_table(s)
    d = digraph_gadget(s, table)
    # per point: 3 rotation paths of length 3; per count-1 edge: 4 paths of
    # length 4 (3 transition edges in total)
    assert len(d.arcs) == 2 * 3 * 3 + 3 * 4 * 4
    assert len(d.vertices) == 2 + 2 * 3 * 2 + 3 * 4 * 3


def test_digraph_gadget_faithful(fig1_structure):
    from conftest import rename_structure, random_structure_graph
    renamed = rename_structure(fig1_structure, "z")
    table = digraph_count_table(fig1_structure, renamed)
    assert digraph_isomorphic(digraph_gadget(fig1_structure, table),
                              digraph_gadget(renamed, table))
    rng = random.Random(109)
    for _ in range(25):
        s = random_structure_graph(rng, max_orbits=3, max_period=3, max_count=4)
        t = random_structure_graph(rng, max_orbits=3, max_period=3, max_count=4)
        table = digraph_count_table(s, t)
        same = digraph_isomorphic(digraph_gadget(s, table),
                                  digraph_gadget(t, table))
        assert same == (decide(Mode.CONJUGACY, s, t) is not None)


# sha256 of the gadget files below, recorded before `digraph_gadget` read
# the points in `s.points()` order instead of sorting them
DIGRAPH_GADGET_DIGEST = (
    "1f0cbf891dfbea0203eaa2210801dc8544b91ad56371f84474cb4a487f527677")


def test_digraph_gadget_output_is_pinned():
    h = hashlib.sha256()
    rng = random.Random(127)
    for _ in range(60):
        s = random_structure_graph(rng, max_orbits=4, max_period=4, max_count=5)
        t = random_structure_graph(rng, max_orbits=3, max_period=3, max_count=5)
        h.update(formats.format_digraph(digraph_gadget(s)).encode())
        h.update(formats.format_digraph(
            digraph_gadget(s, digraph_count_table(s, t))).encode())
    h.update(formats.format_digraph(
        digraph_gadget(periods_structure([1, 2, 3, 3]))).encode())
    assert h.hexdigest() == DIGRAPH_GADGET_DIGEST


def test_digraph_isomorphic_needs_no_recursion():
    from conftest import periods_structure
    # 1140 gadget vertices each: deeper than the default recursion limit
    s, t = periods_structure([1] * 60), periods_structure([1] * 60, tag=1)
    table = digraph_count_table(s, t)
    g, h = digraph_gadget(s, table), digraph_gadget(t, table)
    assert len(g.vertices) == len(h.vertices) == 1140
    assert digraph_isomorphic(g, h)


def test_digraph_isomorphic_stops_at_the_node_budget(monkeypatch):
    # arcs make the fixed-point graphs rank 2, so `search` decides them,
    # under the default budget of `decide`, here set to 1
    monkeypatch.setattr(decide, "__defaults__", (1,))
    g = Digraph.make(range(3), [(0, 1), (1, 2)])
    h = Digraph.make("abc", [("c", "a"), ("a", "b")])
    with pytest.raises(BudgetExceeded, match="more than 1 nodes"):
        digraph_isomorphic(g, h)


def test_digraph_gadget_empty():
    from sofic2 import StructureGraph
    d = digraph_gadget(StructureGraph.make((), {}))
    assert not d.vertices and not d.arcs


def test_digraph_gadget_refuses_a_table_without_a_count():
    # a SoficError that names the missing count, clipped through core._clip
    # past 60 characters, where a bare KeyError escaped
    with pytest.raises(SoficError, match="^no path length for count 2$"):
        digraph_gadget(make_structure([(("a",), 2)]), {1: 4})
    # 2**15000 has 4,516 digits, past Python's default int/str limit
    with pytest.raises(SoficError) as info:
        digraph_gadget(make_structure([(("a",), 2 ** 15000)]), {1: 4})
    text = str(info.value)
    assert text.endswith("... (4516 characters)") and len(text) < 150, text


def test_digraph_gadget_counts_its_arcs_before_building(monkeypatch):
    # the cap admits a gadget of exactly its size and refuses one arc more,
    # so the count taken before building is the number of arcs built
    rng = random.Random(131)
    for _ in range(20):
        s = random_structure_graph(rng, max_orbits=4, max_period=4, max_count=5)
        d = digraph_gadget(s)
        monkeypatch.setattr(reductions, "MAX_DIGRAPH_ARCS", len(d.arcs))
        assert digraph_gadget(s) == d
        monkeypatch.setattr(reductions, "MAX_DIGRAPH_ARCS", len(d.arcs) - 1)
        with pytest.raises(SizeLimitExceeded, match="needs %d arcs" % len(d.arcs)):
            digraph_gadget(s)
        monkeypatch.undo()


def test_digraph_gadget_refuses_an_oversized_output_up_front(tmp_path, capsys):
    # 200 fixed points with diagonal counts 2..201 take path lengths 4..203:
    # a 9KB structure file whose gadget would have 2.81M arcs
    s = make_structure([(("p%03d" % i,), i + 2) for i in range(200)])
    arcs = 9 * 200 + sum(m * m for m in range(4, 204))
    path = tmp_path / "counts.sg"
    path.write_text(formats.format_structure(s))
    start = time.perf_counter()
    with pytest.raises(SizeLimitExceeded) as info:
        digraph_gadget(s)
    assert main(["reduce", "--gadget", "digraph", str(path)]) == 2
    assert time.perf_counter() - start < 0.1
    assert str(info.value) == ("the digraph gadget needs %d arcs, more than %d"
                               % (arcs, reductions.MAX_DIGRAPH_ARCS))
    assert capsys.readouterr().err == "error: SizeLimitExceeded: %s\n" % info.value
    assert len(path.read_text()) < 10000 and arcs > 2800000


def test_hom_gadget_refuses_isolated():
    with pytest.raises(IsolatedVertex):
        hom_gadget(SimpleGraph.make(["u", "v", "w"], [("u", "v")]))


def test_hom_gadget_refuses_the_marker_as_a_vertex():
    with pytest.raises(ReservedSymbol, match="marker"):
        hom_gadget(SimpleGraph.make(["%", "u"], [("%", "u")]))


def _directed_cycles(*lengths):
    arcs = []
    for c, n in enumerate(lengths):
        arcs += [("c%d_%d" % (c, i), "c%d_%d" % (c, (i + 1) % n)) for i in range(n)]
    return Digraph.make([], arcs)


def _digraph_colors(g):
    """Color refinement of a digraph by the multisets of out- and
    in-neighbour colors, arcs counted with multiplicity."""
    outs, ins = {}, {}
    for (a, b) in g.arcs:
        outs.setdefault(a, []).append(b)
        ins.setdefault(b, []).append(a)
    return refine_colors(g.vertices, lambda color, v: (
        tuple(sorted(color[w] for w in outs.get(v, ()))),
        tuple(sorted(color[w] for w in ins.get(v, ())))))


def test_digraph_isomorphic_backtracks_when_refinement_is_silent():
    six, threes = _directed_cycles(6), _directed_cycles(3, 3)
    # every vertex has one arc in and one out: refinement keeps one color,
    # so only backtracking tells the two apart
    for g in (six, threes):
        assert set(_digraph_colors(g).values()) == {0}
    assert not digraph_isomorphic(six, threes)
    assert not digraph_isomorphic(threes, six)
    order = [0, 3, 1, 4, 2, 5]
    relabelled = Digraph.make([], [("v%d" % order[i], "v%d" % order[(i + 1) % 6])
                                   for i in range(6)])
    assert digraph_isomorphic(six, relabelled)


def _random_digraph(rng, n, max_arcs):
    # loops and parallel arcs allowed
    names = ["u%d" % i for i in range(n)]
    arcs = [(rng.choice(names), rng.choice(names))
            for _ in range(rng.randint(0, max_arcs))]
    return Digraph.make(names, arcs)


def _relabelled(rng, g):
    vs = sorted(g.vertices, key=str)
    new = ["w%d" % i for i in range(len(vs))]
    rng.shuffle(new)
    name = dict(zip(vs, new))
    return Digraph.make(new, [(name[a], name[b]) for (a, b) in g.arcs])


def _one_arc_moved(rng, g):
    arcs = list(g.arcs)
    i = rng.randrange(len(arcs))
    a, b = arcs[i]
    vs = sorted(g.vertices, key=str)
    arcs[i] = (a, rng.choice(vs)) if rng.random() < 0.5 else (rng.choice(vs), b)
    return Digraph.make(g.vertices, arcs)


def test_digraph_isomorphic_agrees_with_networkx():
    import networkx as nx

    def nx_graph(d, nodes):
        m = nx.MultiDiGraph()
        m.add_nodes_from(nodes)
        m.add_edges_from(d.arcs)
        return m

    def nx_isomorphic(g, h):
        gs = []
        for d in (g, h):
            m = nx_graph(d, d.vertices)
            # VF2 extends a match in node order; depth first from the
            # highest degrees keeps it along the gadgets' paths, which it
            # otherwise takes minutes on
            roots = sorted(m, key=lambda v: (-m.degree(v), str(v)))
            gs.append(nx_graph(d, nx.dfs_preorder_nodes(nx_graph(d, roots))))
        return nx.is_isomorphic(*gs)

    rng = random.Random(127)
    pairs = {"random": [], "twins": [], "moved": [], "gadgets": []}
    for _ in range(150):
        n = rng.randint(1, 6)
        g = _random_digraph(rng, n, 2 * n)
        pairs["random"].append((g, _random_digraph(rng, n, 2 * n)))
        twin = _relabelled(rng, g)
        pairs["twins"].append((g, twin))
        if g.arcs:
            pairs["moved"].append((g, _one_arc_moved(rng, twin)))
    for i in range(30):
        s = random_structure_graph(rng, max_orbits=3, max_period=2, max_count=2)
        t = rename_structure(s, "z") if i % 2 else random_structure_graph(
            rng, max_orbits=3, max_period=2, max_count=2)
        table = digraph_count_table(s, t)
        pairs["gadgets"].append((digraph_gadget(s, table),
                                 _relabelled(rng, digraph_gadget(t, table))))
    for kind, group in pairs.items():
        answers = set()
        for g, h in group:
            want = nx_isomorphic(g, h)
            assert digraph_isomorphic(g, h) == want, (kind, g, h)
            answers.add(want)
        # every family has isomorphic and non-isomorphic pairs, except the
        # relabelled twins, which are all isomorphic
        assert answers == ({True} if kind == "twins" else {True, False}), kind


def test_brute_oracle_refuses_an_unknown_kind_before_enumerating(monkeypatch):
    import itertools

    def enumerated(*args, **kwargs):
        raise AssertionError("maps enumerated before the kind was checked")

    monkeypatch.setattr(itertools, "product", enumerated)
    with pytest.raises(ValueError, match="unknown oracle kind 'homm'"):
        brute_graph_oracle("homm", cycle_graph("abcdefg"), cycle_graph("tuvwxyz"))


def test_iso_colored_oracle_refuses_plain_graphs():
    with pytest.raises(ValueError, match="iso_colored needs colored graphs"):
        brute_graph_oracle("iso_colored", cycle_graph("abc"), cycle_graph("xyz"))
