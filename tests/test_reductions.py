"""Hardness gadgets and brute-force graph oracles."""

import hashlib
import random

import pytest

from sofic2 import (
    ColoredGraph,
    Digraph,
    Mode,
    SimpleGraph,
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
)
from sofic2.core import refine_colors
from sofic2.errors import (BudgetExceeded, ImproperColoring, IsolatedVertex,
                           ReservedSymbol, TooLarge)

from conftest import (
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
