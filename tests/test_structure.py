"""Structure graph computation, oracle agreement and synthesis."""

import random

import pytest

from sofic2 import (
    LabeledGraph,
    Mode,
    build_structure,
    canonicalize_point,
    decide,
    oracle_structure,
    synthesize,
    verify_witness,
)
from sofic2.errors import (
    BudgetExceeded,
    NotCountableCertified,
    NotRightResolving,
    RankTooHigh,
)

from conftest import (
    chain_graph,
    make_structure,
    random_certified_graph,
    random_structure_graph,
)


def pt(root, phase=0):
    return canonicalize_point(root, phase)


def test_fig1_structure_exact(fig1_structure):
    s = fig1_structure
    assert len(s.points()) == 5
    expected = {
        (pt("0"), pt("0")): 2,
        (pt("0"), pt("12", 0)): 1,
        (pt("0"), pt("12", 1)): 1,
        (pt("0"), pt("13", 0)): 1,
        (pt("0"), pt("13", 1)): 1,
        (pt("12", 0), pt("12", 0)): 1,
        (pt("12", 1), pt("12", 1)): 1,
        (pt("13", 0), pt("13", 0)): 1,
        (pt("13", 1), pt("13", 1)): 1,
        (pt("12", 0), pt("13", 1)): 2,
        (pt("12", 1), pt("13", 0)): 2,
    }
    assert dict(s.transition_map) == expected


def test_single_self_loop():
    s = build_structure(LabeledGraph.make([], [("v", "v", "a")]))
    assert s.transition_map == {(pt("a"), pt("a")): 1}


def test_chain_counts_are_exact_powers():
    for k in (1, 10, 32, 64):
        s = build_structure(chain_graph(k))
        assert s.count(pt("0"), pt("3")) == 2 ** k
    assert oracle_structure(chain_graph(10), 2048).count(pt("0"), pt("3")) == 1024


def test_chain_is_already_essential():
    from sofic2 import trim_essential
    g = chain_graph(5)
    assert trim_essential(g) == g


def test_oracle_budget_exceeded():
    with pytest.raises(BudgetExceeded):
        oracle_structure(chain_graph(10), 100)


def test_refusals():
    nonrr = LabeledGraph.make([], [("v", "v", "a"), ("v", "w", "a"),
                                   ("w", "v", "b")])
    with pytest.raises(NotRightResolving):
        build_structure(nonrr)
    uncountable = LabeledGraph.make([], [("v", "v", "a"), ("v", "v", "b")])
    with pytest.raises(NotCountableCertified, match="vertex 'v'"):
        build_structure(uncountable)
    joint = LabeledGraph.make([], [("x", "x", "a"), ("x", "y", "b"),
                                   ("y", "z", "a"), ("z", "y", "b"),
                                   ("z", "z", "c")])
    with pytest.raises(NotCountableCertified, match="vertex 'y'"):
        oracle_structure(joint)
    from sofic2 import comb_rep, from_comb_rep
    rank3 = from_comb_rep(comb_rep([("0", "1", "2", "3", "4")]))
    with pytest.raises(RankTooHigh, match="vertex 'm0'"):
        build_structure(rank3)
    with pytest.raises(RankTooHigh, match="vertex 'm0'"):
        oracle_structure(rank3)
    # the first cycle, from the sinks up, whose paths reach three cycles
    chain3 = LabeledGraph.make([], [("u", "u", "a"), ("u", "v", "b"),
                                    ("v", "v", "c"), ("v", "w", "d"),
                                    ("w", "w", "e")])
    with pytest.raises(RankTooHigh, match="vertex 'u'"):
        build_structure(chain3)


def _clone_vertex(rng, g):
    """A presentation of the same shift with one vertex split in two: the
    clone copies the vertex's out-edges and takes over some of its
    in-edges.  Sometimes also adds a stray edge, which may change the shift
    or break right-resolving."""
    v = rng.choice([u for u in sorted(g.vertices) if len(g.in_map[u]) >= 2]
                   or sorted(g.vertices))
    edges = list(g.edges) + [("clone", b, s) for (a, b, s) in g.edges if a == v]
    into_v = [k for k, (_a, b, _s) in enumerate(edges) if b == v]
    moved = set(rng.sample(into_v, rng.randint(1, len(into_v) - 1))
                if len(into_v) >= 2 else ())
    edges = [(a, "clone" if k in moved else b, s)
             for k, (a, b, s) in enumerate(edges)]
    if rng.random() < 0.3:
        ends = sorted({x for e in edges for x in e[:2]})
        edges.append((rng.choice(ends), rng.choice(ends), rng.choice("abc")))
    return LabeledGraph.make([], edges)


def _outcome(f, g):
    try:
        return f(g)
    except (NotRightResolving, NotCountableCertified, RankTooHigh) as e:
        return type(e)


def test_build_ignores_minimization():
    # build_structure never minimizes: on non-minimal presentations it must
    # agree with building from the minimized one, refusals included
    from sofic2 import minimize_right_resolving
    rng = random.Random(3131)
    refused = set()
    for _ in range(300):
        h = _clone_vertex(rng, random_certified_graph(rng, max_vertices=10))
        direct = _outcome(build_structure, h)
        via_min = _outcome(lambda g: build_structure(minimize_right_resolving(g)), h)
        assert direct == via_min
        if isinstance(direct, type):
            refused.add(direct)
    assert refused == {NotRightResolving, NotCountableCertified, RankTooHigh}


def test_disjoint_cycles_only():
    g = LabeledGraph.make([], [("u", "u", "a"), ("v", "v", "b")])
    s = build_structure(g)
    assert dict(s.transition_map) == {(pt("a"), pt("a")): 1, (pt("b"), pt("b")): 1}


def test_duplicate_parse_counted_once():
    # two same-label departures from a non-primitive cycle reaching merged
    # futures present one configuration, not two
    g = LabeledGraph.make([], [
        ("x", "y", "a"), ("y", "x", "a"),
        ("x", "M", "b"), ("y", "M", "b"),
        ("M", "N", "c"), ("N", "N", "d"),
        ("x", "p", "e"), ("p", "p", "f"),
    ])
    s = build_structure(g)
    assert s.count(pt("a"), pt("d")) == 1
    assert s == oracle_structure(g)


def test_minimization_leftover_duplicate_role_cycles():
    # regression: minimized reducible presentation keeping two cycles that
    # present the same orbit in the same role; counting must still be exact
    g = LabeledGraph.make([], [
        ("m0", "m1", "c"), ("m1", "m0", "a"),
        ("m2", "m3", "c"), ("m3", "m4", "c"), ("m4", "m2", "a"),
        ("m5", "m0", "c"), ("m6", "m0", "a"),
        ("m6", "m6", "c"), ("m7", "m1", "b"),
        ("m7", "m5", "a"), ("m7", "m8", "c"), ("m8", "m7", "c"),
    ])
    assert build_structure(g) == oracle_structure(g)


def test_source_and_sink_cycles_same_label():
    # 0*10* needs two 0-cycles; the diagonal picks up the isolated orbit
    g = LabeledGraph.make([], [("u", "u", "0"), ("u", "v", "1"),
                               ("v", "v", "0")])
    s = build_structure(g)
    assert s.count(pt("0"), pt("0")) == 2
    assert s == oracle_structure(g)


def test_nonprimitive_sink_cycle_label():
    g = LabeledGraph.make([], [
        ("s", "s", "a"), ("s", "t1", "c"),
        ("t1", "t2", "b"), ("t2", "t1", "b"),
    ])
    s = build_structure(g)
    assert s == oracle_structure(g)
    assert s.count(pt("a"), pt("b")) == 1


def test_nonprimitive_source_with_departures_from_both_phases():
    g = LabeledGraph.make([], [
        ("x", "y", "a"), ("y", "x", "a"),
        ("x", "u", "b"), ("u", "u", "c"),
        ("y", "v", "d"), ("v", "v", "e"),
    ])
    s = build_structure(g)
    assert s == oracle_structure(g)
    assert s.count(pt("a"), pt("c")) == 1
    assert s.count(pt("a"), pt("e")) == 1


def test_merged_then_split_futures():
    # both phases of an aa-cycle step into one hub that fans out; the two
    # configurations per sink collapse to one each
    g = LabeledGraph.make([], [
        ("x", "y", "a"), ("y", "x", "a"),
        ("x", "h", "b"), ("y", "h", "b"),
        ("h", "u", "c"), ("u", "u", "e"),
        ("h", "v", "d"), ("v", "v", "f"),
    ])
    s = build_structure(g)
    assert s == oracle_structure(g)
    assert s.count(pt("a"), pt("e")) == 1
    assert s.count(pt("a"), pt("f")) == 1


def test_same_orbit_junctions_get_phase_structure():
    from sofic2 import comb_rep, from_comb_rep
    g = from_comb_rep(comb_rep([("ab", "c", "ab")]))
    s = build_structure(g)
    assert s == oracle_structure(g)
    assert s.count(pt("ab", 0), pt("ab", 1)) == 1
    assert s.count(pt("ab", 1), pt("ab", 0)) == 1
    assert s.count(pt("ab", 0), pt("ab", 0)) == 1
    g2 = from_comb_rep(comb_rep([("ab", "aa", "ab")]))
    s2 = build_structure(g2)
    assert s2 == oracle_structure(g2)
    assert s2.count(pt("ab", 0), pt("ab", 0)) == 2
    assert s2.count(pt("ab", 0), pt("ab", 1)) == 0


def test_shift_equivariance_of_counts():
    rng = random.Random(53)
    for _ in range(40):
        s = build_structure(random_certified_graph(rng))
        for ((a, b), c) in s.transitions:
            assert s.count(a.shift(1), b.shift(1)) == c


def test_oracle_equivalence_random():
    rng = random.Random(59)
    for _ in range(120):
        g = random_certified_graph(rng)
        assert build_structure(g) == oracle_structure(g, 10 ** 5)


def test_synthesize_trivial_fixed_point():
    s = make_structure([("a", 1)])
    g = synthesize(s)
    assert len(g.vertices) == 1 and len(g.edges) == 1
    w = decide(Mode.CONJUGACY, build_structure(g), s)
    assert w is not None


def test_synthesize_count_five_self_loop():
    s = make_structure([("a", 5)])
    g = synthesize(s)
    b = build_structure(g)
    assert b == oracle_structure(g)
    assert decide(Mode.CONJUGACY, b, s) is not None


def test_synthesize_fig1_round_trip(fig1_structure):
    g = synthesize(fig1_structure)
    b = build_structure(g)
    assert b == oracle_structure(g)
    w = decide(Mode.CONJUGACY, b, fig1_structure)
    assert w is not None and verify_witness(Mode.CONJUGACY, b, fig1_structure, w)


def test_synthesize_same_orbit_phase_shift_edge():
    # transition between different phases of one orbit
    s = make_structure([("ab", 1)], [(("ab", 0), ("ab", 1), 3)])
    g = synthesize(s)
    b = build_structure(g)
    assert b == oracle_structure(g)
    assert decide(Mode.CONJUGACY, b, s) is not None


def test_synthesize_round_trip_random():
    rng = random.Random(61)
    for _ in range(60):
        s = random_structure_graph(rng)
        g = synthesize(s)
        b = build_structure(g)
        w = decide(Mode.CONJUGACY, b, s)
        assert w is not None
        assert verify_witness(Mode.CONJUGACY, b, s, w)


def test_synthesize_output_is_right_resolving_and_certified():
    from sofic2 import analyze
    rng = random.Random(67)
    for _ in range(20):
        s = random_structure_graph(rng)
        rep = analyze(synthesize(s))
        assert rep.is_right_resolving
        assert rep.is_essential
        assert rep.is_countable_certified
        assert rep.rank in (1, 2)


def test_empty_graph_structures():
    s = build_structure(LabeledGraph.make([], []))
    assert s.is_empty()
    assert oracle_structure(LabeledGraph.make(["w"], [])).is_empty()


def _long_cycle_graph(rng):
    """One cycle of 256-1024 vertices (its word sometimes a power) with one
    to three departures, each a short path to a fixed point or to a cycle
    of period at most 3."""
    n = rng.randint(256, 1024)
    root = [rng.choice("ab") for _ in range(n // rng.choice((1, 2, 4)))]
    w = root * (n // len(root))
    n = len(w)
    edges = [("c%d" % i, "c%d" % ((i + 1) % n), w[i]) for i in range(n)]
    sinks = []
    for k in range(rng.randint(1, 2)):
        m = rng.randint(1, 3)
        sinks.append(["k%d_%d" % (k, i) for i in range(m)])
        edges += [(sinks[k][i], sinks[k][(i + 1) % m], rng.choice("01"))
                  for i in range(m)]
    for d in range(rng.randint(1, 3)):
        path = (["c%d" % rng.randrange(n)]
                + ["m%d_%d" % (d, i) for i in range(rng.randint(0, 2))]
                + [rng.choice(rng.choice(sinks))])
        for i, (a, b) in enumerate(zip(path, path[1:])):
            edges.append((a, b, "x%d_%d" % (d, i)))
        if rng.random() < 0.5:
            edges.append((path[0], path[1], "y%d" % d))
    return LabeledGraph.make([], edges)


def test_long_periods_match_oracle():
    rng = random.Random(401)
    for _ in range(6):
        g = _long_cycle_graph(rng)
        s = build_structure(g)
        assert s == oracle_structure(g)
        assert max(o.period for o in s.orbits) >= 64


def _reach(adj, v):
    """Vertices reachable from v by one or more edges."""
    seen, todo = set(), [v]
    while todo:
        for b in adj[todo.pop()]:
            if b not in seen:
                seen.add(b)
                todo.append(b)
    return seen


def test_admit_names_each_cycle_vertex_point():
    from sofic2.presentation import admit
    rng = random.Random(71)
    graphs = [random_certified_graph(rng) for _ in range(60)]
    rng = random.Random(401)
    graphs += [_long_cycle_graph(rng) for _ in range(6)]
    for g in graphs:
        adm = admit(g)
        h = adm.graph
        fwd = {v: [b for (b, _s) in h.out_map[v]] for v in h.vertices}
        bwd = {v: [a for (a, _s) in h.in_map[v]] for v in h.vertices}
        cycles = {}  # least vertex of each cycle -> its vertex set
        on_cycle = set()
        for v in h.vertices:
            comp = set() if v in on_cycle else _reach(fwd, v) & _reach(bwd, v)
            if v in comp:
                cycles[min(comp)] = comp
                on_cycle |= comp
        assert set(adm.points) == on_cycle
        for start, comp in cycles.items():
            order, word = [start], []
            while True:
                (b, s), = [(b, s) for (b, s) in h.out_map[order[-1]] if b in comp]
                word.append(s)
                if b == start:
                    break
                order.append(b)
            m = len(order)
            assert m == len(comp)
            for k, v in enumerate(order):
                x = adm.points[v]
                assert all(x.at(t) == word[(k + t) % m] for t in range(x.period))
