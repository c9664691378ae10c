"""Structure graph computation, oracle agreement and synthesis."""

import hashlib
import random
import time
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from sofic2 import (
    LabeledGraph,
    Mode,
    build_structure,
    canonicalize_point,
    decide,
    formats,
    oracle_structure,
    primitive_root,
    structure,
    synthesize,
    verify_witness,
)
from sofic2.cli import main
from sofic2.errors import (
    BudgetExceeded,
    NotCountableCertified,
    NotRightResolving,
    RankTooHigh,
    SizeLimitExceeded,
)

from conftest import (
    by_name,
    chain_graph,
    in_map,
    make_structure,
    out_map,
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
    assert dict(s.transitions) == expected


def test_single_self_loop():
    s = build_structure(LabeledGraph.make([], [("v", "v", "a")]))
    assert dict(s.transitions) == {(pt("a"), pt("a")): 1}


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
    ins = in_map(g)
    v = rng.choice([u for u in sorted(g.vertices) if len(ins[u]) >= 2]
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
    assert dict(s.transitions) == {(pt("a"), pt("a")): 1, (pt("b"), pt("b")): 1}


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


# sha256 of format_graph(synthesize(s)) over the 200 seed-73 graphs of
# test_synthesize_output_is_pinned, as synthesize returned them when it
# still walked every shift of each transition to find its class
SYNTHESIZE_DIGEST = (
    "2f89ae6a15c8ea0f6f102c42e8c2bc04ef75267eb783797a848aff141d867314")


def test_synthesize_output_is_pinned():
    rng = random.Random(73)
    h = hashlib.sha256()
    several = 0  # orbit pairs whose transitions fall into several classes
    for _ in range(200):
        s = random_structure_graph(rng, max_period=6)
        per_pair = {}
        for ((x, y), _c) in s.transitions:
            per_pair[(x.orbit, y.orbit)] = per_pair.get((x.orbit, y.orbit), 0) + 1
        several += sum(n > lcm(a.period, b.period)
                       for ((a, b), n) in per_pair.items())
        h.update(formats.format_graph(synthesize(s)).encode())
    assert several >= 100
    assert h.hexdigest() == SYNTHESIZE_DIGEST


def test_synthesize_counts_its_edges_before_building(monkeypatch):
    # the cap admits an output of exactly its size and refuses one edge
    # more, so the count taken before building is the number of edges built
    rng = random.Random(137)
    for _ in range(30):
        s = random_structure_graph(rng, max_period=6)
        g = synthesize(s)
        monkeypatch.setattr(structure, "MAX_SYNTHESIZE_EDGES", len(g.edges))
        assert synthesize(s) == g
        monkeypatch.setattr(structure, "MAX_SYNTHESIZE_EDGES", len(g.edges) - 1)
        with pytest.raises(SizeLimitExceeded, match="needs %d edges" % len(g.edges)):
            synthesize(s)
        monkeypatch.undo()


def test_synthesize_refuses_an_oversized_output_up_front(tmp_path, capsys):
    # a count of 2**3000 on a fixed point: a 943-byte structure file whose
    # presentation would have 9,003,002 edges, one per cycle vertex and
    # 2k + 2 per set bit k of the aperiodic count 2**3000 - 1
    s = make_structure([("a", 2 ** 3000)])
    path = tmp_path / "wide.sg"
    path.write_text(formats.format_structure(s))
    edges = 2 + sum(2 * k + 2 for k in range(3000))
    start = time.perf_counter()
    with pytest.raises(SizeLimitExceeded) as info:
        synthesize(s)
    assert main(["synthesize", str(path)]) == 2
    assert time.perf_counter() - start < 0.1
    assert str(info.value) == ("synthesize needs %d edges, more than %d"
                               % (edges, structure.MAX_SYNTHESIZE_EDGES))
    assert capsys.readouterr().err == "error: SizeLimitExceeded: %s\n" % info.value
    assert len(path.read_bytes()) == 943 and edges == 9003002


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


def _two_cycle_graph(rng, p, q, departures):
    """A cycle of period p over {a, b} with `departures` paths of zero to
    two fresh-labeled middle vertices into a cycle of period q over {0, 1};
    both cycle words are primitive."""
    edges = []
    for name, n, alphabet in (("c", p, "ab"), ("k", q, "01")):
        while True:
            w = tuple(rng.choice(alphabet) for _ in range(n))
            if primitive_root(w)[1] == 1:
                break
        edges += [("%s%d" % (name, i), "%s%d" % (name, (i + 1) % n), w[i])
                  for i in range(n)]
    for d in range(departures):
        path = (["c%d" % rng.randrange(p)]
                + ["m%d_%d" % (d, i) for i in range(rng.randint(0, 2))]
                + ["k%d" % rng.randrange(q)])
        edges += [(a, b, "x%d_%d" % (d, i))
                  for i, (a, b) in enumerate(zip(path, path[1:]))]
    return LabeledGraph.make([], edges)


# periods (p, q) and departures of the two-cycle graphs, coprime and not
TWO_CYCLES = ((4, 6, 3), (5, 7, 3), (12, 18, 4), (6, 4, 2), (3, 9, 3))


def _two_cycle_graphs():
    rng = random.Random(409)
    return [_two_cycle_graph(rng, p, q, d) for (p, q, d) in TWO_CYCLES]


def test_two_cycle_builder_matches_oracle():
    for g in _two_cycle_graphs():
        assert build_structure(g) == oracle_structure(g)


# sha256 of format_structure(build_structure(g)) over the graphs of
# test_structure_output_is_pinned, as build_structure returned them when it
# still stored every transition and smeared each anchored count over its
# shift class
STRUCTURE_DIGEST = (
    "44d91b6448b198b91d269d8066d1667c3c003f3f9203b3caf3da80f1719a6b8e")


def test_structure_output_is_pinned():
    rng = random.Random(89)
    graphs = [random_certified_graph(rng) for _ in range(100)]
    rng = random.Random(401)
    graphs += [_long_cycle_graph(rng) for _ in range(6)]
    graphs += _two_cycle_graphs()
    h = hashlib.sha256()
    for g in graphs:
        h.update(formats.format_structure(build_structure(g)).encode())
    assert h.hexdigest() == STRUCTURE_DIGEST


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
        h, points = admit(g)
        points = by_name(h, points)
        outs, ins = out_map(h), in_map(h)
        fwd = {v: [b for (b, _s) in outs[v]] for v in h.vertices}
        bwd = {v: [a for (a, _s) in ins[v]] for v in h.vertices}
        cycles = {}  # least vertex of each cycle -> its vertex set
        on_cycle = set()
        for v in h.vertices:
            comp = set() if v in on_cycle else _reach(fwd, v) & _reach(bwd, v)
            if v in comp:
                cycles[min(comp)] = comp
                on_cycle |= comp
        assert set(points) == on_cycle
        for start, comp in cycles.items():
            order, word = [start], []
            while True:
                (b, s), = [(b, s) for (b, s) in outs[order[-1]] if b in comp]
                word.append(s)
                if b == start:
                    break
                order.append(b)
            m = len(order)
            assert m == len(comp)
            for k, v in enumerate(order):
                x = points[v]
                assert all(x.at(t) == word[(k + t) % m] for t in range(x.period))


def _reference_subset_step(outs, state):
    """(label, successor set) pairs of a set of vertex names, in ascending
    label order; outs is the graph's `out_map`."""
    succ = {}
    for v in state:
        for (b, s) in outs[v]:
            succ.setdefault(s, set()).add(b)
    return [(s, frozenset(succ[s])) for s in sorted(succ)]


def reference_anchored_counts(g, point_of, steps=None):
    """The frontier on sets of vertex names: each state visit looks its
    members' points up again, and steps are cached per frozenset in
    `steps`, which the caller may pass to see every state stepped."""
    seeds = {}
    for v, pt in point_of.items():
        seeds.setdefault(pt, set()).add(v)
    anchored = {}
    steps = {} if steps is None else steps  # state -> its (label, successor set) pairs
    outs = out_map(g)
    for x_hat, start in seeds.items():
        vec = {frozenset(start): 1}
        ell = 0
        while vec:
            if ell > len(steps) + 1:
                raise AssertionError("transitional frontier failed to terminate")
            nxt = {}
            for state, cnt in vec.items():
                if ell:
                    y = point_of.get(next(iter(state)))
                    if y is not None and all(point_of.get(v) == y for v in state):
                        key = (x_hat, y.shift(-ell))
                        anchored[key] = anchored.get(key, 0) + cnt
                        continue
                out = steps.get(state)
                if out is None:
                    out = steps[state] = _reference_subset_step(outs, state)
                for (s, b) in out:
                    if ell or s != x_hat.at(0):
                        nxt[b] = nxt.get(b, 0) + cnt
            vec = nxt
            ell += 1
    return anchored


# chain lengths of test_anchored_counts_match_reference, up to 1024
CHAIN_KS = tuple(range(1, 33)) + (63, 64, 100, 127, 128, 255, 256, 511, 512, 1000, 1024)


def _frontier_corpus():
    """The admitted graphs the frontier is checked on: 1,000 certified
    graphs, 100 synthesized ones and the chains of CHAIN_KS."""
    from sofic2.presentation import admit
    rng = random.Random(1709)
    graphs = [random_certified_graph(rng) for _ in range(1000)]
    rng = random.Random(1723)
    graphs += [synthesize(random_structure_graph(rng)) for _ in range(100)]
    graphs += [chain_graph(k) for k in CHAIN_KS]
    return [admit(g) for g in graphs]


def test_anchored_counts_match_reference():
    from sofic2.structure import _anchored_counts
    transitional = 0
    multi = 0  # graphs whose frontier steps a state of 2+ members, not a seed
    for h, points in _frontier_corpus():
        got = _anchored_counts(h, points)
        stepped = {}
        point_of = by_name(h, points)
        assert got == reference_anchored_counts(h, point_of, stepped)
        transitional += bool(got)
        seeds = {frozenset(u for u in point_of if point_of[u] is x)
                 for x in point_of.values()}
        multi += any(len(q) >= 2 and q not in seeds for q in stepped)
    assert transitional >= 600
    assert multi >= 25


def test_anchored_counts_leave_the_index_unchanged():
    # one-vertex states are stepped on the cached `index` rows themselves
    import copy
    from sofic2.structure import _anchored_counts
    for h, points in _frontier_corpus():
        before = copy.deepcopy(h.index)
        _anchored_counts(h, points)
        assert h.index == before


def _check_frontier(edges, expected):
    """The admitted graph's anchored counts equal `expected` and the
    reference frontier's, and build == oracle."""
    from sofic2.presentation import admit
    from sofic2.structure import _anchored_counts
    g = LabeledGraph.make([], edges)
    h, points = admit(g)
    got = _anchored_counts(h, points)
    assert got == reference_anchored_counts(h, by_name(h, points)) == expected
    assert build_structure(g) == oracle_structure(g)


def test_frontier_keeps_a_merged_state_then_splits_it():
    # x and y both emit a^inf; label b leaves both, and {m1, n1} then
    # {m2, n2} are two-member states before d and f split them
    _check_frontier([("x", "y", "a"), ("y", "x", "a"),
                     ("x", "m1", "b"), ("y", "n1", "b"),
                     ("m1", "m2", "c"), ("n1", "n2", "c"),
                     ("m2", "u", "d"), ("n2", "w", "f"),
                     ("u", "u", "e"), ("w", "w", "g")],
                    {(pt("a"), pt("e")): 1, (pt("a"), pt("g")): 1})


def test_frontier_walks_on_from_a_state_emitting_two_points():
    # {u, w} lies on two cycles emitting different points: its stream is
    # None, so the frontier steps it once more, into {u} and into {w}
    _check_frontier([("x", "y", "a"), ("y", "x", "a"),
                     ("x", "u", "b"), ("y", "w", "b"),
                     ("u", "u", "c"), ("w", "w", "d")],
                    {(pt("a"), pt("c")): 1, (pt("a"), pt("d")): 1})


def test_frontier_termination_assertion_fires():
    # with b's loop left out of the point map, the walk from a stays on b
    from sofic2.presentation import admit
    from sofic2.structure import _anchored_counts
    h, points = admit(LabeledGraph.make([], [("a", "a", "x"), ("a", "b", "y"),
                                             ("b", "b", "z")]))
    a = by_name(h, points)["a"]
    with pytest.raises(AssertionError, match="transitional frontier failed to terminate"):
        _anchored_counts(h, [a if v == "a" else None for v in h.index[0]])


def _departure(edges, tag, src, dst, hops, label):
    """A path src -> dst through `hops` fresh middle vertices, its first
    edge labelled `label` and the rest fresh."""
    path = [src] + ["%s_m%d" % (tag, i) for i in range(hops)] + [dst]
    edges += [(a, b, label if i == 0 else "%s_%d" % (tag, i))
              for i, (a, b) in enumerate(zip(path, path[1:]))]


@st.composite
def long_cycles(draw):
    """One cycle of period p up to 64 (its root word holds x once, so it is
    primitive; the cycle word is sometimes a power of it) with zero to two
    departures, sometimes doubled, into a fixed point."""
    p = draw(st.integers(1, 64))
    root = ["x"] + draw(st.lists(st.sampled_from("ab"), min_size=p - 1, max_size=p - 1))
    w = root * draw(st.integers(1, 64 // p))
    n = len(w)
    edges = [("c%d" % i, "c%d" % ((i + 1) % n), w[i]) for i in range(n)]
    edges.append(("k", "k", "z"))
    for d in range(draw(st.integers(0, 2))):
        src = "c%d" % draw(st.integers(0, n - 1))
        _departure(edges, "d%d" % d, src, "k", draw(st.integers(0, 2)), "x%d" % d)
        if draw(st.booleans()):
            _departure(edges, "e%d" % d, src, "k", 0, "y%d" % d)
    return LabeledGraph.make([], edges)


@st.composite
def coprime_cycles(draw):
    """Cycles of coprime periods p and q, each word primitive (its first
    symbol occurs once), and one departure from the first to the second."""
    p = draw(st.integers(1, 31))
    q = draw(st.integers(1, 31).filter(lambda q: gcd(p, q) == 1))
    edges = []
    for name, n, first, alphabet in (("c", p, "x", "ab"), ("k", q, "y", "01")):
        w = [first] + draw(st.lists(st.sampled_from(alphabet), min_size=n - 1,
                                    max_size=n - 1))
        edges += [("%s%d" % (name, i), "%s%d" % (name, (i + 1) % n), w[i])
                  for i in range(n)]
    _departure(edges, "d", "c%d" % draw(st.integers(0, p - 1)),
               "k%d" % draw(st.integers(0, q - 1)), draw(st.integers(0, 2)), "t")
    return LabeledGraph.make([], edges)


@st.composite
def fans(draw):
    """n one-symbol loops, each departing into one shared path of length L
    that ends in a loop.  Loops with the same symbol emit the same point, so
    their seed is one subset state of several vertices."""
    n = draw(st.integers(1, 6))
    length = draw(st.integers(0, 20))
    path = ["h%d" % i for i in range(length)] + ["end"]
    labels = draw(st.lists(st.sampled_from("01"), min_size=length, max_size=length))
    edges = [(a, b, s) for (a, b, s) in zip(path, path[1:], labels)]
    edges.append(("end", "end", "e"))
    for i in range(n):
        edges.append(("f%d" % i, "f%d" % i, draw(st.sampled_from("ab"))))
        edges.append(("f%d" % i, path[0], draw(st.sampled_from("cd"))))
    return LabeledGraph.make([], edges)


@settings(derandomize=True, database=None, deadline=None, max_examples=250)
@given(st.one_of(long_cycles(), coprime_cycles(), fans()))
def test_builder_matches_oracle_property(g):
    assert build_structure(g) == oracle_structure(g)
