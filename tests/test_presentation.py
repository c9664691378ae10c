"""Presentation hygiene, minimization, analysis and conversions."""

import hashlib
import random
import time
from collections import Counter

import pytest

from sofic2 import (
    LabeledGraph,
    analyze,
    check_right_resolving,
    comb_rep,
    derivative_of_comb_rep,
    determinize,
    from_comb_rep,
    from_forbidden_words,
    minimize_right_resolving,
    rank_of_comb_rep,
    trim_essential,
    word,
)
from sofic2 import presentation
from sofic2.core import refine_colors
from sofic2.errors import EmptyRepresentation, NotRightResolving, SizeLimitExceeded
from sofic2.presentation import RANK_HIGH, RANK_UNCERTIFIED

from conftest import FIG1_TERMS, random_comb_rep, words_of_length


def test_trim_removes_dead_ends():
    g = LabeledGraph.make(["loop", "dead"],
                          [("loop", "loop", "a"), ("loop", "dead", "b")])
    # a 3000-vertex dangling tail beyond the dead end
    tail = [("dead", "t0", "a")] + [("t%d" % i, "t%d" % (i + 1), "a") for i in range(2999)]
    for h in (g, LabeledGraph.make(g.vertices, g.edges + tuple(tail))):
        t = trim_essential(h)
        assert t.vertices == frozenset(["loop"])
        assert t.edges == (("loop", "loop", "a"),)


def test_trim_keeps_self_loop():
    g = LabeledGraph.make([], [("v", "v", "a")])
    assert trim_essential(g) == g


def test_trim_keeps_chain(fig1_graph):
    from conftest import chain_graph
    g = chain_graph(4)
    assert trim_essential(g) == g


def test_check_right_resolving():
    g = LabeledGraph.make([], [("v", "a", "x"), ("v", "b", "x")])
    assert check_right_resolving(g) == [("v", "x")]
    assert check_right_resolving(LabeledGraph.make([], [])) == []


def test_fig1_presentation_is_right_resolving(fig1_graph):
    assert check_right_resolving(fig1_graph) == []


def test_minimize_merges_parallel_components():
    g = LabeledGraph.make([], [("u", "u", "a"), ("v", "v", "a")])
    m = minimize_right_resolving(g)
    assert len(m.vertices) == 1


def test_minimize_collapses_nonprimitive_cycle():
    # a length-2 cycle labeled aa presents the fixed point of a
    g = LabeledGraph.make([], [("x", "y", "a"), ("y", "x", "a")])
    m = minimize_right_resolving(g)
    assert len(m.vertices) == 1 and len(m.edges) == 1


def test_minimize_fixpoint_on_fig1(fig1_graph):
    assert minimize_right_resolving(fig1_graph) == fig1_graph


def test_minimize_requires_right_resolving():
    g = LabeledGraph.make([], [("v", "a", "x"), ("v", "b", "x"),
                               ("a", "v", "y"), ("b", "v", "y")])
    with pytest.raises(NotRightResolving):
        minimize_right_resolving(g)


def test_minimize_idempotent_and_language_preserving():
    rng = random.Random(23)
    from conftest import random_certified_graph
    for _ in range(25):
        g = random_certified_graph(rng, max_vertices=10)
        m = minimize_right_resolving(g)
        assert minimize_right_resolving(m) == m
        for n in range(1, 9):
            assert words_of_length(g, n) == words_of_length(m, n)


def test_analyze_single_loop():
    rep = analyze(LabeledGraph.make([], [("v", "v", "a")]))
    assert rep.is_countable_certified and rep.rank == 1
    assert rep.cycles == (("v",),)


def test_analyze_fig1(fig1_graph):
    rep = analyze(fig1_graph)
    assert rep.is_right_resolving
    assert rep.is_countable_certified
    assert rep.rank == 2


def test_analyze_three_cycle_chain_refused():
    g = from_comb_rep(comb_rep([("0", "1", "2", "3", "4")]))
    rep = analyze(g)
    assert rep.is_countable_certified
    assert rep.rank == RANK_HIGH


def test_analyze_golden_mean_not_certified():
    g = from_forbidden_words("01", ["11"])
    rep = analyze(g)
    assert rep.is_right_resolving
    assert not rep.is_countable_certified
    assert rep.rank == RANK_UNCERTIFIED


def test_analyze_empty_graph():
    rep = analyze(LabeledGraph.make([], []))
    assert rep.is_countable_certified and rep.rank == 0


def test_analyze_two_self_loops_same_vertex():
    g = LabeledGraph.make([], [("v", "v", "a"), ("v", "v", "b")])
    rep = analyze(g)
    assert not rep.is_countable_certified


def test_from_comb_rep_single_loop():
    g = from_comb_rep(comb_rep([("0",)]))
    assert len(g.vertices) == 1 and len(g.edges) == 1


def test_from_comb_rep_zero_one_zero_language():
    g = from_comb_rep(comb_rep([("0", "1", "0")]))
    for n in range(1, 13):
        expected = set()
        for ones in range(2):
            for pos in range(n - ones + 1):
                w = ("0",) * pos + ("1",) * ones + ("0",) * (n - pos - ones)
                expected.add(w)
        assert words_of_length(g, n) == expected


def test_from_comb_rep_fig1_language(fig1_graph):
    # blocks of length <= 12 agree with the union of the five term languages
    def term_words(us, vs, n):
        # crude direct enumeration: configurations have shape
        # u0^inf v1 u1^inf ...; enumerate windows of concatenations
        reps = 14
        parts = [us[0] * reps]
        for v, u in zip(vs, us[1:]):
            parts.append(v)
            parts.append(u * reps)
        full = tuple("".join("".join(w) for w in parts))
        return {full[i:i + n] for i in range(len(full) - n + 1)}

    terms = [tuple(map(word, t)) for t in FIG1_TERMS]
    for n in (1, 4, 8, 12):
        expected = set()
        for t in terms:
            us, vs = t[0::2], t[1::2]
            expected |= term_words(us, vs, n)
        assert words_of_length(fig1_graph, n) == expected


def test_from_comb_rep_interior_cycle_skips():
    # u0* v1 u1* v2 u2* admits zero repetitions of u1
    g = from_comb_rep(comb_rep([("0", "1", "2", "3", "4")]))
    words8 = words_of_length(g, 8)
    assert word("00130444") not in words8          # v2 alone after u0 is not
    assert word("00134444") in words8              # skip u1 entirely
    assert word("00122344") in words8              # two reps of u1
    assert word("01230000") not in words8


def test_from_forbidden_words_cover_of_single_one():
    # three-symbol cover of the at-most-one-1 shift
    g = from_forbidden_words(
        ["L", "1", "R"],
        [("R", "L"), ("R", "1"), ("1", "L"), ("1", "1"), ("L", "R")],
        {"L": "0", "R": "0", "1": "1"})
    assert check_right_resolving(g) == []
    for n in range(1, 11):
        expected = set()
        for ones in range(2):
            for pos in range(n - ones + 1):
                expected.add(("0",) * pos + ("1",) * ones + ("0",) * (n - pos - ones))
        assert words_of_length(g, n) == expected


def test_from_forbidden_words_forbid_all_symbols():
    g = from_forbidden_words("ab", ["a", "b"])
    assert g.is_empty()


def test_from_forbidden_words_collapsing_map_needs_determinize():
    g = from_forbidden_words("ab", [], {"a": "x", "b": "x"})
    assert check_right_resolving(g)
    d = determinize(g)
    assert check_right_resolving(d) == []
    for n in range(1, 6):
        assert words_of_length(d, n) == words_of_length(g, n)


# sha256 of format_graph(from_comb_rep(r)) over the 150 seed-97 comb-reps
# and of format_graph(determinize(g)) over the 150 seed-101 graphs of
# test_determinize_output_is_pinned, as they were when the subset
# construction still stepped sets of vertex names
DETERMINIZE_DIGEST = (
    "01ecee1d95a03164e0b2d740fe367e4f8149490d5540777e4f06cf1f3c82cb64")


def _random_labeled_graph(rng):
    """2-6 vertices and n to 3n random edges over {a, b}; most are not
    right-resolving."""
    n = rng.randint(2, 6)
    vs = ["v%d" % i for i in range(n)]
    edges = [(rng.choice(vs), rng.choice(vs), rng.choice("ab"))
             for _ in range(rng.randint(n, 3 * n))]
    return LabeledGraph.make([], edges)


def test_determinize_output_is_pinned():
    from sofic2 import formats
    h = hashlib.sha256()
    rng = random.Random(97)
    for _ in range(150):
        h.update(formats.format_graph(from_comb_rep(random_comb_rep(rng))).encode())
    rng = random.Random(101)
    graphs = [_random_labeled_graph(rng) for _ in range(150)]
    assert sum(bool(check_right_resolving(g)) for g in graphs) >= 100
    for g in graphs:
        h.update(formats.format_graph(determinize(g)).encode())
    assert h.hexdigest() == DETERMINIZE_DIGEST


# -- the named-graph pipeline, as it was before it ran on positions ----------


def determinize_reference(g):
    """The subset construction seeded with every vertex, named d0, d1, ...
    breadth first (successors in ascending label order), built, trimmed and
    renamed s0, s1, ... by `_canonical_rename_reference`."""
    if check_right_resolving(g) == []:
        return g
    _verts, out = g.index
    full = frozenset(range(len(out)))
    names = {full: "d0"}
    edges = []
    frontier = [full]
    while frontier:
        nxt = []
        for state in frontier:
            step = {}
            for v in state:
                for (b, s) in out[v]:
                    step.setdefault(s, set()).add(b)
            for s in sorted(step):
                succ = frozenset(step[s])
                if succ not in names:
                    names[succ] = "d%d" % len(names)
                    nxt.append(succ)
                edges.append((names[state], names[succ], s))
        frontier = nxt
    det = trim_essential(LabeledGraph.make(names.values(), edges))
    return _canonical_rename_reference(det)


def _canonical_rename_reference(g, prefix="s"):
    """Vertices renamed prefix0..prefixN in the order of their names by `str`."""
    names = {v: "%s%d" % (prefix, i) for i, v in enumerate(sorted(g.vertices, key=str))}
    return LabeledGraph.make(names.values(),
                             [(names[a], names[b], s) for (a, b, s) in g.edges])


def minimize_reference(g):
    """Color refinement by (label, successor color) signatures until the
    number of colors stops growing, then the quotient on each class's least
    vertex, renamed m0, m1, ... by `_canonical_rename_reference`."""
    if check_right_resolving(g):
        raise NotRightResolving("not right-resolving")
    g = trim_essential(g)
    verts, out = g.index
    succ = [sorted((s, b) for (b, s) in row) for row in out]
    color = refine_colors(range(len(out)), lambda color, v: tuple(
        (s, color[b]) for (s, b) in succ[v]))
    rep = {}
    name = [rep.setdefault(color[v], verts[v]) for v in range(len(out))]
    quot_edges = {(name[a], name[b], s) for a, row in enumerate(out) for (b, s) in row}
    return _canonical_rename_reference(LabeledGraph.make(set(name), sorted(quot_edges)), "m")


def from_comb_rep_reference(r):
    """The union of the terms as a named graph (one cycle per u word, one
    path per pair of cycles i < j of a term), then
    `minimize_reference(determinize_reference(union))`."""
    vertices = []
    edges = []
    for ti, term in enumerate(r.terms):
        cycle_v = []
        for ui, u in enumerate(term.us):
            names = ["t%d_c%d_%d" % (ti, ui, k) for k in range(len(u))]
            cycle_v.append(names)
            vertices.extend(names)
            for k, s in enumerate(u):
                edges.append((names[k], names[(k + 1) % len(u)], s))
        for i in range(term.arity + 1):
            for j in range(i + 1, term.arity + 1):
                labels = []
                for k in range(i, j):
                    labels.extend(term.vs[k])
                labels.append(term.us[j][0])
                path = ([cycle_v[i][0]]
                        + ["t%d_p%d_%d_%d" % (ti, i, j, k) for k in range(len(labels) - 1)]
                        + [cycle_v[j][1 % len(term.us[j])]])
                edges.extend(zip(path, path[1:], labels))
    return minimize_reference(determinize_reference(LabeledGraph.make(vertices, edges)))


def long_word_rep(k):
    """Two terms on the word a^k b: its cycle, and two of its cycles
    joined by c.  The union is right-resolving, so minimization does all
    the work."""
    w = ("a",) * k + ("b",)
    return comb_rep([(w,), (w, "c", w)])


def test_presentation_matches_the_named_graph_reference():
    rng = random.Random(43)
    reps = [random_comb_rep(rng, max_arity=rng.randint(0, 3)) for _ in range(300)]
    reps += [long_word_rep(k) for k in (1, 2, 5, 40, 300)]
    reps += [comb_rep([(("a",) * k + ("b",), "a", "c")]) for k in (1, 2, 5, 40, 300)]
    kinds = Counter()
    for r in reps:
        assert from_comb_rep(r) == from_comb_rep_reference(r), r
        kinds[max(t.arity for t in r.terms)] += 1
    assert sorted(kinds) == [0, 1, 2, 3]
    rng = random.Random(101)
    graphs = [_random_labeled_graph(rng) for _ in range(150)]
    rng = random.Random(113)
    for _ in range(100):
        alphabet = "abc"[:rng.randint(1, 3)]
        forbidden = ["".join(rng.choice(alphabet) for _ in range(rng.randint(1, 4)))
                     for _ in range(rng.randint(0, 3))]
        graphs.append(from_forbidden_words(alphabet, forbidden,
                                           {a: rng.choice("xy") for a in alphabet}))
    merged = 0
    for g in graphs:
        d = determinize(g)
        assert d == determinize_reference(g), g
        m = minimize_right_resolving(d)
        assert m == minimize_reference(d), g
        merged += len(m.vertices) < len(d.vertices)
    assert merged >= 50


def test_from_comb_rep_on_a_long_word_is_fast():
    # color refinement re-signed every vertex once per vertex of the
    # a^2000 b cycle: about 20s
    r = long_word_rep(2000)
    t = time.perf_counter()
    g = from_comb_rep(r)
    assert time.perf_counter() - t < 1.0
    # the cycle a^2000 b, and one vertex per symbol of the second word
    # before it enters the first: every other vertex merges
    assert len(g.vertices) == 2 * 2001 and len(g.edges) == 2 * 2001 + 1


def test_determinize_caps_the_positions_summed_over_its_states(monkeypatch):
    # a^40 b a c: the union has 43 vertices, and the state reached by a^i
    # holds about 41 - i of them, 906 positions summed over the states
    r = comb_rep([(("a",) * 40 + ("b",), "a", "c")])
    monkeypatch.setattr(presentation, "MAX_DETERMINIZE_SIZE", 906)
    assert from_comb_rep(r) == from_comb_rep_reference(r)
    monkeypatch.setattr(presentation, "MAX_DETERMINIZE_SIZE", 905)
    with pytest.raises(SizeLimitExceeded,
                       match="determinization exceeded 905 positions summed over its states"):
        from_comb_rep(r)


def test_from_forbidden_words_caps_the_words_of_each_length(monkeypatch):
    # all 8 binary words of length 3 are allowed
    assert len(from_forbidden_words("01", ["0000"]).vertices) == 8
    monkeypatch.setattr(presentation, "MAX_DETERMINIZE_STATES", 8)
    assert len(from_forbidden_words("01", ["0000"]).vertices) == 8
    monkeypatch.setattr(presentation, "MAX_DETERMINIZE_STATES", 7)
    with pytest.raises(SizeLimitExceeded, match="more than 7 allowed words of length 3"):
        from_forbidden_words("01", ["0000"])


def test_determinize_caps_its_states(monkeypatch):
    # the subset construction finds {v, w} and then {v}: two states
    g = LabeledGraph.make("vw", [("v", "v", "a"), ("v", "w", "a"), ("w", "v", "b")])
    assert len(determinize(g).vertices) == 2
    monkeypatch.setattr(presentation, "MAX_DETERMINIZE_STATES", 1)
    with pytest.raises(SizeLimitExceeded, match="exceeded 1 states"):
        determinize(g)


def test_from_comb_rep_takes_a_list_of_terms():
    r = comb_rep(FIG1_TERMS)
    assert from_comb_rep(list(r.terms)) == from_comb_rep(r)


def _forbidden_words_reference(alphabet, forbidden, symbol_map=None):
    """from_forbidden_words as it was defined first: every window of each
    extended word is checked against every forbidden word."""
    alphabet = list(alphabet)
    forbidden = [word(w) for w in forbidden]
    if symbol_map is None:
        symbol_map = {a: a for a in alphabet}
    n = max([2] + [len(w) for w in forbidden])

    def contains(w, factor):
        k = len(factor)
        return any(w[i:i + k] == factor for i in range(len(w) - k + 1))

    def allowed(w):
        return not any(contains(w, f) for f in forbidden)

    verts = [()]
    for _ in range(1, n):
        verts = [w + (a,) for w in verts for a in alphabet if allowed(w + (a,))]
    vname = {w: ".".join(w) if w else "@" for w in verts}
    edges = [(vname[w], vname[w[1:] + (a,)], symbol_map[a])
             for w in verts for a in alphabet if allowed(w + (a,))]
    return trim_essential(LabeledGraph.make(vname.values(), edges))


def test_from_forbidden_words_agrees_with_all_windows_reference():
    rng = random.Random(113)
    kinds = set()
    for _ in range(400):
        alphabet = "abc"[:rng.randint(1, 3)]
        forbidden = ["".join(rng.choice(alphabet) for _ in range(rng.randint(1, 4)))
                     for _ in range(rng.randint(0, 4))]
        if forbidden and rng.random() < 0.3:
            forbidden.append(rng.choice(forbidden))  # a duplicate
        if rng.random() < 0.05:
            forbidden.append("")  # forbids everything
        symbol_map = None
        if rng.random() < 0.3:
            symbol_map = {a: rng.choice("xy") for a in alphabet}
        got = from_forbidden_words(alphabet, forbidden, symbol_map)
        assert got == _forbidden_words_reference(alphabet, forbidden, symbol_map), \
            (alphabet, forbidden, symbol_map)
        kinds.add("empty" if got.is_empty() else "nonempty")
    assert kinds == {"empty", "nonempty"}
    assert from_forbidden_words("ab", [""]).is_empty()


def test_rank_of_comb_rep():
    assert rank_of_comb_rep(comb_rep([("0",)])) == 1
    assert rank_of_comb_rep(comb_rep([("0", "1", "0")])) == 2
    assert rank_of_comb_rep(comb_rep(FIG1_TERMS)) == 2
    with pytest.raises(EmptyRepresentation):
        rank_of_comb_rep(comb_rep([]))


def test_derivative_examples():
    r = comb_rep([("0", "1", "0")])
    d = derivative_of_comb_rep(r)
    assert d == comb_rep([("0",)])
    assert derivative_of_comb_rep(comb_rep([("0",)])) == comb_rep([])
    d2 = derivative_of_comb_rep(comb_rep([("a", "x", "b", "y", "c")]))
    assert d2 == comb_rep([("b", "y", "c"), ("a", "x", "b")])


def test_derivative_of_the_empty_representation_is_refused():
    with pytest.raises(EmptyRepresentation, match="derivative of the empty"):
        derivative_of_comb_rep(comb_rep([]))


def test_derivative_iteration_counts_rank():
    rng = random.Random(31)
    for _ in range(100):
        r = random_comb_rep(rng)
        steps = 0
        cur = r
        while cur.terms:
            cur = derivative_of_comb_rep(cur)
            steps += 1
        assert steps == rank_of_comb_rep(r)


def test_analyze_rank_matches_comb_rep_formula():
    rng = random.Random(37)
    for _ in range(40):
        r = random_comb_rep(rng, max_arity=1)
        got = analyze(from_comb_rep(r)).rank
        assert got == rank_of_comb_rep(r)


def test_minimize_preserves_certificate_and_rank():
    # follower-refinement minimization can leave duplicate-role cycles in
    # reducible presentations (the structure builder does not rely on their
    # absence); what it must preserve is the certificate and the rank
    rng = random.Random(41)
    from conftest import random_certified_graph
    for _ in range(30):
        g = random_certified_graph(rng)
        before = analyze(g)
        after = analyze(minimize_right_resolving(g))
        assert after.is_countable_certified
        assert after.rank == before.rank
