"""Presentation hygiene, minimization, analysis and conversions."""

import hashlib
import random

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


def test_from_forbidden_words_caps_the_words_of_each_length(monkeypatch):
    # all 8 binary words of length 3 are allowed
    assert len(from_forbidden_words("01", ["0000"]).vertices) == 8
    monkeypatch.setattr(presentation, "MAX_DETERMINIZE_STATES", 8)
    assert len(from_forbidden_words("01", ["0000"]).vertices) == 8
    monkeypatch.setattr(presentation, "MAX_DETERMINIZE_STATES", 7)
    with pytest.raises(SizeLimitExceeded, match="more than 7 allowed words of length 3"):
        from_forbidden_words("01", ["0000"])


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
