"""Acceptance suite: ten criteria, each with its stated instance sizes and
wall-clock budget, printing one line per criterion.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import itertools
import random
import time

import pytest

from sofic2 import (
    Digraph,
    LabeledGraph,
    Mode,
    analyze,
    brute_graph_oracle,
    build_structure,
    comb_rep,
    decide,
    derivative_of_comb_rep,
    digraph_isomorphic,
    formats,
    from_comb_rep,
    gi_gadget,
    hom_gadget,
    oracle_structure,
    rank1_decide,
    rank_of_comb_rep,
    search,
    synthesize,
    verify_witness,
)

from conftest import (
    FIG1_TERMS,
    chain_graph,
    random_certified_graph,
    random_colored_graph,
    random_comb_rep,
    random_simple_graph,
    random_structure_graph,
    rename_structure,
)

FIG1_FILE = (
    "orbit o0 word=0\n"
    "orbit o1 word=1.2\n"
    "orbit o2 word=1.3\n"
    "trans o0:0 o0:0 count=2\n"
    "trans o0:0 o1:0 count=1\n"
    "trans o0:0 o1:1 count=1\n"
    "trans o0:0 o2:0 count=1\n"
    "trans o0:0 o2:1 count=1\n"
    "trans o1:0 o1:0 count=1\n"
    "trans o1:0 o2:1 count=2\n"
    "trans o1:1 o1:1 count=1\n"
    "trans o1:1 o2:0 count=2\n"
    "trans o2:0 o2:0 count=1\n"
    "trans o2:1 o2:1 count=1\n"
)

# witnesses recorded by criteria 2, 5, 6, 7 for re-verification in 10
_WITNESSES = []


def _record(tag, mode, x, y, w):
    _WITNESSES.append((tag, mode, x, y, w))


def _pass(num, desc, elapsed, budget):
    print("ACCEPTANCE %2d PASS (%6.2fs < %4ds)  %s" % (num, elapsed, budget, desc))
    assert elapsed < budget, "criterion %d exceeded %ds" % (num, budget)


def test_criterion_01_fig1_fixture():
    t0 = time.time()
    g = from_comb_rep(comb_rep(FIG1_TERMS))
    s = build_structure(g)
    assert len(s.points()) == 5          # hence 5 implicit rotation edges
    assert len(tuple(s.transitions)) == 11
    assert sorted(c for (_e, c) in s.transitions) == [1] * 8 + [2] * 3
    assert formats.format_structure(s) == FIG1_FILE
    _pass(1, "Figure-1 structure graph byte-exact", time.time() - t0, 1)


def test_criterion_02_example1_fixture():
    t0 = time.time()
    x = build_structure(LabeledGraph.make(
        [], [("a", "a", "e1"), ("a", "b", "e2"), ("b", "b", "e3")]))
    y = build_structure(LabeledGraph.make(
        [], [("a", "a", "f1"), ("a", "b", "f2"), ("b", "c", "f3"),
             ("c", "c", "f4")]))
    w = decide(Mode.CONJUGACY, x, y)
    assert w is not None and verify_witness(Mode.CONJUGACY, x, y, w)
    _record("c2", Mode.CONJUGACY, x, y, w)
    gx = Digraph.make([], [("a", "a"), ("a", "b"), ("b", "b")])
    gy = Digraph.make([], [("a", "a"), ("a", "b"), ("b", "c"), ("c", "c")])
    assert not digraph_isomorphic(gx, gy)
    _pass(2, "conjugate edge shifts with non-isomorphic multigraphs",
          time.time() - t0, 1)


def test_criterion_03_blowup_fixture():
    t0 = time.time()
    from sofic2 import canonicalize_point
    p0, p3 = canonicalize_point("0"), canonicalize_point("3")
    for k in (1, 10, 32, 64):
        s = build_structure(chain_graph(k))
        assert s.count(p0, p3) == 2 ** k
    _pass(3, "doubled-edge chain counts are exactly 2^k", time.time() - t0, 1)


def test_criterion_04_oracle_equivalence():
    t0 = time.time()
    rng = random.Random(2024)
    for _ in range(500):
        g = random_certified_graph(rng, max_vertices=12)
        assert build_structure(g) == oracle_structure(g, 10 ** 6)
    _pass(4, "500 random presentations: builder equals oracle exactly",
          time.time() - t0, 60)


def test_criterion_05_synthesis_round_trip():
    t0 = time.time()
    rng = random.Random(2025)
    for _ in range(200):
        s = random_structure_graph(rng, max_orbits=6, max_period=4,
                                   max_count=10)
        b = build_structure(synthesize(s))
        w = decide(Mode.CONJUGACY, b, s)
        assert w is not None
        assert verify_witness(Mode.CONJUGACY, b, s, w)
        _record("c5", Mode.CONJUGACY, b, s, w)
    _pass(5, "200 synthesis round trips conjugate to the input",
          time.time() - t0, 120)


def test_criterion_06_gi_correspondence():
    t0 = time.time()
    rng = random.Random(2026)
    for _ in range(300):
        g = random_colored_graph(rng, max_vertices=7)
        h = random_colored_graph(rng, max_vertices=7)
        want = brute_graph_oracle("iso_colored", g, h)
        w = decide(Mode.CONJUGACY, gi_gadget(g), gi_gadget(h))
        assert want == (w is not None)
        if w is not None:
            _record("c6", Mode.CONJUGACY, gi_gadget(g), gi_gadget(h), w)
    _pass(6, "300 colored pairs: colored isomorphism iff conjugacy",
          time.time() - t0, 120)


@pytest.mark.slow
def test_criterion_07_hom_correspondence():
    t0 = time.time()
    rng = random.Random(2027)
    pool = [random_simple_graph(rng, max_vertices=6) for _ in range(40)]
    gadgets = [hom_gadget(g) for g in pool]
    pairs = [(rng.randrange(len(pool)), rng.randrange(len(pool)))
             for _ in range(200)]
    kinds = (("hom", Mode.BLOCK_MAP),
             ("edge_injective_hom", Mode.EMBEDDING),
             ("compaction", Mode.FACTOR))
    for (i, j) in pairs:
        for kind, mode in kinds:
            want = brute_graph_oracle(kind, pool[i], pool[j])
            w = decide(mode, gadgets[i], gadgets[j])
            assert want == (w is not None), (kind, pool[i], pool[j])
            if w is not None:
                _record("c7", mode, gadgets[i], gadgets[j], w)
    _pass(7, "200 simple pairs: hom/injective/compaction iff "
             "blockmap/embedding/factor", time.time() - t0, 300)


def _factor_brute(ps, qs):
    """Exhaustive orbit-assignment search for a surjective orbit map with
    divisor periods, pruned only by remaining-coverage feasibility."""
    m = len(qs)

    def rec(i, covered):
        if i == len(ps):
            return len(covered) == m
        if len(covered) + (len(ps) - i) < m:
            return False
        for j, q in enumerate(qs):
            if ps[i] % q == 0 and rec(i + 1, covered | {j}):
                return True
        return False

    return rec(0, frozenset())


@pytest.mark.slow
def test_criterion_08_rank1_agreement():
    t0 = time.time()
    from conftest import periods_structure
    multisets = []
    for k in range(1, 6):
        multisets.extend(itertools.combinations_with_replacement(range(1, 7), k))
    graphs = [periods_structure(m, tag=i) for i, m in enumerate(multisets)]
    modes = (Mode.BLOCK_MAP, Mode.EMBEDDING, Mode.FACTOR, Mode.CONJUGACY)
    for (pa, x) in zip(multisets, graphs):
        for (pb, y) in zip(multisets, graphs):
            for mode in modes:
                fast = rank1_decide(mode, x, y)
                assert fast == (search(mode, x, y) is not None), (mode, pa, pb)
            blockmap_ok = rank1_decide(Mode.BLOCK_MAP, x, y)
            want_factor = blockmap_ok and _factor_brute(list(pa), list(pb))
            assert want_factor == rank1_decide(Mode.FACTOR, x, y), (pa, pb)
    _pass(8, "all %d^2 rank-1 pairs agree across fast path, search and "
             "brute force" % len(multisets), time.time() - t0, 60)


def test_criterion_09_rank_formula_agreement():
    t0 = time.time()
    rng = random.Random(2029)
    for _ in range(200):
        r = random_comb_rep(rng, max_arity=2)
        steps = 0
        cur = r
        while cur.terms:
            cur = derivative_of_comb_rep(cur)
            steps += 1
        assert steps == rank_of_comb_rep(r)
        if max(t.arity for t in r.terms) <= 1:
            assert analyze(from_comb_rep(r)).rank == rank_of_comb_rep(r)
    _pass(9, "200 representations: derivative iteration equals the rank "
             "formula and the analyzer", time.time() - t0, 60)


def test_criterion_10_witness_independence():
    t0 = time.time()
    if not _WITNESSES:  # standalone invocation: regenerate a small pool
        test_criterion_02_example1_fixture()
    tags = {tag for (tag, *_rest) in _WITNESSES}
    for (tag, mode, x, y, w) in _WITNESSES:
        reparsed = formats.parse_witness(formats.format_witness(w))
        assert verify_witness(mode, x, y, reparsed), tag
    _pass(10, "%d recorded YES witnesses (%s) re-verified through the "
              "independent path" % (len(_WITNESSES), ",".join(sorted(tags))),
          time.time() - t0, 60)
