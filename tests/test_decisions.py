"""Decision procedures: worked examples, exhaustive-search agreement,
rank-1 fast paths and witness realization."""

import dataclasses
import functools
import hashlib
import itertools
import random
import time
import tracemalloc
from collections import Counter
from decimal import Decimal
from math import gcd, lcm

import pytest
from hypothesis import assume, given, settings, strategies as st

from sofic2 import (
    ColoredGraph,
    LabeledGraph,
    Mode,
    PeriodicOrbit,
    SGHomomorphism,
    SimpleGraph,
    StructureGraph,
    build_structure,
    canonicalize_point,
    decide,
    digraph_isomorphic,
    formats,
    gi_gadget,
    hom_gadget,
    is_rank_one,
    oracle_structure,
    rank1_decide,
    realize_orbit_map,
    search,
    verify_witness,
)
from sofic2 import decisions
from sofic2.core import DEFAULT_BUDGET
from sofic2.decisions import _options, _refuted, _tables
from sofic2.errors import BudgetExceeded, NotRankOne, SoficError, WitnessInvalid
from sofic2.reductions import Digraph

from conftest import (
    budget_exhausting_noes,
    chain_graph,
    make_structure,
    periods_structure,
    random_certified_graph,
    random_simple_graph,
    random_structure_graph,
    rename_structure,
)
from test_structure import _two_cycle_graphs

ALL_MODES = (Mode.BLOCK_MAP, Mode.EMBEDDING, Mode.FACTOR, Mode.CONJUGACY)


def pt(root, phase=0):
    return canonicalize_point(root, phase)


def example1_pair():
    x = build_structure(LabeledGraph.make(
        [], [("a", "a", "e1"), ("a", "b", "e2"), ("b", "b", "e3")]))
    y = build_structure(LabeledGraph.make(
        [], [("a", "a", "f1"), ("a", "b", "f2"), ("b", "c", "f3"),
             ("c", "c", "f4")]))
    return x, y


def test_example1_conjugate_but_graphs_not_isomorphic():
    x, y = example1_pair()
    w = decide(Mode.CONJUGACY, x, y)
    assert w is not None
    assert verify_witness(Mode.CONJUGACY, x, y, w)
    gx = Digraph.make([], [("a", "a"), ("a", "b"), ("b", "b")])
    gy = Digraph.make([], [("a", "a"), ("a", "b"), ("b", "c"), ("c", "c")])
    assert not digraph_isomorphic(gx, gy)


def test_embedding_count_comparison():
    two = make_structure([("a", 2)])
    three = make_structure([("a", 3)])
    assert decide(Mode.EMBEDDING, two, three) is not None
    assert decide(Mode.EMBEDDING, three, two) is None


def test_factor_and_blockmap_examples():
    three = make_structure([("a", 3)])
    two = make_structure([("a", 2)])
    assert decide(Mode.FACTOR, three, two) is not None
    one = make_structure([("z", 1)])
    big = make_structure([("a", 1), ("bc", 2)], [(("a", 0), ("bc", 0), 1)])
    w = decide(Mode.BLOCK_MAP, big, one)
    assert w is not None and verify_witness(Mode.BLOCK_MAP, big, one, w)


def test_conjugacy_invariant_under_renaming(fig1_structure):
    other = rename_structure(fig1_structure, "x")
    w = decide(Mode.CONJUGACY, fig1_structure, other)
    assert w is not None
    assert verify_witness(Mode.CONJUGACY, fig1_structure, other, w)


def test_factor_diagonal_supply_is_aperiodic():
    # the periodic point of a diagonal edge cannot cover aperiodic targets:
    # three source orbits cannot surject onto a fixed point with two extra
    # aperiodic orbits
    x = make_structure([("a", 1), ("b", 1)], [(("a", 0), ("b", 0), 1)])
    y = make_structure([("z", 3)])
    assert decide(Mode.FACTOR, x, y) is None
    # with one more source orbit it works
    x2 = make_structure([("a", 1), ("b", 1)],
                        [(("a", 0), ("b", 0), 1), (("b", 0), ("a", 0), 1)])
    assert decide(Mode.FACTOR, x2, y) is not None


def test_verify_witness_examples(fig1_structure):
    ident = SGHomomorphism.make({p: p for p in fig1_structure.points()})
    assert verify_witness(Mode.CONJUGACY, fig1_structure, fig1_structure, ident)
    # rotation-commutation broken: swap the images of one period-2 orbit
    bad = {p: p for p in fig1_structure.points()}
    bad[pt("12", 0)] = pt("13", 0)
    assert not verify_witness(
        Mode.CONJUGACY, fig1_structure, fig1_structure, SGHomomorphism.make(bad))
    # map a period-2 point onto a fixed point pointwise (not commuting)
    bad2 = {p: pt("0") for p in fig1_structure.points()}
    bad2[pt("12", 1)] = pt("12", 1)
    assert not verify_witness(
        Mode.BLOCK_MAP, fig1_structure, fig1_structure, SGHomomorphism.make(bad2))


def reference_check(mode, x, y):
    """The definitional witness check for one (mode, x, y), as a function
    of the map: it names every point of x once, as a point of y, commutes
    with the shift at every point, and meets the mode's condition at every
    transition, member by member.  The points of both graphs are listed
    once, and their transitions expanded once, when a map first reaches
    them, for every map the check is applied to."""
    pts_x, pts_y = x.points(), set(y.points())

    @functools.cache
    def expanded():
        return tuple(x.transitions), dict(y.transitions)

    def check(h):
        vm = dict(h.pairs)
        if len(vm) != len(h.pairs) or set(vm) != set(pts_x):
            return False
        if not all(v in pts_y for v in vm.values()):
            return False
        for p in pts_x:
            if vm[p.shift(1)] != vm[p].shift(1):
                return False
        x_transitions, ycount = expanded()
        edge_images = []
        for ((a, b), c) in x_transitions:
            key = (vm[a], vm[b])
            if key not in ycount:
                return False
            edge_images.append(key)
        if mode is Mode.BLOCK_MAP:
            return True
        if mode is Mode.EMBEDDING:
            if len(set(edge_images)) != len(edge_images):
                return False
            return all(c <= ycount[vm[a], vm[b]] for ((a, b), c) in x_transitions)
        if mode is Mode.FACTOR:
            # every target transition needs a preimage whose aperiodic supply
            # covers its aperiodic orbits
            supply = {}
            for (((a, b), c), key) in zip(x_transitions, edge_images):
                supply[key] = supply.get(key, 0) + (c - 1 if a == b else c)
            return all(supply.get(key, -1) >= (c - 1 if key[0] == key[1] else c)
                       for (key, c) in ycount.items())
        if mode is Mode.CONJUGACY:
            if len(set(vm.values())) != len(pts_x) or len(pts_x) != len(pts_y):
                return False
            if len(edge_images) != len(set(edge_images)):
                return False
            if len(x_transitions) != len(ycount):
                return False
            return all(c == ycount[vm[a], vm[b]] for ((a, b), c) in x_transitions)
        raise ValueError("unknown mode %r" % (mode,))

    return check


def reference_verify(mode, x, y, h):
    """`reference_check` applied to one map."""
    return reference_check(mode, x, y)(h)


def _first_witness_by_enumeration(mode, x, y):
    """Independent exhaustive oracle: the first rotation-commuting orbit
    assignment that `reference_check` accepts, in lexicographic order of
    the (target orbit, phase offset) choices with source and target orbits
    by period then root, or None when there is none.  An orbit of period p
    commutes with the rotation only onto a target whose period divides p."""
    check = reference_check(mode, x, y)
    xs = sorted(x.orbits, key=lambda o: o.sort_key())
    ys = sorted(y.orbits, key=lambda o: o.sort_key())
    choice_sets = [[(t, off) for t in ys if o.period % t.period == 0
                    for off in range(t.period)] for o in xs]
    for combo in itertools.product(*choice_sets):
        vmap = {}
        for o, (t, off) in zip(xs, combo):
            for r in range(o.period):
                vmap[o.point(r)] = t.point((r + off) % t.period)
        h = SGHomomorphism.make(vmap)
        if check(h):
            return h
    return None


def test_verify_witness_refuses_pairs_that_are_not_pairs(fig1_structure):
    s = fig1_structure
    a = s.points()[0]
    for pairs in (((1, 2, 3),), ((5,),), (5,), ((a, a, a),), ((a,),)):
        h = SGHomomorphism(pairs)
        for mode in ALL_MODES:
            assert not verify_witness(mode, s, s, h), (mode, pairs)


def test_verify_witness_refuses_a_source_named_twice(fig1_structure):
    s = fig1_structure
    ident = SGHomomorphism.make({p: p for p in s.points()})
    a = next(a for (a, _b) in ident.pairs if a.period == 2)
    # the identity is a witness in every mode; naming a twice, once with a
    # wrong image, makes the pairs no map at all, whichever pair comes last
    for pairs in (((a, a.shift(1)),) + ident.pairs,
                  ident.pairs + ((a, a.shift(1)),)):
        h = SGHomomorphism(pairs)
        for mode in ALL_MODES:
            assert verify_witness(mode, s, s, ident)
            assert not verify_witness(mode, s, s, h), mode
            assert not reference_verify(mode, s, s, h), mode


def _orbit_map(rng, x, y, collapse):
    """A random map sending each orbit of x onto one orbit of y at a random
    phase offset: onto a target whose period divides its own (a smaller
    one when `collapse` and there is one), or onto any target when none
    divides, which breaks commutation."""
    vm = {}
    for o in x.orbits:
        ts = [t for t in y.orbits if o.period % t.period == 0]
        if collapse and any(t.period < o.period for t in ts):
            ts = [t for t in ts if t.period < o.period]
        t = rng.choice(ts or y.orbits)
        off = rng.randrange(t.period)
        for r in range(o.period):
            vm[o.point(r)] = t.point(r + off)
    return vm


def _image_graph(rng, x, tag):
    """A graph that x maps into by a block map that folds orbits: each orbit
    of x goes to a fresh orbit whose period is a random divisor of its own,
    or onto one made earlier, and each class of x to the class of its image,
    with a count within one of its own.  Returns the graph and the map."""
    made, vm = {}, {}
    for i, o in enumerate(x.orbits):
        d = rng.choice([d for d in range(1, o.period + 1) if o.period % d == 0])
        if made.get(d) and rng.random() < 0.3:
            t = rng.choice(made[d])
        else:
            t = PeriodicOrbit(tuple("%s%d_%d" % (tag, i, k) for k in range(d)))
            made.setdefault(d, []).append(t)
        off = rng.randrange(d)
        for r in range(o.period):
            vm[o.point(r)] = t.point(r + off)
    chosen, counts = {}, {}
    for ((a, b), c) in x.transitions:
        u, v = vm[a], vm[b]
        key = StructureGraph.shift_class(u, v)
        counts[(u, v)] = chosen.setdefault(key, max(1, c + rng.randint(-1, 1)))
    return StructureGraph.make([t for ts in made.values() for t in ts], counts), vm


def _differential_pairs():
    """(source, target, a map or None) triples: random structure graphs
    with periods up to 4 (so classes between periods 2 and 4, of gcd 2)
    against random graphs, their renamed twins and their folded images, and
    with one class dropped against themselves; hom gadgets; and the
    two-cycle graphs of the structure tests."""
    rng = random.Random(4139)
    pairs = []
    for _ in range(110):
        x = random_structure_graph(rng, max_orbits=4, max_period=4, max_count=3)
        y = random_structure_graph(rng, max_orbits=4, max_period=4, max_count=4)
        pairs += [(x, y, None), (x, rename_structure(x, "p"), None),
                  (x,) + _image_graph(rng, x, "f")]
        # x with one transition class fewer, into x: the identity embeds
        # it but is no conjugacy
        classes = [k for (k, _c) in x.transition_classes if k[0] != k[1]]
        if classes:
            gone = StructureGraph.shift_class(*rng.choice(classes))
            less = StructureGraph.make(x.orbits, {
                k: c for (k, c) in x.transitions
                if StructureGraph.shift_class(*k) != gone})
            pairs.append((less, x, {p: p for p in x.points()}))
    pool = [hom_gadget(random_simple_graph(rng, max_vertices=4)) for _ in range(8)]
    pairs += [(g, h, None) for g in pool for h in pool[:4]]
    cycles = [build_structure(g) for g in _two_cycle_graphs()]
    pairs += [(g, h, None) for g in cycles for h in cycles[:2]]
    pairs += [(g, rename_structure(g, "p"), None) for g in cycles]
    return rng, pairs


def _mutants(rng, x, y, pairs):
    """Pair sequences one change away from `pairs`: one image moved to
    another point of y, outside y or to no point at all; one source
    missing, or replaced by a point outside x; one source named once more,
    with its own image or with another point of y, before or after the
    rest; or the pairs reversed."""
    i = rng.randrange(len(pairs))
    a, b = pairs[i]
    before, after = pairs[:i], pairs[i + 1:]
    outside = canonicalize_point(("out", "side"), rng.randrange(2))
    for image in (rng.choice(y.points()), rng.choice(y.points()),
                  outside, "not a point", None):
        yield before + [(a, image)] + after
    yield before + after
    yield before + [(outside, b)] + after
    for image in (b, rng.choice(y.points())):
        yield [(a, image)] + pairs
        yield pairs + [(a, image)]
    yield pairs[::-1]


def test_verify_witness_agrees_with_reference():
    rng, pairs = _differential_pairs()
    calls = accepted = 0
    for (x, y, folding) in pairs:
        maps = [list(folding.items())] if folding else []
        for mode in ALL_MODES:
            w = decide(mode, x, y)
            if w is not None:
                maps.append(list(w.pairs))
        maps += [list(_orbit_map(rng, x, y, collapse).items())
                 for collapse in (False, True, True)]
        for seq in list(maps):
            maps += _mutants(rng, x, y, seq)
        for seq in maps:
            h = SGHomomorphism(tuple(seq))
            for mode in ALL_MODES:
                want = reference_verify(mode, x, y, h)
                assert verify_witness(mode, x, y, h) == want, (mode, x, y, seq)
                calls += 1
                accepted += want
    assert calls >= 20000 and accepted >= 2000, (calls, accepted)


def test_decide_agrees_with_exhaustive_search():
    rng = random.Random(71)
    for _ in range(60):
        x = random_structure_graph(rng, max_orbits=3, max_period=3, max_count=3)
        y = random_structure_graph(rng, max_orbits=3, max_period=3, max_count=3)
        for mode in ALL_MODES:
            got = decide(mode, x, y)
            want = _first_witness_by_enumeration(mode, x, y)
            assert (got is not None) == (want is not None), (mode, x, y)
            if got is not None:
                assert verify_witness(mode, x, y, got)


def _components(s):
    """The components of a structure graph: sets of orbits joined by
    transitions between distinct orbits."""
    comp = {o: frozenset([o]) for o in s.orbits}
    for ((a, b), _c) in s.transitions:
        joined = comp[a.orbit] | comp[b.orbit]
        for o in joined:
            comp[o] = joined
    return set(comp.values())


def _seeded_pairs(seed, count):
    """Seeded random pairs, each followed by the source against a renamed
    twin; sources have up to 4 orbits of period at most 3, so sources of
    two or more components occur."""
    rng = random.Random(seed)
    for _ in range(count):
        x = random_structure_graph(rng, max_orbits=4, max_period=3, max_count=3)
        y = random_structure_graph(rng, max_orbits=4, max_period=3, max_count=3)
        yield x, y
        yield x, rename_structure(x, "p")


def test_search_returns_first_enumerated_witness():
    multi = 0
    for (x, y) in _seeded_pairs(71, 300):
        multi += len(_components(x)) > 1
        for mode in ALL_MODES:
            assert search(mode, x, y) == \
                _first_witness_by_enumeration(mode, x, y), (mode, x, y)
    assert multi >= 200


def _rotate(h, orbits, t):
    """The map h with the images of the points on `orbits` shifted t
    times."""
    return SGHomomorphism.make(
        {a: (b.shift(t) if a.orbit in orbits else b) for (a, b) in h.pairs})


def test_rotating_one_component_keeps_a_witness():
    # the lemma behind trying offset 0 only at the first orbit of each
    # component, in every mode, factor included
    rotated = 0
    for (x, y) in _seeded_pairs(72, 150):
        comps = _components(x)
        for mode in ALL_MODES:
            w = search(mode, x, y)
            if w is None:
                continue
            images = dict(w.pairs)
            for comp in comps:
                first = min(comp, key=lambda o: o.sort_key())
                assert images[first.point(0)].phase == 0, (mode, x, y)
                for t in range(1, 7):
                    assert verify_witness(mode, x, y, _rotate(w, comp, t)), \
                        (mode, t, x, y)
                    rotated += 1
    assert rotated >= 2000


def test_factor_components_rotate_independently():
    # two components of the source supply one count each to the target
    # transitions z -> xy, whose count 2 neither covers alone; either
    # component may be rotated against the other
    x = make_structure([("c", 1), ("ab", 1), ("d", 1), ("ef", 1)],
                       [(("c", 0), ("ab", 0), 1), (("d", 0), ("ef", 0), 1)])
    y = make_structure([("z", 1), ("xy", 1)], [(("z", 0), ("xy", 0), 2)])
    comps = _components(x)
    assert len(comps) == 2
    w = decide(Mode.FACTOR, x, y)
    assert w is not None and verify_witness(Mode.FACTOR, x, y, w)
    assert w == _first_witness_by_enumeration(Mode.FACTOR, x, y)
    for comp in comps:
        for t in range(1, 7):
            assert verify_witness(Mode.FACTOR, x, y, _rotate(w, comp, t))
    # one component alone falls short of the count
    half = make_structure([("c", 1), ("ab", 1)], [(("c", 0), ("ab", 0), 1)])
    assert decide(Mode.FACTOR, half, y) is None


def test_conjugacy_is_an_equivalence():
    rng = random.Random(73)
    for _ in range(40):
        x = random_structure_graph(rng, max_orbits=4)
        assert decide(Mode.CONJUGACY, x, x) is not None
        y = random_structure_graph(rng, max_orbits=4)
        assert (decide(Mode.CONJUGACY, x, y) is not None) == \
               (decide(Mode.CONJUGACY, y, x) is not None)
        z = rename_structure(x, "q")
        zz = rename_structure(z, "r")
        assert decide(Mode.CONJUGACY, x, z) is not None
        assert decide(Mode.CONJUGACY, z, zz) is not None
        assert decide(Mode.CONJUGACY, x, zz) is not None


def test_conjugacy_witnesses_are_bijections():
    rng = random.Random(79)
    for _ in range(30):
        x = random_structure_graph(rng, max_orbits=4)
        y = rename_structure(x, "n")
        w = decide(Mode.CONJUGACY, x, y)
        assert w is not None
        images = [b for (_a, b) in w.pairs]
        assert len(set(images)) == len(images) == len(y.points())


def test_embedding_composes():
    rng = random.Random(83)
    done = 0
    for _ in range(200):
        if done >= 25:
            break
        x = random_structure_graph(rng, max_orbits=2, max_period=3, max_count=3)
        y = random_structure_graph(rng, max_orbits=3, max_period=3, max_count=5)
        z = random_structure_graph(rng, max_orbits=4, max_period=3, max_count=8)
        h1 = decide(Mode.EMBEDDING, x, y)
        h2 = decide(Mode.EMBEDDING, y, z)
        if h1 is None or h2 is None:
            continue
        done += 1
        composed = SGHomomorphism.make(
            {a: dict(h2.pairs)[b] for (a, b) in h1.pairs})
        assert verify_witness(Mode.EMBEDDING, x, z, composed)
        assert decide(Mode.EMBEDDING, x, z) is not None


def test_rank1_examples():
    x = periods_structure([2, 4], tag=1)
    y = periods_structure([2], tag=2)
    assert rank1_decide(Mode.BLOCK_MAP, x, y)
    assert rank1_decide(Mode.FACTOR, x, y)
    assert not rank1_decide(Mode.EMBEDDING, x, y)
    assert not rank1_decide(Mode.CONJUGACY, x, y)
    assert rank1_decide(Mode.FACTOR, periods_structure([2, 3, 6], 3),
                        periods_structure([2, 3], 4))
    assert not rank1_decide(Mode.FACTOR, periods_structure([4], 5),
                            periods_structure([2, 4], 6))


def test_rank1_factor_deep_matching():
    # 1200 fixed points a side: the cover check must not recurse per point
    x = periods_structure([1] * 1200, tag=1)
    y = periods_structure([1] * 1200, tag=2)
    assert rank1_decide(Mode.FACTOR, x, y)
    assert not rank1_decide(Mode.FACTOR, x, periods_structure([1] * 1201, tag=3))


# Factor rule cases on rank-1 graphs, by period: the source periods, the
# target periods, and per source orbit the index of its target orbit in the
# first witness (None: no witness).
@pytest.mark.parametrize("ps, qs, targets", [
    # the second source reuses y0, whose class already has a covered target
    ([1, 1, 2], [1, 2], [0, 0, 1]),
    # the first source takes y0, the first target of a class with none
    # covered, while the later sources still cover every target
    ([2, 2, 2, 2], [1, 1, 2], [0, 0, 1, 2]),
    # covering y0 would leave the period-3 source nothing it can cover, so
    # the first source skips its first divisor class
    ([2, 3], [1, 2], [1, 0]),
    # the loop says NO with two sources still unplaced: period 2 has two
    # targets and one source whose period it divides
    ([2, 3, 3], [1, 2, 2], None),
])
def test_rank1_factor_rule_cases(ps, qs, targets):
    x, y = periods_structure(ps, tag=1), periods_structure(qs, tag=2)
    w = decide(Mode.FACTOR, x, y)
    assert w == search(Mode.FACTOR, x, y)
    assert rank1_decide(Mode.FACTOR, x, y) == (targets is not None)
    if targets is not None:
        assert [y.orbits.index(b.orbit) for (a, b) in w.pairs
                if a.phase == 0] == targets


def _rank1_factor_reference(x, y):
    """The rank-1 factor rule with a fresh maximum flow per check: per
    source orbit of x, the index of its target orbit in y in the first
    witness, or None.  Each source in order asks `_covers_reference`
    whether the later sources still cover every uncovered target; if so it
    takes the first target of its first divisor class, covering it if that
    class had none covered, else it covers the first uncovered target of
    the first divisor class whose cover keeps a cover."""
    xt, yt = _tables(x), _tables(y)
    ps, classes = xt.periods, yt.by_period
    divisors = {p: [q for q in classes if p % q == 0] for p in xt.by_period}
    if not all(divisors.values()):
        return None
    supply = {p: len(js) for p, js in xt.by_period.items()}
    uncovered = {q: len(js) for q, js in classes.items()}
    out = []
    for p in ps:
        supply[p] -= 1
        if _covers_reference(supply, uncovered):
            q = divisors[p][0]
            if uncovered[q] == len(classes[q]):
                uncovered[q] -= 1
            out.append(classes[q][0])
            continue
        for q in divisors[p]:
            if uncovered[q]:
                uncovered[q] -= 1
                if _covers_reference(supply, uncovered):
                    out.append(classes[q][-1 - uncovered[q]])
                    break
                uncovered[q] += 1
        else:
            return None
    return None if any(uncovered.values()) else out


def _covers_reference(supply, demand):
    """Whether sources counted per period in `supply` can cover targets
    counted per period in `demand`, a source of period p on a target of
    period q only when q divides p: a maximum flow over period classes
    from a greedy start, by breadth-first augmenting paths."""
    need = sum(demand.values())
    if not need or need > sum(supply.values()):
        return not need
    ps = [p for p, c in supply.items() if c]
    qs = [q for q, c in demand.items() if c]
    # node 0 is the source, 1 the sink, then the classes of ps and of qs;
    # cap[u][v] is the residual capacity of u -> v, reverse arcs included
    cap = [{} for _ in range(2 + len(ps) + len(qs))]
    rest = {b: demand[q] for b, q in enumerate(qs, 2 + len(ps))}
    for a, p in enumerate(ps, 2):
        left = supply[p]
        for b, q in enumerate(qs, 2 + len(ps)):
            if p % q == 0:
                sent = min(left, rest[b])
                cap[a][b], cap[b][a] = need - sent, sent
                left -= sent
                rest[b] -= sent
        cap[0][a], cap[a][0] = left, supply[p] - left
    for b, q in enumerate(qs, 2 + len(ps)):
        cap[b][1], cap[1][b] = rest[b], demand[q] - rest[b]
    need = sum(rest.values())
    while need:
        parent = {0: None}
        queue = [0]
        for u in queue:
            for v, c in cap[u].items():
                if c and v not in parent:
                    parent[v] = u
                    queue.append(v)
        if 1 not in parent:
            return False
        path, v = [], 1
        while parent[v] is not None:
            path.append((parent[v], v))
            v = parent[v]
        amount = min(cap[u][v] for (u, v) in path)
        for (u, v) in path:
            cap[u][v] -= amount
            cap[v][u] += amount
        need -= amount
    return True


@pytest.mark.slow
def test_rank1_factor_rule_matches_reference():
    # the kept flow gives the reference's target list on random period
    # multisets and on every pair of the criterion-8 grid; the rule reads
    # only the sorted periods, so one graph serves each multiset
    graphs = {}

    def graph(periods, tag):
        key = (tuple(sorted(periods)), tag)
        if key not in graphs:
            graphs[key] = periods_structure(key[0], tag)
        return graphs[key]

    rng = random.Random(2614)
    pairs = [(graph([rng.choice((1, 2, 3, 4, 6, 8, 12))
                     for _ in range(rng.randint(1, 9))], 1),
              graph([rng.choice((1, 2, 3, 4, 6)) for _ in range(rng.randint(1, 7))], 2))
             for _ in range(20000)]
    grid = [graph(m, 3) for k in range(1, 6)
            for m in itertools.combinations_with_replacement(range(1, 7), k)]
    pairs += itertools.product(grid, grid)
    yes = 0
    for x, y in pairs:
        xt, yt = _tables(x), _tables(y)
        got = (None if _refuted(Mode.FACTOR, xt, yt)
               else decisions._rank1_targets(Mode.FACTOR, xt, yt))
        assert got == _rank1_factor_reference(x, y), (x.orbits, y.orbits)
        yes += got is not None
    assert len(pairs) == 20000 + 461 ** 2 and yes >= 10000


def test_rank1_factor_flow_augments_a_pinned_number_of_times(monkeypatch):
    # searches for an augmenting path in `decide(FACTOR)` on rank-1 pairs
    # of unequal periods, counted: the flow of `_cover` starts empty, so one
    # per target class at least, once in the gate `_refuted` and once more
    # for `_rank1_targets` to mend; a NO ends in the gate, and the gate
    # needs no flow when every target period divides every source period.
    # Four on a deep pair whatever its size, two per flow, the first of
    # which moves every fixed point at once, and then no class has slack
    # to search from
    calls = []
    augment = decisions._augment

    def counted(*args):
        calls.append(args)
        return augment(*args)

    def count(ps, qs):
        calls.clear()
        w = decide(Mode.FACTOR, periods_structure(ps, tag=1),
                   periods_structure(qs, tag=2))
        return w is not None, len(calls)

    monkeypatch.setattr(decisions, "_augment", counted)
    for ps, qs, n in (([1, 1, 2], [1, 2], 4), ([2, 2, 2, 2], [1, 1, 2], 2),
                      ([2, 3], [1, 2], 5)):
        assert count(ps, qs) == (True, n), (ps, qs)
    assert count([2, 3, 3], [1, 2, 2]) == (False, 3)
    for size in (1200, 12000):
        assert count([2] * size + [3], [1] * size + [3]) == (True, 4), size
    # the gate's flow covers the fixed points at once and finds no feeder
    # for the period-3 target
    assert count([2] * 1201, [1] * 1200 + [3]) == (False, 2)
    # the scaling of the kept flow: 900 orbits of periods 1 .. 30 against
    # 600 and 870, where a fresh flow per check (`_rank1_factor_reference`)
    # takes over 30 times as long
    x = list(range(1, 31)) * 30
    for copies, n in ((20, 1820), (29, 1740)):
        assert count(x, list(range(1, 31)) * copies) == (True, n), copies


def test_search_tables_grow_linearly_in_the_graph():
    # per orbit the tables keep its first bit, not a mask as wide as the
    # points before it: the whole table of 20,000 fixed points, every field
    # built, holds 7.4MB, where one mask per orbit made it 34.7MB
    s = periods_structure([1] * 20000)
    tracemalloc.start()
    try:
        t = _tables(s)
        assert len(t.choices) == 20000 and t.base[-1] == 19999
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 12 * 10 ** 6, held


def test_rank1_requires_rank_one(fig1_structure):
    with pytest.raises(NotRankOne):
        rank1_decide(Mode.CONJUGACY, fig1_structure, fig1_structure)
    assert not is_rank_one(fig1_structure)
    assert is_rank_one(periods_structure([1, 2]))


def test_rank1_refusal_names_a_count_past_the_digit_limit():
    # 2**15000 has 4,516 digits, past Python's default int/str limit of 4,300
    s = build_structure(chain_graph(15000))
    with pytest.raises(NotRankOne) as info:
        rank1_decide(Mode.CONJUGACY, s, s)
    assert str(info.value) == "transition edge %r -> %r count %s" % (
        pt("0"), pt("3"), Decimal(2 ** 15000))


def test_rank1_refusal_quoting_a_long_orbit_stays_short():
    # both ends of the class are quoted through core._clip: unclipped, the
    # reprs of a point on this 2,000-symbol orbit made a 41,908-character
    # message (192 characters clipped)
    s = make_structure([(tuple("sym%d" % k for k in range(2000)), 2)])
    with pytest.raises(NotRankOne) as info:
        rank1_decide(Mode.FACTOR, s, s)
    text = str(info.value)
    assert text.startswith("transition edge PeriodicPoint(")
    assert text.endswith(" characters) count 2") and len(text) < 300, text


def test_each_decision_runs_the_gate_once(monkeypatch, fig1_structure):
    # `decide` on rank-1 pairs, YES and NO, and on a rank-2 pair, which it
    # hands to `search`; `search`; and `rank1_decide`
    calls = []
    gate = decisions._refuted

    def counted(*args):
        calls.append(args)
        return gate(*args)

    monkeypatch.setattr(decisions, "_refuted", counted)
    twin = rename_structure(fig1_structure, "r")
    yes = periods_structure([1, 2, 2], 1), periods_structure([1, 2], 2)
    no = periods_structure([1, 2], 3), periods_structure([3], 4)
    for mode in ALL_MODES:
        for run, (x, y) in ((decide, yes), (decide, no),
                            (decide, (fig1_structure, twin)),
                            (search, (fig1_structure, twin)),
                            (rank1_decide, yes), (rank1_decide, no)):
            calls.clear()
            run(mode, x, y)
            assert calls == [(mode, _tables(x), _tables(y))], (mode, run)


def test_rank1_agrees_with_general_decide():
    rng = random.Random(89)
    for _ in range(80):
        x = periods_structure([rng.randint(1, 6) for _ in range(rng.randint(1, 4))], 7)
        y = periods_structure([rng.randint(1, 6) for _ in range(rng.randint(1, 4))], 8)
        for mode in ALL_MODES:
            assert rank1_decide(mode, x, y) == (search(mode, x, y) is not None)


def test_decide_rank1_witness_is_first_search_witness():
    # targets are the same periods, divisors of a sample of the source
    # periods (factor YES with orbits to spare), or independent draws
    rng = random.Random(4127)
    for _ in range(150):
        ps = [rng.randint(1, 8) for _ in range(rng.randint(0, 7))]
        r = rng.random()
        if r < 0.25:
            qs = ps
        elif r < 0.6:
            qs = [rng.choice([d for d in range(1, p + 1) if p % d == 0])
                  for p in rng.sample(ps, rng.randint(0, len(ps)))]
        else:
            qs = [rng.randint(1, 8) for _ in range(rng.randint(0, 7))]
        x, y = periods_structure(ps, 1), periods_structure(qs, 2)
        for mode in ALL_MODES:
            assert decide(mode, x, y) == search(mode, x, y), (mode, x, y)


def _deep_pairs():
    """1200 fixed points against a renamed copy: once rank 1, once with a
    count-1 transition from the first point to the second (not rank 1)."""
    x = periods_structure([1] * 1200, tag=1)
    yield x, periods_structure([1] * 1200, tag=2)
    a, b = x.orbits[0].point(0), x.orbits[1].point(0)
    counts = dict(x.transitions)
    counts[(a, b)] = 1
    xb = StructureGraph.make(x.orbits, counts)
    yield xb, rename_structure(xb, "r")


def _built(g):
    """build_structure(g), or None when it refuses g."""
    try:
        return build_structure(g)
    except SoficError:
        return None


def _two_block(g):
    """The 2-block presentation of g: one vertex per edge, and an edge
    e -> f labelled L(e).L(f) when e ends where f starts.  It is
    right-resolving, its cycles are disjoint when g's are, and it has g's
    rank."""
    name = "%s>%s:%s".__mod__
    return LabeledGraph.make([], [(name(e), name(f), "%s.%s" % (e[2], f[2]))
                                  for e in g.edges for f in g.edges if e[1] == f[0]])


@settings(derandomize=True, database=None, deadline=None)
@given(st.randoms(use_true_random=False))
def test_two_block_recoding_is_a_conjugacy(rng):
    # the 2-block presentation presents a shift conjugate to g's (Lind and
    # Marcus 1995, sections 1.4 and 2.3), and the structure graph is a
    # conjugacy invariant
    g = random_certified_graph(rng)
    x, y = _built(g), _built(_two_block(g))
    assume(x is not None and y is not None)
    w = decide(Mode.CONJUGACY, x, y, budget=10 ** 4)
    assert w is not None and verify_witness(Mode.CONJUGACY, x, y, w)


@settings(derandomize=True, database=None, deadline=None)
@given(st.randoms(use_true_random=False))
def test_a_subshift_embeds_in_its_shift(rng):
    # deleting edges presents a subshift, whose inclusion is an injective
    # shift-commuting map: so an embedding and a block map exist
    g = random_certified_graph(rng)
    edges = list(g.edges)
    kept = rng.sample(edges, len(edges) - max(1, len(edges) // 10))
    x, y = _built(LabeledGraph.make([], kept)), _built(g)
    assume(x is not None and y is not None)
    for mode in (Mode.EMBEDDING, Mode.BLOCK_MAP):
        w = decide(mode, x, y, budget=10 ** 4)
        assert w is not None and verify_witness(mode, x, y, w), mode


@settings(derandomize=True, database=None, deadline=None)
@given(st.randoms(use_true_random=False))
def test_in_splitting_keeps_the_structure_graph(rng):
    # split a vertex's in-edges into two nonempty groups, one per copy, and
    # give both copies every out-edge (Lind and Marcus 1995, section 2.4):
    # the labels, the shift and right-resolving are kept
    g = random_certified_graph(rng)
    ins = {}
    for e in g.edges:
        ins.setdefault(e[1], []).append(e)
    split = sorted(v for v, es in ins.items() if len(es) > 1)
    assume(split)
    v = rng.choice(split)
    group = rng.sample(ins[v], rng.randint(1, len(ins[v]) - 1))
    copy = ("%s/0" % v, "%s/1" % v)

    def end(e):
        return "%s/%d" % (v, e in group) if e[1] == v else e[1]

    edges = [(s, end(e), e[2]) for e in g.edges
             for s in (copy if e[0] == v else (e[0],))]
    x = _built(g)
    assume(x is not None)
    assert build_structure(LabeledGraph.make([], edges)) == x


@settings(derandomize=True, database=None, deadline=None)
@given(st.randoms(use_true_random=False))
def test_renaming_symbols_keeps_every_answer(rng):
    # an order-reversing renaming changes least rotations and the search
    # order, but it is a one-block conjugacy of each shift
    def renamed(g):
        flip = dict(zip("abc", "zyx"))
        return LabeledGraph.make([], [(a, b, flip[s]) for (a, b, s) in g.edges])

    g, h = random_certified_graph(rng), random_certified_graph(rng)
    x, y, rx, ry = map(_built, (g, h, renamed(g), renamed(h)))
    assume(None not in (x, y))
    for mode in ALL_MODES:
        w, rw = (decide(mode, s, t, budget=10 ** 4) for (s, t) in ((x, y), (rx, ry)))
        assert (w is None) == (rw is None), mode
        assert w is None or verify_witness(mode, x, y, w), mode
        assert rw is None or verify_witness(mode, rx, ry, rw), mode
    w = decide(Mode.CONJUGACY, x, rx, budget=10 ** 4)
    assert w is not None and verify_witness(Mode.CONJUGACY, x, rx, w)


def _rotated(rng, s):
    """s with orbit i respelled r<i>_0 ... r<i>_{p-1} and its phases moved
    on by a seeded d_i in [0, p), transitions mapped point by point: a
    graph isomorphic to s whose isomorphisms may need nonzero phase
    offsets."""
    image = {}
    for i, o in enumerate(s.orbits):
        d = rng.randrange(o.period)
        w = tuple("r%d_%d" % (i, k) for k in range(o.period))
        image.update((a, canonicalize_point(w, r + d))
                     for r, a in enumerate(o.points))
    return StructureGraph.make({image[o.points[0]].orbit for o in s.orbits},
                               {(image[a], image[b]): c
                                for ((a, b), c) in s.transitions})


def test_rotated_phases_keep_every_mode():
    # a conjugacy first witness that maps some phase 0 to a nonzero phase
    # shows that the property reaches offsets other than 0 (40 of 666
    # phase-0 images over these seeds)
    turned = 0
    for seed in range(200):
        rng = random.Random(seed)
        x = random_structure_graph(rng)
        y = _rotated(rng, x)
        for mode in ALL_MODES:
            w = decide(mode, x, y, budget=10 ** 4)
            assert w is not None and verify_witness(mode, x, y, w), (seed, mode)
            if mode is Mode.CONJUGACY:
                turned += sum(b.phase != 0 for (a, b) in w.pairs if a.phase == 0)
    assert turned


def _point_graph(s):
    """s as a networkx digraph on its points: an edge per rotation step
    p -> p.shift(1) and per transition, labelled with whether it is a
    rotation edge and with its transition count, 0 when there is none."""
    import networkx as nx

    d = nx.DiGraph()
    d.add_edges_from(((p, p.shift(1)) for o in s.orbits for p in o.points),
                     rot=True, count=0)
    for (a, b), c in s.transitions:
        d.add_edge(a, b, rot=d.has_edge(a, b), count=c)
    return d


def _bipartite_twins(rng, n):
    """A 2-coloured graph on v00 .. v{n-1}, vertex i coloured i mod 2 and
    each (even, odd) pair an edge with probability 0.3, drawn again while
    a vertex is isolated; its twin, the vertices shuffled within each
    colour; and the twin with one edge moved to a non-edge, drawn again
    while a vertex is isolated.  As gi_gadget structure graphs."""
    vs = ["v%02d" % i for i in range(n)]
    colour = {v: i % 2 for i, v in enumerate(vs)}
    pairs = list(itertools.product(vs[0::2], vs[1::2]))
    edges = []
    while len({v for e in edges for v in e}) < n:
        edges = [e for e in pairs if rng.random() < 0.3]
    name = {}
    for side in (vs[0::2], vs[1::2]):
        name.update(zip(side, rng.sample(side, len(side))))
    twin = [(name[a], name[b]) for (a, b) in edges]
    moved = []
    while len({v for e in moved for v in e}) < n:
        moved = rng.sample(twin, len(twin) - 1)
        moved.append(rng.choice([e for e in pairs if e not in twin]))
    return [gi_gadget(ColoredGraph.make(colour, es)) for es in (edges, twin, moved)]


def _bumped(rng, s):
    """s with the count of one seeded transition class raised by 1."""
    (a, b), _c = rng.choice(s.transition_classes)
    counts = dict(s.transitions)
    for t in range(lcm(a.period, b.period)):
        counts[(a.shift(t), b.shift(t))] += 1
    return StructureGraph.make(s.orbits, counts)


def test_conjugacy_matches_networkx_isomorphism():
    # a conjugacy is a bijection of points that commutes with the shift
    # and keeps every transition count, 0 included: an isomorphism of the
    # point graphs that keeps both edge labels (VF2, Cordella et al. 2004)
    from networkx.algorithms.isomorphism import (DiGraphMatcher,
                                                 categorical_edge_match)

    match = categorical_edge_match(["rot", "count"], [False, 0])
    families = {"twins": [], "two-block": [], "rotated": []}
    rng = random.Random(11)
    for n in (6, 8, 10, 12):
        for _ in range(5):
            x, twin, moved = _bipartite_twins(rng, n)
            families["twins"] += [(x, twin), (x, moved)]
    rng = random.Random(5)
    while len(families["two-block"]) < 40:
        g, h = random_certified_graph(rng), random_certified_graph(rng)
        x, y, z = _built(g), _built(_two_block(g)), _built(_two_block(h))
        if None not in (x, y, z):
            families["two-block"] += [(x, y), (x, z)]
    rng = random.Random(7)
    for _ in range(30):
        x, other = random_structure_graph(rng), random_structure_graph(rng)
        families["rotated"] += [(x, _rotated(rng, x)), (x, _rotated(rng, other)),
                                (x, _rotated(rng, _bumped(rng, x)))]
    for family, pairs in families.items():
        answers = Counter()
        for (x, y) in pairs:
            w = decide(Mode.CONJUGACY, x, y)
            want = DiGraphMatcher(_point_graph(x), _point_graph(y),
                                  edge_match=match).is_isomorphic()
            assert (w is not None) == want, (family, x, y)
            assert w is None or verify_witness(Mode.CONJUGACY, x, y, w), family
            answers[want] += 1
        assert answers[True] and answers[False], (family, answers)


def test_deep_pairs_need_no_recursion():
    for (x, y) in _deep_pairs():
        for mode in ALL_MODES:
            w = decide(mode, x, y)
            assert w is not None and verify_witness(mode, x, y, w), mode


def _pinned_pairs():
    """Seeded random pairs with renamed twins, seeded rank-1 pairs both
    ways, and the first ten pairs of the criterion-7 gadget stream."""
    rng = random.Random(4111)
    pairs = []
    for _ in range(30):
        x = random_structure_graph(rng, max_orbits=4, max_period=3, max_count=4)
        y = random_structure_graph(rng, max_orbits=4, max_period=3, max_count=6)
        pairs += [(x, y), (x, rename_structure(x, "p"))]
    for _ in range(20):
        x = periods_structure([rng.randint(1, 6) for _ in range(rng.randint(1, 5))], 1)
        y = periods_structure([rng.randint(1, 6) for _ in range(rng.randint(1, 5))], 2)
        pairs += [(x, y), (y, x)]
    rng = random.Random(2027)
    pool = [random_simple_graph(rng, max_vertices=6) for _ in range(40)]
    gadgets = {}
    for _ in range(10):
        i, j = rng.randrange(len(pool)), rng.randrange(len(pool))
        for k in (i, j):
            if k not in gadgets:
                gadgets[k] = hom_gadget(pool[k])
        pairs.append((gadgets[i], gadgets[j]))
    return pairs


# sha256 of the witnesses (or NO) on _pinned_pairs in ALL_MODES order, as
# the recursive search that `search` replaced returned them: 196 YES of 440
PINNED_WITNESS_DIGEST = (
    "6f90cb0d1422b688eb8547fb65fa91f51b56d005ef417ae96489b96a9f23582f")


def test_search_first_witnesses_are_pinned():
    h = hashlib.sha256()
    for (x, y) in _pinned_pairs():
        for mode in ALL_MODES:
            w = search(mode, x, y)
            h.update((formats.format_witness(w) if w is not None else "NO\n").encode())
    assert h.hexdigest() == PINNED_WITNESS_DIGEST


def _gadget_stream_pairs():
    """The hom gadgets of the first 60 pairs of the seed-2027 stream over
    a 40-graph pool: the gadget pairs of the decide-search benchmark."""
    rng = random.Random(2027)
    pool = [random_simple_graph(rng, max_vertices=6) for _ in range(40)]
    pairs = [(rng.randrange(40), rng.randrange(40)) for _ in range(60)]
    gadgets = [hom_gadget(g) for g in pool]
    return [(gadgets[i], gadgets[j]) for (i, j) in pairs]


# sha256 of the witnesses (or NO) of `search` on _gadget_stream_pairs in
# ALL_MODES order, as the search that read member-level counts and narrowed
# domain lists returned them: 94 YES of 240
GADGET_STREAM_DIGEST = (
    "8ca0b3a3f8be5360129b7d74cf4f7f30e9cebe8002b8aa4fdc9c5fb03bab4b4e")


def test_search_first_witnesses_on_the_gadget_stream_are_pinned():
    h = hashlib.sha256()
    for (x, y) in _gadget_stream_pairs():
        for mode in ALL_MODES:
            w = search(mode, x, y)
            h.update((formats.format_witness(w) if w is not None else "NO\n").encode())
    assert h.hexdigest() == GADGET_STREAM_DIGEST


@pytest.mark.slow
def test_counting_refutations_hold_no_witness():
    # whenever periods or class counts alone refute a pair, exhaustive
    # enumeration finds no witness either; the class counts refute factors
    # whose orbit counts would allow one, and every refuted embedding
    fired = Counter()
    for (x, y) in _seeded_pairs(74, 200):
        for (a, b) in ((x, y), (y, x)):
            for mode in ALL_MODES:
                if not _refuted(mode, _tables(a), _tables(b)):
                    continue
                assert _first_witness_by_enumeration(mode, a, b) is None, \
                    (mode, a, b)
                fired[mode, len(a.orbits) >= len(b.orbits)] += 1
    assert fired[Mode.FACTOR, True] >= 20, fired
    assert fired[Mode.EMBEDDING, True] + fired[Mode.EMBEDDING, False] >= 20, fired
    assert fired[Mode.CONJUGACY, True] >= 20, fired
    # a source period that no target period divides
    assert fired[Mode.BLOCK_MAP, True] + fired[Mode.BLOCK_MAP, False] >= 90, fired
    # in rank 1 the gate is exact: on the criterion-8 multisets of at most
    # 3 orbits, it refutes a pair exactly when enumeration finds no witness
    multisets = [m for k in range(1, 4)
                 for m in itertools.combinations_with_replacement(range(1, 7), k)]
    graphs = [periods_structure(m, tag=i) for i, m in enumerate(multisets)]
    fired.clear()
    for a, b in itertools.product(graphs, graphs):
        for mode in ALL_MODES:
            refuted = _refuted(mode, _tables(a), _tables(b))
            assert refuted == (_first_witness_by_enumeration(mode, a, b) is None), \
                (mode, a, b)
            fired[mode, refuted] += 1
    assert len(multisets) == 83 and all(fired[mode, True] >= 3000
                                        for mode in ALL_MODES), fired
    assert all(fired[mode, False] >= 80 for mode in ALL_MODES), fired


def test_search_counts_one_node_per_accepted_choice(fig1_structure):
    # conjugacy of a graph with a renamed twin: the first choice of every
    # orbit is kept, so the search takes one node per orbit
    y = rename_structure(fig1_structure, "r")
    n = len(fig1_structure.orbits)
    assert search(Mode.CONJUGACY, fig1_structure, y, budget=n) is not None
    with pytest.raises(BudgetExceeded):
        search(Mode.CONJUGACY, fig1_structure, y, budget=n - 1)
    with pytest.raises(BudgetExceeded):
        decide(Mode.CONJUGACY, fig1_structure, y, budget=n - 1)
    for budget in (0, -1):
        with pytest.raises(BudgetExceeded):
            decide(Mode.BLOCK_MAP, periods_structure([1]), periods_structure([1]),
                   budget=budget)


def test_a_budget_leaves_the_first_witness_unchanged():
    for (x, y) in _gadget_stream_pairs()[:12]:
        for mode in ALL_MODES:
            try:
                w = search(mode, x, y, budget=50)
            except BudgetExceeded:
                continue
            assert w == search(mode, x, y), mode


def _k3_gadget():
    return hom_gadget(SimpleGraph.make("abc", [("a", "b"), ("b", "c"),
                                               ("a", "c")]))


def _path_and_k4_into_k3():
    """hom_gadget of a path a000 .. a009 plus a K4 on z0 .. z3, against
    hom_gadget(K3): NO, since K4 is not 3-colourable, but the search maps
    the path's orbits first and takes over a million nodes to show it."""
    path = ["a%03d" % i for i in range(10)]
    edges = list(zip(path, path[1:]))
    edges += itertools.combinations(["z0", "z1", "z2", "z3"], 2)
    return hom_gadget(SimpleGraph.make([], edges)), _k3_gadget()


@pytest.mark.parametrize("run", [search, decide])
def test_every_search_stops_at_the_default_budget(run):
    x, y = _path_and_k4_into_k3()
    with pytest.raises(BudgetExceeded,
                       match="more than %d nodes" % DEFAULT_BUDGET):
        run(Mode.BLOCK_MAP, x, y)


@pytest.mark.parametrize("k", [10, 12])
def test_periods_settle_a_no_before_any_search(k):
    # an embedding with a fixed point too many and a factor onto a period-3
    # orbit that no source period feeds: without the gate's period counts,
    # each search passed the 10^6-node default budget at k = 10 and 12, in
    # 0.8-1.2s; the gate answers them within the smallest budget
    for mode, x, y in budget_exhausting_noes(k):
        t0 = time.perf_counter()
        assert decide(mode, x, y) is None, mode
        assert time.perf_counter() - t0 < 0.01, mode
        assert search(mode, x, y, budget=1) is None, mode


def test_no_budget_is_refused():
    x = _k3_gadget()
    one = periods_structure([1])
    assert not is_rank_one(x) and is_rank_one(one)
    # the rank-1 path runs no search, so `decide` refuses it up front
    for run, s in ((search, x), (decide, x), (decide, one)):
        with pytest.raises(BudgetExceeded, match="node budget None"):
            run(Mode.BLOCK_MAP, s, s, budget=None)


@pytest.mark.parametrize("budget", [None, 0.5])
def test_every_enumeration_refuses_a_budget_below_one(budget):
    # one rule, `core._check_budget`, refuses a budget in nodes and in
    # transitional paths alike, and names it as given
    g = LabeledGraph.make([], [("u", "u", "a"), ("u", "v", "b"), ("v", "v", "c")])
    x = _k3_gadget()
    for run, unit in ((lambda: oracle_structure(g, budget), "path"),
                      (lambda: search(Mode.BLOCK_MAP, x, x, budget), "node"),
                      (lambda: decide(Mode.BLOCK_MAP, x, x, budget), "node")):
        with pytest.raises(BudgetExceeded) as info:
            run()
        assert str(info.value) == "%s budget %s is below 1" % (unit, budget)


def _three_colourable(vertices, edges):
    """Whether a simple graph has a proper 3-colouring, by exact
    backtracking in DSATUR order (Brelaz 1979): the uncoloured vertex with
    the most distinct colours among its neighbours goes next, ties to the
    most uncoloured neighbours.  Reads nothing of sofic2."""
    adj = {v: set() for v in vertices}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    colour = {}

    def extend():
        if len(colour) == len(adj):
            return True
        v = max((u for u in adj if u not in colour),
                key=lambda u: (len({colour[w] for w in adj[u] if w in colour}),
                               sum(w not in colour for w in adj[u])))
        taken = {colour[w] for w in adj[v] if w in colour}
        for c in range(3):
            if c not in taken:
                colour[v] = c
                if extend():
                    return True
                del colour[v]
        return False

    return extend()


def test_block_maps_into_k3_match_an_exact_three_colouring():
    # known answers above the 8-vertex oracle cap: G is 3-colourable iff
    # hom_gadget(G) has a block map into hom_gadget(K3); random graphs with
    # n = 9 .. 14 vertices, none isolated, and m in [n, 2.3n] edges, near
    # the colouring threshold, under the default budget
    rng = random.Random(31)
    k3 = _k3_gadget()
    answers = Counter()
    for _ in range(60):
        n = rng.randint(9, 14)
        vs = ["g%02d" % i for i in range(n)]
        pairs = list(itertools.combinations(vs, 2))
        edges = ()
        while len({v for e in edges for v in e}) < n:
            edges = rng.sample(pairs, rng.randint(n, 23 * n // 10))
        x = hom_gadget(SimpleGraph.make(vs, edges))
        want = _three_colourable(vs, edges)
        w = decide(Mode.BLOCK_MAP, x, k3)
        assert (w is not None) == want, edges
        assert w is None or verify_witness(Mode.BLOCK_MAP, x, k3, w)
        answers[want] += 1
    assert answers[True] >= 10 and answers[False] >= 10, answers


# the smallest budget under which `search` returns, on the first 12 pairs
# of _gadget_stream_pairs and then _seeded_pairs(75, 15), in ALL_MODES
# order: 1 for a search that takes no node, else its node count
SEARCH_NODES = (
    6, 1, 6, 1, 6, 1, 6, 1, 3, 3, 1, 1, 3, 1, 3, 1, 8, 1, 725, 1, 4, 1, 4,
    1, 4, 1, 6, 1, 3, 3, 1, 1, 2, 1, 2, 1, 2, 2, 1, 1, 6, 1, 6, 1, 3, 6, 1,
    1, 4, 1, 1, 1, 4, 4, 4, 4, 1, 1, 1, 1, 1, 1, 1, 1, 4, 1, 3, 1, 4, 4, 4,
    4, 3, 1, 1, 1, 3, 3, 3, 3, 3, 1, 1, 1, 3, 3, 3, 3, 2, 1, 1, 1, 2, 2, 2,
    2, 3, 1, 1, 1, 3, 3, 3, 3, 1, 1, 1, 1, 2, 2, 2, 2, 3, 1, 4, 1, 3, 3, 3,
    3, 1, 1, 1, 1, 3, 3, 3, 3, 2, 1, 1, 1, 2, 2, 2, 2, 1, 1, 1, 1, 1, 1, 1,
    1, 2, 2, 1, 1, 2, 2, 2, 2, 3, 1, 3, 1, 3, 3, 3, 3, 3, 1, 2, 1, 3, 3, 3,
    3)


def test_search_node_counts_are_pinned():
    # the pruning keeps its strength: each search takes exactly its pinned
    # nodes (a budget below 1 is refused, so a pin of 1 fails at 0 too)
    pairs = _gadget_stream_pairs()[:12] + list(_seeded_pairs(75, 15))
    runs = [(mode, x, y) for (x, y) in pairs for mode in ALL_MODES]
    assert len(runs) == len(SEARCH_NODES)
    for (mode, x, y), n in zip(runs, SEARCH_NODES):
        search(mode, x, y, budget=n)
        with pytest.raises(BudgetExceeded):
            search(mode, x, y, budget=n - 1)


def _support_reference(t, start, later, choice):
    """Forward checking as `search` did it when it kept one list of masks
    per (level, choice): per (l, group) of `later`, the mask of the points
    in l's initial domain `start[l]` under which every class shared with l
    maps onto a target class whose count lies in [lo, hi], walking only the
    targets next to the chosen one and, on each, only the offsets from the
    lowest to the highest bit of start[l]."""
    j, off = choice
    yper, count, span, m = t.periods, t.count, t.span, len(t.periods)
    q = yper[j]
    out = []
    for (l, group) in later:
        mask = 0
        for jl in t.near[j]:
            # l's offsets 0, 1, ... on jl, from the low bit
            block = start[l] & ((1 << yper[jl]) - 1) << t.base[jl]
            if not block:
                continue
            # per shared class, under point (jl, offl) of l: its image key
            # is base + (d + sign * offl) % g
            g = gcd(q, yper[jl])
            leave, enter = (j * m + jl) * span, (jl * m + j) * span
            ends = [(leave, pl - pi - off, 1, lo, hi) if leaves
                    else (enter, pi + off - pl, -1, lo, hi)
                    for (pi, pl, leaves, lo, hi) in group]
            bit = block & -block
            for offl in range(block.bit_length() - bit.bit_length() + 1):
                for (base, d, sign, lo, hi) in ends:
                    if not lo <= count.get(base + (d + sign * offl) % g, 0) <= hi:
                        break
                else:
                    mask |= bit
                bit <<= 1
        out.append((l, mask))
    return out


def test_support_masks_match_the_per_level_reference():
    # a mask keyed by target point and class group, cut to l's initial
    # domain, is the mask the per-level reference builds, for every choice
    # of every source orbit's initial domain
    pairs = _gadget_stream_pairs()[:12] + list(_seeded_pairs(75, 15))
    checked = nonempty = 0
    for (x, y) in pairs:
        xt, yt = _tables(x), _tables(y)
        for mode in ALL_MODES:
            own, later, groups = decisions._source(xt, mode)
            injective = mode in decisions.INJECTIVE_MODES
            start = [_options(yt, p, not first, injective, mine)
                     for p, first, mine in zip(xt.periods, xt.first, own)]
            for i, row in enumerate(later):
                rows = [(l, groups[g]) for (l, g) in row]
                for b, choice in enumerate(yt.choices):
                    if not start[i] >> b & 1:
                        continue
                    got = [(l, start[l] & decisions._support(yt, choice, groups[g]))
                           for (l, g) in row]
                    assert got == _support_reference(yt, start, rows, choice), \
                        (mode, x, y, i, choice)
                    checked += len(got)
                    nonempty += sum(1 for (_l, mask) in got if mask)
    # 1,336 masks, 32 of them empty
    assert checked >= 1300 and 1200 <= nonempty <= checked - 30, (checked, nonempty)


# the _support masks that `search` builds on the first 6 pairs of
# _gadget_stream_pairs in hom, embed and factor mode, in that order: 63 in
# all, where one list of masks per (level, choice) took 129 _support calls
SUPPORT_COUNTS = (2, 0, 2, 2, 0, 2, 2, 2, 0, 6, 0, 6, 7, 0, 10, 8, 0, 8)


def test_search_builds_each_support_mask_once_per_call(monkeypatch):
    # within one call no (choice, group) mask is built twice, and a second
    # identical call builds them all again: masks are kept for the call only
    calls = []
    support = decisions._support

    def counted(t, choice, group):
        calls.append((choice, group))
        return support(t, choice, group)

    monkeypatch.setattr(decisions, "_support", counted)
    counts = []
    for (x, y) in _gadget_stream_pairs()[:6]:
        for mode in (Mode.BLOCK_MAP, Mode.EMBEDDING, Mode.FACTOR):
            runs = []
            for _ in range(2):
                calls.clear()
                search(mode, x, y)
                assert len(set(calls)) == len(calls), mode
                runs.append(len(calls))
            assert runs[0] == runs[1], mode
            counts.append(runs[0])
    assert tuple(counts) == SUPPORT_COUNTS


def test_domain_bits_are_target_points_in_search_order():
    # bit b of a domain is point b of the target, so the set bits of an
    # initial domain, low to high, are its choices in search order
    rng = random.Random(101)
    for _ in range(20):
        t = _tables(random_structure_graph(rng, max_orbits=8, max_period=6))
        for j, first in enumerate(t.base):
            assert first == min(b for b, (i, _r) in enumerate(t.choices) if i == j)
            assert [r for (i, r) in t.choices if i == j] == list(range(t.periods[j]))
        for p, shifts, injective in itertools.product(range(1, 7), (False, True),
                                                      (False, True)):
            mask = _options(t, p, shifts, injective, ())
            got = [c for b, c in enumerate(t.choices) if mask >> b & 1]
            assert got == [(j, off) for j, q in enumerate(t.periods)
                           if (q == p if injective else p % q == 0)
                           for off in (range(q) if shifts else (0,))]


def test_realize_orbit_map_examples(fig1_structure):
    # identity on Figure 1
    ident = SGHomomorphism.make({p: p for p in fig1_structure.points()})
    out = realize_orbit_map(Mode.CONJUGACY, fig1_structure, fig1_structure, ident)
    for ((ta, tb), assign) in out.items():
        for ((edge, i), j) in assign.items():
            assert edge == (ta, tb) and i == j
    # embedding 2 -> 3
    two, three = make_structure([("a", 2)]), make_structure([("a", 3)])
    w = decide(Mode.EMBEDDING, two, three)
    a = pt("a")
    out = realize_orbit_map(Mode.EMBEDDING, two, three, w)
    assert out[(a, a)] == {((a, a), 0): 0, ((a, a), 1): 1}
    # factor 3 -> 2
    w = decide(Mode.FACTOR, three, two)
    out = realize_orbit_map(Mode.FACTOR, three, two, w)
    assert out[(a, a)] == {((a, a), 0): 0, ((a, a), 1): 1, ((a, a), 2): 1}


# sha256 of the realizations of decide's witnesses on the seed-4133 pairs
# below, as realize_orbit_map returned them when it scanned every source
# transition once per target transition: 784 witnesses
REALIZATION_DIGEST = (
    "52d5e984378554d9c77f4817a6711fe4fd6b3541e8074ef2984ddd76f5920278")


def test_realize_orbit_map_output_is_pinned():
    rng = random.Random(4133)
    h = hashlib.sha256()
    for _ in range(150):
        x = random_structure_graph(rng, max_orbits=4, max_period=4, max_count=4)
        y = random_structure_graph(rng, max_orbits=3, max_period=2, max_count=8)
        for y in (y, rename_structure(x, "p")):
            for mode in ALL_MODES:
                w = decide(mode, x, y)
                if w is not None:
                    h.update(repr(realize_orbit_map(mode, x, y, w)).encode())
    assert h.hexdigest() == REALIZATION_DIGEST


def test_realize_orbit_map_modewise_properties():
    rng = random.Random(97)
    for _ in range(40):
        x = random_structure_graph(rng, max_orbits=3, max_period=3, max_count=4)
        y = random_structure_graph(rng, max_orbits=3, max_period=3, max_count=6)
        for mode in (Mode.EMBEDDING, Mode.FACTOR, Mode.CONJUGACY):
            w = decide(mode, x, y)
            if w is None:
                continue
            out = realize_orbit_map(mode, x, y, w)
            for ((ta, tb), c) in y.transitions:
                assign = out[(ta, tb)]
                targets = sorted(assign.values())
                if mode is Mode.EMBEDDING:
                    assert len(set(assign.values())) == len(assign)
                if mode is Mode.FACTOR:
                    assert set(targets) == set(range(c))
                if mode is Mode.CONJUGACY:
                    assert targets == list(range(c))


def test_realize_orbit_map_reads_a_huge_target_count():
    # slot j of a target transition comes from the cursor: the slots of a
    # count of 2**200 are never listed
    x, y = make_structure([("a", 3)]), make_structure([("b", 2 ** 200)])
    a, b = pt("a"), pt("b")
    for mode in (Mode.BLOCK_MAP, Mode.EMBEDDING):
        w = decide(mode, x, y)
        start = time.perf_counter()
        out = realize_orbit_map(mode, x, y, w)
        assert time.perf_counter() - start < 0.1
        assert out == {(b, b): {((a, a), 0): 0, ((a, a), 1): 1, ((a, a), 2): 2}}


def test_realize_orbit_map_rejects_bad_witness(fig1_structure):
    bad = SGHomomorphism.make({p: pt("0") for p in fig1_structure.points()})
    with pytest.raises(WitnessInvalid):
        realize_orbit_map(Mode.CONJUGACY, fig1_structure, fig1_structure, bad)


def test_rank1_decide_and_verify_leave_transitions_unexpanded(
        fig1_structure, monkeypatch):
    # parse_structure counts the members of each class, decide on two
    # rank-1 graphs reads their orbits, search on graphs of rank 2 and
    # verify_witness read one member per class: none of them lists every
    # transition, which a counter on `transitions` shows
    texts = [formats.format_structure(z) for z in (
        periods_structure([1, 2, 2, 4], tag=1),
        periods_structure([1, 2, 2, 4], tag=2),
        fig1_structure, rename_structure(fig1_structure, "r"),
        *_gadget_stream_pairs()[0])]
    reads = []
    expand = StructureGraph.transitions.fget

    def counted(self):
        reads.append(self)
        return expand(self)

    monkeypatch.setattr(StructureGraph, "transitions", property(counted))
    x, y, s, t, u, v = map(formats.parse_structure, texts)
    for mode in ALL_MODES:
        w = decide(mode, x, y)
        assert w is not None and verify_witness(mode, x, y, w), mode
    ident = SGHomomorphism.make({p: p for p in s.points()})
    for mode in ALL_MODES:
        assert verify_witness(mode, s, s, ident), mode
    yes = 0
    for (a, b) in ((s, t), (t, s), (u, v), (v, u), (s, u)):
        for mode in ALL_MODES:
            w = search(mode, a, b)
            yes += w is not None
            assert w is None or verify_witness(mode, a, b, w), mode
    assert yes >= 8
    assert reads == []
    # the counter sees the one expansion that format_structure makes
    assert formats.format_structure(s) == texts[2]
    assert reads == [s]


@pytest.mark.parametrize("mode", ["conj", None])
def test_unknown_mode_is_refused_before_any_table(mode):
    # a mode that is not a Mode is refused before any table is built; let
    # through, "conj" reached a search that mixed the rules of the modes
    # and found conjugacies that do not exist
    rng = random.Random(3)
    pairs = [(periods_structure([1, 2, 2]), periods_structure([1, 2, 2], tag=1))]
    pairs += [(random_structure_graph(rng, max_orbits=3, max_period=3, max_count=4),
               random_structure_graph(rng, max_orbits=3, max_period=3, max_count=4))
              for _ in range(20)]
    for (x, y) in pairs:
        ident = SGHomomorphism.make({p: p for p in x.points()})
        before = set(x.__dict__), set(y.__dict__)
        for call in (decide, search, rank1_decide):
            with pytest.raises(ValueError, match="^unknown mode %r$" % (mode,)):
                call(mode, x, y)
        with pytest.raises(ValueError, match="^unknown mode %r$" % (mode,)):
            verify_witness(mode, x, x, ident)
        assert (set(x.__dict__), set(y.__dict__)) == before
    ranks = {is_rank_one(x) and is_rank_one(y) for (x, y) in pairs}
    assert ranks == {True, False}


def test_decisions_cache_one_table_per_graph(fig1_structure):
    # whatever the mode and the role of a graph, `decisions` keeps one
    # cache on it; the class counts are a field that `make` fills
    for s in (periods_structure([1, 2, 2, 3]), fig1_structure):
        for mode in Mode:
            decide(mode, s, s)
            search(mode, s, s)
            if is_rank_one(s):
                assert rank1_decide(mode, s, s)
            else:
                with pytest.raises(NotRankOne):
                    rank1_decide(mode, s, s)
        cached = set(s.__dict__) - {f.name for f in dataclasses.fields(s)}
        assert cached == {"_tables"}


def test_decide_empty_graphs():
    from sofic2 import StructureGraph
    empty = StructureGraph.make((), {})
    one = make_structure([("a", 1)])
    assert decide(Mode.BLOCK_MAP, empty, one) is not None
    assert decide(Mode.EMBEDDING, empty, one) is not None
    assert decide(Mode.FACTOR, empty, one) is None
    assert decide(Mode.CONJUGACY, empty, one) is None
    assert decide(Mode.CONJUGACY, empty, empty) is not None
