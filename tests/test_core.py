"""Core value types: canonical forms and their invariants."""

import copy
import gc
import pickle
import random
import re
import sys
import threading
import weakref
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from sofic2 import (
    CombRep,
    CombTerm,
    EventuallyPeriodicPoint,
    PeriodicOrbit,
    PeriodicPoint,
    StructureGraph,
    canonicalize_config,
    canonicalize_point,
    comb_rep,
    primitive_root,
    word,
)
from sofic2 import core, formats
from sofic2.core import refine_colors
from sofic2.errors import EmptyWord, InvalidCombRep, MalformedStructureGraph

from conftest import random_structure_graph


def test_primitive_root_examples():
    assert primitive_root(word("0101")) == (word("01"), 2)
    assert primitive_root(word("011")) == (word("011"), 1)
    assert primitive_root(word("aaa")) == (word("a"), 3)


def test_primitive_root_empty_word():
    with pytest.raises(EmptyWord):
        primitive_root(word(""))


def test_an_empty_orbit_or_point_is_refused():
    with pytest.raises(EmptyWord, match="orbit root must be nonempty"):
        PeriodicOrbit(())
    with pytest.raises(EmptyWord, match="cannot canonicalize the empty word"):
        canonicalize_point(())


def test_canonicalize_point_examples():
    p = canonicalize_point("21", 0)
    assert p.orbit.root == word("12") and p.phase == 1
    p = canonicalize_point("0", 5)
    assert p.orbit.root == word("0") and p.phase == 0
    p = canonicalize_point("1212", 1)
    assert p.orbit.root == word("12") and p.phase == 1


def test_canonicalize_point_orbit_invariance():
    rng = random.Random(101)
    for _ in range(200):
        n = rng.randint(1, 8)
        u = tuple(rng.choice("abc") for _ in range(n))
        base = canonicalize_point(u, 0)
        for d in range(n):
            rot = u[d:] + u[:d]
            # rotating the word by d and shifting the phase by d denote the
            # same configuration
            assert canonicalize_point(rot, -d) == base


def test_shift_point_examples():
    x = canonicalize_point("12", 0)
    assert x.shift(1).phase == 1
    assert x.shift(1).shift(1) == x
    fixed = canonicalize_point("0", 0)
    assert fixed.shift(-7) == fixed


def test_shift_point_group_laws():
    rng = random.Random(7)
    for _ in range(100):
        u = tuple(rng.choice("abc") for _ in range(rng.randint(1, 6)))
        x = canonicalize_point(u, rng.randint(-5, 5))
        assert x.shift(x.period) == x
        a, b = rng.randint(-9, 9), rng.randint(-9, 9)
        assert x.shift(a).shift(b) == x.shift(a + b)


def test_canonicalize_config_single_defect():
    zero = canonicalize_point("0", 0)
    cfg = canonicalize_config(zero, word("1"), zero)
    assert isinstance(cfg, EventuallyPeriodicPoint)
    assert cfg.defect == word("1")
    assert cfg.left == zero and cfg.right == zero


def test_canonicalize_config_absorbed_defect():
    zero = canonicalize_point("0", 0)
    assert canonicalize_config(zero, word("0"), zero) == zero


def test_canonicalize_config_empty_defect_junction():
    # (12)* 1 (13)* has an empty canonical defect: the junction symbol
    # extends the left tail
    left = canonicalize_point("12", 0)
    right = canonicalize_point("13", -1)
    cfg = canonicalize_config(left, word("1"), right)
    assert isinstance(cfg, EventuallyPeriodicPoint)
    assert cfg.left.orbit.root == word("12")
    assert cfg.right.orbit.root == word("13")
    assert cfg.defect == ()


def _raw_eval(left, middle, right, t):
    if t < 0:
        return left.at(t)
    if t < len(middle):
        return middle[t]
    return right.at(t)


def test_canonicalize_config_orbit_invariance():
    # describing the same configuration shifted by n in [-10, 10] yields the
    # identical canonical value.  A shift by -k widens the middle window by k
    # (the left tail keeps matching); positive shifts are covered because
    # every pair of descriptions in an orbit is related by some sigma^-k.
    rng = random.Random(13)
    for _ in range(150):
        lu = tuple(rng.choice("ab") for _ in range(rng.randint(1, 3)))
        ru = tuple(rng.choice("ab") for _ in range(rng.randint(1, 3)))
        mid = tuple(rng.choice("ab") for _ in range(rng.randint(0, 3)))
        left = canonicalize_point(lu, rng.randint(-3, 3))
        right = canonicalize_point(ru, rng.randint(-3, 3))
        base = canonicalize_config(left, mid, right)
        window = 4 * (len(mid) + left.period + right.period)
        for n in range(-10, 0):
            mid_n = tuple(_raw_eval(left, mid, right, t)
                          for t in range(n, len(mid)))
            shifted = canonicalize_config(left.shift(n), mid_n, right.shift(n))
            assert shifted == base
        if isinstance(base, EventuallyPeriodicPoint):
            # some shift of the raw configuration matches the canonical one
            matches = [s for s in range(-window, window + 1)
                       if all(base.at(t) == _raw_eval(left, mid, right, t + s)
                              for t in range(-window, window + 1))]
            assert matches


ab_words = st.lists(st.sampled_from(["a", "b"]), max_size=4).map(tuple)


@settings(derandomize=True, database=None, deadline=None)
@given(ab_words.filter(bool), st.integers(-4, 4), ab_words,
       ab_words.filter(bool), st.integers(-4, 4), st.integers(0, 12))
def test_canonicalize_config_is_constant_on_shift_orbits(lu, lp, mid, ru, rp, k):
    # the configuration shifted by k: k symbols of the left tail move into
    # the front of the middle word, and both tails shift by -k
    left, right = canonicalize_point(lu, lp), canonicalize_point(ru, rp)
    moved = tuple(left.at(t) for t in range(-k, 0))
    assert (canonicalize_config(left.shift(-k), moved + mid, right.shift(-k))
            == canonicalize_config(left, mid, right))


def test_canonicalize_config_shift_consistency_simple():
    left = canonicalize_point("12", 0)
    right = canonicalize_point("13", -1)
    base = canonicalize_config(left, word("1"), right)
    # same configuration written with the defect absorbed differently
    again = canonicalize_config(left.shift(2), word("1"),
                                canonicalize_point("13", -3).shift(2))
    assert base == again


def test_eventually_periodic_point_rejects_noncanonical():
    zero = canonicalize_point("0", 0)
    one = canonicalize_point("1", 0)
    with pytest.raises(ValueError):
        # onset not leftmost: defect ends with the right tail's symbol
        EventuallyPeriodicPoint(zero, word("01"), one)
    with pytest.raises(ValueError):
        # left tail should absorb the leading 0
        EventuallyPeriodicPoint(zero, word("01"), zero)
    with pytest.raises(ValueError):
        # globally periodic: no defect and equal tails
        EventuallyPeriodicPoint(zero, (), zero)


def test_comb_rep_rejects_periodic_junction():
    with pytest.raises(InvalidCombRep):
        comb_rep([("ab", "a", "ba")])  # spells inf (ab) inf
    with pytest.raises(InvalidCombRep):
        comb_rep([("0", "0", "0")])
    r = comb_rep([("0", "1", "0")])
    assert len(r.terms) == 1


def test_a_term_needs_one_more_u_than_v():
    with pytest.raises(InvalidCombRep, match="one more u than v"):
        CombTerm((word("0"),), (word("1"),))


def test_comb_rep_make_refuses_a_non_term():
    with pytest.raises(InvalidCombRep, match="CombTerm values"):
        CombRep.make([(word("0"),)])


def test_comb_rep_refuses_an_even_number_of_words():
    with pytest.raises(InvalidCombRep, match="alternate u v u"):
        comb_rep([("0", "1")])


def test_comb_rep_deduplicates():
    r = comb_rep([("0", "1", "0"), ("0", "1", "0"), ("0",)])
    assert len(r.terms) == 2


def test_structure_graph_make_is_the_gate():
    a, ab = PeriodicOrbit(("a",)), PeriodicOrbit(("a", "b"))
    x, y = a.point(0), ab.point(0)
    with pytest.raises(MalformedStructureGraph, match="count < 1"):
        StructureGraph.make([a], {(x, x): 0})
    with pytest.raises(MalformedStructureGraph, match="missing diagonal"):
        StructureGraph.make([a], {})
    with pytest.raises(MalformedStructureGraph, match="not shift equivariant"):
        StructureGraph.make([ab], {(y, y): 1, (y.shift(1), y.shift(1)): 2})
    s = StructureGraph.make([a], {(x, x): 1})
    assert s.validate() is s
    # a class takes the count of any member given
    assert (StructureGraph.make([ab], {(y.shift(1), y.shift(1)): 1})
            == StructureGraph.make([ab], {(y, y): 1, (y.shift(1), y.shift(1)): 1}))


def _shift_class(x, y):
    return {(x.shift(t), y.shift(t)) for t in range(lcm(x.period, y.period))}


def test_transition_classes_hold_one_member_per_class():
    rng = random.Random(83)
    for _ in range(300):
        s = random_structure_graph(rng, max_period=8)
        classes = s.transition_classes
        # in canonical order, and the first member of each class met there
        seen, first = set(), []
        for ((x, y), c) in s.transitions:
            if (x, y) not in seen:
                seen |= _shift_class(x, y)
                first.append(((x, y), c))
        assert classes == tuple(first)
        # expanding each member over lcm(p, q) shifts gives back every
        # transition, each once, with the member's count
        expanded = {}
        for ((x, y), c) in classes:
            for pair in _shift_class(x, y):
                assert pair not in expanded
                expanded[pair] = c
        assert expanded == dict(s.transitions)


def test_count_reads_the_listed_transitions():
    rng = random.Random(97)
    for _ in range(100):
        s = random_structure_graph(rng, max_period=8)
        listed = dict(s.transitions)
        for x in s.points():
            for y in s.points():
                assert s.count(x, y) == listed.get((x, y), 0)


def test_refine_colors_ranks_sorted_signatures():
    # a path a -> b -> c: three colors, numbered by sorted signature
    succ = {"a": "b", "b": "c"}
    color = refine_colors("abc", lambda color, v: color[succ[v]] if v in succ else -1)
    assert color == {"c": 0, "b": 1, "a": 2}
    # a cycle stays one color
    cyc = {"a": "b", "b": "c", "c": "a"}
    assert set(refine_colors("abc", lambda color, v: color[cyc[v]]).values()) == {0}


# -- interning ----------------------------------------------------------------

def test_orbits_and_points_are_interned():
    w = word("ab")
    o = PeriodicOrbit(w)
    assert PeriodicOrbit(w) is o
    assert PeriodicOrbit(tuple(list(w))) is o
    assert [x.phase for x in o.points] == [0, 1]
    assert all(x.orbit is o and x.period == 2 for x in o.points)
    assert PeriodicPoint(o, 1) is o.points[1] is o.point(-1) is o.points[0].shift(1)
    with pytest.raises(ValueError, match="phase 2 out of range"):
        PeriodicPoint(o, 2)
    rng = random.Random(5)
    for _ in range(100):
        u = tuple(rng.choice("abc") for _ in range(rng.randint(1, 6)))
        x = canonicalize_point(u, rng.randint(-9, 9))
        assert x.orbit.points[x.phase] is x
        assert x.orbit is PeriodicOrbit(x.orbit.root)


@pytest.mark.parametrize("root", [(1,), ("a b",), ("",)])
def test_orbit_root_symbols_are_checked(root):
    token = re.escape("bad symbol token: %r" % (root[0],))
    with pytest.raises(ValueError, match=token):
        PeriodicOrbit(root)
    assert root not in core._live_orbits


def test_parsed_structure_shares_the_live_orbits():
    rng = random.Random(31)
    for _ in range(20):
        s = random_structure_graph(rng)
        back = formats.parse_structure(formats.format_structure(s))
        assert len(back.orbits) == len(s.orbits)
        assert all(a is b for a, b in zip(back.orbits, s.orbits))
        assert all(a is b for a, b in zip(back.points(), s.points()))


def test_copies_and_pickles_return_the_interned_value():
    o = PeriodicOrbit(word("abb"))
    for v in (o, o.points[2]):
        assert copy.copy(v) is v
        assert copy.deepcopy(v) is v
        assert pickle.loads(pickle.dumps(v)) is v


def test_repr_and_immutability():
    x = PeriodicOrbit(("a", "bc")).points[1]
    assert repr(x.orbit) == "PeriodicOrbit(root=('a', 'bc'))"
    assert repr(x) == "PeriodicPoint(orbit=PeriodicOrbit(root=('a', 'bc')), phase=1)"
    for (v, field) in ((x.orbit, "root"), (x.orbit, "points"), (x, "phase"), (x, "orbit")):
        with pytest.raises(AttributeError):
            setattr(v, field, None)
        with pytest.raises(AttributeError):
            delattr(v, field)
    assert x.phase == 1 and x.orbit.root == ("a", "bc")


def test_unreferenced_orbits_leave_the_intern_table():
    root = ("unreferenced-orbit-test",)
    ref = weakref.ref(canonicalize_point(root).orbit)
    gc.collect()
    assert ref() is None
    assert root not in core._live_orbits


def test_concurrent_creation_yields_one_orbit_per_root():
    roots = [("concurrent-%d" % i,) for i in range(500)]
    barrier = threading.Barrier(4, timeout=30)
    made = [None] * 4

    def create(k):
        barrier.wait()
        made[k] = [PeriodicOrbit(r) for r in roots]

    threads = [threading.Thread(target=create, args=(k,)) for k in range(4)]
    # switch threads often, so that without the lock two threads would
    # create orbits for one root
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for i, r in enumerate(roots):
        assert made[0][i].root == r
        assert all(m[i] is made[0][i] for m in made)
