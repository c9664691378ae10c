"""Decision procedures on structure graphs.

A witness for any of the four modes is a rotation-commuting vertex map.
Such a map is determined orbit by orbit: an orbit of period p may map into
an orbit of period q only when q divides p, and choosing a phase offset
fixes every point of the orbit.

`decide` is the entry point.  It returns the first witness in one search
order (source orbits by period then root, their targets likewise, offsets
ascending), or None when there is none.  When both graphs have rank 1
(`is_rank_one`: finite shifts, whose transition edges are exactly the
count-1 diagonals) the rules of `_rank1_targets` build that witness with
no search, and `rank1_decide` asks them whether it exists.  Every other
pair goes to `search`, which stays public as the reference the rank-1
rules are tested against and also decides `reductions.digraph_isomorphic`.

Every search stops at a node budget: the paper shows these decisions
NP-hard.  `search` and `decide` raise BudgetExceeded once a search would
take more than `budget` nodes, `DEFAULT_NODE_BUDGET` unless the caller
gives another, and refuse a budget below 1, or None, before any work.

`verify_witness` re-checks a witness against the definitions and reads
none of the search's tables, so a fault in them cannot pass its check:
commutation orbit by orbit, then each count condition once per transition
class, which suffices for a commuting map.  Each public entry refuses a
mode that is not a `Mode` with ValueError.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import gcd, lcm
from typing import NamedTuple

from .core import PeriodicPoint, StructureGraph, _clip, _count_text
from .errors import BudgetExceeded, NotRankOne, WitnessInvalid


class Mode(enum.Enum):
    BLOCK_MAP = "hom"
    EMBEDDING = "embed"
    FACTOR = "factor"
    CONJUGACY = "conj"


INJECTIVE_MODES = (Mode.EMBEDDING, Mode.CONJUGACY)


@dataclass(frozen=True)
class SGHomomorphism:
    """A vertex map between structure graphs; the edge map is implicit
    (transition edges map by endpoints, rotation edges by commutation)."""

    pairs: tuple  # (source point, image point) pairs, sources in sort_key order

    @classmethod
    def make(cls, mapping) -> "SGHomomorphism":
        return cls(tuple(sorted(mapping.items(),
                                key=lambda kv: kv[0].sort_key())))


# the upper bound on a target count outside conjugacy mode
_UNBOUNDED = float("inf")

# the node budget of every search, unless its caller gives another: over
# 500 times the most that one search takes in the demos or the
# decide-search benchmark (1,746), and over 4 times the most in the tests
# (216,873, a 13-vertex graph that is not 3-colourable)
DEFAULT_NODE_BUDGET = 10 ** 6


class _Tables(NamedTuple):
    """The tables of one graph on integer orbit indices, orbits in sorted
    order, built in one pass over its orbits and its transition classes: no
    path expands `transitions`.  The shift class (orbit j, orbit j', r) has
    the key (j * m + j') * span + r, for m orbits and a span no less than
    any period.  Bit b of every search domain is point b, `choices[b]`, so
    orbit j's points are the q bits from `base[j]` up, for its period q."""

    periods: tuple    # per orbit, its period (ascending)
    by_period: dict   # period -> ascending orbit indices, periods ascending
    choices: tuple    # per point in sorted order, (orbit, phase)
    base: tuple       # per orbit, the bit of its phase 0
    rank_one: bool    # whether every class is a count-1 diagonal
    classes: tuple    # per shift class, (orbit, orbit, phase of the target
                      # end, count) at its representative, whose source end
                      # has phase 0
    first: tuple      # per orbit, whether it comes first in its component
    span: int
    count: dict       # class key -> count
    near: tuple       # per orbit, the orbits sharing a class with it
    sources: dict     # mode -> the tables of `_source`, on first use
    options: dict     # the initial domains of `_options`, by its key


def _tables(s: StructureGraph) -> _Tables:
    """The tables of s, cached on it: the one cache of this module."""
    t = s.__dict__.get("_tables")
    if t is not None:
        return t
    periods = tuple(o.period for o in s.orbits)
    by_period, choices, base = {}, [], []
    for i, p in enumerate(periods):
        by_period.setdefault(p, []).append(i)
        base.append(len(choices))
        choices += [(i, r) for r in range(p)]
    idx = {o: i for i, o in enumerate(s.orbits)}
    m, span = len(periods), max(periods, default=1)
    classes, count, near = [], {}, [{} for _ in range(m)]
    # components: each orbit points at an earlier orbit of its component,
    # or at itself when it comes first
    comp = list(range(m))
    for ((a, b), c) in s.transition_classes:
        ia, ib, pb = idx[a.orbit], idx[b.orbit], b.phase
        classes.append((ia, ib, pb, c))
        key = (ia * m + ib) * span + pb
        count[key] = c
        near[ia][ib] = near[ib][ia] = None
        if ia != ib:
            ra, rb = _root(comp, ia), _root(comp, ib)
            comp[max(ra, rb)] = min(ra, rb)
    t = s.__dict__["_tables"] = _Tables(
        periods, {p: tuple(js) for p, js in by_period.items()},
        tuple(choices), tuple(base),
        all(ia == ib and not pb and c == 1 for (ia, ib, pb, c) in classes),
        tuple(classes), tuple(_root(comp, i) == i for i in range(m)),
        span, count, tuple(map(tuple, near)), {}, {})
    return t


def _root(comp, i):
    """The first orbit of i's component so far, halving the path walked."""
    while comp[i] != i:
        comp[i] = i = comp[comp[i]]
    return i


def _source(t: _Tables, mode: Mode):
    """The tables of a graph as the source of a search in `mode`, cached in
    its tables t: per orbit, its own classes as (phase, lo, hi); per orbit
    i, (l, group id) per orbit l > i sharing classes with i; and the
    distinct groups by id, each entry as (phase at i, phase at l, whether
    it leaves i, lo, hi).  A class of count c may land on target counts in
    [lo, hi]: nonzero, at least c for embeddings, exactly c for
    conjugacies."""
    found = t.sources.get(mode)
    if found is not None:
        return found
    own, shared = [[] for _ in t.periods], {}
    for (ia, ib, pb, c) in t.classes:
        lo = 1 if mode in (Mode.BLOCK_MAP, Mode.FACTOR) else c
        hi = c if mode is Mode.CONJUGACY else _UNBOUNDED
        if ia == ib:
            own[ia].append((pb, lo, hi))
        elif ia < ib:
            shared.setdefault((ia, ib), []).append((0, pb, True, lo, hi))
        else:
            shared.setdefault((ib, ia), []).append((pb, 0, False, lo, hi))
    later, ids = [()] * len(own), {}  # ids: group -> its id
    for (i, l), group in sorted(shared.items()):
        later[i] += ((l, ids.setdefault(tuple(group), len(ids))),)
    found = t.sources[mode] = (tuple(map(tuple, own)), tuple(later), tuple(ids))
    return found


def _options(t, p, shifts, injective, own):
    """The initial domain of a source orbit of period p in the target graph
    of tables t: point (j, off) of `t.choices` sends phase r to phase
    r + off of target orbit j.  It holds the target orbits of period p
    when `injective`, else of every period dividing p, that take each own
    class (phase, lo, hi) in `own` to a count in [lo, hi]; with every
    offset when `shifts`, else offset 0 only.  Cached in t."""
    key = (p, shifts, injective, own)
    found = t.options.get(key)
    if found is None:
        count, span, m, base = t.count, t.span, len(t.periods), t.base
        found = 0
        for q, js in t.by_period.items():
            if p % q == 0 and (q == p or not injective):
                # an orbit's bits: every offset, or offset 0 only
                bits = (1 << q) - 1 if shifts else 1
                for j in js:
                    if all(lo <= count.get((j * m + j) * span + pb % q, 0) <= hi
                           for (pb, lo, hi) in own):
                        found |= bits << base[j]
        t.options[key] = found
    return found


def _witness(x, y, choices):
    """The vertex map sending phase r of source orbit i, mapped by
    choices[i] = (j, off), to phase r + off of target orbit j: the points
    of orbit i against those of orbit j rotated by off, repeated, or as
    they are when off is 0 and the periods agree.  Its pairs come orbit by
    orbit, phases ascending: sort_key order."""
    pairs, ys = [], y.orbits
    for o, (j, off) in zip(x.orbits, choices):
        t = ys[j].points
        if off or len(t) != o.period:
            t = (t[off:] + t[:off]) * (o.period // len(t))
        pairs += zip(o.points, t)
    return SGHomomorphism(tuple(pairs))


def _refuted(mode, x, y):
    """Whether orbit and class counts alone show there is no witness.
    Every commuting map sends each class of x onto one class of y.  A
    surjective map needs as many source orbits as target orbits, and a
    factor as many source classes as target classes, since each target
    class needs a preimage class; an injective map lands distinct classes
    in distinct classes, so x has at most as many; a conjugacy keeps the
    periods."""
    nx, ny = len(x.transition_classes), len(y.transition_classes)
    if mode is Mode.CONJUGACY:
        return nx != ny or _tables(x).periods != _tables(y).periods
    if mode is Mode.FACTOR:
        return nx < ny or len(x.orbits) < len(y.orbits)
    return mode is Mode.EMBEDDING and nx > ny


def _support(t, choice, group):
    """Forward checking once a source orbit i takes `choice` = (j, off) in
    the target graph of tables t: for a later orbit l whose classes shared
    with i form `group` (a group of `_source`), the mask, over all the
    target's points, of the points (jl, offl) of l under which every class
    of the group maps onto a target class whose count lies in [lo, hi].  As
    every lo is at least 1, only the targets sharing a class with j, j
    itself included by its diagonal, can hold such a point."""
    j, off = choice
    yper, count, span, m = t.periods, t.count, t.span, len(t.periods)
    q = yper[j]
    mask = 0
    for jl in t.near[j]:
        # per shared class, under point (jl, offl) of l: its image key is
        # base + (d + sign * offl) % g
        g = gcd(q, yper[jl])
        leave, enter = (j * m + jl) * span, (jl * m + j) * span
        ends = [(leave, pl - pi - off, 1, lo, hi) if leaves
                else (enter, pi + off - pl, -1, lo, hi)
                for (pi, pl, leaves, lo, hi) in group]
        # jl's offsets 0, 1, ... from the bit of its phase 0
        bit = 1 << t.base[jl]
        for offl in range(yper[jl]):
            for (base, d, sign, lo, hi) in ends:
                if not lo <= count.get(base + (d + sign * offl) % g, 0) <= hi:
                    break
            else:
                mask |= bit
            bit <<= 1
    return mask


def _covers_demand(xt, yt, choices):
    """The factor-mode counting condition of a complete assignment, once
    per class: a source class of count c whose ends have periods p, p'
    lands on a target class whose ends have periods q, q', g = gcd(q, q'),
    hitting each member lcm(p, p') * g / (q * q') times with its aperiodic
    supply: the count, less one on a diagonal, whose periodic point maps to
    the target's and so covers no aperiodic orbit.  Every target class must
    receive a preimage whose supply covers its aperiodic orbits."""
    xper, yper, span, m = xt.periods, yt.periods, yt.span, len(yt.periods)
    supply = {}
    for (ia, ib, pb, c) in xt.classes:
        (ja, offa), (jb, offb) = choices[ia], choices[ib]
        qa, qb = yper[ja], yper[jb]
        g = gcd(qa, qb)
        key = (ja * m + jb) * span + (pb + offb - offa) % g
        hits = lcm(xper[ia], xper[ib]) * g // (qa * qb)
        supply[key] = supply.get(key, 0) + hits * (
            c - 1 if ia == ib and not pb else c)
    return all(supply.get((ia * m + ib) * span + pb, -1)
               >= (c - 1 if ia == ib and not pb else c)
               for (ia, ib, pb, c) in yt.classes)


def _check_mode(mode):
    if not isinstance(mode, Mode):
        raise ValueError("unknown mode %r" % (mode,))


def _check_budget(budget):
    if budget is None or budget < 1:
        raise BudgetExceeded("node budget %s is below 1" % budget)


def search(mode: Mode, x: StructureGraph, y: StructureGraph,
           budget=DEFAULT_NODE_BUDGET):
    """First witness homomorphism under the deterministic search order, or
    None when no witness exists.  Works on graphs of any rank.

    The stopping rule, for the library and `sofic2 decide --budget` alike:
    BudgetExceeded once the search would take more than `budget` nodes
    (accepted choices), `DEFAULT_NODE_BUDGET` unless given; a budget below
    1, or None, is refused before any work.

    After `_refuted`, a depth-first search with one level per source orbit,
    taken by period then root.  Each level tries the target orbits by
    period then root and, for each, the phase offsets ascending.  A
    component of the source is a set of orbits joined by transitions
    between distinct orbits; the first orbit of each component, in search
    order, tries only offset 0.  Shifting every image in one component by
    the same power of the shift turns a witness into a witness in all four
    modes: counts are shift-invariant, injectivity is kept, and the
    component's preimage supply in factor mode is already invariant, since
    source transitions come in whole shift classes.

    Every check reads one transition per shift class: counts on both sides
    are shift equivariant and every choice commutes with the shift, so the
    rest of a class maps the same way.  Both graphs are read through their
    `_tables`, and the source's classes with their mode's count bounds
    through `_source`.  A domain is a bitset over the target's points, in
    the one bit order of its tables.  An orbit's own classes map by its
    target orbit alone, so its domain starts as the mask that `_options`
    caches for them.  Forward checking (Haralick and Elliott 1980) then
    ands the domain of each later orbit sharing classes with the orbit just
    mapped with the `_support` mask (a bitset support, Lecoutre and Vion
    2008) of its choice and the classes the two orbits share, kept for this
    call in one dict keyed by (choice bit, group id), since every domain
    lies in its initial one and no mask reads the level; a choice that
    empties a domain is dropped, and a trail of replaced masks undoes the
    narrowing on backtracking.  So the search prunes only subtrees that
    hold no witness.  One mask holds the points of the targets in use,
    each orbit's formed from its `base` and period as it comes into use:
    injective modes mask it out, and surjective modes do so once the
    uncovered targets are as many as the orbits left.  A complete
    assignment is a witness, built in search order with no sort; in factor
    mode it must also pass `_covers_demand`.

    The levels live on an explicit stack, so the search depth is not
    bounded by the recursion limit.  Its cost is exponential in the worst
    case: the paper shows these decisions NP-hard.
    """
    _check_mode(mode)
    _check_budget(budget)
    if _refuted(mode, x, y):
        return None
    xt, yt = _tables(x), _tables(y)
    own, later, groups = _source(xt, mode)
    n, m, ng = len(xt.periods), len(yt.periods), len(groups)
    injective = mode in INJECTIVE_MODES
    surjective = mode in (Mode.FACTOR, Mode.CONJUGACY)
    # the first orbit of each component takes offset 0 only
    start = [_options(yt, p, not first, injective, mine)
             for p, first, mine in zip(xt.periods, xt.first, own)]
    if not all(start):
        return None
    domain, choices, base, yper = list(start), yt.choices, yt.base, yt.periods
    choice, resume = [None] * n, [0] * n
    # per level, the (orbit, mask) pairs that its current choice replaced
    trail = [[] for _ in range(n)]
    masks = {}  # (bit + 1) * ng + group id -> its _support, on first use
    uses = [0] * m
    used = covered = nodes = 0  # used: the bits of the targets in use
    # Invariant in the surjective modes: at level i, m - covered <= n - i;
    # so a complete assignment covers every target.
    i = k = 0
    while i >= 0:
        if i == n:
            if mode is not Mode.FACTOR or _covers_demand(xt, yt, choice):
                return _witness(x, y, choice)
            rest = 0
        else:
            saved, rest = trail[i], domain[i]
            if injective or (surjective and m - covered == n - i):
                rest &= ~used
            # bit b of rest is bit k + b of the domain
            rest >>= k
        while rest:
            step = (rest & -rest).bit_length()
            rest >>= step
            k += step
            for (l, g) in later[i]:
                mask = masks.get(k * ng + g)
                if mask is None:
                    mask = masks[k * ng + g] = _support(yt, choices[k - 1],
                                                       groups[g])
                old = domain[l]
                new = old & mask
                if new != old:
                    saved.append((l, old))
                    domain[l] = new
                    if not new:
                        break
            else:
                break
            while saved:
                l, old = saved.pop()
                domain[l] = old
        else:
            # level i is exhausted: undo the choice of level i - 1 and
            # resume that level after it
            i -= 1
            if i >= 0:
                k = resume[i]
                j = choice[i][0]
                uses[j] -= 1
                if not uses[j]:
                    covered -= 1
                    used &= ~(((1 << yper[j]) - 1) << base[j])
                saved = trail[i]
                while saved:
                    l, old = saved.pop()
                    domain[l] = old
            continue
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded("search needs more than %d nodes" % budget)
        choice[i] = choices[k - 1]
        j = choice[i][0]
        if not uses[j]:
            covered += 1
            used |= ((1 << yper[j]) - 1) << base[j]
        uses[j] += 1
        resume[i] = k
        i, k = i + 1, 0
    return None


def decide(mode: Mode, x: StructureGraph, y: StructureGraph,
           budget=DEFAULT_NODE_BUDGET):
    """First witness homomorphism under the deterministic search order
    (orbits by period then root, targets likewise, offsets ascending), or
    None when no witness exists.

    When both graphs have rank 1 (`is_rank_one`), `_rank1_targets` builds
    the witness that `search` would find first, or shows there is none,
    with no search.  Other inputs go to `search`.  Neither path recurses.
    The stopping rule is that of `search`: BudgetExceeded past `budget`
    nodes, `DEFAULT_NODE_BUDGET` unless given, and a budget below 1, or
    None, refused before any work, on the rank-1 path too.
    """
    _check_mode(mode)
    _check_budget(budget)
    if not (is_rank_one(x) and is_rank_one(y)):
        return search(mode, x, y, budget)
    targets = _rank1_targets(mode, x, y)
    if targets is None:
        return None
    return _witness(x, y, [(j, 0) for j in targets])


def _rank1_targets(mode, x, y):
    """Per source orbit, its target orbit in the first witness between two
    rank-1 graphs, or None when there is none; phase offsets are all 0.
    One rule per mode, on the `_tables` of both graphs:

    * embeddings and conjugacies: NO when some period has more source
      orbits than target orbits, or, for a conjugacy, when the sorted
      periods differ; else the k-th source orbit of period p takes the
      k-th target orbit of period p;
    * block maps: each source orbit takes the first target of its first
      divisor class, the first class whose period divides its own;
    * factors: the targets of a class are covered in index order.  Each
      source in order takes the first target under which the sources left
      still cover every uncovered target (covering only gets easier as
      demand falls): the first target of its first divisor class if it can,
      covering it if that class had none covered, else the first uncovered
      target of the first divisor class that keeps a cover.  A cover is a
      flow over period classes, p to q when q divides p (Ford and Fulkerson
      1956), kept for the call: built from no flow by `_augment` alone,
      then mended per source.  There is no witness when it falls short;
      else some class keeps a cover at each source, at the latest the one
      whose unit of flow the source gave back.  A source that leaves
      spends a unit of its class's slack or gives back a unit of flow for
      `_augment` to replace (never when no class has slack).  Covering a
      class with none covered drops a unit of flow into it.  A trial
      cover of class q is one `_augment` search from the class left short,
      which may end at a unit sent into q instead of at slack; a failed
      search moves no flow.
    """
    xt, yt = _tables(x), _tables(y)
    ps, classes = xt.periods, yt.by_period
    if mode in INJECTIVE_MODES:
        # orbits are sorted by period, so the periods tuples are sorted
        if mode is Mode.CONJUGACY and ps != yt.periods:
            return None
        out = []
        for p, js in xt.by_period.items():
            ts = classes.get(p, ())[:len(js)]
            if len(ts) < len(js):
                return None
            out += ts
        return out
    divisors = {p: [q for q in classes if p % q == 0] for p in xt.by_period}
    if not all(divisors.values()):
        return None
    if mode is Mode.BLOCK_MAP:
        return [classes[divisors[p][0]][0] for p in ps]
    slack = {p: len(js) for p, js in xt.by_period.items()}
    uncovered = {q: len(js) for q, js in classes.items()}
    feeds = {q: [p for p in slack if p % q == 0] for q in classes}
    # sent[p][q]: the flow from class p to q, built by augmenting paths
    sent = {p: dict.fromkeys(qs, 0) for p, qs in divisors.items()}
    spare = sum(slack.values())  # the total slack, kept in step with it
    for q, need in uncovered.items():
        while need:
            moved = _augment(sent, slack, feeds, q, need)
            if not moved:
                return None
            need -= moved
            spare -= moved
    out = []
    for p in ps:
        if slack[p]:
            slack[p] -= 1
        else:
            for gap, units in sent[p].items():  # p, with no slack, sends some
                if units:
                    break
            sent[p][gap] -= 1
            if not (spare and _augment(sent, slack, feeds, gap, 1)):
                # the first divisor class that keeps a cover: gap, where
                # p's unit of flow went, at the latest
                for q in divisors[p]:
                    if uncovered[q] and (
                            q == gap or _augment(sent, slack, feeds, gap, 1, q)):
                        break
                uncovered[q] -= 1
                out.append(classes[q][-1 - uncovered[q]])
                continue
        spare -= 1
        q = divisors[p][0]
        if uncovered[q] == len(classes[q]):
            uncovered[q] -= 1
            for donor in feeds[q]:  # a unit into q goes back to slack
                if sent[donor][q]:
                    break
            sent[donor][q] -= 1
            slack[donor] += 1
            spare += 1
        out.append(classes[q][0])
    # the flow covers the uncovered targets with the sources left, so all
    # are covered once every source is placed
    return out


def _augment(sent, slack, feeds, q, most, cover=None) -> int:
    """Moves up to `most` units of flow into target class q along one
    augmenting path and returns the units moved: 0, moving nothing, when
    there is no such path.  `sent[p][u]` is the flow from source class p
    to target class u, `slack[p]` what p leaves free, `feeds[u]` the
    classes that u divides.  Back from q, a class p feeding a class in
    need ends the path if it has slack or sends a unit to class `cover`,
    which it then takes instead; else it frees a unit it sends to another
    class, which then needs a feeder: a breadth-first search over period
    classes."""
    feeding, freed = {}, {q: None}  # the parent pointers of the path
    queue = [q]
    for t in queue:  # the loop also visits classes appended on the way
        for p in feeds[t]:
            if p in feeding:
                continue
            feeding[p] = t
            # the path ends at p's slack, or at a unit p sends to cover
            have, end = (slack, p) if slack[p] else (sent[p], cover)
            if have.get(end):
                amount, u = min(most, have[end]), t
                while freed[u] is not None:
                    amount = min(amount, sent[freed[u]][u])
                    u = feeding[freed[u]]
                have[end] -= amount
                while p is not None:
                    u = feeding[p]
                    sent[p][u] += amount
                    p = freed[u]
                    if p is not None:
                        sent[p][u] -= amount
                return amount
            for u, units in sent[p].items():
                if units and u not in freed:
                    freed[u] = p
                    queue.append(u)
    return 0


def verify_witness(mode: Mode, x: StructureGraph, y: StructureGraph,
                   h: SGHomomorphism) -> bool:
    """Independent validity check of a witness; never raises on malformed
    maps, simply returns False.  Reads none of the search's tables.

    The pairs are read as one point map, which must name every point of x
    once and commute with the shift: phase r of each source orbit goes to
    the image of its phase 0 moved on r phases, on an orbit whose period
    divides the source period (else the step from phase p - 1 back to phase
    0 breaks).  Then the lcm(p, q) members of a source class map onto the
    lcm(p', q') members of one target class (p' | p, q' | q), which share
    one count, each hit lcm(p, q) / lcm(p', q') times.  So each condition
    is checked once per class of x, at the class of its image:

    * the target count is nonzero, at least the source count for
      embeddings and equal to it for conjugacies.  Every orbit has its
      diagonal class, so this also puts every image on an orbit of y;
    * embeddings and conjugacies are one to one on transitions: the two
      lcms agree and distinct classes land in distinct classes;
    * factors: each class adds its aperiodic supply (the count, less one on
      a diagonal) that many times to its target class, and the total must
      cover the target's aperiodic orbits;
    * conjugacies: x and y have equally many classes, so the class map is
      onto.  The orbit map is then a period-preserving bijection, since two
      orbits on one target or a lost period would merge or shrink diagonal
      classes, and a missed orbit would leave its diagonal without a
      preimage.
    """
    _check_mode(mode)
    image = {}
    for pair in h.pairs:
        try:
            a, b = pair
        except (TypeError, ValueError):
            return False
        if not (isinstance(a, PeriodicPoint) and isinstance(b, PeriodicPoint)):
            return False
        image[a] = b
    # with as many distinct sources as pairs and as points of x, every point
    # of x is named exactly once when each is found below
    if not len(image) == len(h.pairs) == sum(o.period for o in x.orbits):
        return False
    for o in x.orbits:
        z = image.get(o.points[0])
        if z is None or o.period % z.period:
            return False
        for r, a in enumerate(o.points):  # points are interned: `is` is exact
            if image.get(a) is not z.shift(r):
                return False
    embed, conj = mode is Mode.EMBEDDING, mode is Mode.CONJUGACY
    counts = y._class_counts
    supply = {}  # target class -> aperiodic supply at each of its members
    for ((a, b), c) in x.transition_classes:
        u, v = image[a], image[b]
        g = gcd(u.period, v.period)
        key = (u.orbit, v.orbit, (v.phase - u.phase) % g)
        cy = counts.get(key, 0)
        if not cy or (embed and c > cy) or (conj and c != cy):
            return False
        hits = lcm(a.period, b.period) * g // (u.period * v.period)
        if (embed or conj) and (hits != 1 or key in supply):
            return False
        supply[key] = supply.get(key, 0) + hits * (c - 1 if a == b else c)
    if mode is Mode.BLOCK_MAP or embed:
        return True
    if mode is Mode.FACTOR:
        return all(supply.get((o, t, r), -1) >= (c - 1 if o == t and not r else c)
                   for ((o, t, r), c) in counts.items())
    return len(x.transition_classes) == len(y.transition_classes)


def rank1_decide(mode: Mode, x: StructureGraph, y: StructureGraph) -> bool:
    """Whether a witness exists between two finite shifts (structure graphs
    whose transition edges are exactly the count-1 diagonals), by the
    rules of `_rank1_targets`, with no search.  Raises NotRankOne unless
    both graphs have rank 1, naming the first class that is not a count-1
    diagonal."""
    _check_mode(mode)
    for s in (x, y):
        if not is_rank_one(s):
            for ((a, b), c) in s.transition_classes:
                if a != b or c != 1:
                    raise NotRankOne("transition edge %s -> %s count %s" % (
                        _clip(repr(a)), _clip(repr(b)), _count_text(c)))
    return _rank1_targets(mode, x, y) is not None


def is_rank_one(s: StructureGraph) -> bool:
    """Whether every class of s is a count-1 diagonal, read from the
    tables cached on s."""
    return _tables(s).rank_one


def realize_orbit_map(mode: Mode, x: StructureGraph, y: StructureGraph,
                      h: SGHomomorphism):
    """Explicit per-target-edge assignment of transition-orbit indices
    certifying the mode's counting condition.

    Index 0 of a diagonal edge denotes the periodic point itself and is
    always pinned to target index 0; remaining indices denote aperiodic
    orbits and are assigned greedily in a fixed order (injectively for
    embeddings, surjectively for factors, bijectively for conjugacies).
    """
    if not verify_witness(mode, x, y, h):
        raise WitnessInvalid("witness fails verification for %s" % mode.value)
    vm = dict(h.pairs)
    by_image = {}  # target transition -> its source transitions, in order
    for ((a, b), k) in x.transitions:
        by_image.setdefault((vm[a], vm[b]), []).append(((a, b), k))
    out = {}
    for ((ta, tb), c) in y.transitions:
        sources = by_image.get((ta, tb), ())
        # the free slots are 0 .. c - 1, less slot 0 on a diagonal
        skip = int(ta == tb)
        assign = {}
        cursor = 0
        for ((a, b), k) in sources:
            for i in range(k):
                if a == b and i == 0:
                    assign[((a, b), 0)] = 0
                    continue
                j = cursor + skip
                if j >= c:
                    if mode in INJECTIVE_MODES:
                        raise WitnessInvalid("aperiodic supply exceeds capacity")
                    j = c - 1  # the last free slot, or 0 when there is none
                cursor += 1
                assign[((a, b), i)] = j
        out[(ta, tb)] = assign
    return out
