"""Decision procedures on structure graphs.

A witness for any of the four modes is a rotation-commuting vertex map.
Such a map is determined orbit by orbit: an orbit of period p may map into
an orbit of period q only when q divides p, and choosing a phase offset
fixes every point of the orbit.

`decide` is the entry point.  When both graphs have rank 1 (finite shifts,
whose transition edges are exactly the count-1 diagonals) it builds the
witness directly from the period classes, or finds there is none;
`rank1_decide` asks the same routine whether a witness exists.  Otherwise
it runs `search`, a backtracking search over orbit maps with the per-mode
side conditions, kept on an explicit stack so that no input depends on the
interpreter's recursion limit.  Both paths return the same witness: the
first one in the search order (source orbits by period then root, their
targets likewise, offsets ascending).  `search` stays public as the
reference that the rank-1 path is tested against.

`search` prunes only subtrees that hold no witness, so its first witness
is the first in that order.  Forward checking (Haralick and Elliott 1980)
narrows the choices of the later orbits that share transitions with each
orbit it maps, and backtracks as soon as one has none left.  The first
orbit of each source component takes phase offset 0 only: shifting all
images of one component keeps every count, injectivity, and in factor
mode the component's preimage supply, so some witness at least as early
has offset 0 there.

The factor-mode count condition compares aperiodic supply against aperiodic
demand: on a diagonal edge the periodic point accounts for one orbit of its
own transition count, and its image is forced to the target's periodic
point, so that orbit can never cover an aperiodic target orbit.

`verify_witness` re-checks a witness against these definitions and reads
none of the search's tables: commutation orbit by orbit, then each count
condition once per transition class, which suffices for a commuting map.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from math import gcd, lcm
from typing import NamedTuple

from .core import PeriodicPoint, StructureGraph
from .errors import NotRankOne, WitnessInvalid


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

    pairs: tuple  # sorted (source point, image point) pairs

    @classmethod
    def make(cls, mapping) -> "SGHomomorphism":
        return cls(tuple(sorted(mapping.items(),
                                key=lambda kv: kv[0].sort_key())))


# the upper bound on a target count outside conjugacy mode
_UNBOUNDED = float("inf")


class _Orbits(NamedTuple):
    """The orbits of one graph as integers.  Orbits are indexed in sorted
    order and the point of orbit i at phase r has the id base[i] + r."""

    pts: tuple        # the points by id
    periods: tuple    # per orbit, its period (ascending)
    base: tuple       # per orbit, the id of its phase-0 point
    by_period: dict   # period -> ascending orbit indices, periods ascending


def _orbits(s: StructureGraph) -> _Orbits:
    """The orbit tables of s, cached on it; building them lists no
    transition, so the rank-1 path never expands `transitions`."""
    tab = s.__dict__.get("_orbits")
    if tab is None:
        periods = tuple(o.period for o in s.orbits)
        base, by_period, total = [], {}, 0
        for i, p in enumerate(periods):
            base.append(total)
            total += p
            by_period.setdefault(p, []).append(i)
        tab = s.__dict__["_orbits"] = _Orbits(
            s.points(), periods, tuple(base),
            {p: tuple(js) for p, js in by_period.items()})
    return tab


class _SearchProfile(NamedTuple):
    """Integer tables of one graph, for either side of a search, on the
    ids of `_Orbits`."""

    pts: tuple        # as in _Orbits
    periods: tuple
    base: tuple
    edges: tuple      # transitions as (orbit, phase, orbit, phase, count)
    own: tuple        # per orbit, its own edges as (phase, phase, count),
                      # one per shift class
    later: tuple      # per orbit i, (l, edges) per orbit l > i sharing
                      # edges with i, one per shift class, each as (phase
                      # at i, phase at l, count, whether it leaves i)
    first: tuple      # per orbit, whether it comes first in its component
    count: dict       # u * len(pts) + v -> count of the transition from
                      # the point with id u to the point with id v
    by_period: dict   # as in _Orbits
    options: dict     # as a target: (period, all offsets, injective) -> the
                      # choices of a source orbit, filled by _options


def _search_profile(s: StructureGraph) -> _SearchProfile:
    prof = s.__dict__.get("_search_profile")
    if prof is not None:
        return prof
    idx = {o: i for i, o in enumerate(s.orbits)}
    pts, periods, base, by_period = _orbits(s)
    total = len(pts)
    edges = tuple((idx[a.orbit], a.phase, idx[b.orbit], b.phase, c)
                  for ((a, b), c) in s.transitions)
    count = {(base[ia] + pa) * total + base[ib] + pb: c
             for (ia, pa, ib, pb, c) in edges}
    own = [[] for _ in periods]
    shared = {}  # (i, l) with i < l -> the edges between orbits i and l
    # components: each orbit points at an earlier orbit of its component,
    # or at itself when it comes first
    comp = list(range(len(periods)))
    # one transition per shift class: see `search` for why that suffices
    for ((a, b), c) in s.transition_classes:
        ia, pa, ib, pb = idx[a.orbit], a.phase, idx[b.orbit], b.phase
        if ia == ib:
            own[ia].append((pa, pb, c))
            continue
        if ia < ib:
            shared.setdefault((ia, ib), []).append((pa, pb, c, True))
        else:
            shared.setdefault((ib, ia), []).append((pb, pa, c, False))
        ra, rb = _root(comp, ia), _root(comp, ib)
        comp[max(ra, rb)] = min(ra, rb)
    later = [()] * len(periods)
    for (i, l), group in sorted(shared.items()):
        later[i] += ((l, tuple(group)),)
    prof = _SearchProfile(
        pts, periods, base, edges, tuple(map(tuple, own)),
        tuple(later), tuple([_root(comp, i) == i for i in range(len(periods))]),
        count, by_period, {})
    s.__dict__["_search_profile"] = prof
    return prof


def _root(comp, i):
    """The first orbit of i's component so far, halving the path walked."""
    while comp[i] != i:
        comp[i] = i = comp[comp[i]]
    return i


def _images(yp, j, off, p):
    """Per phase r of a source orbit of period p, the id of its image in
    target orbit j at phase offset `off`."""
    yb, q = yp.base[j], yp.periods[j]
    # yb + (r + off) % q for r in range(p), where q divides p
    return (tuple(range(yb + off, yb + q)) + tuple(range(yb, yb + off))) * (p // q)


def _options(yp, p, shifts, injective):
    """The choices of a source orbit of period p in target graph yp, in
    search order: each a target orbit with the image ids of the source
    phases.  Every phase offset when `shifts`, else only offset 0.  Cached
    on yp, and never edited: forward checking narrows a copy."""
    key = (p, shifts, injective)
    opts = yp.options.get(key)
    if opts is None:
        if injective:
            js = yp.by_period.get(p, ())
        else:
            js = [j for q, group in yp.by_period.items() if p % q == 0
                  for j in group]
        opts = yp.options[key] = [
            (j, _images(yp, j, off, p)) for j in js
            for off in (range(yp.periods[j]) if shifts else (0,))]
    return opts


def _witness(xp, yp, images):
    """The vertex map sending phase r of source orbit i to the point with
    id images[i][r]."""
    xpts, ypts = xp.pts, yp.pts
    return SGHomomorphism.make(
        {xpts[b + r]: ypts[v] for b, img in zip(xp.base, images)
         for r, v in enumerate(img)})


def _counts_ok(mode, xp, yp, images):
    """The factor-mode counting condition of a complete assignment: every
    target transition receives a preimage with enough aperiodic supply to
    cover its aperiodic orbits.  Other modes have none; a complete
    conjugacy assignment already maps the transitions one to one onto
    equally many target transitions of equal count."""
    if mode is not Mode.FACTOR:
        return True
    size = len(yp.pts)
    preim = {}
    for (ia, pa, ib, pb, c) in xp.edges:
        key = images[ia][pa] * size + images[ib][pb]
        preim[key] = preim.get(key, 0) + (c - 1 if (ia, pa) == (ib, pb) else c)
    for (key, c) in yp.count.items():
        got = preim.get(key)
        u, v = divmod(key, size)
        if got is None or got < (c - 1 if u == v else c):
            return False
    return True


def search(mode: Mode, x: StructureGraph, y: StructureGraph):
    """First witness homomorphism under the deterministic search order, or
    None when no witness exists.  Works on graphs of any rank.

    A depth-first search with one level per source orbit, taken by period
    then root.  Each level tries the target orbits by period then root and,
    for each, the phase offsets ascending.  A component of the source is a
    set of orbits joined by transitions between distinct orbits; the first
    orbit of each component, in search order, tries only offset 0.
    Shifting every image in one component by the same power of the shift
    turns a witness into a witness in all four modes: counts are
    shift-invariant, injectivity is kept, and the component's preimage
    supply in factor mode is already invariant, since source transitions
    come in whole shift classes.  So the first witness has offset 0 there.

    A choice is kept when the orbit's own transitions map onto transitions
    of nonzero count (at least as large for embeddings, equal for
    conjugacies).  Forward checking then narrows the choices of every later
    orbit that shares a transition with this one to those under which the
    shared transitions map the same way, and a choice that empties one of
    them is dropped; the narrowed domains are restored on backtracking.  So
    the transitions between distinct orbits are checked once, when the
    earlier of the two is mapped, and the search prunes only subtrees that
    hold no witness.  Both checks read one transition per shift class, from
    `StructureGraph.transition_classes`: counts on both sides are shift
    equivariant and every choice commutes with the shift, so the other
    members of a class map the same way.  Injective modes never reuse a
    target; surjective modes stop reusing targets once the uncovered
    targets are as many as the orbits left.  A complete assignment is a
    witness; in factor mode it must also meet the counting condition, over
    every transition.

    The levels live on an explicit stack, so the search depth is not
    bounded by the recursion limit.  Its cost is exponential in the worst
    case: the paper shows these decisions NP-hard.
    """
    xp, yp = _search_profile(x), _search_profile(y)
    n, m = len(xp.periods), len(yp.periods)
    if mode is Mode.CONJUGACY and (
            xp.periods != yp.periods
            or len(x.transition_classes) != len(y.transition_classes)):
        return None
    injective = mode in INJECTIVE_MODES
    surjective = mode in (Mode.FACTOR, Mode.CONJUGACY)
    if surjective and m > n:
        return None
    embed, conj = mode is Mode.EMBEDDING, mode is Mode.CONJUGACY
    own, later, count, size = xp.own, xp.later, yp.count, len(yp.pts)
    # the first orbit of each component takes offset 0 only
    domain = [_options(yp, p, not first, injective)
              for p, first in zip(xp.periods, xp.first)]
    targets, images, resume = [0] * n, [()] * n, [0] * n
    # per level, the (orbit, domain) pairs that its current choice narrowed
    trail = [[] for _ in range(n)]
    uses = [0] * m
    covered = 0
    # Invariant in the surjective modes: at level i, m - covered <= n - i;
    # so a complete assignment covers every target.
    i = k = 0
    while i >= 0:
        if i == n:
            if _counts_ok(mode, xp, yp, images):
                return _witness(xp, yp, images)
            opts = ()
        else:
            opts = domain[i]
            fresh_only = injective or (surjective and m - covered == n - i)
            edges, saved = own[i], trail[i]
        while k < len(opts):
            j, img = opts[k]
            k += 1
            if fresh_only and uses[j]:
                continue
            for (pa, pb, c) in edges:
                cy = count.get(img[pa] * size + img[pb], 0)
                if cy == 0 or (embed and c > cy) or (conj and c != cy):
                    break
            else:
                if _narrow(domain, later[i], saved, img, yp, embed, conj):
                    break
                _restore(domain, saved)
        else:
            # level i is exhausted: undo the choice of level i - 1 and
            # resume that level after it
            i -= 1
            if i >= 0:
                k = resume[i]
                j = targets[i]
                uses[j] -= 1
                if not uses[j]:
                    covered -= 1
                _restore(domain, trail[i])
            continue
        targets[i], images[i] = j, img
        if not uses[j]:
            covered += 1
        uses[j] += 1
        resume[i] = k
        i, k = i + 1, 0
    return None


def _narrow(domain, later, saved, img, yp, embed, conj):
    """Forward checking once a source orbit is mapped with the phase
    images `img`: narrow the domain of each later orbit in `later` to the
    choices under which every shared transition maps onto a target
    transition of nonzero count (at least as large for embeddings, equal
    for conjugacies).  Each replaced domain is pushed onto `saved`.  False
    as soon as a domain empties."""
    count, size = yp.count, len(yp.pts)
    for (l, group) in later:
        # per shared edge: the key of its image is key + scale * (the image
        # of its phase pl at l), and the image count must lie in [lo, hi]
        ends = []
        for (pi, pl, c, out) in group:
            u = img[pi]
            ends.append((u * size if out else u, 1 if out else size, pl,
                         c if embed or conj else 1, c if conj else _UNBOUNDED))
        kept = []
        for opt in domain[l]:
            imgl = opt[1]
            for (key, scale, pl, lo, hi) in ends:
                if not lo <= count.get(key + scale * imgl[pl], 0) <= hi:
                    break
            else:
                kept.append(opt)
        saved.append((l, domain[l]))
        domain[l] = kept
        if not kept:
            return False
    return True


def _restore(domain, saved):
    """Undo the narrowing recorded in `saved`, latest first."""
    while saved:
        l, d = saved.pop()
        domain[l] = d


def decide(mode: Mode, x: StructureGraph, y: StructureGraph):
    """First witness homomorphism under the deterministic search order
    (orbits by period then root, targets likewise, offsets ascending), or
    None when no witness exists.

    When both graphs have rank 1, `_rank1_targets` builds the witness that
    `search` would find first, or shows there is none, with no search:
    block maps send each source orbit to the first target whose period
    divides its own; embeddings and conjugacies send the k-th source orbit
    of period p to the k-th target orbit of period p; factor maps send each
    source orbit, in order, to the first divisor target that still lets the
    remaining source orbits cover every uncovered target.  Other inputs go
    to `search`.  Neither path recurses.
    """
    if not (is_rank_one(x) and is_rank_one(y)):
        return search(mode, x, y)
    targets = _rank1_targets(mode, x, y)
    if targets is None:
        return None
    xo, yo = _orbits(x), _orbits(y)
    return _witness(xo, yo, [_images(yo, j, 0, p)
                             for j, p in zip(targets, xo.periods)])


def _rank1_targets(mode, x, y):
    """Per source orbit, its target orbit in the first witness between two
    rank-1 graphs, or None when there is none.  Phase offsets are all 0.
    Raises NotRankOne unless both graphs have rank 1."""
    ps, qs = _rank1_periods(x), _rank1_periods(y)
    if mode is Mode.CONJUGACY and ps != qs:
        return None
    classes = _orbits(y).by_period
    if mode in INJECTIVE_MODES:
        out = []
        for i, p in enumerate(ps):
            # ps is sorted: this is the k-th source orbit of period p
            k = k + 1 if i and ps[i - 1] == p else 0
            js = classes.get(p, ())
            if k == len(js):
                return None
            out.append(js[k])
        return out
    divisors = {p: [q for q in classes if p % q == 0] for p in set(ps)}
    if not all(divisors.values()):
        return None
    if mode is Mode.BLOCK_MAP:
        return [classes[divisors[p][0]][0] for p in ps]
    if mode is not Mode.FACTOR:
        raise ValueError("unknown mode %r" % (mode,))
    # Factor: the targets of a class are covered in index order, so the
    # first filled[q] of them are covered.  Covering stays feasible or not
    # alike whichever covered target a source takes, and whichever
    # uncovered target of one class; so per class only the first covered
    # and the first uncovered target are candidates.  Each placed source
    # leaves covering feasible, so a source without a candidate means no
    # witness, and targets stay uncovered at the end only when there is
    # no source at all.
    supply = Counter(ps)
    uncovered = {q: len(js) for q, js in classes.items()}
    filled = dict.fromkeys(classes, 0)
    out = []
    for p in ps:
        supply[p] -= 1
        reuse_ok = None
        for q in divisors[p]:
            js, c = classes[q], filled[q]
            if c:
                if reuse_ok is None:
                    reuse_ok = _covers(supply, uncovered)
                if reuse_ok:
                    out.append(js[0])
                    break
            if c < len(js):
                uncovered[q] -= 1
                if _covers(supply, uncovered):
                    filled[q] += 1
                    out.append(js[c])
                    break
                uncovered[q] += 1
        else:
            return None
    return None if any(uncovered.values()) else out


def _covers(supply, demand) -> bool:
    """Whether source orbits counted per period in `supply` can map onto
    target orbits counted per period in `demand`, covering each once, with
    a source of period p onto a target of period q only when q divides p.

    A maximum flow over period classes: arcs s -> p with capacity
    supply[p], p -> q wherever q divides p, and q -> t with capacity
    demand[q].  Each augmenting path is found by breadth-first search with
    parent pointers and carries its bottleneck amount, so the cost grows
    with the number of distinct periods, not with the number of orbits."""
    need = sum(demand.values())
    if not need or need > sum(supply.values()):
        return not need
    ps = [p for p, c in supply.items() if c]
    qs = [q for q, c in demand.items() if c]
    # node 0 is the source, 1 the sink, then the classes of ps and of qs;
    # cap[u][v] is the residual capacity of u -> v, reverse arcs included.
    # The flow starts greedy: each class of ps sends what it can to the
    # classes of qs in turn, so most calls need few augmenting paths.
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
        for u in queue:  # the loop also visits nodes appended on the way
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


def verify_witness(mode: Mode, x: StructureGraph, y: StructureGraph,
                   h: SGHomomorphism) -> bool:
    """Independent validity check of a witness; never raises on malformed
    maps, simply returns False.  Reads none of the search's tables.

    The map must name every point of x once and commute with the shift:
    phase r of each source orbit goes to the image of its phase 0 moved on
    r phases, on an orbit whose period divides the source period (else the
    step from phase p - 1 back to phase 0 breaks).  Then the lcm(p, q)
    members of a source class map onto the lcm(p', q') members of one
    target class (p' | p, q' | q), which share one count, each hit
    lcm(p, q) / lcm(p', q') times.  So each condition is checked once per
    class of x, at the class of its image:

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
    periods = {o: o.period for o in x.orbits}
    named = {}  # source orbit -> {phase: image}
    for a, b in h.pairs:
        if not (isinstance(a, PeriodicPoint) and isinstance(b, PeriodicPoint)):
            return False
        named.setdefault(a.orbit, {})[a.phase] = b
    # with as many pairs as points, every point of x is named exactly once
    # when every orbit of x has all its phases
    if len(h.pairs) != sum(periods.values()) or len(named) != len(periods):
        return False
    # source orbit -> (period, image orbit, image phase of phase 0, its period)
    moved = {}
    for o, at in named.items():
        p = periods.get(o)  # None for an orbit outside x
        if len(at) != p:
            return False
        z = at[0]
        q, root = z.period, z.orbit.root
        if p % q:
            return False
        for r, b in at.items():
            if b.orbit.root != root or b.phase != (z.phase + r) % q:
                return False
        moved[o] = (p, z.orbit, z.phase, q)
    embed, conj = mode is Mode.EMBEDDING, mode is Mode.CONJUGACY
    counts = y._class_counts
    supply = {}  # target class -> aperiodic supply at each of its members
    for ((a, b), c) in x.transition_classes:
        # the representative (a, b) has a at phase 0: its image is the
        # pair at phases u and v + b.phase of the image orbits
        pa, ou, u, qu = moved[a.orbit]
        pb, ov, v, qv = moved[b.orbit]
        g = gcd(qu, qv)
        key = (ou, ov, (v + b.phase - u) % g)
        cy = counts.get(key, 0)
        if not cy or (embed and c > cy) or (conj and c != cy):
            return False
        hits = lcm(pa, pb) * g // (qu * qv)
        if (embed or conj) and (hits != 1 or key in supply):
            return False
        supply[key] = supply.get(key, 0) + hits * (c - 1 if a == b else c)
    if mode is Mode.BLOCK_MAP or embed:
        return True
    if mode is Mode.FACTOR:
        return all(supply.get((o, t, r), -1) >= (c - 1 if o == t and not r else c)
                   for ((o, t, r), c) in counts.items())
    if conj:
        return len(x.transition_classes) == len(y.transition_classes)
    raise ValueError("unknown mode %r" % (mode,))


def _rank1_periods(s: StructureGraph):
    """The sorted orbit periods of a rank-1 graph, whose classes are the
    count-1 diagonals, one per orbit; raises NotRankOne otherwise."""
    cached = s.__dict__.get("_rank1_periods")
    if cached is None:
        for ((a, b), c) in s.transition_classes:
            if a != b or c != 1:
                raise NotRankOne("transition edge %r -> %r count %d" % (a, b, c))
        cached = sorted(o.period for o in s.orbits)
        s.__dict__["_rank1_periods"] = cached
    return cached


def rank1_decide(mode: Mode, x: StructureGraph, y: StructureGraph) -> bool:
    """Fast decisions for finite shifts (structure graphs whose transition
    edges are exactly the count-1 diagonals): conjugacy compares sorted
    period multisets, block maps need a divisor period for every source
    orbit, embeddings a period-preserving injection, and factors
    additionally a cover of the target orbits by source orbits of multiple
    periods (a flow over period classes).  True when `_rank1_targets`
    finds a witness."""
    return _rank1_targets(mode, x, y) is not None


def is_rank_one(s: StructureGraph) -> bool:
    try:
        _rank1_periods(s)
        return True
    except NotRankOne:
        return False


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
        diag_t = ta == tb
        free_slots = [j for j in range(c) if not (diag_t and j == 0)]
        assign = {}
        cursor = 0
        for ((a, b), k) in sources:
            for i in range(k):
                if a == b and i == 0:
                    assign[((a, b), 0)] = 0
                    continue
                if cursor < len(free_slots):
                    j = free_slots[cursor]
                elif mode is Mode.FACTOR or mode is Mode.BLOCK_MAP:
                    j = free_slots[-1] if free_slots else 0
                else:
                    raise WitnessInvalid("aperiodic supply exceeds capacity")
                cursor += 1
                assign[((a, b), i)] = j
        out[(ta, tb)] = assign
    return out
