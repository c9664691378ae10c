"""Decision procedures on structure graphs.

A witness for any of the four modes is a rotation-commuting vertex map.
Such a map is determined orbit by orbit: an orbit of period p may map into
an orbit of period q only when q divides p, and choosing a phase offset
fixes every point of the orbit.

`decide` is the entry point.  When both graphs have rank 1 (finite shifts,
whose transition edges are exactly the count-1 diagonals) it answers from
the period multisets, as `rank1_decide` does, and builds the witness
directly from the period classes.  Otherwise it runs `search`, a
backtracking search over orbit maps with the per-mode side conditions,
kept on an explicit stack so that no input depends on the interpreter's
recursion limit.  Both paths return the same witness: the first one in the
search order (source orbits by period then root, their targets likewise,
offsets ascending).  `search` stays public as the reference that the rank-1
path is tested against.

The factor-mode count condition compares aperiodic supply against aperiodic
demand: on a diagonal edge the periodic point accounts for one orbit of its
own transition count, and its image is forced to the target's periodic
point, so that orbit can never cover an aperiodic target orbit.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .core import StructureGraph
from .errors import MalformedStructureGraph, NotRankOne, WitnessInvalid


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

    @cached_property
    def mapping(self):
        return dict(self.pairs)


def _aperiodic(count, src, dst):
    return count - 1 if src == dst else count


class _SearchProfile(NamedTuple):
    """Integer tables of one graph, for either side of a search.  Orbits
    are indexed in sorted order and the point of orbit i at phase r has the
    id base[i] + r."""

    pts: tuple        # the points by id
    periods: tuple    # per orbit, its period (ascending)
    base: tuple       # per orbit, the id of its phase-0 point
    edges: tuple      # transitions as (orbit, phase, orbit, phase, count)
    bucket: tuple     # per orbit i, the edges whose later orbit is i
    offdiag: tuple    # per orbit, whether an off-diagonal edge touches it
    count: dict       # (point id, point id) -> transition count
    by_period: dict   # period -> ascending orbit indices, periods ascending


def _search_profile(s: StructureGraph) -> _SearchProfile:
    prof = s.__dict__.get("_search_profile")
    if prof is not None:
        return prof
    orbits = sorted(s.orbits, key=lambda o: o.sort_key())
    idx = {o: i for i, o in enumerate(orbits)}
    periods = tuple(o.period for o in orbits)
    base, total = [], 0
    for p in periods:
        base.append(total)
        total += p
    edges = tuple((idx[a.orbit], a.phase, idx[b.orbit], b.phase, c)
                  for ((a, b), c) in s.transitions)
    bucket = [[] for _ in orbits]
    offdiag = [False] * len(orbits)
    count = {}
    by_period = {}
    for i, p in enumerate(periods):
        by_period.setdefault(p, []).append(i)
    for (ia, pa, ib, pb, c) in edges:
        bucket[max(ia, ib)].append((ia, pa, ib, pb, c))
        if (ia, pa) != (ib, pb):
            offdiag[ia] = offdiag[ib] = True
        count[(base[ia] + pa, base[ib] + pb)] = c
    # the graph's own point tuple, when its orbits are listed sorted
    pts = s.points() if tuple(orbits) == s.orbits else tuple(
        o.point(r) for o in orbits for r in range(o.period))
    prof = _SearchProfile(
        pts, periods, tuple(base), edges, tuple(map(tuple, bucket)),
        tuple(offdiag), count,
        {p: tuple(js) for p, js in by_period.items()})
    s.__dict__["_search_profile"] = prof
    return prof


def _witness(xp, yp, targets, offsets):
    """The vertex map sending source orbit i to target orbit targets[i]
    with phase offset offsets[i]."""
    vmap = {}
    xpts, ypts = xp.pts, yp.pts
    for i, p in enumerate(xp.periods):
        j, off, b = targets[i], offsets[i], xp.base[i]
        yb, q = yp.base[j], yp.periods[j]
        for r in range(p):
            vmap[xpts[b + r]] = ypts[yb + (r + off) % q]
    return SGHomomorphism.make(vmap)


def _counts_ok(mode, xp, yp, targets, offsets):
    """The counting condition of a complete assignment: every target
    transition receives a preimage, and in factor mode enough aperiodic
    supply to cover its aperiodic orbits."""
    if mode in (Mode.BLOCK_MAP, Mode.EMBEDDING):
        return True
    ybase, yper = yp.base, yp.periods
    preim = {}
    for (ia, pa, ib, pb, c) in xp.edges:
        ja, jb = targets[ia], targets[ib]
        key = (ybase[ja] + (pa + offsets[ia]) % yper[ja],
               ybase[jb] + (pb + offsets[ib]) % yper[jb])
        preim[key] = preim.get(key, 0) + (c - 1 if (ia, pa) == (ib, pb) else c)
    if mode is Mode.CONJUGACY:
        return all(key in preim for key in yp.count)
    for (key, c) in yp.count.items():
        got = preim.get(key)
        if got is None or got < (c - 1 if key[0] == key[1] else c):
            return False
    return True


def search(mode: Mode, x: StructureGraph, y: StructureGraph):
    """First witness homomorphism under the deterministic search order, or
    None when no witness exists.  Works on graphs of any rank.

    A depth-first search with one level per source orbit, taken by period
    then root.  Each level tries the target orbits by period then root and,
    for each, the phase offsets ascending; only offset 0 when every
    transition at the orbit is diagonal, since the images of diagonal edges
    do not depend on the offset.  A choice is kept when every transition
    between assigned orbits maps onto a transition of nonzero count (at
    least as large for embeddings, equal for conjugacies).  Injective modes
    never reuse a target; surjective modes stop reusing targets once the
    uncovered targets are as many as the orbits left.  A complete
    assignment is a witness when the mode's counting condition holds.

    The levels live on an explicit stack, so the search depth is not
    bounded by the recursion limit.  Its cost is exponential in the worst
    case: the paper shows these decisions NP-hard.
    """
    x.validate()
    y.validate()
    xp, yp = _search_profile(x), _search_profile(y)
    n, m = len(xp.periods), len(yp.periods)
    if mode is Mode.CONJUGACY and (xp.periods != yp.periods
                                   or len(x.transitions) != len(y.transitions)):
        return None
    injective = mode in INJECTIVE_MODES
    surjective = mode in (Mode.FACTOR, Mode.CONJUGACY)
    if surjective and m > n:
        return None
    embed, conj = mode is Mode.EMBEDDING, mode is Mode.CONJUGACY
    yper, ybase, ycount, bucket = yp.periods, yp.base, yp.count, xp.bucket
    # the (target, offset) choices of a source orbit depend only on its
    # period and on whether an off-diagonal edge touches it
    choices = {}
    options = []
    for p, offdiag in zip(xp.periods, xp.offdiag):
        opts = choices.get((p, offdiag))
        if opts is None:
            if injective:
                js = yp.by_period.get(p, ())
            else:
                js = [j for q, group in yp.by_period.items() if p % q == 0
                      for j in group]
            opts = choices[(p, offdiag)] = [
                (j, off) for j in js
                for off in (range(yper[j]) if offdiag else (0,))]
        options.append(opts)
    targets, offsets, resume = [0] * n, [0] * n, [0] * n
    uses = [0] * m
    covered = 0
    # Invariant in the surjective modes: at level i, m - covered <= n - i;
    # so a complete assignment covers every target.
    i = k = 0
    while i >= 0:
        if i == n:
            if _counts_ok(mode, xp, yp, targets, offsets):
                return _witness(xp, yp, targets, offsets)
            opts = ()
        else:
            opts = options[i]
            fresh_only = injective or (surjective and m - covered == n - i)
            edges = bucket[i]
        while k < len(opts):
            j, off = opts[k]
            k += 1
            if fresh_only and uses[j]:
                continue
            targets[i], offsets[i] = j, off
            for (ia, pa, ib, pb, c) in edges:
                ja, jb = targets[ia], targets[ib]
                cy = ycount.get((ybase[ja] + (pa + offsets[ia]) % yper[ja],
                                 ybase[jb] + (pb + offsets[ib]) % yper[jb]), 0)
                if cy == 0 or (embed and c > cy) or (conj and c != cy):
                    break
            else:
                break
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
            continue
        if not uses[j]:
            covered += 1
        uses[j] += 1
        resume[i] = k
        i, k = i + 1, 0
    return None


def decide(mode: Mode, x: StructureGraph, y: StructureGraph):
    """First witness homomorphism under the deterministic search order
    (orbits by period then root, targets likewise, offsets ascending), or
    None when no witness exists.

    When both graphs have rank 1, the answer comes from `rank1_decide` and
    a YES builds the witness that `search` would find first, with no
    search: block maps send each source orbit to the first target whose
    period divides its own; embeddings and conjugacies send the k-th source
    orbit of period p to the k-th target orbit of period p; factor maps send
    each source orbit, in order, to the first divisor target that still
    lets the remaining source orbits cover every uncovered target.  Other
    inputs go to `search`.  Neither path recurses.
    """
    x.validate()
    y.validate()
    if not (is_rank_one(x) and is_rank_one(y)):
        return search(mode, x, y)
    if not rank1_decide(mode, x, y):
        return None
    xp, yp = _search_profile(x), _search_profile(y)
    return _witness(xp, yp, _rank1_targets(mode, xp, yp), [0] * len(xp.periods))


def _rank1_targets(mode, xp, yp):
    """Per source orbit, its target orbit in the first witness between two
    rank-1 graphs that have one.  Phase offsets are all 0."""
    classes = yp.by_period
    if mode in INJECTIVE_MODES:
        nth = Counter()
        out = []
        for p in xp.periods:
            out.append(classes[p][nth[p]])
            nth[p] += 1
        return out
    divisors = {p: [q for q in classes if p % q == 0] for p in set(xp.periods)}
    if mode is Mode.BLOCK_MAP:
        return [classes[divisors[p][0]][0] for p in xp.periods]
    # Factor: the targets of a class are covered in index order, so the
    # first filled[q] of them are covered.  Covering stays feasible or not
    # alike whichever covered target a source takes, and whichever
    # uncovered target of one class; so per class only the first covered
    # and the first uncovered target are candidates.
    supply = Counter(xp.periods)
    uncovered = {q: len(js) for q, js in classes.items()}
    filled = dict.fromkeys(classes, 0)
    out = []
    for p in xp.periods:
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
    return out


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
    if need > sum(supply.values()):
        return False
    ps = [p for p, c in supply.items() if c]
    qs = [q for q, c in demand.items() if c]
    # node 0 is the source, 1 the sink, then the classes of ps and of qs;
    # cap[u][v] is the residual capacity of u -> v, reverse arcs included
    cap = [{} for _ in range(2 + len(ps) + len(qs))]
    for a, p in enumerate(ps, 2):
        cap[0][a], cap[a][0] = supply[p], 0
        for b, q in enumerate(qs, 2 + len(ps)):
            if p % q == 0:
                cap[a][b], cap[b][a] = need, 0
    for b, q in enumerate(qs, 2 + len(ps)):
        cap[b][1], cap[1][b] = demand[q], 0
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
    maps, simply returns False.  Shares no search code with decide."""
    try:
        x.validate()
        y.validate()
    except MalformedStructureGraph:
        return False
    vm = dict(h.pairs)
    pts_x, pts_y = x.points(), set(y.points())
    if set(vm) != set(pts_x):
        return False
    if not all(v in pts_y for v in vm.values()):
        return False
    for p in pts_x:
        if vm[p.shift(1)] != vm[p].shift(1):
            return False
    edge_images = []
    for ((a, b), c) in x.transitions:
        key = (vm[a], vm[b])
        if y.count(*key) == 0:
            return False
        edge_images.append(key)
    if mode is Mode.BLOCK_MAP:
        return True
    if mode is Mode.EMBEDDING:
        if len(set(edge_images)) != len(edge_images):
            return False
        return all(c <= y.count(vm[a], vm[b]) for ((a, b), c) in x.transitions)
    supply = {}
    for ((a, b), c) in x.transitions:
        key = (vm[a], vm[b])
        supply.setdefault(key, []).append((c, a == b))
    if mode is Mode.FACTOR:
        for ((ta, tb), c) in y.transitions:
            got = supply.get((ta, tb))
            if got is None:
                return False
            if sum(k - (1 if d else 0) for (k, d) in got) < _aperiodic(c, ta, tb):
                return False
        return True
    if mode is Mode.CONJUGACY:
        if len(set(vm.values())) != len(pts_x) or len(pts_x) != len(pts_y):
            return False
        if len(edge_images) != len(set(edge_images)):
            return False
        if len(x.transitions) != len(y.transitions):
            return False
        return all(c == y.count(vm[a], vm[b]) for ((a, b), c) in x.transitions)
    raise ValueError("unknown mode %r" % (mode,))


def _rank1_periods(s: StructureGraph):
    cached = s.__dict__.get("_rank1_periods")
    if cached is None:
        for ((a, b), c) in s.transitions:
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
    periods (a flow over period classes)."""
    x.validate()
    y.validate()
    ps = _rank1_periods(x)
    qs = _rank1_periods(y)
    if mode is Mode.CONJUGACY:
        return ps == qs
    if mode is Mode.EMBEDDING:
        return all(ps.count(v) <= qs.count(v) for v in set(ps))
    periods = set(qs)
    divisible = all(any(p % q == 0 for q in periods) for p in set(ps))
    if mode is Mode.BLOCK_MAP:
        return divisible
    if mode is Mode.FACTOR:
        return divisible and _covers(Counter(ps), Counter(qs))
    raise ValueError("unknown mode %r" % (mode,))


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
    out = {}
    for ((ta, tb), c) in y.transitions:
        sources = [((a, b), k) for ((a, b), k) in x.transitions
                   if (vm[a], vm[b]) == (ta, tb)]
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
