"""Decision procedures on structure graphs.

Conjugacy is decided by backtracking isomorphism search; block-map,
embedding and factor-map existence by backtracking over rotation-commuting
vertex maps with the per-mode side conditions.  A rotation-commuting map is
determined orbit by orbit: an orbit of period p may map into an orbit of
period q only when q divides p, and choosing a phase offset fixes every
point of the orbit.

The factor-mode count condition compares aperiodic supply against aperiodic
demand: on a diagonal edge the periodic point accounts for one orbit of its
own transition count, and its image is forced to the target's periodic
point, so that orbit can never cover an aperiodic target orbit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

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

    def image(self, pt):
        return self.mapping[pt]


def _validate_pair(x: StructureGraph, y: StructureGraph):
    x.validate()
    y.validate()


def _aperiodic(count, src, dst):
    return count - 1 if src == dst else count


def _orbit_map_to_vertex_map(assignment):
    vmap = {}
    for o, (t, off) in assignment.items():
        for r in range(o.period):
            vmap[o.point(r)] = t.point((r + off) % t.period)
    return vmap


def _search_profile(s: StructureGraph):
    """Cached per-graph data for the backtracking search: sorted orbits,
    per-orbit point tuples, transitions in orbit-index form, per-depth edge
    buckets and off-diagonal incidence flags."""
    prof = s.__dict__.get("_search_profile")
    if prof is not None:
        return prof
    orbits = sorted(s.orbits, key=lambda o: o.sort_key())
    idx = {o: i for i, o in enumerate(orbits)}
    pts = [tuple(o.point(r) for r in range(o.period)) for o in orbits]
    edges = [(idx[a.orbit], a.phase, idx[b.orbit], b.phase, c)
             for ((a, b), c) in s.transitions]
    n = len(orbits)
    bucket = [[] for _ in range(n)]
    offdiag = [False] * n
    for e in edges:
        ia, pa, ib, pb, _c = e
        bucket[max(ia, ib)].append(e)
        if (ia, pa) != (ib, pb):
            offdiag[ia] = offdiag[ib] = True
    periods = sorted(o.period for o in orbits)
    prof = (orbits, pts, edges, bucket, offdiag, periods)
    s.__dict__["_search_profile"] = prof
    return prof


def decide(mode: Mode, x: StructureGraph, y: StructureGraph):
    """First witness homomorphism under the deterministic search order
    (orbits by period then root, targets likewise, offsets ascending), or
    None when no witness exists."""
    _validate_pair(x, y)
    xs, _x_pts, x_edges, bucket, offdiag_at, x_periods = _search_profile(x)
    ys, y_pts, _y_edges, _yb, _yo, y_periods = _search_profile(y)
    if mode is Mode.CONJUGACY:
        if x_periods != y_periods:
            return None
        if len(x.transitions) != len(y.transitions):
            return None
    injective = mode in INJECTIVE_MODES
    surjective = mode in (Mode.FACTOR, Mode.CONJUGACY)
    n, m = len(xs), len(ys)
    ycount = y.transition_map
    # per source orbit: compatible (target index, offsets) choices; offsets
    # collapse to [0] when every incident edge is diagonal (images of
    # diagonal edges are offset-invariant by shift equivariance)
    cands = []
    for i, o in enumerate(xs):
        opts = []
        for j, t in enumerate(ys):
            if injective:
                if t.period != o.period:
                    continue
            elif o.period % t.period != 0:
                continue
            offs = range(t.period) if offdiag_at[i] else (0,)
            opts.append((j, offs))
        cands.append(opts)
    assign = [None] * n  # (target index, offset)
    uses = {}

    def img(ia, phase):
        j, off = assign[ia]
        pts = y_pts[j]
        return pts[(phase + off) % len(pts)]

    def edges_ok(i):
        for (ia, pa, ib, pb, c) in bucket[i]:
            cy = ycount.get((img(ia, pa), img(ib, pb)), 0)
            if cy == 0:
                return False
            if mode is Mode.EMBEDDING and c > cy:
                return False
            if mode is Mode.CONJUGACY and c != cy:
                return False
        return True

    def final_ok():
        if mode in (Mode.BLOCK_MAP, Mode.EMBEDDING):
            return True
        preim = {}
        for (ia, pa, ib, pb, c) in x_edges:
            key = (img(ia, pa), img(ib, pb))
            preim[key] = preim.get(key, 0) + (c - 1 if (ia, pa) == (ib, pb) else c)
        if mode is Mode.CONJUGACY:
            return all(key in preim for (key, _c) in y.transitions)
        for ((ta, tb), c) in y.transitions:
            got = preim.get((ta, tb))
            if got is None or got < _aperiodic(c, ta, tb):
                return False
        return True

    def witness():
        vmap = {}
        for i, o in enumerate(xs):
            for r in range(o.period):
                vmap[o.point(r)] = img(i, r)
        return SGHomomorphism.make(vmap)

    def backtrack(i):
        if i == n:
            if surjective and len(uses) != m:
                return None
            return witness() if final_ok() else None
        for (j, offs) in cands[i]:
            if injective and j in uses:
                continue
            for off in offs:
                assign[i] = (j, off)
                uses[j] = uses.get(j, 0) + 1
                ok = edges_ok(i)
                if ok and surjective and len(uses) + (n - i - 1) < m:
                    ok = False
                if ok:
                    res = backtrack(i + 1)
                    if res is not None:
                        return res
                uses[j] -= 1
                if not uses[j]:
                    del uses[j]
                assign[i] = None
        return None

    try:
        return backtrack(0)
    finally:
        # backtrack refers to itself through its closure; breaking that
        # cycle frees the candidate tables now, not at the next full
        # collection, also when the search raises
        del backtrack


def verify_witness(mode: Mode, x: StructureGraph, y: StructureGraph,
                   h: SGHomomorphism) -> bool:
    """Independent validity check of a witness; never raises on malformed
    maps, simply returns False.  Shares no search code with decide."""
    try:
        _validate_pair(x, y)
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


def _max_matching(n_left, n_right, adj):
    """Maximum bipartite matching by augmenting paths, each found by a
    breadth-first search with parent pointers rather than by recursion."""
    match_l = [-1] * n_left
    match_r = [-1] * n_right
    size = 0
    for root in range(n_left):
        parent = {}  # right vertex -> left vertex it was reached from
        queue = [root]
        free = -1
        for i in queue:  # the loop also visits vertices appended on the way
            for j in adj[i]:
                if j not in parent:
                    parent[j] = i
                    if match_r[j] < 0:
                        free = j
                        break
                    queue.append(match_r[j])
            if free >= 0:
                break
        if free >= 0:
            size += 1
        while free >= 0:  # flip the alternating path back to the root
            i = parent[free]
            match_r[free] = i
            match_l[i], free = free, match_l[i]
    return size


def rank1_decide(mode: Mode, x: StructureGraph, y: StructureGraph) -> bool:
    """Fast decisions for finite shifts (structure graphs whose transition
    edges are exactly the count-1 diagonals): conjugacy compares sorted
    period multisets, block maps need a divisor period for every source
    orbit, embeddings a period-preserving injection, and factors
    additionally a full matching of the target orbits."""
    _validate_pair(x, y)
    ps = _rank1_periods(x)
    qs = _rank1_periods(y)
    if mode is Mode.CONJUGACY:
        return ps == qs
    if mode is Mode.BLOCK_MAP:
        return all(any(p % q == 0 for q in qs) for p in ps)
    if mode is Mode.EMBEDDING:
        return all(ps.count(v) <= qs.count(v) for v in set(ps))
    if mode is Mode.FACTOR:
        if not all(any(p % q == 0 for q in qs) for p in ps):
            return False
        adj = [[j for j, q in enumerate(qs) if p % q == 0]
               for p in ps]
        return _max_matching(len(ps), len(qs), adj) == len(qs)
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
