"""Ingestion and normalization of shift presentations.

Provides graph hygiene (trimming to the essential part), right-resolving
checks, determinization, partition-refinement minimization, the structural
countability certificate with rank analysis, and conversions from
combinatorial representations and forbidden-word systems.

For a right-resolving presentation, pairwise vertex-disjoint simple cycles
is exactly countability of the presented shift: two distinct simple cycles
through a shared vertex must carry label words neither of which is a prefix
of the other (determinism), so they generate a free submonoid of words and
hence uncountably many configurations.  The certificate here is therefore a
characterization, not merely a sufficient condition.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

from .core import (LabeledGraph, CombRep, CombTerm, canonicalize_point, word,
                   _check_symbol, _clip)
from .errors import (
    EmptyRepresentation,
    NotCountableCertified,
    NotRightResolving,
    RankTooHigh,
    SizeLimitExceeded,
)

RANK_HIGH = ">=3"
RANK_UNCERTIFIED = "not-certified"
MAX_DETERMINIZE_STATES = 100_000
# the most positions the subset construction holds, summed over its
# states: over 5 times the largest sum in the tests (352,420, a 2,000-term
# representation), perfbench (120, seeds 1-3) or demos (66).  Under Python
# 3.11 it holds about 65 bytes per position, near 150MB at this cap
MAX_DETERMINIZE_SIZE = 2 * 10 ** 6


def _dead(out):
    """The positions of `out` that lie on no bi-infinite walk: those
    lacking an incoming or outgoing edge, removed one at a time from a queue
    while updating the degrees of their neighbours."""
    pred = [[] for _ in out]
    for a, row in enumerate(out):
        for (b, s) in row:
            pred[b].append((a, s))
    indeg = [len(p) for p in pred]
    outdeg = [len(row) for row in out]
    queue = [v for v in range(len(out)) if not indeg[v] or not outdeg[v]]
    gone = set(queue)
    while queue:
        v = queue.pop()
        for (deg, nbrs) in ((indeg, out[v]), (outdeg, pred[v])):
            for (w, _s) in nbrs:
                deg[w] -= 1
                if not deg[w] and w not in gone:
                    gone.add(w)
                    queue.append(w)
    return gone


def _trimmed(out):
    """(rows, kept): `out` without its dead positions, the rest renumbered
    in ascending order, and per new position its old one."""
    gone = _dead(out)
    kept = [v for v in range(len(out)) if v not in gone]
    if not gone:
        return out, kept
    new = {v: i for i, v in enumerate(kept)}
    return [[(new[b], s) for (b, s) in out[v] if b in new] for v in kept], kept


def trim_essential(g: LabeledGraph) -> LabeledGraph:
    """Maximal subgraph in which every vertex lies on a bi-infinite walk.

    The presented shift is unchanged.  Runs on the positions of `g.index`,
    and returns g itself when it is already essential.  May return the
    empty graph.
    """
    verts, out = g.index
    if all(out) and len(set(map(itemgetter(1), g.edges))) == len(out):
        return g
    names = {verts[v] for v in _dead(out)}
    # a filtered sorted tuple stays sorted, and its labels are already checked
    return LabeledGraph(g.vertices - names, tuple(e for e in g.edges
                                                  if e[0] not in names and e[1] not in names))


def check_right_resolving(g: LabeledGraph):
    """(vertex, label) pairs with two or more outgoing edges sharing the
    label; empty list iff the presentation is right-resolving."""
    if len({(a, s) for (a, _b, s) in g.edges}) == len(g.edges):
        return []
    verts, out = g.index
    bad = []
    for v, row in enumerate(out):
        seen = Counter(s for (_b, s) in row)
        bad.extend((verts[v], s) for s in sorted(seen) if seen[s] >= 2)
    return bad


def is_right_resolving(g: LabeledGraph) -> bool:
    return not check_right_resolving(g)


def _require_rr(g: LabeledGraph):
    bad = check_right_resolving(g)
    if bad:
        raise NotRightResolving("label collisions at %s" % _clip(repr(bad[:5])))


def _subsets(out):
    """The subset construction on `out`, seeded with every position, as
    rows: per state its (state, label) pairs in ascending label order.
    States are numbered in the order they are found, breadth first.
    Refuses with SizeLimitExceeded past MAX_DETERMINIZE_STATES states or
    MAX_DETERMINIZE_SIZE positions summed over them."""
    states = [frozenset(range(len(out)))]
    ids = {states[0]: 0}
    size = len(out)
    rows = []
    for state in states:  # grows as states are found
        step = {}
        for v in state:
            for (b, s) in out[v]:
                step.setdefault(s, []).append(b)
        row = []
        for s in sorted(step):
            succ = frozenset(step[s])
            i = ids.get(succ)
            if i is None:
                size += len(succ)
                if len(states) >= MAX_DETERMINIZE_STATES:
                    raise SizeLimitExceeded("determinization exceeded %d states"
                                            % MAX_DETERMINIZE_STATES)
                if size > MAX_DETERMINIZE_SIZE:
                    raise SizeLimitExceeded("determinization exceeded %d positions summed"
                                            " over its states" % MAX_DETERMINIZE_SIZE)
                i = ids[succ] = len(states)
                states.append(succ)
            row.append((i, s))
        rows.append(row)
    return rows


def _determinized(out):
    """(rows, ranks): the subset construction on `out`, trimmed, and per
    state the rank of its number among the kept ones sorted as decimal
    strings, the order in which names d0, d1, ... sort."""
    rows, kept = _trimmed(_subsets(out))
    rank = [0] * len(kept)
    for r, i in enumerate(sorted(range(len(kept)), key=lambda i: "%d" % kept[i])):
        rank[i] = r
    return rows, rank


def determinize(g: LabeledGraph) -> LabeledGraph:
    """Right-resolving presentation of the same shift via the subset
    construction seeded with the full vertex set, on sets of positions in
    `g.index`, then trimmed.  States are numbered in the order they are
    found, breadth first, each state's successors in ascending label order,
    and named s0, s1, ... in the order of their numbers as decimal strings.
    Already-deterministic graphs pass through unchanged."""
    if is_right_resolving(g):
        return g
    rows, rank = _determinized(g.index[1])
    names = ["s%d" % r for r in rank]
    return LabeledGraph.make(names, [(names[a], names[b], s)
                                     for a, row in enumerate(rows) for (b, s) in row])


def _coarsest(rows):
    """Per position of right-resolving `rows`, its block in the coarsest
    partition whose blocks share one out-label set and, for each label,
    step into one block: the vertices with equal follower sets.

    Hopcroft's smaller-half refinement (1971) in the partial-transition
    form of Valmari and Lehtinen (2008), O(E log V).  Blocks start as the
    vertices that share one out-label set; a splitter is a (block, label)
    pair, and splits every block into the vertices that step into it by the
    label and the rest.  The smaller half gets a new block and a splitter
    per label stepping into it; the larger half keeps the old block and its
    queued splitters, so both halves are queued when the block was.  Per
    label, the largest initial block is never queued: the vertices stepping
    into all blocks by a label are a union of initial blocks.
    """
    into = [{} for _ in rows]  # per position: label -> the positions stepping into it
    first = {}
    block = []
    for v, row in enumerate(rows):
        for (b, s) in row:
            into[b].setdefault(s, []).append(v)
        block.append(first.setdefault(frozenset([s for (_b, s) in row]), len(first)))
    members = [set() for _ in first]
    for v, x in enumerate(block):
        members[x].add(v)
    heads = {}  # label -> the initial blocks it steps into
    for b, d in enumerate(into):
        for s in d:
            heads.setdefault(s, set()).add(block[b])
    queue = []
    for s, xs in heads.items():
        xs.remove(max(xs, key=lambda x: len(members[x])))
        queue.extend([(x, s) for x in xs])
    while queue:
        x, s = queue.pop()
        touched = {}
        for w in members[x]:
            for v in into[w].get(s, ()):
                touched.setdefault(block[v], []).append(v)
        for y, marked in touched.items():
            ms = members[y]
            if len(marked) < len(ms):
                small = set(marked) if 2 * len(marked) <= len(ms) else ms.difference(marked)
                ms -= small
                z = len(members)
                members.append(small)
                labels = set()
                for v in small:
                    block[v] = z
                    labels.update(into[v])
                queue.extend([(z, s) for s in labels])
    return block


def _quotient(rows, block, first, key):
    """The quotient of `rows` by `block`, named m0, m1, ... in the order of
    `key` over the representatives, each block's first position in
    `first`.  Right-resolving, so a representative's row is its block's."""
    reps = {}
    for v in first:
        reps.setdefault(block[v], v)
    name = {}
    for v in sorted(reps.values(), key=key):
        name[block[v]] = "m%d" % len(name)
    return LabeledGraph.make(name.values(), [(name[block[v]], name[block[b]], s)
                                             for v in reps.values() for (b, s) in rows[v]])


def minimize_right_resolving(g: LabeledGraph) -> LabeledGraph:
    """Merge vertices with equal follower behavior by partition refinement.

    Trims, then quotients by the coarsest partition whose blocks share one
    out-label set and, per label, one successor block (Hopcroft refinement
    on the positions of `g.index`).  Each block is represented by its least
    vertex, and the blocks are named m0, m1, ... in the `str` order of
    their representatives.  The presented shift is unchanged; output is
    right-resolving, essential (a quotient of an essential graph is
    essential) and a fixed point of this operation.
    """
    _require_rr(g)
    verts, out = g.index
    rows, kept = _trimmed(out)
    return _quotient(rows, _coarsest(rows), range(len(rows)),
                     lambda v: str(verts[kept[v]]))


@dataclass(frozen=True)
class AnalysisReport:
    """Structural facts about a presentation.

    rank is an int when countability is certified, ">=3" when certified but
    some condensation path visits three or more cycles, and "not-certified"
    when the cycle-disjointness certificate fails (or the graph is not
    right-resolving, in which case path counting downstream is unsound).
    """

    is_right_resolving: bool
    is_essential: bool
    cycles: tuple
    is_countable_certified: bool
    rank: object


def _cycle_certificate(g: LabeledGraph):
    """One SCC pass for the countability certificate and the rank:
    (cycles, label, rank, vertex), on the positions of `g.index`.

    cycles is None when some strongly connected component is neither
    trivial nor a single simple cycle, and vertex then names the first
    such component.  Otherwise cycles are position tuples in walk order,
    sorted by length then vertex names, label holds per position the label
    of its cycle edge (None off the cycles), rank is the most cycles any
    path visits, and vertex names the first cycle whose paths visit three
    or more (None when rank <= 2).  A component is named by, and its cycle
    starts at, its least vertex by `str`, not its least position.  "First"
    is in the order Tarjan's algorithm (1972) closes the components, which
    is reverse topological, here in Pearce's single-array form (2016), run
    iteratively with roots in ascending position.  A trivial component is
    never stacked and closes with one store.
    """
    verts, out = g.index
    n = len(out)
    closed = n + 1
    rindex = [0] * (n + 1)  # 0 while unvisited; entry n is the stack's floor
    best = [0] * n          # the most cycles a path from the vertex visits
    label = [None] * n
    stack = [n]             # finished vertices whose component is still open
    work = []
    cycles = []             # in the order their components close
    counter = 1
    for root in range(n):
        if rindex[root]:
            continue
        v, edges, r = root, iter(out[root]), counter
        rindex[v] = counter
        counter += 1
        while True:
            for (w, s) in edges:
                x = rindex[w]
                if not x:
                    work.append((v, edges, r))
                    v, edges, r = w, iter(out[w]), counter
                    rindex[v] = counter
                    counter += 1
                    break
                if x == closed:
                    if best[w] > best[v]:
                        best[v] = best[w]
                elif x < rindex[v]:
                    rindex[v] = x
                elif w == v:
                    label[v] = s  # a loop: v lies on a cycle
            else:
                if rindex[v] != r:
                    stack.append(v)
                elif rindex[stack[-1]] < r and label[v] is None:
                    rindex[v] = closed  # trivial, and best[v] is already final
                else:
                    comp = [v]
                    while rindex[stack[-1]] >= r:
                        comp.append(stack.pop())
                    # strongly connected: one simple cycle covers it iff the
                    # walk from its start meets one internal edge per vertex
                    order = [v if len(comp) == 1 else min(comp, key=lambda u: str(verts[u]))]
                    while True:
                        inner = [(w, s) for (w, s) in out[order[-1]] if rindex[w] != closed]
                        if len(inner) != 1:
                            return None, None, None, verts[order[0]]
                        (w, label[order[-1]]), = inner
                        if w == order[0]:
                            break
                        order.append(w)
                    cycles.append(tuple(order))
                    b = max(map(best.__getitem__, comp)) + 1
                    for u in comp:
                        rindex[u] = closed
                        best[u] = b
                if not work:
                    break
                u = v
                v, edges, r = work.pop()
                if rindex[u] < rindex[v]:
                    rindex[v] = rindex[u]
                if best[u] > best[v]:
                    best[v] = best[u]
    deep = next((verts[c[0]] for c in cycles if best[c[0]] >= 3), None)
    cycles.sort(key=lambda c: (len(c), [verts[u] for u in c]))
    return tuple(cycles), label, max(best, default=0), deep


class Admitted(NamedTuple):
    """An admitted presentation: the trimmed graph, and per position of its
    `index` the periodic point read off its cycle (None off the cycles)."""

    graph: LabeledGraph
    points: list


def admit(g: LabeledGraph) -> Admitted:
    """The one admission gate: checks right-resolving on g as given, trims
    once, and certifies cycles and rank in one SCC pass that also reads the
    cycle words, each distinct one canonicalized once into the point list.
    Raises NotRightResolving, NotCountableCertified or RankTooHigh, in that
    order, naming the offending vertex.  Does not minimize: countability and
    rank are shift properties, and counting does not assume minimality."""
    _require_rr(g)
    g = trim_essential(g)
    cycles, label, rank, vertex = _cycle_certificate(g)
    if cycles is None:
        raise NotCountableCertified(
            "the component of vertex %s is not a single cycle" % _clip(repr(vertex)))
    if rank > 2:
        raise RankTooHigh("a path from the cycle through vertex %s visits "
                          "three or more cycles" % _clip(repr(vertex)))
    points = [None] * len(label)
    starts = {}  # cycle word -> its canonical point
    for cyc in cycles:
        w = tuple(map(label.__getitem__, cyc))
        start = starts[w] = starts.get(w) or canonicalize_point(w)
        for a, v in enumerate(cyc):
            points[v] = start.shift(a)
    return Admitted(g, points)


def analyze(g: LabeledGraph) -> AnalysisReport:
    """Countability certificate and rank of the presented shift.

    Reports rather than refuses, with admit's single SCC pass over the
    trimmed graph.  Rank equals the maximum number of distinct cycles
    visited by any directed path in the cycle condensation: under
    right-resolving and disjoint cycles every junction configuration is
    aperiodic (the first departing edge label must differ from the cycle
    label at its vertex), so paths through c cycles witness rank exactly c.
    """
    rr = is_right_resolving(g)
    trimmed = trim_essential(g)
    essential = trimmed is g
    cycles, _label, rank, _vertex = _cycle_certificate(trimmed)
    verts = trimmed.index[0]
    named = tuple(tuple(map(verts.__getitem__, c)) for c in cycles or ())
    if not rr or cycles is None:
        return AnalysisReport(rr, essential, named, False, RANK_UNCERTIFIED)
    return AnalysisReport(rr, essential, named, True, rank if rank <= 2 else RANK_HIGH)


def from_comb_rep(r: CombRep) -> LabeledGraph:
    """Right-resolving essential presentation of the union of the terms.

    Builds one cycle per u word and transitional paths for the junctions.  A
    path from cycle i always borrows the first symbol of the next u, entering
    the target cycle one step in, so empty junction words need no special
    case; skip paths realize zero repetitions of interior cycles.  Every
    vertex lies on a cycle or on a path between two cycle vertices, so the
    union automaton is essential as built; it is then determinized (subset
    construction, which only ever shrinks state sets on right-resolving
    parts) and minimized, as `determinize` and `minimize_right_resolving`
    would, all on positions: the one graph built is the result.  Where the
    union is right-resolving, its vertex names t{term}_c{u}_{k} (cycles)
    and t{term}_p{i}_{j}_{k} (paths) order the blocks; otherwise the
    subset states' names do.
    """
    if not isinstance(r, CombRep):
        r = CombRep.make(tuple(r))
    rows = []   # per position of the union, its (position, label) pairs
    names = []  # per position, its name
    for ti, term in enumerate(r.terms):
        starts = []
        for ui, u in enumerate(term.us):
            start = len(rows)
            starts.append(start)
            for k, s in enumerate(u):
                rows.append([(start + (k + 1) % len(u), s)])
                names.append("t%d_c%d_%d" % (ti, ui, k))
        # junction paths: from cycle i, skipping interiors i+1..j-1 entirely,
        # into cycle j one symbol deep
        for i in range(term.arity + 1):
            for j in range(i + 1, term.arity + 1):
                labels = [s for k in range(i, j) for s in term.vs[k]]
                a = starts[i]
                for k, s in enumerate(labels):
                    rows[a].append((len(rows), s))
                    a = len(rows)
                    rows.append([])
                    names.append("t%d_p%d_%d_%d" % (ti, i, j, k))
                rows[a].append((starts[j] + 1 % len(term.us[j]), term.us[j][0]))
    if all(len({s for (_b, s) in row}) == len(row) for row in rows):
        key = names
    else:
        rows, rank = _determinized(rows)
        key = ["%d" % r for r in rank]
    return _quotient(rows, _coarsest(rows), sorted(range(len(rows)), key=key.__getitem__),
                     key.__getitem__)


def from_forbidden_words(alphabet, forbidden, symbol_map=None) -> LabeledGraph:
    """Higher-block presentation of the shift over `alphabet` avoiding the
    given factors, projected through symbol_map (identity by default).

    Vertices are the allowed words of length N-1 for N = max(2, longest
    forbidden word); edges extend by one symbol when the N-window stays
    allowed.  The result is trimmed essential but not necessarily
    right-resolving when symbol_map collapses symbols; see determinize.
    Raises SizeLimitExceeded as soon as a length has more than
    MAX_DETERMINIZE_STATES allowed words.
    """
    alphabet = [_check_symbol(a) for a in alphabet]
    forbidden = [word(w) for w in forbidden]
    if symbol_map is None:
        symbol_map = {a: a for a in alphabet}
    n = max([2] + [len(w) for w in forbidden])
    # each word below is an allowed word extended by one symbol, so only its
    # suffixes can be new forbidden windows; the empty word ends every word
    ends = {}
    for f in forbidden:
        ends.setdefault(len(f), set()).add(f)

    def allowed(w):
        return not any(w[len(w) - k:] in fs for k, fs in ends.items()
                       if k <= len(w))

    verts = [()]
    for length in range(1, n):
        longer = []
        for w in verts:
            for a in alphabet:
                if allowed(w + (a,)):
                    if len(longer) == MAX_DETERMINIZE_STATES:
                        raise SizeLimitExceeded("more than %d allowed words of length %d"
                                                % (MAX_DETERMINIZE_STATES, length))
                    longer.append(w + (a,))
        verts = longer
    vname = {w: ".".join(w) if w else "@" for w in verts}
    edges = []
    for w in verts:
        for a in alphabet:
            full = w + (a,)
            if allowed(full):
                edges.append((vname[w], vname[full[1:]], symbol_map[a]))
    return trim_essential(LabeledGraph.make(vname.values(), edges))


def rank_of_comb_rep(r: CombRep) -> int:
    """1 + the largest junction count over the terms."""
    if not r.terms:
        raise EmptyRepresentation("rank of the empty representation")
    return 1 + max(t.arity for t in r.terms)


def derivative_of_comb_rep(r: CombRep) -> CombRep:
    """Representation of the shift with its isolated points removed: every
    term of arity m >= 1 becomes its two end-truncations of arity m - 1,
    arity-0 terms vanish, and duplicates are folded."""
    if not r.terms:
        raise EmptyRepresentation("derivative of the empty representation")
    out = []
    for t in r.terms:
        if t.arity == 0:
            continue
        out.append(CombTerm(t.us[1:], t.vs[1:]))
        out.append(CombTerm(t.us[:-1], t.vs[:-1]))
    return CombRep.make(out)

