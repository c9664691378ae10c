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

from dataclasses import dataclass
from typing import NamedTuple

from .core import LabeledGraph, CombRep, CombTerm, canonicalize_point, word, _check_symbol
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


def trim_essential(g: LabeledGraph) -> LabeledGraph:
    """Maximal subgraph in which every vertex lies on a bi-infinite walk.

    Removes vertices lacking an incoming or outgoing edge, one at a time
    from a queue while updating the degrees of their neighbours; the
    presented shift is unchanged.  May return the empty graph.
    """
    indeg = dict.fromkeys(g.vertices, 0)
    outdeg = dict.fromkeys(g.vertices, 0)
    for (a, b, _s) in g.edges:
        outdeg[a] += 1
        indeg[b] += 1
    queue = [v for v in g.vertices if not indeg[v] or not outdeg[v]]
    gone = set(queue)
    while queue:
        v = queue.pop()
        for (deg, nbrs) in ((indeg, g.out_map[v]), (outdeg, g.in_map[v])):
            for (w, _s) in nbrs:
                deg[w] -= 1
                if not deg[w] and w not in gone:
                    gone.add(w)
                    queue.append(w)
    return LabeledGraph.make(g.vertices - gone, [(a, b, s) for (a, b, s) in g.edges
                                                 if a not in gone and b not in gone])


def check_right_resolving(g: LabeledGraph):
    """(vertex, label) pairs with two or more outgoing edges sharing the
    label; empty list iff the presentation is right-resolving."""
    bad = []
    for v in sorted(g.vertices):
        seen = {}
        for (b, s) in g.out_map.get(v, ()):
            seen[s] = seen.get(s, 0) + 1
        bad.extend((v, s) for (s, n) in sorted(seen.items()) if n >= 2)
    return bad


def is_right_resolving(g: LabeledGraph) -> bool:
    return not check_right_resolving(g)


def _require_rr(g: LabeledGraph):
    bad = check_right_resolving(g)
    if bad:
        raise NotRightResolving("label collisions at %r" % (bad[:5],))


def determinize(g: LabeledGraph) -> LabeledGraph:
    """Right-resolving presentation of the same shift via the subset
    construction seeded with the full vertex set.  Already-deterministic
    graphs pass through unchanged."""
    if is_right_resolving(g):
        return g
    full = frozenset(g.vertices)
    names = {full: "d0"}
    edges = []
    frontier = [full]
    while frontier:
        nxt = []
        for state in frontier:
            for s, succ in g.subset_step(state):
                if succ not in names:
                    if len(names) >= MAX_DETERMINIZE_STATES:
                        raise SizeLimitExceeded("determinization exceeded %d states"
                                                % MAX_DETERMINIZE_STATES)
                    names[succ] = "d%d" % len(names)
                    nxt.append(succ)
                edges.append((names[state], names[succ], s))
        frontier = nxt
    det = trim_essential(LabeledGraph.make(names.values(), edges))
    return _canonical_rename(det)


def _canonical_rename(g: LabeledGraph, prefix: str = "s") -> LabeledGraph:
    """Rename vertices to prefix0..prefixN in a deterministic order
    (by sorted original names)."""
    names = {v: "%s%d" % (prefix, i) for i, v in enumerate(sorted(g.vertices, key=str))}
    return LabeledGraph.make(names.values(),
                             [(names[a], names[b], s) for (a, b, s) in g.edges])


def minimize_right_resolving(g: LabeledGraph) -> LabeledGraph:
    """Merge vertices with equal follower behavior by partition refinement.

    Refines the one-class partition by (class, label -> successor class)
    signatures until stable, then quotients.  The presented shift is
    unchanged; output is right-resolving, essential and a fixed point of
    this operation.
    """
    _require_rr(g)
    g = trim_essential(g)
    if g.is_empty():
        return g
    verts = sorted(g.vertices)
    labels = sorted(g.alphabet)
    succ = {}
    for (a, b, s) in g.edges:
        succ[(a, s)] = b
    color = {v: 0 for v in verts}
    ncolors = 1
    while True:
        sig = {}
        for v in verts:
            sig[v] = (color[v],) + tuple(
                color.get(succ.get((v, s))) if (v, s) in succ else None
                for s in labels)
        palette = {s: i for i, s in enumerate(sorted(set(sig.values()), key=repr))}
        new_color = {v: palette[sig[v]] for v in verts}
        if len(palette) == ncolors:
            break
        color, ncolors = new_color, len(palette)
    rep = {}
    for v in verts:  # smallest vertex name represents its class
        rep.setdefault(color[v], v)
    quot_edges = {(rep[color[a]], rep[color[b]], s) for (a, b, s) in g.edges}
    out = LabeledGraph.make({rep[c] for c in rep}, sorted(quot_edges))
    return _canonical_rename(trim_essential(out), "m")


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


def _tarjan_sccs(vertices, succ):
    """Iterative Tarjan; returns SCCs in reverse topological order."""
    index = {}
    low = {}
    on_stack = set()
    stack = []
    sccs = []
    counter = [0]
    for root in sorted(vertices):
        if root in index:
            continue
        work = [(root, iter(succ.get(root, ())))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succ.get(w, ()))))
                    advanced = True
                    break
                elif w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                low[pv] = min(low[pv], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(tuple(comp))
    return sccs


def _cycle_certificate(g: LabeledGraph):
    """One SCC pass for the countability certificate and the rank:
    (cycles, label, rank, vertex).

    cycles is None when some strongly connected component is neither
    trivial nor a single simple cycle, and vertex then lies in the first
    such component.  Otherwise cycles are vertex tuples in walk order,
    sorted by length then vertices, label maps each cycle vertex to the
    label of its cycle edge, rank is the most cycles any path visits, and
    vertex lies on the first cycle whose paths visit three or more (None
    when rank <= 2).
    """
    succ = {v: sorted({b for (b, s) in g.out_map[v]}) for v in g.vertices}
    sccs = _tarjan_sccs(g.vertices, succ)  # reverse topological order
    comp_of = {v: i for i, comp in enumerate(sccs) for v in comp}
    best = []
    cycles = []
    label = {}
    deep = None
    for i, comp in enumerate(sccs):
        nxt = {}
        n_internal = 0
        succ_best = 0
        for v in comp:
            for (b, s) in g.out_map[v]:
                j = comp_of[b]
                if j == i:
                    n_internal += 1
                    nxt[v] = b
                    label[v] = s
                else:
                    succ_best = max(succ_best, best[j])
        start = min(comp, key=str)
        if n_internal:
            # strongly connected with one internal edge per vertex: exactly
            # one simple cycle covering the component
            if n_internal != len(comp):
                return None, None, None, start
            order = [start]
            while nxt[order[-1]] != start:
                order.append(nxt[order[-1]])
            cycles.append(tuple(order))
        best.append(succ_best + (n_internal > 0))
        if best[-1] >= 3 and deep is None:
            deep = start
    cycles.sort(key=lambda c: (len(c), c))
    return tuple(cycles), label, max(best, default=0), deep


class Admitted(NamedTuple):
    """An admitted presentation: the trimmed graph, and the periodic point
    read off its cycle from each cycle vertex."""

    graph: LabeledGraph
    points: dict


def admit(g: LabeledGraph) -> Admitted:
    """The one admission gate: checks right-resolving on g as given, trims
    once and certifies cycles and rank in one SCC pass, which also names
    each cycle vertex's periodic point (each cycle word is canonicalized
    once).  Raises NotRightResolving, NotCountableCertified or RankTooHigh,
    in that order, naming the offending vertex.  Does not minimize:
    countability and rank are shift properties, and counting does not
    assume minimality."""
    _require_rr(g)
    g = trim_essential(g)
    cycles, label, rank, vertex = _cycle_certificate(g)
    if cycles is None:
        raise NotCountableCertified(
            "the component of vertex %r is not a single cycle" % (vertex,))
    if rank > 2:
        raise RankTooHigh("a path from the cycle through vertex %r visits "
                          "three or more cycles" % (vertex,))
    points = {}
    for cyc in cycles:
        start = canonicalize_point(tuple(label[v] for v in cyc))
        points.update((v, start.shift(a)) for a, v in enumerate(cyc))
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
    essential = (trimmed.vertices == g.vertices and trimmed.edges == g.edges)
    cycles, _label, rank, _vertex = _cycle_certificate(trimmed)
    if not rr or cycles is None:
        return AnalysisReport(rr, essential, cycles or (), False, RANK_UNCERTIFIED)
    return AnalysisReport(rr, essential, cycles, True,
                          rank if rank <= 2 else RANK_HIGH)


def _junction_path_edges(dep, labels, arr, tag):
    """Edges of a fresh transitional path spelling `labels` from vertex dep
    to vertex arr."""
    edges = []
    prev = dep
    for j, s in enumerate(labels[:-1]):
        mid = "%s_%d" % (tag, j)
        edges.append((prev, mid, s))
        prev = mid
    edges.append((prev, arr, labels[-1]))
    return edges


def from_comb_rep(r: CombRep) -> LabeledGraph:
    """Right-resolving essential presentation of the union of the terms.

    Builds one cycle per u word and transitional paths for the junctions.  A
    path from cycle i always borrows the first symbol of the next u, entering
    the target cycle one step in, so empty junction words need no special
    case; skip paths realize zero repetitions of interior cycles.  The union
    automaton is then determinized (subset construction, which only ever
    shrinks state sets on right-resolving parts), trimmed and minimized.
    """
    if not isinstance(r, CombRep):
        r = CombRep.make(tuple(r))
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
        # junction paths: from cycle i, skipping interiors i+1..j-1 entirely,
        # into cycle j one symbol deep
        for i in range(term.arity + 1):
            for j in range(i + 1, term.arity + 1):
                labels = []
                for k in range(i, j):
                    labels.extend(term.vs[k])
                labels.append(term.us[j][0])
                dep = cycle_v[i][0]
                arr = cycle_v[j][1 % len(term.us[j])]
                tag = "t%d_p%d_%d" % (ti, i, j)
                edges.extend(_junction_path_edges(dep, tuple(labels), arr, tag))
    g = trim_essential(LabeledGraph.make(vertices, edges))
    g = determinize(g)
    return minimize_right_resolving(g)


def from_forbidden_words(alphabet, forbidden, symbol_map=None) -> LabeledGraph:
    """Higher-block presentation of the shift over `alphabet` avoiding the
    given factors, projected through symbol_map (identity by default).

    Vertices are the allowed words of length N-1 for N = max(2, longest
    forbidden word); edges extend by one symbol when the N-window stays
    allowed.  The result is trimmed essential but not necessarily
    right-resolving when symbol_map collapses symbols; see determinize.
    """
    alphabet = [_check_symbol(a) for a in alphabet]
    forbidden = [word(w) for w in forbidden]
    if symbol_map is None:
        symbol_map = {a: a for a in alphabet}
    n = max([2] + [len(w) for w in forbidden])

    def allowed(w):
        return not any(_contains(w, f) for f in forbidden)

    def grow(words, upto):
        for _ in range(upto):
            words = [w + (a,) for w in words for a in alphabet
                     if allowed(w + (a,))]
        return words

    verts = grow([()], n - 1)
    vname = {w: ".".join(w) if w else "@" for w in verts}
    edges = []
    for w in verts:
        for a in alphabet:
            full = w + (a,)
            if allowed(full):
                edges.append((vname[w], vname[full[1:]], symbol_map[a]))
    return trim_essential(LabeledGraph.make(vname.values(), edges))


def _contains(w, factor):
    if not factor:
        return True
    k = len(factor)
    return any(w[i:i + k] == factor for i in range(len(w) - k + 1))


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

