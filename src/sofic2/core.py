"""Value types for words, periodic configurations, labeled graphs and
structure graphs.

Bi-infinite configurations are never materialized.  Periodic and eventually
periodic points are stored in canonical form, chosen so that equality of the
stored values coincides with equality of the configurations (respectively
their shift orbits) that they denote:

* a periodic orbit is named by the lexicographically least rotation of its
  primitive root word (symbol tokens compare as strings); the rotation and
  the primitive period come from one linear pass (Duval's Lyndon
  factorization of the doubled word);
* a periodic point is an orbit plus a phase, denoting the configuration
  ``x[t] = root[(t + phase) % period]``;
* an eventually periodic point is anchored so that position 0 is the leftmost
  onset of its pure right-periodic tail, with the defect word occupying
  positions ``[-len(defect), 0)`` and the left tail extending maximally.

All types are immutable and hashable; all operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import lcm

from .errors import EmptyWord, InvalidCombRep, MalformedStructureGraph

# A word is a tuple of symbol tokens.  Tokens are nonempty strings without
# whitespace; multi-character tokens are fine (gadget builders mint them).
Word = tuple


def _check_symbol(s) -> str:
    if not isinstance(s, str) or not s or any(c.isspace() for c in s):
        raise ValueError("bad symbol token: %r" % (s,))
    return s


def word(w) -> Word:
    """Coerce to a word: strings split into one symbol per character,
    other iterables are taken as sequences of tokens."""
    syms = tuple(w)
    for s in syms:
        _check_symbol(s)
    return syms


def _rotation(w: Word):
    """(d, p): the least index d at which the lexicographically least
    rotation of w starts, and the primitive period p of w (w is a power of
    w[:p]).  One pass of Duval's Lyndon factorization over w + w: the last
    factor started is the least rotation, of period j - k."""
    n, s = len(w), w + w
    i = 0
    while i < n:
        d, j, k = i, i + 1, i
        while j < 2 * n and s[k] <= s[j]:
            k = i if s[k] < s[j] else k + 1
            j += 1
        while i <= k:
            i += j - k
    return d, j - k


def primitive_root(w: Word):
    """Shortest word x with w = x**k; returns (x, k) with k maximal."""
    if not w:
        raise EmptyWord("empty word has no primitive root")
    _, p = _rotation(w)
    return w[:p], len(w) // p


@dataclass(frozen=True)
class PeriodicOrbit:
    """A periodic orbit, named by its canonical (primitive, least-rotation)
    root word."""

    root: Word

    def __post_init__(self):
        if not self.root:
            raise EmptyWord("orbit root must be nonempty")
        d, p = _rotation(self.root)
        if p != len(self.root):
            raise ValueError("orbit root %r is not primitive" % (self.root,))
        if d != 0:
            raise ValueError("orbit root %r is not the least rotation" % (self.root,))
        object.__setattr__(self, "_hash", hash(("orbit", self.root)))

    def __hash__(self):
        return self._hash

    @property
    def period(self) -> int:
        return len(self.root)

    def point(self, phase: int) -> "PeriodicPoint":
        return PeriodicPoint(self, phase % self.period)

    def sort_key(self):
        return (len(self.root), self.root)


@dataclass(frozen=True)
class PeriodicPoint:
    """The configuration x[t] = orbit.root[(t + phase) % period]."""

    orbit: PeriodicOrbit
    phase: int

    def __post_init__(self):
        if not 0 <= self.phase < len(self.orbit.root):
            raise ValueError("phase %d out of range" % self.phase)
        object.__setattr__(self, "_hash", hash((self.orbit._hash, self.phase)))

    def __hash__(self):
        return self._hash

    @property
    def period(self) -> int:
        return len(self.orbit.root)

    def at(self, t: int) -> str:
        return self.orbit.root[(t + self.phase) % len(self.orbit.root)]

    def shift(self, n: int) -> "PeriodicPoint":
        return PeriodicPoint(self.orbit, (self.phase + n) % len(self.orbit.root))

    def sort_key(self):
        return (len(self.orbit.root), self.orbit.root, self.phase)


def canonicalize_point(u, phase: int = 0) -> PeriodicPoint:
    """Canonical periodic point for the configuration
    x[t] = u[(t + phase) % len(u)]."""
    u = word(u)
    if not u:
        raise EmptyWord("cannot canonicalize the empty word")
    d, p = _rotation(u)
    return PeriodicPoint(PeriodicOrbit((u + u)[d:d + p]), (phase - d) % p)


@dataclass(frozen=True)
class EventuallyPeriodicPoint:
    """Canonical orbit representative of a two-sided eventually periodic,
    aperiodic configuration.

    The denoted configuration is ``right`` on positions >= 0, the defect word
    on ``[-len(defect), 0)`` and ``left`` below that.  Canonicality: position
    0 is the leftmost onset of the pure right tail, and the left tail extends
    as far right as possible.
    """

    left: PeriodicPoint
    defect: Word
    right: PeriodicPoint

    def __post_init__(self):
        for s in self.defect:
            _check_symbol(s)
        boundary = self.defect[-1] if self.defect else self.left.at(-1)
        if boundary == self.right.at(-1):
            raise ValueError("right tail onset is not leftmost")
        if self.defect and self.defect[0] == self.left.at(-len(self.defect)):
            raise ValueError("left tail does not extend maximally")
        object.__setattr__(
            self, "_hash",
            hash((self.left._hash, self.defect, self.right._hash)))

    def __hash__(self):
        return self._hash

    def at(self, t: int) -> str:
        if t >= 0:
            return self.right.at(t)
        if t >= -len(self.defect):
            return self.defect[t + len(self.defect)]
        return self.left.at(t)

    def sort_key(self):
        return (self.left.sort_key(), self.defect, self.right.sort_key())


def canonicalize_config(left: PeriodicPoint, middle, right: PeriodicPoint):
    """Canonical form of the configuration that follows `left` on (-inf, 0),
    spells `middle` on [0, len(middle)) and follows `right` from there on.

    Returns the orbit's phase-0 PeriodicPoint if the configuration is
    globally periodic, otherwise the EventuallyPeriodicPoint anchored at the
    leftmost onset of the right tail.  Constant on shift orbits: two inputs
    denoting shifts of the same configuration yield the identical value.
    """
    middle = word(middle)
    m = len(middle)

    def z(t):
        if t < 0:
            return left.at(t)
        if t < m:
            return middle[t]
        return right.at(t)

    # z is globally periodic iff it coincides with `right` everywhere.
    if left == right and all(middle[t] == right.at(t) for t in range(m)):
        return right.orbit.point(0)

    # Leftmost onset r of the pure right tail.  A mismatch occurs within
    # lcm(periods) steps once we are inside the left tail.
    r = m
    floor = -(lcm(left.period, right.period) + 1)
    while z(r - 1) == right.at(r - 1):
        r -= 1
        if r < floor:
            raise AssertionError("onset search ran away; inputs inconsistent")

    mism = [t for t in range(0, max(r, 0)) if z(t) != left.at(t)]
    start = mism[0] if mism else r
    defect = tuple(z(t) for t in range(start, r))
    return EventuallyPeriodicPoint(left.shift(r), defect, right.shift(r))


@dataclass(frozen=True)
class LabeledGraph:
    """Finite directed multigraph with edge labels: a presentation of a
    sofic shift (the labels of its bi-infinite walks)."""

    vertices: frozenset
    edges: tuple  # sorted (src, dst, label) triples; duplicates allowed

    @classmethod
    def make(cls, vertices, edges) -> "LabeledGraph":
        vs = set(vertices)
        es = []
        for (a, b, s) in edges:
            _check_symbol(s)
            vs.add(a)
            vs.add(b)
            es.append((a, b, s))
        return cls(frozenset(vs), tuple(sorted(es)))

    @cached_property
    def out_map(self):
        m = {v: [] for v in sorted(self.vertices)}
        for (a, b, s) in self.edges:
            m[a].append((b, s))
        return m

    @cached_property
    def in_map(self):
        m = {v: [] for v in sorted(self.vertices)}
        for (a, b, s) in self.edges:
            m[b].append((a, s))
        return m

    @cached_property
    def alphabet(self):
        return frozenset(s for (_, _, s) in self.edges)

    def subset_step(self, state):
        """(label, successor set) pairs of a set of vertices, in ascending
        label order: one step of the subset construction.  Successor sets
        are frozensets and never empty."""
        succ = {}
        for v in state:
            for (b, s) in self.out_map[v]:
                succ.setdefault(s, set()).add(b)
        return [(s, frozenset(succ[s])) for s in sorted(succ)]

    def is_empty(self) -> bool:
        return not self.vertices


@dataclass(frozen=True)
class StructureGraph:
    """Canonical invariant of a rank <= 2 countable sofic shift: its periodic
    points, with rotation edges implicit (every x steps to its shift), and
    count-labeled transition edges between points."""

    orbits: tuple       # PeriodicOrbit, sorted by (period, root)
    transitions: tuple  # sorted ((src point, dst point), count) pairs

    @classmethod
    def make(cls, orbits, transitions) -> "StructureGraph":
        orbs = set(orbits)
        for (x, y) in transitions:
            orbs.add(x.orbit)
            orbs.add(y.orbit)
        items = tuple(sorted(
            (((x, y), int(c)) for ((x, y), c) in transitions.items()),
            key=lambda it: (it[0][0].sort_key(), it[0][1].sort_key())))
        return cls(tuple(sorted(orbs, key=PeriodicOrbit.sort_key)), items)

    @cached_property
    def transition_map(self):
        return {pair: c for (pair, c) in self.transitions}

    @cached_property
    def _point_tuple(self):
        return tuple(o.point(r) for o in self.orbits for r in range(o.period))

    def points(self):
        return self._point_tuple

    def count(self, x: PeriodicPoint, y: PeriodicPoint) -> int:
        return self.transition_map.get((x, y), 0)

    def validate(self):
        """Raise MalformedStructureGraph unless well-formed.

        Well-formedness: transition endpoints belong to listed orbits, all
        counts are >= 1, every point carries its diagonal transition edge, and
        counts are invariant under simultaneously shifting both endpoints
        (true of the invariant of any shift space).  Idempotent and cached.
        """
        if self.__dict__.get("_validated"):
            return self
        pts = set(self.points())
        for ((x, y), c) in self.transitions:
            if x not in pts or y not in pts:
                raise MalformedStructureGraph("transition endpoint not a listed point")
            if c < 1:
                raise MalformedStructureGraph("transition count < 1")
            if self.count(x.shift(1), y.shift(1)) != c:
                raise MalformedStructureGraph("counts not shift equivariant")
        for p in pts:
            if self.count(p, p) < 1:
                raise MalformedStructureGraph("missing diagonal transition at %r" % (p,))
        self.__dict__["_validated"] = True
        return self

    def is_empty(self) -> bool:
        return not self.orbits


@dataclass(frozen=True)
class CombTerm:
    """One term of a combinatorial representation: the shift generated by
    us[0]* vs[0] us[1]* vs[1] ... us[m]*."""

    us: tuple  # m + 1 nonempty words
    vs: tuple  # m possibly-empty words

    def __post_init__(self):
        if len(self.us) != len(self.vs) + 1:
            raise InvalidCombRep("term needs one more u than v")
        for u in self.us:
            if not u:
                raise InvalidCombRep("u words must be nonempty")

    @property
    def arity(self) -> int:
        return len(self.vs)

    def junction(self, i: int):
        """Canonical form of the configuration  inf-us[i]  vs[i]  us[i+1]-inf
        (the left block ending just before the junction word)."""
        v = self.vs[i]
        left = canonicalize_point(self.us[i], 0)
        right = canonicalize_point(self.us[i + 1], -len(v))
        return canonicalize_config(left, v, right)


@dataclass(frozen=True)
class CombRep:
    """A finite union of CombTerms with every junction aperiodic."""

    terms: tuple

    @classmethod
    def make(cls, terms) -> "CombRep":
        seen, out = set(), []
        for t in terms:
            if not isinstance(t, CombTerm):
                raise InvalidCombRep("terms must be CombTerm values")
            if t in seen:
                continue
            for i in range(t.arity):
                if isinstance(t.junction(i), PeriodicPoint):
                    raise InvalidCombRep(
                        "junction %d of term %r is periodic" % (i, (t.us, t.vs)))
            seen.add(t)
            out.append(t)
        return cls(tuple(out))


def comb_rep(raw_terms) -> CombRep:
    """Build a CombRep from [(u0, v1, u1, v2, u2, ...), ...] word spellings."""
    terms = []
    for seq in raw_terms:
        seq = [word(w) for w in seq]
        if len(seq) % 2 == 0:
            raise InvalidCombRep("term must alternate u v u ... u")
        terms.append(CombTerm(tuple(seq[0::2]), tuple(seq[1::2])))
    return CombRep.make(terms)
