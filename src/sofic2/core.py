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
Periodic orbits and points are interned, one object per value, so equality
and hashing are by identity; the intern table is weak and safe under threads.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import FrozenInstanceError, dataclass, field
from decimal import Decimal
from functools import cached_property
from math import gcd, lcm

from .errors import (BudgetExceeded, EmptyWord, InvalidCombRep, MalformedStructureGraph,
                     SoficError)

# A word is a tuple of symbol tokens.  Tokens are nonempty strings without
# whitespace; multi-character tokens are fine (gadget builders mint them).
Word = tuple


def _check_symbol(s) -> str:
    # str.split() with no separator splits at exactly the characters for
    # which str.isspace() holds, and gives [] for the empty string
    if not isinstance(s, str) or s.split() != [s]:
        raise ValueError("bad symbol token: %r" % (s,))
    return s


def word(w) -> Word:
    """Coerce to a word: strings split into one symbol per character,
    other iterables are taken as sequences of tokens."""
    syms = tuple(w)
    for s in syms:
        _check_symbol(s)
    return syms


def _count_text(c) -> str:
    """A count's digits; past Python's int/str digit limit via Decimal."""
    try:
        return "%d" % c
    except ValueError:
        return str(Decimal(c))


def _clip(text) -> str:
    """text as a refusal quotes it: past 60 characters, cut there and
    followed by its length, so that no message grows with its input."""
    if len(text) <= 60:
        return text
    return "%s... (%d characters)" % (text[:60], len(text))


# the budget of every exponential enumeration, unless its caller gives
# another.  Nodes for `search` and `decide`: over 500 times the most one
# search takes in the demos or the decide-search benchmark (1,746), over 4
# times the most in the tests (216,873, a 13-vertex graph not 3-colourable).
# Paths for `oracle_structure`: over 50,000 times the most a default call
# takes in the tests (6), the demos (5) or perfbench (18, seeds 1-3)
DEFAULT_BUDGET = 10 ** 6


def _check_budget(budget, unit):
    """Refuse a budget that is None or below 1, naming what it counts."""
    if budget is None or budget < 1:
        raise BudgetExceeded("%s budget %s is below 1" % (unit, budget))


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


def refine_colors(vertices, signature):
    """Color refinement (Weisfeiler and Leman 1968): every vertex starts
    with color 0 and is recolored by (its color, signature(color, v)) until
    the number of colors stops growing; returns the colors.  Colors rank
    the sorted signatures, so inputs that are equal up to renaming get
    equal colorings.  Signatures must be comparable, such as tuples of
    (label, color) pairs."""
    color = dict.fromkeys(vertices, 0)
    ncolors = 1
    while True:
        sig = {v: (c, signature(color, v)) for v, c in color.items()}
        palette = {x: i for i, x in enumerate(sorted(set(sig.values())))}
        color = {v: palette[x] for v, x in sig.items()}
        if len(palette) == ncolors:
            return color
        ncolors = len(palette)


def _frozen(self, name, *value):
    raise FrozenInstanceError("cannot assign to field %r" % (name,))


_live_orbits = weakref.WeakValueDictionary()  # root word -> its orbit
_intern_lock = threading.Lock()


class PeriodicOrbit:
    """A periodic orbit, named by its canonical (primitive, least-rotation)
    root word, with its points, one per phase, built with it.

    Interned: `PeriodicOrbit(root)` returns the one live orbit with that
    root, so equal orbits are the same object and compare and hash by
    identity.  The root is validated when its orbit is first created, under
    a lock, so concurrent calls cannot create two orbits for one root."""

    __slots__ = ("root", "period", "points", "__weakref__")
    __setattr__ = __delattr__ = _frozen

    def __new__(cls, root):
        o = _live_orbits.get(root)
        if o is None:
            with _intern_lock:
                o = _live_orbits.get(root)
                if o is None:
                    o = _live_orbits[root] = _new_orbit(root)
        return o

    def __reduce__(self):
        return PeriodicOrbit, (self.root,)

    def __repr__(self):
        return "PeriodicOrbit(root=%r)" % (self.root,)

    def point(self, phase: int) -> "PeriodicPoint":
        return self.points[phase % self.period]

    def sort_key(self):
        return (self.period, self.root)


def _new_orbit(root) -> PeriodicOrbit:
    """A new orbit on a validated root, with its points."""
    if not root:
        raise EmptyWord("orbit root must be nonempty")
    for s in root:  # before `_rotation`, which compares the symbols
        _check_symbol(s)
    d, p = _rotation(root)
    if p != len(root):
        raise ValueError("orbit root %r is not primitive" % (root,))
    if d != 0:
        raise ValueError("orbit root %r is not the least rotation" % (root,))
    o = object.__new__(PeriodicOrbit)
    object.__setattr__(o, "root", root)
    object.__setattr__(o, "period", p)
    pts = []
    for r in range(p):
        x = object.__new__(PeriodicPoint)
        object.__setattr__(x, "orbit", o)
        object.__setattr__(x, "phase", r)
        object.__setattr__(x, "period", p)
        pts.append(x)
    object.__setattr__(o, "points", tuple(pts))
    return o


class PeriodicPoint:
    """The configuration x[t] = orbit.root[(t + phase) % period].  Interned
    with its orbit: `PeriodicPoint(orbit, phase)` returns `orbit.points[phase]`."""

    __slots__ = ("orbit", "phase", "period")
    __setattr__ = __delattr__ = _frozen

    def __new__(cls, orbit, phase):
        if not 0 <= phase < orbit.period:
            raise ValueError("phase %d out of range" % phase)
        return orbit.points[phase]

    def __reduce__(self):
        return PeriodicPoint, (self.orbit, self.phase)

    def __repr__(self):
        return "PeriodicPoint(orbit=%r, phase=%r)" % (self.orbit, self.phase)

    def at(self, t: int) -> str:
        return self.orbit.root[(t + self.phase) % self.period]

    def shift(self, n: int) -> "PeriodicPoint":
        return self.orbit.points[(self.phase + n) % self.period]

    def sort_key(self):
        return (self.period, self.orbit.root, self.phase)


def canonicalize_point(u, phase: int = 0) -> PeriodicPoint:
    """Canonical periodic point for the configuration
    x[t] = u[(t + phase) % len(u)]."""
    u = word(u)
    if not u:
        raise EmptyWord("cannot canonicalize the empty word")
    d, p = _rotation(u)
    return PeriodicOrbit((u + u)[d:d + p]).points[(phase - d) % p]


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

    def at(self, t: int) -> str:
        if t >= 0:
            return self.right.at(t)
        if t >= -len(self.defect):
            return self.defect[t + len(self.defect)]
        return self.left.at(t)


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

    def z(t):  # t < m always: r below starts at m and only falls
        return left.at(t) if t < 0 else middle[t]

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


def _sorted_names(items):
    """sorted(items), refusing vertex names that do not sort together."""
    try:
        return sorted(items)
    except TypeError as e:
        raise SoficError("vertex names that do not sort together: %s"
                         % _clip(str(e))) from None


@dataclass(frozen=True)
class LabeledGraph:
    """Finite directed multigraph with edge labels: a presentation of a
    sofic shift (the labels of its bi-infinite walks)."""

    vertices: frozenset
    edges: tuple  # sorted (src, dst, label) triples; duplicates allowed

    @classmethod
    def make(cls, vertices, edges) -> "LabeledGraph":
        """The graph on the given vertices and the edge endpoints; checks
        each distinct label once, in edge order, so a ValueError names the
        first bad label.  Endpoint names that do not sort together are
        refused with a SoficError when the edges are sorted, and any others
        when `index` sorts the vertices."""
        vs = set(vertices)
        es = []
        checked = set()
        for (a, b, s) in edges:
            # a non-str label is refused before it is hashed
            if type(s) is not str or s not in checked:
                checked.add(_check_symbol(s))
            vs.add(a)
            vs.add(b)
            es.append((a, b, s))
        return cls(frozenset(vs), tuple(_sorted_names(es)))

    @cached_property
    def index(self):
        """(vertices, out): the vertices in sorted order, and per position
        in that order its out edges as (position, label) pairs in edge
        order, so ascending by (target, label).  Every pass that walks the
        graph reads this one adjacency."""
        verts = _sorted_names(self.vertices)
        position = {v: i for i, v in enumerate(verts)}
        out = [[] for _ in verts]
        for (a, b, s) in self.edges:
            out[position[a]].append((position[b], s))
        return verts, out

    def is_empty(self) -> bool:
        return not self.vertices


@dataclass(frozen=True)
class StructureGraph:
    """Canonical invariant of a rank <= 2 countable sofic shift: its periodic
    points, with rotation edges implicit (every x steps to its shift), and
    count-labeled transition edges between points.  Counts are constant on
    each class of transitions under simultaneous shifts of both endpoints,
    so the graph stores one count per class, at its representative."""

    orbits: tuple              # PeriodicOrbit, sorted by (period, root)
    transition_classes: tuple  # sorted ((src point, dst point), count)
                               # pairs, one per class at its representative
    _class_counts: dict = field(compare=False, repr=False)  # shift_class -> count

    @staticmethod
    def shift_class(x: PeriodicPoint, y: PeriodicPoint):
        """The class of (x, y) under simultaneous shifts of both endpoints,
        which keep y.phase - x.phase modulo the gcd of the periods, as
        (x's orbit, y's orbit, r): its representative has source phase 0
        and target phase r.  It has lcm(p, q) members."""
        return (x.orbit, y.orbit,
                (y.phase - x.phase) % gcd(x.period, y.period))

    @classmethod
    def make(cls, orbits, transitions) -> "StructureGraph":
        """The graph on the given orbits and the orbits of the transition
        endpoints, from counts keyed by (src point, dst point); each class
        takes the count of its given members.  Raises
        MalformedStructureGraph unless well-formed."""
        orbs = set(orbits)
        classes = {}
        for ((x, y), c) in transitions.items():
            key = cls.shift_class(x, y)
            c = int(c)
            if classes.setdefault(key, c) != c:
                raise MalformedStructureGraph("counts not shift equivariant")
            orbs.add(x.orbit)
            orbs.add(y.orbit)
        items = tuple(sorted(
            (((xo.points[0], yo.points[r]), c) for ((xo, yo, r), c) in classes.items()),
            key=lambda it: (it[0][0].sort_key(), it[0][1].sort_key())))
        return cls(tuple(sorted(orbs, key=PeriodicOrbit.sort_key)), items,
                   classes).validate()

    @property
    def transitions(self):
        """Every transition, as sorted ((src point, dst point), count)
        pairs: each class expanded over its lcm(p, q) members, generated
        afresh on each access and never stored."""
        targets = {}  # src orbit -> dst orbit -> {r: count}, in sorted order
        for ((x, y), c) in self.transition_classes:
            targets.setdefault(x.orbit, {}).setdefault(y.orbit, {})[y.phase] = c
        for xo, by_target in targets.items():
            for a, x in enumerate(xo.points):
                for yo, counts in by_target.items():
                    # from x, class r holds the targets of phase a + r (mod g)
                    g, ys = gcd(xo.period, yo.period), yo.points
                    offs = sorted(((a + r) % g, c) for r, c in counts.items())
                    for k in range(0, len(ys), g):
                        for (off, c) in offs:
                            yield (x, ys[k + off]), c

    def points(self):
        return tuple(x for o in self.orbits for x in o.points)

    def count(self, x: PeriodicPoint, y: PeriodicPoint) -> int:
        return self._class_counts.get(self.shift_class(x, y), 0)

    def validate(self):
        """Raise MalformedStructureGraph unless well-formed.

        Well-formedness: all counts are >= 1 and every orbit carries its
        diagonal class.  Counts are shift equivariant by construction, one
        per class in the table `make` keeps, and endpoints need no check:
        `make` lists the orbit of each.  `make` runs this on every graph it
        returns.
        """
        for (_pair, c) in self.transition_classes:
            if c < 1:
                raise MalformedStructureGraph("transition count < 1")
        for o in self.orbits:
            if (o, o, 0) not in self._class_counts:
                # a root can be as long as the file it came from
                raise MalformedStructureGraph(
                    "missing diagonal transition at the orbit of period %d,"
                    " root starting %s" % (o.period, _clip(" ".join(o.root[:8]))))
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
                        "junction %d of term %s is periodic"
                        % (i, _clip(repr((t.us, t.vs)))))
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
