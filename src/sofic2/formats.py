"""Text file formats: labeled graphs, structure graphs, combinatorial
representations, forbidden-word systems, colored/simple graphs, plain
digraphs and witness files.

All serializers emit canonical line ordering so outputs are byte-stable
across runs; parsers strip '#' comments and blank lines.  Words are written
as dot-joined symbol tokens; tokens in files therefore must not contain
dots, whitespace or '#'.  The bare token '-' stands for the empty word
where one is allowed, so it is never a symbol token.
"""

from __future__ import annotations

from decimal import Decimal
from math import gcd, lcm

from .core import (
    LabeledGraph,
    PeriodicOrbit,
    StructureGraph,
    CombRep,
    CombTerm,
    Word,
    _clip,
    _count_text,
    canonicalize_point,
    word,
)
from .decisions import SGHomomorphism
from .errors import ImproperColoring, InvalidCombRep, MalformedStructureGraph, ParseError
from .reductions import ColoredGraph, Digraph, SimpleGraph


# the least length of the blocks that `_lines` splits, in characters
_BLOCK = 1 << 16


def _lines(text):
    """(line number, tokens) per line of text that holds more than a
    comment, numbered as `text.splitlines()` numbers them.  The lines are
    split a block at a time, each block ending just after a newline, which
    always ends a line, so the lines of a large file are never all held."""
    n = start = 0
    while start < len(text):
        end = text.find("\n", start + _BLOCK) + 1 or len(text)
        for n, raw in enumerate(text[start:end].splitlines(), start=n + 1):
            line = raw.split("#", 1)[0].strip()
            if line:
                yield n, line.split()
        start = end


def _vertex_lines(text, keyword, fields, check=None):
    """The names on the `vertex NAME` lines, and (line number, fields) for
    each line of `keyword` and `fields` tokens; any other line is an
    error.  When given, check(token, line) vets every name and field."""
    vertices, rows = [], []
    for n, toks in _lines(text):
        if toks[0] == "vertex" and len(toks) == 2:
            vertices.append(toks[1])
        elif toks[0] == keyword and len(toks) == fields + 1:
            rows.append((n, tuple(toks[1:])))
        else:
            raise ParseError("line %d: expected 'vertex' or '%s'" % (n, keyword))
        if check:
            for tok in toks[1:]:
                check(tok, n)
    return vertices, rows


def _file_symbol(tok, n=0):
    if tok == "-" or "." in tok or "#" in tok or tok.split() != [tok]:
        raise ParseError("line %d: bad symbol token %s" % (n, _clip(repr(tok))))
    return tok


def format_word(w: Word) -> str:
    if not w:
        return "-"
    for s in w:
        _file_symbol(s)
    return ".".join(w)


def parse_word(tok: str, n=0) -> Word:
    if tok == "-":
        return ()
    return tuple(_file_symbol(t, n) for t in tok.split("."))


# -- labeled graphs ---------------------------------------------------------

def format_graph(g: LabeledGraph) -> str:
    out = ["vertex %s" % v for v in sorted(g.vertices, key=str)]
    out += ["edge %s %s %s" % (a, b, s) for (a, b, s) in sorted(g.edges)]
    return "\n".join(out) + "\n"


def parse_graph(text: str) -> LabeledGraph:
    vertices, rows = _vertex_lines(text, "edge", 3)
    return LabeledGraph.make(vertices, [(a, b, _file_symbol(s, n))
                                        for n, (a, b, s) in rows])


# -- structure graphs -------------------------------------------------------

def _parse_count(tok, n) -> int:
    """The count an ASCII digit token spells, past Python's int/str digit
    limit via Decimal.  `int` alone would also take a sign, underscores
    and other scripts' digits."""
    if not (tok.isascii() and tok.isdigit()):
        raise ParseError("line %d: bad count" % n)
    try:
        return int(tok)
    except ValueError:
        return int(Decimal(tok))


def structure_lines(s: StructureGraph):
    """The lines of the structure file of s, each ending in a newline, made
    one at a time, so that a file of Σ lcm lines is never held whole; the
    empty graph's file is one blank line."""
    if s.is_empty():
        yield "\n"
    oid = {o: "o%d" % i for i, o in enumerate(s.orbits)}
    for o in s.orbits:
        yield "orbit %s word=%s\n" % (oid[o], format_word(o.root))
    # each distinct count is spelled once per file
    digits = {c: _count_text(c) for (_pair, c) in s.transition_classes}
    for ((a, b), c) in s.transitions:
        yield ("trans %s:%d %s:%d count=%s\n"
               % (oid[a.orbit], a.phase, oid[b.orbit], b.phase, digits[c]))


def format_structure(s: StructureGraph) -> str:
    return "".join(structure_lines(s))


def _parse_orbit(tok, n) -> PeriodicOrbit:
    """The orbit whose canonical root word the token spells."""
    w = parse_word(tok, n)
    if not w:
        raise ParseError("line %d: orbit word must be nonempty" % n)
    try:
        return PeriodicOrbit(w)
    except ValueError:
        raise ParseError("line %d: %s is not a canonical orbit word (expected %s)"
                         % (n, _clip(repr(tok)),
                            _clip(format_word(canonicalize_point(w).orbit.root))))


def _parse_point(tok, orbit_of, n):
    """An orbit:phase token; orbit_of(name, n) resolves the orbit part."""
    if ":" not in tok:
        raise ParseError("line %d: expected orbit:phase, got %s" % (n, _clip(repr(tok))))
    name, phase = tok.rsplit(":", 1)
    o = orbit_of(name, n)
    digits = phase.removeprefix("-")  # a negative phase is named as out of range
    try:
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError(phase)
        ph = int(phase)  # past Python's int/str digit limit, a ValueError
    except ValueError:
        raise ParseError("line %d: bad phase %s" % (n, _clip(repr(phase))))
    if not 0 <= ph < o.period:
        raise ParseError("line %d: phase %s outside period %d"
                         % (n, _clip("%d" % ph), o.period))
    return o.point(ph)


def _member_bit(x, y):
    """(byte, mask) of the bit of (x, y) in its shift class's member
    bitmap, which has lcm(p, q) bits: from each source phase the class
    holds q / gcd(p, q) targets, one in each run of gcd(p, q) phases."""
    g = gcd(x.period, y.period)
    i = x.phase * (y.period // g) + y.phase // g
    return i >> 3, 1 << (i & 7)


def parse_structure(text: str) -> StructureGraph:
    """The structure graph a file lists.  Each transition is listed once,
    with every member of its shift class and one count for the class.  A
    bitmap per class records its listed members, to refuse a repeat and to
    name a gap."""
    orbits, points = {}, {}
    first = {}  # shift class -> (count, line, point tokens, member bitmap)
    n_listed = 0

    def orbit_of(name, n):
        if name not in orbits:
            raise ParseError("line %d: unknown orbit %s" % (n, _clip(repr(name))))
        return orbits[name]

    def point_of(tok, n):  # each distinct point token is resolved once per file
        if tok not in points:
            points[tok] = _parse_point(tok, orbit_of, n)
        return points[tok]

    for n, toks in _lines(text):
        if toks[0] == "orbit" and len(toks) == 3 and toks[2].startswith("word="):
            orbit = _parse_orbit(toks[2][len("word="):], n)
            if toks[1] in orbits:
                raise ParseError("line %d: duplicate orbit id %s"
                                 % (n, _clip(repr(toks[1]))))
            orbits[toks[1]] = orbit
        elif toks[0] == "trans" and len(toks) == 4 and toks[3].startswith("count="):
            a = point_of(toks[1], n)
            b = point_of(toks[2], n)
            c = _parse_count(toks[3][len("count="):], n)
            if c < 1:
                raise ParseError("line %d: count must be >= 1" % n)
            key = StructureGraph.shift_class(a, b)
            entry = first.get(key)
            if entry is None:
                size = lcm(a.period, b.period)
                if size > len(text):  # each member needs a line of its own
                    raise ParseError("line %d: its shift class has %d members, more than"
                                     " %d characters can list" % (n, size, len(text)))
                entry = first[key] = (c, n, toks[1:3], bytearray((size + 7) // 8))
            byte, mask = _member_bit(a, b)
            if entry[3][byte] & mask:
                raise ParseError("line %d: duplicate transition %s %s"
                                 % (n, _clip(toks[1]), _clip(toks[2])))
            entry[3][byte] |= mask
            n_listed += 1
            if entry[0] != c:
                raise ParseError("line %d: count %s differs from count %s on line %d,"
                                 " in the same shift class"
                                 % (n, _clip(_count_text(c)), _clip(_count_text(entry[0])),
                                    entry[1]))
        else:
            raise ParseError("line %d: expected 'orbit' or 'trans'" % n)
    try:
        s = StructureGraph.make(orbits.values(), {
            (xo.points[0], yo.points[r]): c for ((xo, yo, r), (c, _n, _t, _b)) in first.items()})
    except MalformedStructureGraph as e:
        raise ParseError("structure file invalid: %s" % e)
    # each listed pair is a member of its class; expand only to name a gap
    if n_listed < sum(lcm(u.period, v.period) for ((u, v), _c) in s.transition_classes):
        for ((x, y), _c) in s.transitions:
            _c, n, (ta, tb), bits = first[StructureGraph.shift_class(x, y)]
            byte, mask = _member_bit(x, y)
            if not bits[byte] & mask:
                raise ParseError("line %d: its shift class lacks %s:%d %s:%d" % (
                    n, _clip(ta.rsplit(":", 1)[0]), x.phase,
                    _clip(tb.rsplit(":", 1)[0]), y.phase))
    return s


# -- combinatorial representations ------------------------------------------

def format_comb_rep(r: CombRep) -> str:
    out = []
    for t in r.terms:
        toks = [format_word(t.us[0])]
        for v, u in zip(t.vs, t.us[1:]):
            toks.append(format_word(v))
            toks.append(format_word(u))
        out.append("term " + " ".join(toks))
    return "\n".join(out) + "\n"


def parse_comb_rep(text: str) -> CombRep:
    terms = []
    for n, toks in _lines(text):
        if toks[0] != "term" or len(toks) < 2 or len(toks) % 2 != 0:
            raise ParseError("line %d: expected 'term u0 [v1 u1 ...]'" % n)
        words = [parse_word(t, n) for t in toks[1:]]
        try:
            terms.append(CombTerm(tuple(words[0::2]), tuple(words[1::2])))
        except InvalidCombRep as e:
            raise ParseError("line %d: %s" % (n, e))
    try:
        return CombRep.make(terms)
    except InvalidCombRep as e:
        raise ParseError("invalid representation: %s" % e)


# -- forbidden-word systems --------------------------------------------------

def format_forbidden(alphabet, forbidden, symbol_map=None) -> str:
    out = ["alphabet " + " ".join(sorted(alphabet))]
    out += ["forbid %s" % format_word(word(w)) for w in sorted(map(word, forbidden))]
    if symbol_map:
        out += ["map %s %s" % (b, a) for (b, a) in sorted(symbol_map.items())]
    return "\n".join(out) + "\n"


def parse_forbidden(text: str):
    """Returns (alphabet, forbidden words, symbol_map)."""
    alphabet = None
    forbidden = []
    symbol_map = {}
    for n, toks in _lines(text):
        if toks[0] == "alphabet" and len(toks) >= 2:
            alphabet = [_file_symbol(t, n) for t in toks[1:]]
        elif toks[0] == "forbid" and len(toks) == 2:
            w = parse_word(toks[1], n)
            if not w:
                raise ParseError("line %d: cannot forbid the empty word" % n)
            forbidden.append(w)
        elif toks[0] == "map" and len(toks) == 3:
            symbol_map[_file_symbol(toks[1], n)] = _file_symbol(toks[2], n)
        else:
            raise ParseError("line %d: expected alphabet/forbid/map" % n)
    if alphabet is None:
        raise ParseError("missing alphabet line")
    for b in symbol_map:
        if b not in alphabet:
            raise ParseError("mapped symbol %s not in alphabet" % _clip(repr(b)))
    full_map = {a: symbol_map.get(a, a) for a in alphabet}
    return alphabet, forbidden, full_map


# -- colored / simple graphs -------------------------------------------------

def format_colored(g: ColoredGraph) -> str:
    out = ["color %s %d" % (v, c) for (v, c) in g.colors]
    out += ["edge %s %s" % tuple(sorted(e)) for e in sorted(g.graph.edges, key=sorted)]
    return "\n".join(out) + "\n"


def parse_colored(text: str) -> ColoredGraph:
    colors = {}
    edges = []
    for n, toks in _lines(text):
        if toks[0] == "color" and len(toks) == 3:
            if toks[2] not in ("0", "1"):
                raise ParseError("line %d: color must be 0 or 1" % n)
            colors[_file_symbol(toks[1], n)] = int(toks[2])
        elif toks[0] == "edge" and len(toks) == 3:
            edges.append((_file_symbol(toks[1], n), _file_symbol(toks[2], n)))
        else:
            raise ParseError("line %d: expected 'color' or 'edge'" % n)
    try:
        return ColoredGraph.make(colors, edges)
    except (ImproperColoring, ValueError) as e:
        raise ParseError(str(e))


def format_simple(g: SimpleGraph) -> str:
    out = ["vertex %s" % v for v in sorted(g.vertices)]
    out += ["edge %s %s" % tuple(sorted(e)) for e in sorted(g.edges, key=sorted)]
    return "\n".join(out) + "\n"


def parse_simple(text: str) -> SimpleGraph:
    vertices, rows = _vertex_lines(text, "edge", 2, _file_symbol)
    try:
        return SimpleGraph.make(vertices, [e for _n, e in rows])
    except ValueError as e:
        raise ParseError(str(e))


# -- plain digraphs ----------------------------------------------------------

def format_digraph(g: Digraph) -> str:
    out = ["vertex %s" % v for v in sorted(g.vertices, key=str)]
    out += ["arc %s %s" % (a, b) for (a, b) in g.arcs]
    return "\n".join(out) + "\n"


def parse_digraph(text: str) -> Digraph:
    vertices, rows = _vertex_lines(text, "arc", 2)
    return Digraph.make(vertices, [a for _n, a in rows])


# -- witnesses ---------------------------------------------------------------

def format_witness(h: SGHomomorphism) -> str:
    # each orbit's root word is spelled once per file
    orbits = {p.orbit for pair in h.pairs for p in pair}
    words = {o: format_word(o.root) for o in orbits}
    out = ["map %s:%d %s:%d" % (words[a.orbit], a.phase, words[b.orbit], b.phase)
           for (a, b) in h.pairs]
    return "\n".join(out) + "\n" if out else "# empty map\n"


def parse_witness(text: str) -> SGHomomorphism:
    mapping, orbits = {}, {}

    def orbit_of(w, n):  # each distinct word token is resolved once per file
        if w not in orbits:
            orbits[w] = _parse_orbit(w, n)
        return orbits[w]

    for n, toks in _lines(text):
        if toks[0] != "map" or len(toks) != 3:
            raise ParseError("line %d: expected 'map src dst'" % n)
        a = _parse_point(toks[1], orbit_of, n)
        b = _parse_point(toks[2], orbit_of, n)
        if a in mapping:
            raise ParseError("line %d: duplicate source point" % n)
        mapping[a] = b
    return SGHomomorphism.make(mapping)
