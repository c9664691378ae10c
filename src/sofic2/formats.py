"""Text file formats: labeled graphs, structure graphs, combinatorial
representations, forbidden-word systems, colored/simple graphs, plain
digraphs and witness files.

All serializers emit canonical line ordering so outputs are byte-stable
across runs; parsers strip '#' comments and blank lines.  Words are written
as dot-joined symbol tokens; tokens in files therefore must not contain
dots, whitespace or '#'.  The bare token '-' stands for the empty word
where one is allowed.
"""

from __future__ import annotations

from .core import (
    LabeledGraph,
    PeriodicOrbit,
    StructureGraph,
    CombRep,
    CombTerm,
    Word,
    canonicalize_point,
    word,
)
from .decisions import SGHomomorphism
from .errors import ImproperColoring, InvalidCombRep, MalformedStructureGraph, ParseError
from .reductions import ColoredGraph, Digraph, SimpleGraph


def _lines(text):
    for n, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield n, line.split()


def _file_symbol(tok, n=0):
    if not tok or "." in tok or "#" in tok or any(c.isspace() for c in tok):
        raise ParseError("line %d: bad symbol token %r" % (n, tok))
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
    vertices, edges = [], []
    for n, toks in _lines(text):
        if toks[0] == "vertex" and len(toks) == 2:
            vertices.append(toks[1])
        elif toks[0] == "edge" and len(toks) == 4:
            edges.append((toks[1], toks[2], _file_symbol(toks[3], n)))
        else:
            raise ParseError("line %d: expected 'vertex' or 'edge'" % n)
    return LabeledGraph.make(vertices, edges)


# -- structure graphs -------------------------------------------------------

def format_structure(s: StructureGraph) -> str:
    oid = {o: "o%d" % i for i, o in enumerate(s.orbits)}
    out = ["orbit %s word=%s" % (oid[o], format_word(o.root)) for o in s.orbits]
    for ((a, b), c) in s.transitions:
        out.append("trans %s:%d %s:%d count=%d"
                   % (oid[a.orbit], a.phase, oid[b.orbit], b.phase, c))
    return "\n".join(out) + "\n"


def _parse_orbit(tok, n) -> PeriodicOrbit:
    """The orbit whose canonical root word the token spells."""
    w = parse_word(tok, n)
    if not w:
        raise ParseError("line %d: orbit word must be nonempty" % n)
    try:
        return PeriodicOrbit(w)
    except ValueError:
        raise ParseError("line %d: %r is not a canonical orbit word (expected %s)"
                         % (n, tok, format_word(canonicalize_point(w).orbit.root)))


def _parse_point(tok, orbit_of, n):
    """An orbit:phase token; orbit_of(name, n) resolves the orbit part."""
    if ":" not in tok:
        raise ParseError("line %d: expected orbit:phase, got %r" % (n, tok))
    name, phase = tok.rsplit(":", 1)
    o = orbit_of(name, n)
    try:
        ph = int(phase)
    except ValueError:
        raise ParseError("line %d: bad phase %r" % (n, phase))
    if not 0 <= ph < o.period:
        raise ParseError("line %d: phase %d outside period %d" % (n, ph, o.period))
    return o.point(ph)


def parse_structure(text: str) -> StructureGraph:
    orbits = {}
    counts = {}

    def orbit_of(name, n):
        if name not in orbits:
            raise ParseError("line %d: unknown orbit %r" % (n, name))
        return orbits[name]

    for n, toks in _lines(text):
        if toks[0] == "orbit" and len(toks) == 3 and toks[2].startswith("word="):
            orbit = _parse_orbit(toks[2][len("word="):], n)
            if toks[1] in orbits:
                raise ParseError("line %d: duplicate orbit id %r" % (n, toks[1]))
            orbits[toks[1]] = orbit
        elif toks[0] == "trans" and len(toks) == 4 and toks[3].startswith("count="):
            a = _parse_point(toks[1], orbit_of, n)
            b = _parse_point(toks[2], orbit_of, n)
            try:
                c = int(toks[3][len("count="):])
            except ValueError:
                raise ParseError("line %d: bad count" % n)
            if c < 1:
                raise ParseError("line %d: count must be >= 1" % n)
            counts[(a, b)] = c
        else:
            raise ParseError("line %d: expected 'orbit' or 'trans'" % n)
    s = StructureGraph.make(orbits.values(), counts)
    try:
        s.validate()
    except MalformedStructureGraph as e:
        raise ParseError("structure file invalid: %s" % e)
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
            raise ParseError("mapped symbol %r not in alphabet" % b)
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
            colors[toks[1]] = int(toks[2])
        elif toks[0] == "edge" and len(toks) == 3:
            edges.append((toks[1], toks[2]))
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
    vertices = []
    edges = []
    for n, toks in _lines(text):
        if toks[0] == "vertex" and len(toks) == 2:
            vertices.append(toks[1])
        elif toks[0] == "edge" and len(toks) == 3:
            edges.append((toks[1], toks[2]))
        else:
            raise ParseError("line %d: expected 'vertex' or 'edge'" % n)
    try:
        return SimpleGraph.make(vertices, edges)
    except ValueError as e:
        raise ParseError(str(e))


# -- plain digraphs ----------------------------------------------------------

def format_digraph(g: Digraph) -> str:
    out = ["vertex %s" % v for v in sorted(g.vertices, key=str)]
    out += ["arc %s %s" % (a, b) for (a, b) in g.arcs]
    return "\n".join(out) + "\n"


def parse_digraph(text: str) -> Digraph:
    vertices, arcs = [], []
    for n, toks in _lines(text):
        if toks[0] == "vertex" and len(toks) == 2:
            vertices.append(toks[1])
        elif toks[0] == "arc" and len(toks) == 3:
            arcs.append((toks[1], toks[2]))
        else:
            raise ParseError("line %d: expected 'vertex' or 'arc'" % n)
    return Digraph.make(vertices, arcs)


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
