"""File format round trips and canonical serialization."""

import random
import re
import tracemalloc
from decimal import Decimal
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from sofic2 import (ColoredGraph, Digraph, LabeledGraph, Mode, SGHomomorphism, SimpleGraph,
                    canonicalize_point, decide, formats, verify_witness)
from sofic2.core import CombRep, CombTerm
from sofic2.errors import InvalidCombRep, ParseError

from conftest import (
    chain_graph,
    make_structure,
    random_certified_graph,
    random_colored_graph,
    random_simple_graph,
    random_structure_graph,
)


def _stable(fmt, parse, value):
    text = fmt(value)
    back = parse(text)
    assert back == value
    assert fmt(back) == text


def test_graph_round_trip_random():
    rng = random.Random(113)
    for _ in range(30):
        _stable(formats.format_graph, formats.parse_graph,
                random_certified_graph(rng))


def test_graph_comments_and_isolated_vertices():
    text = "# a comment\nvertex w\nedge u u a  # trailing\n"
    g = formats.parse_graph(text)
    assert "w" in g.vertices and ("u", "u", "a") in g.edges
    canon = formats.format_graph(g)
    assert formats.format_graph(formats.parse_graph(canon)) == canon


def test_structure_round_trip_random(fig1_structure):
    rng = random.Random(127)
    _stable(formats.format_structure, formats.parse_structure, fig1_structure)
    for _ in range(30):
        _stable(formats.format_structure, formats.parse_structure,
                random_structure_graph(rng))


def test_structure_file_fixture(fig1_structure):
    expected = (
        "orbit o0 word=0\n"
        "orbit o1 word=1.2\n"
        "orbit o2 word=1.3\n"
        "trans o0:0 o0:0 count=2\n"
        "trans o0:0 o1:0 count=1\n"
        "trans o0:0 o1:1 count=1\n"
        "trans o0:0 o2:0 count=1\n"
        "trans o0:0 o2:1 count=1\n"
        "trans o1:0 o1:0 count=1\n"
        "trans o1:0 o2:1 count=2\n"
        "trans o1:1 o1:1 count=1\n"
        "trans o1:1 o2:0 count=2\n"
        "trans o2:0 o2:0 count=1\n"
        "trans o2:1 o2:1 count=1\n"
    )
    assert formats.format_structure(fig1_structure) == expected


def test_structure_parse_errors():
    with pytest.raises(ParseError):
        formats.parse_structure("orbit o0 word=21\n")  # not least rotation
    with pytest.raises(ParseError):
        formats.parse_structure("orbit o0 word=0\ntrans o0:0 o0:0 count=0\n")
    with pytest.raises(ParseError):
        formats.parse_structure("orbit o0 word=0\ntrans o0:1 o0:0 count=1\n")
    with pytest.raises(ParseError):
        # missing diagonal
        formats.parse_structure("orbit o0 word=0\n")
    with pytest.raises(ParseError, match="^line 3: count 2 differs from count 1 on line 2,"):
        # equivariance violated: one shift class, two counts
        formats.parse_structure(
            "orbit o0 word=a.b\n"
            "trans o0:0 o0:0 count=1\ntrans o0:1 o0:1 count=2\n")
    digits = "9" * 5000  # past Python's int/str limit of 4,300 digits
    with pytest.raises(ParseError, match="^line 3: count 1 differs from count 9{5000} on line 2,"):
        formats.parse_structure("orbit o0 word=a.b\ntrans o0:0 o0:0 count=%s\n"
                                "trans o0:1 o0:1 count=1\n" % digits)
    # counts and phases are ASCII digits at every length: `int` alone would
    # take a sign, underscores and other scripts' digits
    for bad in ("+5", "1_0", "\u0665", "+" + digits, digits + "x", "9_" + digits):
        with pytest.raises(ParseError, match="^line 2: bad count$"):
            formats.parse_structure("orbit o0 word=a\ntrans o0:0 o0:0 count=%s\n" % bad)
    # a quoted phase past 60 characters is cut there and followed by its length
    for bad, quoted in [(bad, repr(bad)) for bad in ("+0", "0_0", "\u0660", "-")] + [
            ("0" * 5000, "'%s... (5002 characters)" % ("0" * 59))]:
        with pytest.raises(ParseError, match="^line 2: bad phase %s$" % re.escape(quoted)):
            formats.parse_structure("orbit o0 word=a\ntrans o0:%s o0:0 count=1\n" % bad)
        with pytest.raises(ParseError, match="^line 1: bad phase %s$" % re.escape(quoted)):
            formats.parse_witness("map a:0 a:%s\n" % bad)
    with pytest.raises(ParseError, match="^line 3: duplicate transition o0:0 o0:0$"):
        formats.parse_structure("orbit o0 word=a\n"
                                "trans o0:0 o0:0 count=1\ntrans o0:0 o0:0 count=5\n")
    with pytest.raises(ParseError, match="^line 2: its shift class lacks o0:1 o0:1$"):
        formats.parse_structure("orbit o0 word=a.b\ntrans o0:0 o0:0 count=1\n")
    with pytest.raises(ParseError, match="^line 4: its shift class lacks o0:0 o1:0$"):
        # the class of o0:0 -> o1:1 has lcm(1, 2) = 2 members
        formats.parse_structure(
            "orbit o0 word=a\norbit o1 word=b.c\n"
            "trans o0:0 o0:0 count=1\ntrans o0:0 o1:1 count=3\n"
            "trans o1:0 o1:0 count=1\ntrans o1:1 o1:1 count=1\n")


def test_missing_diagonal_refusal_is_bounded():
    # an orbit is named by its period and its first root symbols, so the
    # refusal stays short however long the orbit or its symbols
    for root in (["s%03d" % i for i in range(200)], ["a"] * 9966 + ["b"],
                 ["x" * 400 + str(i) for i in range(3)]):
        with pytest.raises(ParseError, match="missing diagonal") as refused:
            formats.parse_structure("orbit o0 word=%s\n" % ".".join(root))
        assert len(str(refused.value)) < 200


def _long_refusals():
    """(parse, text of at least 10,000 characters, leading words of the
    refusal) for each refusal that quotes user input."""
    long_word = "b." + ".".join(["a"] * 5000)  # its least rotation starts at a
    name = "o" * 10000
    long_symbols = ".".join(["a" * 1500] + ["b" * 1500] * 7)
    pad = "#" * 6000 + "\n"  # a 4,299-digit phase still fits an int
    return [
        (formats.parse_structure, "orbit o0 word=%s\n" % long_word,
         "line 1: 'b.a.a.a"),
        (formats.parse_witness, "map %s:0 a:0\n" % long_word, "line 1: 'b.a.a.a"),
        (formats.parse_structure, "orbit o0 word=a\ntrans %s o0:0 count=1\n" % name,
         "line 2: expected orbit:phase, got 'ooo"),
        (formats.parse_structure,
         "orbit o0 word=a\ntrans o0:%s o0:0 count=1\n" % ("9" * 10000),
         "line 2: bad phase '999"),
        (formats.parse_witness, pad + "map a:%s a:0\n" % ("9" * 4299),
         "line 2: phase 999"),
        (formats.parse_structure, "orbit o0 word=%s\n" % long_symbols,
         "structure file invalid: missing diagonal transition at the orbit of period 8,"
         " root starting aaa"),
        (formats.parse_structure, "orbit o0 word=a\ntrans %s:0 o0:0 count=1\n" % name,
         "line 2: unknown orbit 'ooo"),
        (formats.parse_structure, "orbit %s word=a\norbit %s word=b\n" % (name, name),
         "line 2: duplicate orbit id 'ooo"),
        (formats.parse_structure, "orbit %s word=a\n" % name
         + "trans %s:0 %s:0 count=1\n" % (name, name) * 2,
         "line 3: duplicate transition ooo"),
        (formats.parse_structure, "orbit %s word=a.b\ntrans %s:0 %s:0 count=1\n"
         % (name, name, name), "line 2: its shift class lacks ooo"),
        (formats.parse_graph, "edge a b %s\n" % ".".join(["s"] * 5000),
         "line 1: bad symbol token 's.s.s"),
        (formats.parse_forbidden, "alphabet a\nmap %s a\n" % name,
         "mapped symbol 'ooo"),
    ]


def test_refusals_quoting_long_input_stay_short():
    # every refusal quotes user input through one clip: under 300
    # characters however long the input, with the same leading words
    for parse, text, start in _long_refusals():
        assert len(text) >= 10000
        with pytest.raises(ParseError) as refused:
            parse(text)
        message = str(refused.value)
        assert message.startswith(start) and len(message) < 300, message[:400]


def test_structure_file_repeats_and_gaps_are_named():
    # one repeated member is refused where it recurs; one missing member of
    # a class that keeps others is named, at the first line of its class
    from sofic2 import StructureGraph
    rng = random.Random(31)
    gaps = 0
    for _ in range(300):
        s = random_structure_graph(rng, max_orbits=4, max_period=6, max_count=3)
        lines = formats.format_structure(s).splitlines()
        head = len(s.orbits)
        members = [pair for (pair, _c) in s.transitions]
        k = rng.randrange(len(members))
        _t, a, b, _c = lines[head + k].split()
        j = rng.randint(head + k + 1, len(lines))
        with pytest.raises(ParseError, match="^line %d: duplicate transition %s %s$"
                           % (j + 1, a, b)):
            formats.parse_structure("\n".join(lines[:j] + [lines[head + k]] + lines[j:]))
        x, y = members[k]
        if lcm(x.period, y.period) == 1:
            continue
        key = StructureGraph.shift_class(x, y)
        first = min(i for i, (u, v) in enumerate(members)
                    if i != k and StructureGraph.shift_class(u, v) == key)
        line = head + first + (first < k)  # 1-based, after the deletion
        with pytest.raises(ParseError, match="^line %d: its shift class lacks %s %s$"
                           % (line, a, b)):
            formats.parse_structure("\n".join(lines[:head + k] + lines[head + k + 1:]))
        gaps += 1
    assert gaps >= 100


def test_comb_rep_round_trip():
    from conftest import FIG1_TERMS, random_comb_rep
    from sofic2 import comb_rep
    r = comb_rep(FIG1_TERMS)
    _stable(formats.format_comb_rep, formats.parse_comb_rep, r)
    text = formats.format_comb_rep(r)
    assert "term 0 1 0" in text and "term 0 - 1.2" in text
    rng = random.Random(131)
    for _ in range(25):
        _stable(formats.format_comb_rep, formats.parse_comb_rep,
                random_comb_rep(rng))


def test_comb_rep_parse_rejects_periodic_junction():
    with pytest.raises(ParseError):
        formats.parse_comb_rep("term 0 0 0\n")


def test_forbidden_round_trip():
    text = formats.format_forbidden(
        ["L", "1", "R"], [("R", "L"), ("1", "1")], {"L": "0", "R": "0"})
    alphabet, forbidden, symbol_map = formats.parse_forbidden(text)
    assert set(alphabet) == {"L", "1", "R"}
    assert sorted(forbidden) == [("1", "1"), ("R", "L")]
    assert symbol_map == {"L": "0", "R": "0", "1": "1"}
    assert formats.format_forbidden(alphabet, forbidden,
                                    {"L": "0", "R": "0"}) == text


def test_colored_and_simple_round_trip():
    rng = random.Random(137)
    for _ in range(20):
        _stable(formats.format_colored, formats.parse_colored,
                random_colored_graph(rng))
        _stable(formats.format_simple, formats.parse_simple,
                random_simple_graph(rng))


@pytest.mark.parametrize("parse, text, line, expected", [
    (formats.parse_graph, "vertex a\nnode a\n", 2, "'vertex' or 'edge'"),
    (formats.parse_graph, "vertex a\n\nedge a a\n", 3, "'vertex' or 'edge'"),
    (formats.parse_simple, "vertex u\narc u v\n", 2, "'vertex' or 'edge'"),
    (formats.parse_simple, "edge u v w\n", 1, "'vertex' or 'edge'"),
    (formats.parse_digraph, "vertex u\nedge u v\n", 2, "'vertex' or 'arc'"),
    (formats.parse_digraph, "# arcs\narc u\n", 2, "'vertex' or 'arc'"),
])
def test_vertex_line_parsers_name_the_bad_line(parse, text, line, expected):
    with pytest.raises(ParseError, match="^line %d: expected %s$" % (line, expected)):
        parse(text)


@pytest.mark.parametrize("parse, text, line, token", [
    (formats.parse_simple, "vertex a.b\nedge u v\n", 1, "a.b"),
    (formats.parse_simple, "vertex u\n\nedge u -\n", 3, "-"),
    (formats.parse_colored, "color a.b 1\ncolor c 0\nedge a.b c\n", 1, "a.b"),
    (formats.parse_colored, "color u 1\ncolor v 0\nedge u v.w\n", 3, "v.w"),
])
def test_vertex_names_must_be_file_symbols(parse, text, line, token):
    # gadget reductions spell vertex names as symbols of their output
    with pytest.raises(ParseError, match="^line %d: bad symbol token %s$"
                       % (line, re.escape(repr(token)))):
        parse(text)


def test_digraph_round_trip():
    d = Digraph.make(["isolated"], [("a", "b"), ("a", "b"), ("b", "a")])
    _stable(formats.format_digraph, formats.parse_digraph, d)


# file tokens: multi-character, and never '-', a dot, whitespace or '#'
file_symbols = st.sampled_from(["0", "1", "a", "bc"])


def file_words(min_size):
    return st.lists(file_symbols, min_size=min_size, max_size=4).map(tuple)


@st.composite
def comb_reps(draw):
    """Zero to four terms of arity up to two; a term with a periodic
    junction is dropped."""
    terms = []
    for _ in range(draw(st.integers(0, 4))):
        m = draw(st.integers(0, 2))
        term = CombTerm(tuple(draw(file_words(1)) for _ in range(m + 1)),
                        tuple(draw(file_words(0)) for _ in range(m)))
        try:
            terms += CombRep.make([term]).terms
        except InvalidCombRep:
            pass
    return CombRep.make(terms)


periodic_points = st.builds(canonicalize_point, file_words(1), st.integers(0, 3))


@settings(derandomize=True, database=None, deadline=None)
@given(comb_reps(), st.dictionaries(periodic_points, periodic_points, max_size=6),
       st.lists(st.text("ab01-._", min_size=1, max_size=3), max_size=4),
       st.lists(st.tuples(st.sampled_from("uvw"), st.sampled_from("uvw")), max_size=8))
def test_comb_rep_witness_and_digraph_files_round_trip(r, mapping, vertices, arcs):
    assert formats.parse_comb_rep(formats.format_comb_rep(r)) == r
    h = SGHomomorphism.make(mapping)
    assert formats.parse_witness(formats.format_witness(h)) == h
    d = Digraph.make(vertices, arcs)
    assert formats.parse_digraph(formats.format_digraph(d)) == d


names = st.sampled_from(["u", "v", "w0", "x1", "yz"])


@settings(derandomize=True, database=None, deadline=None)
@given(st.lists(names, max_size=3),
       st.lists(st.tuples(names, names, file_symbols), max_size=8))
def test_labeled_graph_file_round_trip(vertices, edges):
    _stable(formats.format_graph, formats.parse_graph, LabeledGraph.make(vertices, edges))


@settings(derandomize=True, database=None, deadline=None)
@given(st.sets(file_symbols, min_size=1), st.lists(file_words(1), max_size=5),
       st.data())
def test_forbidden_word_file_round_trip(alphabet, forbidden, data):
    symbol_map = data.draw(st.dictionaries(st.sampled_from(sorted(alphabet)), file_symbols))
    text = formats.format_forbidden(alphabet, forbidden, symbol_map)
    back = formats.parse_forbidden(text)
    assert back == (sorted(alphabet), sorted(forbidden),
                    {a: symbol_map.get(a, a) for a in sorted(alphabet)})
    assert formats.parse_forbidden(formats.format_forbidden(*back)) == back


@settings(derandomize=True, database=None, deadline=None)
@given(st.dictionaries(names, st.integers(0, 1), min_size=1), st.data())
def test_colored_and_simple_graph_files_round_trip(colors, data):
    pairs = [(a, b) for a in sorted(colors) for b in sorted(colors) if a < b]
    edges = data.draw(st.lists(st.sampled_from(pairs), max_size=6) if pairs else st.just([]))
    g = SimpleGraph.make(colors, edges)
    _stable(formats.format_simple, formats.parse_simple, g)
    proper = [(a, b) for (a, b) in edges if colors[a] != colors[b]]
    _stable(formats.format_colored, formats.parse_colored, ColoredGraph.make(colors, proper))


def test_witness_round_trip(fig1_structure):
    from sofic2 import Mode, decide
    from conftest import rename_structure
    other = rename_structure(fig1_structure, "w")
    h = decide(Mode.CONJUGACY, fig1_structure, other)
    _stable(formats.format_witness, formats.parse_witness, h)


def test_phase_outside_period_rejected():
    # one map has one spelling: phases are not reduced modulo the period
    with pytest.raises(ParseError, match="line 1: phase 5 outside period 1"):
        formats.parse_witness("map a:5 a:-3\n")
    with pytest.raises(ParseError, match="line 2: phase -1 outside period 2"):
        formats.parse_witness("map a.b:0 a.b:1\nmap a.b:-1 a.b:0\n")
    with pytest.raises(ParseError, match="line 2: phase 1 outside period 1"):
        formats.parse_structure("orbit o0 word=a\ntrans o0:1 o0:0 count=1\n")


def test_word_tokens_with_dots_rejected():
    with pytest.raises(ParseError):
        formats.format_word(("a.b",))


def test_dash_is_not_a_symbol_token():
    # '-' spells the empty word, so a symbol '-' could not be read back
    with pytest.raises(ParseError, match="^line 2: bad symbol token '-'$"):
        formats.parse_graph("vertex a\nedge a a -\n")
    with pytest.raises(ParseError, match="^line 1: bad symbol token '-'$"):
        formats.parse_comb_rep("term a.-\n")
    with pytest.raises(ParseError, match="^line 1: bad symbol token '-'$"):
        formats.parse_forbidden("alphabet a -\n")
    with pytest.raises(ParseError):
        formats.format_word(("a", "-"))
    assert formats.parse_word("-") == ()


def test_big_counts_serialize_exactly():
    from sofic2 import build_structure
    s = build_structure(chain_graph(64))
    text = formats.format_structure(s)
    assert "count=%d" % (2 ** 64) in text
    assert formats.parse_structure(text) == s
    # 2**15000 has 4,516 digits, past Python's default int/str limit of 4,300
    s = build_structure(chain_graph(15000))
    text = formats.format_structure(s)
    assert "count=%s\n" % Decimal(2 ** 15000) in text
    assert formats.parse_structure(text) == s


def test_long_period_witness_round_trip():
    from sofic2 import Mode, decide, verify_witness
    from conftest import periods_structure
    s = periods_structure([400])
    h = decide(Mode.CONJUGACY, s, s)
    assert len(h.pairs) == 400
    _stable(formats.format_witness, formats.parse_witness, h)
    assert verify_witness(Mode.CONJUGACY, s, s, formats.parse_witness(
        formats.format_witness(h)))
    # a rotated root first appears on the last line; words already seen on
    # earlier lines do not let it through
    root = s.orbits[0].root
    rotated = formats.format_word(root[1:] + root[:1])
    text = formats.format_witness(h) + "map %s:0 %s:0\n" % (
        formats.format_word(root), rotated)
    with pytest.raises(ParseError, match="line 401: .* not a canonical"):
        formats.parse_witness(text)


@settings(derandomize=True, database=None, deadline=None)
@given(st.randoms(use_true_random=False), st.randoms(use_true_random=False))
def test_structure_files_and_transitions_property(rng, rng2):
    s = random_structure_graph(rng, max_orbits=4, max_period=5, max_count=5)
    y = random_structure_graph(rng2, max_orbits=3, max_period=4, max_count=5)
    assert formats.parse_structure(formats.format_structure(s)) == s
    # the expansion lists every member of every class once, in sorted order,
    # with the count of its class, and the same way on every access
    members = list(s.transitions)
    pairs = [pair for (pair, _c) in members]
    assert len(set(pairs)) == len(pairs) == sum(
        lcm(a.period, b.period) for ((a, b), _c) in s.transition_classes)
    assert pairs == sorted(pairs, key=lambda ab: (ab[0].sort_key(), ab[1].sort_key()))
    assert all(c == s.count(a, b) for ((a, b), c) in members)
    assert list(s.transitions) == members
    for (a, b) in ((s, s), (s, y), (y, s)):
        for mode in Mode:
            w = decide(mode, a, b, budget=10 ** 4)
            if w is not None:
                back = formats.parse_witness(formats.format_witness(w))
                assert back == w and verify_witness(mode, a, b, back)


# every line boundary of str.splitlines
LINE_BOUNDARIES = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e",
                   "\x85", "\u2028", "\u2029"]


def _splitlines_reference(text):
    """`formats._lines` as it was when it listed `text.splitlines()`."""
    for n, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield n, line.split()


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.lists(st.one_of(st.sampled_from(LINE_BOUNDARIES),
                          st.text("ab #\t", max_size=8)), max_size=30),
       st.sampled_from([1, 2, 5000]))
def test_lines_match_splitlines(pieces, repeats):
    # 5,000 repeats of more than 13 characters run past one block
    text = "".join(pieces) * repeats
    assert list(formats._lines(text)) == list(_splitlines_reference(text))


def test_lines_cut_blocks_only_after_a_newline():
    text = "".join(b + "a #c" for b in LINE_BOUNDARIES) * 9000
    assert len(text) > 3 * formats._BLOCK
    got = list(formats._lines(text))
    assert got == list(_splitlines_reference(text))
    assert got[-1][0] == len(text.splitlines())


def test_parse_structure_never_holds_every_line():
    # two cycles of coprime periods 199 and 211 and one departure: 42,401
    # lines, of which the parser keeps one block at a time
    roots = [tuple("p%d_%d" % (p, k) for k in range(p)) for p in (199, 211)]
    s = make_structure([(r, 1) for r in roots], [((roots[0], 0), (roots[1], 0), 1)])
    text = formats.format_structure(s)
    assert len(text.splitlines()) == 42401
    tracemalloc.start()
    try:
        assert formats.parse_structure(text) == s
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # about 3.6MB when the parser listed every line first
    assert peak < 1.5e6, peak


def test_parse_structure_refuses_a_class_no_file_of_its_size_can_list():
    # orbits of coprime periods 9,973 and 9,967 and one line of their cross
    # class, whose 99,400,891 members would need a 12.4MB bitmap; the file
    # is 39,980 characters, so it cannot list them.  The orbits are interned
    # before tracing, so the peak counts the parser's own allocations
    words = [("a",) * 9972 + ("b",), ("c",) * 9966 + ("d",)]
    orbits = [canonicalize_point(w, 0).orbit for w in words]
    text = ("orbit o0 word=%s\norbit o1 word=%s\ntrans o0:0 o1:0 count=1\n"
            "trans o0:0 o0:0 count=1\ntrans o1:0 o1:0 count=1\n"
            % tuple(".".join(w) for w in words))
    assert len(text) == 39980 and [o.period for o in orbits] == [9973, 9967]
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match="^line 3: its shift class has 99400891"
                           " members, more than 39980 characters can list$"):
            formats.parse_structure(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6, peak
