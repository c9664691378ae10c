"""File format round trips and canonical serialization."""

import random

import pytest

from sofic2 import Digraph, formats
from sofic2.errors import ParseError

from conftest import (
    chain_graph,
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
    with pytest.raises(ParseError):
        # equivariance violated
        formats.parse_structure(
            "orbit o0 word=a.b\n"
            "trans o0:0 o0:0 count=1\ntrans o0:1 o0:1 count=2\n")


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


def test_digraph_round_trip():
    d = Digraph.make(["isolated"], [("a", "b"), ("a", "b"), ("b", "a")])
    _stable(formats.format_digraph, formats.parse_digraph, d)


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


def test_big_counts_serialize_exactly():
    from sofic2 import build_structure
    s = build_structure(chain_graph(64))
    text = formats.format_structure(s)
    assert "count=%d" % (2 ** 64) in text
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
