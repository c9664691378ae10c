"""Command-line interface: exit codes, outputs, witness files."""

import contextlib
import io
import os
import signal
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from sofic2 import formats
from sofic2.cli import main

from conftest import (FIG1_TERMS, budget_exhausting_noes, chain_graph, make_structure,
                      rename_structure)


@pytest.fixture
def fig1_rep_file(tmp_path):
    from sofic2 import comb_rep
    p = tmp_path / "fig1.rep"
    p.write_text(formats.format_comb_rep(comb_rep(FIG1_TERMS)))
    return str(p)


@pytest.fixture
def fig1_sg_file(tmp_path, fig1_structure):
    p = tmp_path / "fig1.sg"
    p.write_text(formats.format_structure(fig1_structure))
    return str(p)


def test_analyze_prints_report(fig1_rep_file, capsys):
    assert main(["analyze", fig1_rep_file]) == 0
    out = capsys.readouterr().out
    assert "right-resolving: yes" in out
    assert "countable-certified: yes" in out
    assert "rank: 2" in out


def test_structure_writes_canonical_file(tmp_path, fig1_rep_file,
                                         fig1_structure, capsys):
    out_path = tmp_path / "fig1.sg"
    assert main(["structure", fig1_rep_file, "-o", str(out_path)]) == 0
    assert out_path.read_text() == formats.format_structure(fig1_structure)


def test_structure_chain_count(tmp_path, capsys):
    gpath = tmp_path / "chain.graph"
    gpath.write_text(formats.format_graph(chain_graph(10)))
    assert main(["structure", str(gpath)]) == 0
    out = capsys.readouterr().out
    assert "count=1024" in out


def test_structure_count_past_the_int_str_digit_limit(tmp_path, capsys):
    # 2**15000 has 4,516 digits, past Python's default int/str limit of 4,300
    gpath = tmp_path / "chain.graph"
    gpath.write_text(formats.format_graph(chain_graph(15000)))
    spath = tmp_path / "chain.sg"
    assert main(["structure", str(gpath), "-o", str(spath)]) == 0
    s = formats.parse_structure(spath.read_text())
    assert max(c for (_pair, c) in s.transition_classes) == 2 ** 15000
    assert capsys.readouterr() == ("", "")


def test_oracle_structure_budget(tmp_path, capsys):
    gpath = tmp_path / "chain.graph"
    gpath.write_text(formats.format_graph(chain_graph(10)))
    assert main(["oracle-structure", str(gpath), "--budget", "2048"]) == 0
    assert "count=1024" in capsys.readouterr().out
    assert main(["oracle-structure", str(gpath), "--budget", "100"]) == 2


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_oracle_structure_refuses_budget_below_one(tmp_path, capsys, budget):
    # one fixed point: no transitional paths, so any budget would suffice
    gpath = tmp_path / "point.graph"
    gpath.write_text("vertex q\nedge q q 0\n")
    assert main(["oracle-structure", str(gpath), "--budget", "1"]) == 0
    capsys.readouterr()
    assert main(["oracle-structure", str(gpath), "--budget=" + budget]) == 2
    err = _one_error_line(capsys)
    assert "BudgetExceeded" in err and "path budget %s is below 1" % budget in err


def test_python_dash_m_runs_the_cli():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    done = subprocess.run([sys.executable, "-m", "sofic2", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: sofic2")


def test_decide_conjugacy_with_witness(tmp_path, fig1_sg_file,
                                       fig1_structure, capsys):
    renamed = rename_structure(fig1_structure, "x")
    rpath = tmp_path / "renamed.sg"
    rpath.write_text(formats.format_structure(renamed))
    wpath = tmp_path / "w.txt"
    rc = main(["decide", "--mode", "conj", fig1_sg_file, str(rpath),
               "-w", str(wpath)])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "YES"
    rc = main(["verify", "--mode", "conj", fig1_sg_file, str(rpath), str(wpath)])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "VALID"


def test_decide_writes_the_witness_before_the_verdict(tmp_path, fig1_sg_file, capsys):
    # a witness path that cannot be written leaves stdout empty
    wpath = tmp_path / "missing-dir" / "w.txt"
    assert main(["decide", "--mode", "conj", fig1_sg_file, fig1_sg_file,
                 "-w", str(wpath)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_rejects_phase_outside_period(tmp_path, capsys):
    a = tmp_path / "a.sg"
    a.write_text(formats.format_structure(make_structure([("a", 1)])))
    w = tmp_path / "w.txt"
    w.write_text("map a:5 a:-3\n")
    assert main(["verify", "--mode", "conj", str(a), str(a), str(w)]) == 2
    err = _one_error_line(capsys)
    assert "ParseError" in err and "phase 5 outside period 1" in err


def test_verify_reports_an_invalid_witness(tmp_path, capsys):
    a = tmp_path / "a.sg"
    a.write_text(formats.format_structure(make_structure([("a", 1), ("b", 1)])))
    w = tmp_path / "w.txt"
    w.write_text("map a:0 b:0\nmap b:0 b:0\n")  # not injective
    assert main(["verify", "--mode", "conj", str(a), str(a), str(w)]) == 1
    assert capsys.readouterr().out == "INVALID\n"
    assert main(["verify", "--mode", "hom", str(a), str(a), str(w)]) == 0
    assert capsys.readouterr().out == "VALID\n"


def test_decide_no_case(tmp_path, capsys):
    a = tmp_path / "a.sg"
    b = tmp_path / "b.sg"
    a.write_text(formats.format_structure(make_structure([("a", 3)])))
    b.write_text(formats.format_structure(make_structure([("a", 2)])))
    assert main(["decide", "--mode", "embed", str(a), str(b)]) == 1
    assert capsys.readouterr().out.strip() == "NO"
    assert main(["decide", "--mode", "factor", str(a), str(b)]) == 0


def test_decide_budget(tmp_path, fig1_sg_file, fig1_structure, capsys):
    # conjugacy with a renamed twin takes one node per orbit
    rpath = tmp_path / "renamed.sg"
    rpath.write_text(formats.format_structure(rename_structure(fig1_structure, "x")))
    args = ["decide", "--mode", "conj", fig1_sg_file, str(rpath)]
    n = len(fig1_structure.orbits)
    assert main(args + ["--budget", str(n)]) == 0
    capsys.readouterr()
    for flags in (["--budget", str(n - 1)], ["--budget", str(n - 1), "--no-fastpath"]):
        assert main(args + flags) == 2
        err = _one_error_line(capsys)
        assert "BudgetExceeded" in err and "more than %d nodes" % (n - 1) in err
    # a budget below 1 is refused before the rank-1 path too
    assert main(["decide", "--mode", "conj", "--budget", "0", str(rpath),
                 str(rpath)]) == 2
    assert "node budget 0 is below 1" in _one_error_line(capsys)


@pytest.mark.parametrize("k", [10, 12])
def test_decide_answers_a_no_that_periods_settle(tmp_path, capsys, k):
    # with default flags; these searches passed the default budget (exit 2)
    # before the counting gate answered them
    a, b = tmp_path / "a.sg", tmp_path / "b.sg"
    for mode, x, y in budget_exhausting_noes(k):
        a.write_text(formats.format_structure(x))
        b.write_text(formats.format_structure(y))
        assert main(["decide", "--mode", mode.value, str(a), str(b)]) == 1, mode
        assert capsys.readouterr().out == "NO\n", mode


def test_decide_fastpath_consistency(tmp_path, capsys):
    a = tmp_path / "a.sg"
    b = tmp_path / "b.sg"
    from conftest import periods_structure
    a.write_text(formats.format_structure(periods_structure([2, 4], 1)))
    b.write_text(formats.format_structure(periods_structure([2], 2)))
    for mode, want in (("hom", 0), ("factor", 0), ("embed", 1), ("conj", 1)):
        fast = main(["decide", "--mode", mode, str(a), str(b)])
        slow = main(["decide", "--mode", mode, "--no-fastpath", str(a), str(b)])
        assert fast == slow == want
    capsys.readouterr()


def test_decide_fastpath_writes_verifiable_witness(tmp_path, capsys):
    from conftest import periods_structure
    a = tmp_path / "a.sg"
    b = tmp_path / "b.sg"
    a.write_text(formats.format_structure(periods_structure([2, 4], 1)))
    b.write_text(formats.format_structure(periods_structure([2], 2)))
    w = tmp_path / "w.txt"
    assert main(["decide", "--mode", "factor", str(a), str(b),
                 "-w", str(w)]) == 0
    assert main(["verify", "--mode", "factor", str(a), str(b), str(w)]) == 0
    capsys.readouterr()


def test_decide_prints_rank1_witness(tmp_path, capsys):
    from conftest import periods_structure
    a = tmp_path / "a.sg"
    b = tmp_path / "b.sg"
    a.write_text(formats.format_structure(periods_structure([2, 4, 6], 1)))
    b.write_text(formats.format_structure(periods_structure([2, 3], 2)))
    for mode in ("hom", "factor"):
        assert main(["decide", "--mode", mode, str(a), str(b)]) == 0
        head, _, witness = capsys.readouterr().out.partition("\n")
        assert head == "YES" and witness.startswith("map ")
        w = tmp_path / ("%s.txt" % mode)
        w.write_text(witness)
        assert main(["verify", "--mode", mode, str(a), str(b), str(w)]) == 0
        assert capsys.readouterr().out.strip() == "VALID"


def test_rank_and_derive(tmp_path, fig1_rep_file, capsys):
    assert main(["rank", fig1_rep_file]) == 0
    assert capsys.readouterr().out.strip() == "2"
    assert main(["derive", fig1_rep_file]) == 0
    out = capsys.readouterr().out
    assert "term" in out
    d = tmp_path / "d.rep"
    assert main(["derive", fig1_rep_file, "-o", str(d)]) == 0
    assert main(["rank", str(d)]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_reduce_gi_and_hom(tmp_path, capsys):
    cg = tmp_path / "colored.cg"
    cg.write_text("color u 0\ncolor v 1\nedge u v\n")
    out = tmp_path / "gi.sg"
    assert main(["reduce", "--gadget", "gi", str(cg), "-o", str(out)]) == 0
    s = formats.parse_structure(out.read_text())
    assert len(s.points()) == 2
    sg = tmp_path / "simple.g"
    sg.write_text("edge u v\n")
    out2 = tmp_path / "hom.sg"
    assert main(["reduce", "--gadget", "hom", str(sg), "-o", str(out2)]) == 0
    s2 = formats.parse_structure(out2.read_text())
    assert all(o.period == 2 for o in s2.orbits)


def test_reduce_hom_refuses_the_marker_vertex(tmp_path, capsys):
    sg = tmp_path / "simple.g"
    sg.write_text("edge % u\n")
    assert main(["reduce", "--gadget", "hom", str(sg)]) == 2
    err = _one_error_line(capsys)
    assert "ReservedSymbol" in err and "marker" in err


def test_reduce_gi_refuses_a_vertex_that_is_not_a_symbol(tmp_path, capsys):
    cg = tmp_path / "dotted.cg"
    cg.write_text("color a.b 1\ncolor c 0\nedge a.b c\n")
    assert main(["reduce", "--gadget", "gi", str(cg)]) == 2
    err = _one_error_line(capsys)
    assert "ParseError" in err and "line 1: bad symbol token 'a.b'" in err


def test_dash_symbol_is_refused_with_its_line(tmp_path, capsys):
    g = tmp_path / "dash.graph"
    g.write_text("vertex a\nedge a a -\n")
    assert main(["structure", str(g)]) == 2
    err = _one_error_line(capsys)
    assert "ParseError" in err and "line 2: bad symbol token '-'" in err


def test_forbid_file_is_converted(tmp_path, capsys):
    f = tmp_path / "ramp.forbid"
    f.write_text("alphabet 0 1\nforbid 1.0\n")
    out = tmp_path / "ramp.sg"
    assert main(["structure", str(f), "-o", str(out)]) == 0
    # no 1 before a 0: the fixed points and one orbit of 0-inf 1-inf
    assert out.read_text() == ("orbit o0 word=0\norbit o1 word=1\n"
                               "trans o0:0 o0:0 count=1\n"
                               "trans o0:0 o1:0 count=1\n"
                               "trans o1:0 o1:0 count=1\n")
    capsys.readouterr()


def test_forbid_file_with_too_many_words_is_refused(tmp_path, capsys):
    # 10**8 allowed words of length 8; the cap stops the growth at length 6
    f = tmp_path / "wide.forbid"
    f.write_text("alphabet 0 1 2 3 4 5 6 7 8 9\nforbid 0.1.2.3.4.5.6.7.8\n")
    assert main(["structure", str(f)]) == 2
    err = _one_error_line(capsys)
    assert "SizeLimitExceeded" in err and "length 6" in err


def test_reduce_digraph_with_shared_counts(tmp_path, fig1_sg_file, capsys):
    out = tmp_path / "d.digraph"
    assert main(["reduce", "--gadget", "digraph", fig1_sg_file,
                 "--with-counts-from", fig1_sg_file, "-o", str(out)]) == 0
    d = formats.parse_digraph(out.read_text())
    assert d.vertices and d.arcs


def test_error_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.graph"
    bad.write_text("edge v v a\nedge v w a\nedge w v b\n")
    assert main(["structure", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "NotRightResolving" in err
    assert main(["structure", str(tmp_path / "missing.graph")]) == 2
    garbled = tmp_path / "garbled.sg"
    garbled.write_text("nonsense line\n")
    assert main(["synthesize", str(garbled)]) == 2
    capsys.readouterr()


def _one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


# One minimal bad file per ParseError branch of the file formats, with the
# command that reads it (GOOD: a valid one-orbit structure file; `analyze`
# reads the file as a forbidden-word system) and the message it prints.
@pytest.mark.parametrize("command, text, message", [
    (["synthesize"], "orbit o0 word=-\n", "line 1: orbit word must be nonempty"),
    (["synthesize"], "orbit o0 word=a\ntrans o0 o0:0 count=1\n",
     "line 2: expected orbit:phase, got 'o0'"),
    (["synthesize"], "orbit o0 word=a\ntrans o0:x o0:0 count=1\n",
     "line 2: bad phase 'x'"),
    (["synthesize"], "orbit o0 word=a\ntrans o1:0 o0:0 count=1\n",
     "line 2: unknown orbit 'o1'"),
    (["synthesize"], "orbit o0 word=a\norbit o0 word=b\n",
     "line 2: duplicate orbit id 'o0'"),
    (["rank"], "term\n", "line 1: expected 'term u0 [v1 u1 ...]'"),
    (["rank"], "term - b a\n", "line 1: u words must be nonempty"),
    (["analyze"], "alphabet a\nforbid -\n",
     "line 2: cannot forbid the empty word"),
    (["analyze"], "alphabet a\nallow a\n",
     "line 2: expected alphabet/forbid/map"),
    (["analyze"], "forbid a\n", "missing alphabet line"),
    (["analyze"], "alphabet a\nmap b a\n",
     "mapped symbol 'b' not in alphabet"),
    (["reduce", "--gadget", "gi"], "color u 2\n", "line 1: color must be 0 or 1"),
    (["reduce", "--gadget", "gi"], "vertex u\n",
     "line 1: expected 'color' or 'edge'"),
    (["reduce", "--gadget", "gi"], "color u 0\ncolor v 0\nedge u v\n",
     "edge ['u', 'v'] joins equal colors"),
    (["reduce", "--gadget", "hom"], "vertex u\nedge u u\n", "self-loop 'u'"),
    (["verify", "--mode", "conj", "GOOD", "GOOD"], "mop a:0 a:0\n",
     "line 1: expected 'map src dst'"),
    (["verify", "--mode", "conj", "GOOD", "GOOD"],
     "map a:0 a:0\nmap a:0 a:0\n", "line 2: duplicate source point"),
])
def test_parse_errors_exit_2_with_their_message(tmp_path, capsys, command,
                                                text, message):
    good = tmp_path / "good.sg"
    good.write_text("orbit o0 word=a\ntrans o0:0 o0:0 count=1\n")
    bad = tmp_path / ("bad.forbid" if command == ["analyze"] else "bad")
    bad.write_text(text)
    argv = [str(good) if arg == "GOOD" else arg for arg in command]
    assert main(argv + [str(bad)]) == 2
    assert _one_error_line(capsys) == "error: ParseError: %s\n" % message


def test_directory_argument_is_an_error(tmp_path, capsys):
    assert main(["structure", str(tmp_path)]) == 2
    assert str(tmp_path) in _one_error_line(capsys)


def test_non_utf8_file_is_an_error(tmp_path, capsys):
    p = tmp_path / "latin1.graph"
    p.write_bytes(b"edge v v \xe9\n")
    assert main(["structure", str(p)]) == 2
    err = _one_error_line(capsys)
    assert "ParseError" in err and "latin1.graph" in err


def test_refusals_of_long_input_are_one_short_line(tmp_path, capsys):
    # each refusal quotes a 10,000-character token clipped: unclipped, these
    # lines ran from 10,032 to 30,087 characters
    v, w, u = "v" * 10000, "w" * 10000, "u" * 10000
    cases = [
        (["structure"], "x.graph", "edge %s %s a\nedge %s %s a\nedge %s %s b\n"
         % (v, v, v, w, w, v), "NotRightResolving: label collisions at "),
        (["structure"], "x.graph", "edge %s %s a\nedge %s %s b\n" % (v, v, v, v),
         "NotCountableCertified: the component of vertex "),
        (["structure"], "x.graph", "edge %s %s a\nedge %s %s x\nedge %s %s b\n"
         "edge %s %s y\nedge %s %s c\n" % (u, u, u, v, v, v, v, w, w, w),
         "RankTooHigh: a path from the cycle through vertex "),
        (["reduce", "--gadget", "hom"], "x.simple", "vertex %s\nedge a b\n" % v,
         "IsolatedVertex: isolated vertices "),
        (["reduce", "--gadget", "hom"], "x.simple", "edge %s %s\n" % (v, v),
         "ParseError: self-loop 'vvv"),
        (["reduce", "--gadget", "gi"], "x.colored",
         "color a 0\ncolor b 1\nedge a b\nedge b %s\n" % v,
         "ParseError: vertex 'vvv"),
        (["reduce", "--gadget", "gi"], "x.colored",
         "color %s 0\ncolor %s 0\nedge %s %s\n" % (v, w, v, w),
         "ParseError: edge ['vvv"),
        (["rank"], "x.rep", "term %s %s %s\n" % (v, v, v),
         "ParseError: invalid representation: junction 0 of term "),
        (["synthesize"], "x.sg", "orbit o0 word=a.b\ntrans o0:0 o0:0 count=1\n"
         "trans o0:1 o0:1 count=%s\n" % ("9" * 10000),
         "ParseError: line 3: count 999"),
    ]
    for command, name, text, start in cases:
        path = tmp_path / name
        path.write_text(text)
        assert main(command + [str(path)]) == 2, start
        err = _one_error_line(capsys)
        assert err.startswith("error: " + start) and len(err) < 300, err[:400]


def test_synthesize_round_trip_cli(tmp_path, fig1_sg_file, capsys):
    gpath = tmp_path / "synth.graph"
    assert main(["synthesize", fig1_sg_file, "-o", str(gpath)]) == 0
    spath = tmp_path / "back.sg"
    assert main(["structure", str(gpath), "-o", str(spath)]) == 0
    assert main(["decide", "--mode", "conj", str(spath), fig1_sg_file]) == 0
    capsys.readouterr()


def test_outputs_deterministic(tmp_path, fig1_rep_file):
    a = tmp_path / "a.sg"
    b = tmp_path / "b.sg"
    assert main(["structure", fig1_rep_file, "-o", str(a)]) == 0
    assert main(["structure", fig1_rep_file, "-o", str(b)]) == 0
    assert a.read_text() == b.read_text()


# Seed files of each kind the CLI reads, each valid and small, for the fuzz
# below to mutate.
_FUZZ_SEEDS = {
    "graph": "vertex w\nedge u u 0\nedge u v 1\nedge v v 2\nedge w u 1\n",
    "rep": "term 0 1 0\nterm 0 - 1.2\nterm 0 - 1.3\nterm 1.2 1 1.3\nterm 1.2 2 1.3\n",
    "forbid": "alphabet 0 1 2\nforbid 1.0\nforbid 2\nmap 1 c\n",
    "structure": ("orbit o0 word=0\norbit o1 word=1.2\n"
                  "trans o0:0 o0:0 count=2\ntrans o0:0 o1:0 count=1\n"
                  "trans o0:0 o1:1 count=1\ntrans o1:0 o1:0 count=1\n"
                  "trans o1:1 o1:1 count=1\n"),
    "witness": "map 0:0 0:0\nmap 1.2:0 1.2:1\nmap 1.2:1 1.2:0\n",
    "colored": "color u 0\ncolor v 1\ncolor w 0\nedge u v\nedge v w\n",
    "simple": "edge u v\nedge v w\nedge u w\nedge w x\n",
}
_FUZZ_TOKENS = ("0", "1", "2", "-1", "+1", "1_0", "\u0665", "9" * 30, "-", ".", ":",
                "#", "a", "1.2", "o0", "o0:0", "o1:1", "o2:0", "count=0", "count=3",
                "word=", "word=2.1", "trans", "orbit", "edge", "vertex", "arc", "map",
                "term", "alphabet", "forbid", "color", "u", "\u00e9", "\t", "\x00", "\r")
_edits = st.lists(st.tuples(
    st.sampled_from(("delete", "repeat", "swap", "token", "char", "bytes")),
    st.integers(0, 255), st.integers(0, 255), st.sampled_from(_FUZZ_TOKENS)), max_size=6)


def _mutate(text, edits):
    """The text's bytes after each edit: drop, repeat or swap lines, put a
    token in place of a word or a character, or put in a byte that is not
    UTF-8."""
    lines, garble = text.split("\n"), []
    for op, i, j, tok in edits:
        k, m = i % len(lines), j % len(lines)
        if op == "delete" and len(lines) > 1:
            del lines[k]
        elif op == "repeat":
            lines.insert(m, lines[k])
        elif op == "swap":
            lines[k], lines[m] = lines[m], lines[k]
        elif op == "token":
            words = lines[k].split(" ")
            words[j % len(words)] = tok
            lines[k] = " ".join(words)
        elif op == "char":
            at = j % (len(lines[k]) + 1)
            lines[k] = lines[k][:at] + tok + lines[k][at + 1:]
        elif op == "bytes":
            garble.append(i)
    data = "\n".join(lines).encode()
    for i in garble:
        at = i % (len(data) + 1)
        data = data[:at] + b"\xff" + data[at:]
    return data


class _Overtime(Exception):
    """A CLI call ran past its cap."""


def _on_alarm(signum, frame):
    raise _Overtime()


@pytest.mark.slow
@settings(max_examples=80, derandomize=True, deadline=None, database=None)
@given(edits=st.fixed_dictionaries({kind: _edits for kind in _FUZZ_SEEDS}),
       mode=st.sampled_from(("conj", "embed", "factor", "hom")))
def test_cli_fuzz_exits_cleanly(edits, mode):
    # every subcommand on mutated files of every kind: each call exits 0, 1
    # or 2 within its cap, and an exit 2 prints one error line, not a traceback
    with tempfile.TemporaryDirectory() as tmp:
        path = {}
        for kind, text in _FUZZ_SEEDS.items():
            data = _mutate(text, edits[kind])
            assert len(data) < 2048
            path[kind] = os.path.join(tmp, "in." + kind)
            with open(path[kind], "wb") as fh:
                fh.write(data)
        good = os.path.join(tmp, "good.structure")
        with open(good, "w") as fh:
            fh.write(_FUZZ_SEEDS["structure"])
        calls = [[cmd, path[kind]] for cmd in ("analyze", "structure", "oracle-structure")
                 for kind in ("graph", "rep", "forbid")]
        calls += [
            ["synthesize", path["structure"]],
            ["decide", "--mode", mode, path["structure"], good,
             "-w", os.path.join(tmp, "out.witness")],
            ["verify", "--mode", mode, path["structure"], good, path["witness"]],
            ["rank", path["rep"]],
            ["derive", path["rep"]],
            ["reduce", "--gadget", "gi", path["colored"]],
            ["reduce", "--gadget", "hom", path["simple"]],
            ["reduce", "--gadget", "digraph", path["structure"], "--with-counts-from", good],
        ]
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        try:
            for argv in calls:
                out, err = io.StringIO(), io.StringIO()
                signal.setitimer(signal.ITIMER_REAL, 5.0)
                try:
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = main(argv)
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                assert code in (0, 1, 2), argv
                if code == 2:
                    assert err.getvalue().startswith("error: "), argv
                    assert err.getvalue().count("\n") == 1, argv
        finally:
            signal.signal(signal.SIGALRM, previous)


def _two_cycles(p, q):
    """A graph file: cycles of p and q vertices, one edge from the first to
    the second; its structure file has p + q + lcm(p, q) + 2 lines."""
    lines = []
    for name, n, label, last in (("a", p, "a", "b"), ("c", q, "c", "d")):
        lines += ["edge %s%d %s%d %s" % (name, i, name, (i + 1) % n,
                                          last if i == n - 1 else label)
                  for i in range(n)]
    return "\n".join(lines + ["edge a0 c0 x"]) + "\n"


def _de_bruijn(n):
    """A binary de Bruijn word of order n (Fredricksen, Kessler and Maiorana):
    each word of length n occurs once around it, so determinizing a cycle
    that spells it from the set of all its vertices finds a state per word
    of length at most n, 2^17 - 1 for n = 16."""
    word, a = [], [0] * (n + 1)
    t, p = 1, 1
    while True:  # the lexicographically least necklaces in order
        if t > n:
            if n % p == 0:
                word += a[1:p + 1]
            t -= 1
            while t and a[t] == 1:
                t -= 1
            if not t:
                return "".join("ab"[x] for x in word)
            a[t] += 1
            p, t = t, t + 1
        else:
            a[t] = a[t - p]
            t += 1


# the address space each CLI child may take: both outputs that were built
# whole crashed under it, at about 565MB of RSS
AS_CAP = 600 * 2 ** 20


def _run_capped(argv, tmp_path):
    """Run `sofic2 argv` in a child that caps its own address space at
    AS_CAP, stdout discarded; (exit code, stderr, peak RSS in MB)."""
    import resource

    def cap():  # runs in the child only, after the fork
        resource.setrlimit(resource.RLIMIT_AS, (AS_CAP, AS_CAP))

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    child = subprocess.Popen([sys.executable, "-m", "sofic2"] + argv, env=env,
                             cwd=str(tmp_path), preexec_fn=cap,
                             stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    err = child.stderr.read().decode()
    child.stderr.close()
    _pid, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    return child.returncode, err, usage.ru_maxrss / 1024


@pytest.mark.slow
def test_cli_stays_within_an_address_space_cap(tmp_path):
    # the two inputs that crashed with a MemoryError traceback and exit 1,
    # which `decide` uses for NO, and one input past each size cap the CLI
    # reaches: synthesize, digraph gadget, forbidden words, determinization
    files = {
        "wide.sg": formats.format_structure(make_structure([(("a",), 2 ** 3000)])),
        "two_cycles.graph": _two_cycles(1999, 2003),
        "counts.sg": formats.format_structure(
            make_structure([(("p%03d" % i,), i + 2) for i in range(200)])),
        "wide.forbid": "alphabet 0 1 2 3 4 5 6 7 8 9\nforbid 0.1.2.3.4.5.6.7.8\n",
        "de_bruijn.rep": "term %s a c\n" % ".".join(_de_bruijn(16)),
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    cases = [(["synthesize", "wide.sg"], 2, "SizeLimitExceeded: synthesize needs"),
             (["structure", "two_cycles.graph"], 0, None),
             (["reduce", "--gadget", "digraph", "counts.sg"], 2,
              "SizeLimitExceeded: the digraph gadget needs"),
             (["structure", "wide.forbid"], 2, "SizeLimitExceeded: more than 100000"),
             (["structure", "de_bruijn.rep"], 2,
              "SizeLimitExceeded: determinization exceeded")]
    for argv, want, refusal in cases:
        code, err, peak_mb = _run_capped(argv, tmp_path)
        assert (code, "Traceback" in err) == (want, False), (argv, err[-2000:])
        if refusal:
            assert err.startswith("error: " + refusal) and err.count("\n") == 1, err
        else:
            # 4,008,001 lines written as they are made
            assert err == "" and peak_mb < 100, (argv, peak_mb)


def test_structure_file_written_line_by_line_is_format_structure(tmp_path, capsys):
    import hashlib
    from sofic2 import build_structure

    text = _two_cycles(499, 503)
    (tmp_path / "g.graph").write_text(text)
    want = formats.format_structure(build_structure(formats.parse_graph(text)))
    assert want.count("\n") == 499 + 503 + 499 * 503 + 2
    digest = hashlib.sha256(want.encode()).hexdigest()
    out = tmp_path / "g.sg"
    assert main(["structure", str(tmp_path / "g.graph"), "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    capsys.readouterr()
    assert main(["structure", str(tmp_path / "g.graph")]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
    # the empty graph's file is one blank line
    (tmp_path / "empty.graph").write_text("")
    assert main(["structure", str(tmp_path / "empty.graph"), "-o", str(out)]) == 0
    assert out.read_text() == "\n"
