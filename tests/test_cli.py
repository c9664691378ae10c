"""Command-line interface: exit codes, outputs, witness files."""

import pytest

from sofic2 import formats
from sofic2.cli import main

from conftest import FIG1_TERMS, chain_graph, make_structure, rename_structure


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


def test_oracle_structure_budget(tmp_path, capsys):
    gpath = tmp_path / "chain.graph"
    gpath.write_text(formats.format_graph(chain_graph(10)))
    assert main(["oracle-structure", str(gpath), "--budget", "2048"]) == 0
    assert "count=1024" in capsys.readouterr().out
    assert main(["oracle-structure", str(gpath), "--budget", "100"]) == 2


def test_oracle_budget_env(tmp_path, capsys, monkeypatch):
    gpath = tmp_path / "chain.graph"
    gpath.write_text(formats.format_graph(chain_graph(10)))
    monkeypatch.setenv("SOFIC2_PATH_BUDGET", "100")
    assert main(["oracle-structure", str(gpath)]) == 2
    monkeypatch.setenv("SOFIC2_PATH_BUDGET", "5000")
    assert main(["oracle-structure", str(gpath)]) == 0
    capsys.readouterr()


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


def test_verify_rejects_phase_outside_period(tmp_path, capsys):
    a = tmp_path / "a.sg"
    a.write_text(formats.format_structure(make_structure([("a", 1)])))
    w = tmp_path / "w.txt"
    w.write_text("map a:5 a:-3\n")
    assert main(["verify", "--mode", "conj", str(a), str(a), str(w)]) == 2
    err = _one_error_line(capsys)
    assert "ParseError" in err and "phase 5 outside period 1" in err


def test_decide_no_case(tmp_path, capsys):
    a = tmp_path / "a.sg"
    b = tmp_path / "b.sg"
    a.write_text(formats.format_structure(make_structure([("a", 3)])))
    b.write_text(formats.format_structure(make_structure([("a", 2)])))
    assert main(["decide", "--mode", "embed", str(a), str(b)]) == 1
    assert capsys.readouterr().out.strip() == "NO"
    assert main(["decide", "--mode", "factor", str(a), str(b)]) == 0


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


def test_directory_argument_is_an_error(tmp_path, capsys):
    assert main(["structure", str(tmp_path)]) == 2
    assert str(tmp_path) in _one_error_line(capsys)


def test_non_utf8_file_is_an_error(tmp_path, capsys):
    p = tmp_path / "latin1.graph"
    p.write_bytes(b"edge v v \xe9\n")
    assert main(["structure", str(p)]) == 2
    err = _one_error_line(capsys)
    assert "ParseError" in err and "latin1.graph" in err


def test_bad_budget_env_is_an_error(tmp_path, capsys, monkeypatch):
    gpath = tmp_path / "chain.graph"
    gpath.write_text(formats.format_graph(chain_graph(3)))
    monkeypatch.setenv("SOFIC2_PATH_BUDGET", "lots")
    assert main(["oracle-structure", str(gpath)]) == 2
    err = _one_error_line(capsys)
    assert "SOFIC2_PATH_BUDGET" in err and "'lots'" in err


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
