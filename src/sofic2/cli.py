"""Command-line front end.

Subcommands: analyze, structure, oracle-structure, synthesize, decide, rank,
derive, reduce, verify.  Decision commands exit 0 for YES, 1 for NO; every
command exits 2 on malformed input, refused presentations or an exceeded
budget.  All outputs use canonical orderings and are byte-stable across
runs.
"""

from __future__ import annotations

import argparse
import sys

from . import formats
from .core import DEFAULT_BUDGET
from .decisions import Mode, decide, search, verify_witness
from .errors import ParseError, SoficError
from .presentation import (
    analyze,
    derivative_of_comb_rep,
    from_comb_rep,
    from_forbidden_words,
    rank_of_comb_rep,
)
from .reductions import digraph_count_table, digraph_gadget, gi_gadget, hom_gadget
from .structure import build_structure, oracle_structure, synthesize

def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        raise ParseError("%s is not UTF-8 text: %s" % (path, e.reason)) from None


def _emit(chunks, out_path):
    """Write the chunks of text, such as a file's lines, as they come: to
    out_path, or to stdout without one."""
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _load_graph_any(path):
    """GraphFile, or a forbidden-word / comb-rep file converted on the fly
    by extension (.forbid, .rep)."""
    text = _read(path)
    if path.endswith(".forbid"):
        alphabet, forbidden, symbol_map = formats.parse_forbidden(text)
        return from_forbidden_words(alphabet, forbidden, symbol_map)
    if path.endswith(".rep"):
        return from_comb_rep(formats.parse_comb_rep(text))
    return formats.parse_graph(text)


def _cmd_analyze(args):
    g = _load_graph_any(args.graph)
    rep = analyze(g)
    print("right-resolving: %s" % ("yes" if rep.is_right_resolving else "no"))
    print("essential: %s" % ("yes" if rep.is_essential else "no"))
    print("countable-certified: %s" % ("yes" if rep.is_countable_certified else "no"))
    print("rank: %s" % rep.rank)
    print("cycles: %d" % len(rep.cycles))
    for i, cyc in enumerate(rep.cycles):
        print("cycle %d: %s" % (i, " ".join(str(v) for v in cyc)))
    return 0


def _cmd_structure(args):
    g = _load_graph_any(args.graph)
    s = build_structure(g)
    _emit(formats.structure_lines(s), args.output)
    return 0


def _cmd_oracle_structure(args):
    g = _load_graph_any(args.graph)
    s = oracle_structure(g, args.budget)
    _emit(formats.structure_lines(s), args.output)
    return 0


def _cmd_synthesize(args):
    s = formats.parse_structure(_read(args.structure))
    _emit([formats.format_graph(synthesize(s))], args.output)
    return 0


def _cmd_decide(args):
    mode = Mode(args.mode)
    x = formats.parse_structure(_read(args.a))
    y = formats.parse_structure(_read(args.b))
    witness = (search if args.no_fastpath else decide)(mode, x, y, args.budget)
    if witness is None:
        print("NO")
        return 1
    if args.witness:  # written before the verdict, so a failed write prints none
        _emit([formats.format_witness(witness)], args.witness)
        print("YES")
    else:
        sys.stdout.write("YES\n" + formats.format_witness(witness))
    return 0


def _cmd_rank(args):
    r = formats.parse_comb_rep(_read(args.rep))
    print(rank_of_comb_rep(r))
    return 0


def _cmd_derive(args):
    r = formats.parse_comb_rep(_read(args.rep))
    _emit([formats.format_comb_rep(derivative_of_comb_rep(r))], args.output)
    return 0


def _cmd_reduce(args):
    if args.gadget == "gi":
        g = formats.parse_colored(_read(args.input))
        _emit(formats.structure_lines(gi_gadget(g)), args.output)
    elif args.gadget == "hom":
        g = formats.parse_simple(_read(args.input))
        _emit(formats.structure_lines(hom_gadget(g)), args.output)
    else:
        s = formats.parse_structure(_read(args.input))
        others = ([formats.parse_structure(_read(args.with_counts_from))]
                  if args.with_counts_from else [])
        table = digraph_count_table(s, *others)
        _emit([formats.format_digraph(digraph_gadget(s, table))], args.output)
    return 0


def _cmd_verify(args):
    mode = Mode(args.mode)
    x = formats.parse_structure(_read(args.a))
    y = formats.parse_structure(_read(args.b))
    h = formats.parse_witness(_read(args.witness))
    if verify_witness(mode, x, y, h):
        print("VALID")
        return 0
    print("INVALID")
    return 1


def build_parser():
    ap = argparse.ArgumentParser(
        prog="sofic2",
        description="Countable rank<=2 sofic shifts: structure graphs and "
                    "decision procedures.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="report presentation structure")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("structure", help="compute the structure graph")
    p.add_argument("graph")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_structure)

    p = sub.add_parser("oracle-structure",
                       help="structure graph by path enumeration")
    p.add_argument("graph")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_oracle_structure)

    p = sub.add_parser("synthesize", help="presentation from a structure graph")
    p.add_argument("structure")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_synthesize)

    p = sub.add_parser("decide", help="decide conj/hom/embed/factor")
    p.add_argument("--mode", choices=sorted(m.value for m in Mode),
                   required=True)
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("-w", "--witness", help="write the witness here on YES")
    p.add_argument("--no-fastpath", action="store_true",
                   help="force the general search on rank-1 inputs")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="most search nodes to take before giving up "
                        "(exit 2)")
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("rank", help="rank of a combinatorial representation")
    p.add_argument("rep")
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("derive", help="derivative of a representation")
    p.add_argument("rep")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_derive)

    p = sub.add_parser("reduce", help="emit a hardness gadget")
    p.add_argument("--gadget", choices=["gi", "hom", "digraph"], required=True)
    p.add_argument("input")
    p.add_argument("--with-counts-from",
                   help="second structure file fixing a shared count table "
                        "(digraph gadget only)")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("verify", help="independently re-check a witness")
    p.add_argument("--mode", choices=sorted(m.value for m in Mode),
                   required=True)
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("witness")
    p.set_defaults(func=_cmd_verify)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except SoficError as e:
        print("error: %s: %s" % (type(e).__name__, e), file=sys.stderr)
        return 2
    except OSError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
