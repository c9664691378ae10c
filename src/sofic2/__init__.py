"""Countable sofic shifts of Cantor-Bendixson rank at most 2: canonical
structure graphs, decision procedures, and hardness gadget generators."""

from .core import (
    CombRep,
    CombTerm,
    EventuallyPeriodicPoint,
    LabeledGraph,
    PeriodicOrbit,
    PeriodicPoint,
    StructureGraph,
    Word,
    canonicalize_config,
    canonicalize_point,
    comb_rep,
    primitive_root,
    word,
)
from .decisions import (
    Mode,
    SGHomomorphism,
    decide,
    is_rank_one,
    rank1_decide,
    realize_orbit_map,
    search,
    verify_witness,
)
from .presentation import (
    AnalysisReport,
    analyze,
    check_right_resolving,
    derivative_of_comb_rep,
    determinize,
    from_comb_rep,
    from_forbidden_words,
    is_right_resolving,
    minimize_right_resolving,
    rank_of_comb_rep,
    trim_essential,
)
from .reductions import (
    ColoredGraph,
    Digraph,
    SimpleGraph,
    brute_graph_oracle,
    digraph_count_table,
    digraph_gadget,
    digraph_isomorphic,
    gi_gadget,
    hom_gadget,
)
from .structure import build_structure, oracle_structure, synthesize
from . import errors, formats

__all__ = [
    "AnalysisReport", "ColoredGraph", "CombRep", "CombTerm", "Digraph",
    "EventuallyPeriodicPoint", "LabeledGraph", "Mode", "PeriodicOrbit",
    "PeriodicPoint", "SGHomomorphism", "SimpleGraph", "StructureGraph",
    "Word", "analyze",
    "brute_graph_oracle", "build_structure", "canonicalize_config",
    "canonicalize_point", "check_right_resolving", "comb_rep",
    "decide", "derivative_of_comb_rep", "determinize", "digraph_count_table",
    "digraph_gadget", "digraph_isomorphic", "errors", "formats",
    "from_comb_rep", "from_forbidden_words", "gi_gadget", "hom_gadget",
    "is_rank_one", "is_right_resolving", "minimize_right_resolving",
    "oracle_structure", "primitive_root", "rank1_decide", "rank_of_comb_rep",
    "realize_orbit_map", "search", "synthesize",
    "trim_essential", "verify_witness", "word",
]
