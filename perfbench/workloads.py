"""The three workloads: inputs made from the seed, the op list of one pass,
and an independent check of every op's output.

Each setup function returns a `Fixture`: the ops of one pass, in a fixed
order drawn from the seed, and a few facts about the inputs for the report.
An op's `run` is what is timed; its `check` runs after the timed region and
returns None when the output is right, else a reason; its `emits` formats
the structure files of an output for the digest check.

Library functions are looked up on their module at call time (for example
`structure.build_structure`), so the tracer's wrappers take effect.
"""

import itertools
import random
from dataclasses import dataclass, field
from math import lcm
from typing import Callable, Optional

from sofic2 import core, decisions, formats, presentation, reductions, structure

import gens

CHAIN_KS = (128, 256, 512, 1024)
# Each synthesized input is the one closest in vertex count to its target
# among a fixed number of seeded candidates: a fixed draw count keeps the
# setup cost steady, and the closeness keeps the build cost steady.  Five
# inputs of about 400 vertices put the median op inside their group, so it
# averages over graphs and passes instead of resting on one build.
SYNTH_TARGETS = (400, 400, 400, 400, 400, 800)
SYNTH_CANDIDATES = 20

# The gadget pairs are the first GADGET_PAIRS pairs of a frozen stream (the
# pool and pair draws of the hom-correspondence acceptance criterion), not
# drawn from the seed.  Search cost per pair is heavy-tailed: over 40-graph
# pools of graphs with at most 6 vertices, single calls range from 30us to
# 4s, and the summed cost of a seeded pair sample spread 30-90% (quartile
# distance over median) from seed to seed, which no bound could absorb.  A
# fixed set keeps the tail, including a call of about 1s, identical in every
# run; the seed still draws the rank-1 pairs and the order of all ops.
GADGET_STREAM_SEED = 2027
GADGET_POOL = 40
GADGET_PAIRS = 60
GADGET_MODES = ((decisions.Mode.BLOCK_MAP, "hom"),
                (decisions.Mode.EMBEDDING, "edge_injective_hom"),
                (decisions.Mode.FACTOR, "compaction"))
RANK1_PAIRS_PER_SIZE = 20
DEEP_POINTS = 1200

PIPELINE_GRAPHS = 500
PIPELINE_REPS = 500


@dataclass
class Op:
    kind: str
    run: Callable
    check: Callable
    emits: Optional[Callable] = None


@dataclass
class Fixture:
    ops: list
    info: dict = field(default_factory=dict)


# -- build-large --------------------------------------------------------------


def renamed_structure(s):
    """The structure graph that `synthesize(s)` presents: orbit i of period
    m is respelled a{i}_0 ... a{i}_{m-1}, phases and counts unchanged."""
    index = {o: i for i, o in enumerate(s.orbits)}

    def ren(p):
        i = index[p.orbit]
        return core.PeriodicOrbit(tuple("a%d_%d" % (i, r)
                                        for r in range(p.period))).point(p.phase)

    return core.StructureGraph.make(
        [ren(o.point(0)).orbit for o in s.orbits],
        {(ren(a), ren(b)): c for ((a, b), c) in s.transitions})


def synthesized_vertices(s):
    """Vertex count of `synthesize(s)` worked out from its construction, so
    candidates can be compared without synthesizing each: a cycle per orbit,
    one more per orbit a gadget enters, and per transition class and set bit
    k of its aperiodic count a path of lcm * ceil((k + 2) / lcm) edges, lcm
    being the lcm of the two periods (the class has lcm member edges)."""
    entered = set()
    inner = 0.0
    for ((x, y), c) in s.transitions:
        aperiodic = c - 1 if x == y else c
        if aperiodic:
            entered.add(y.orbit)
        base = lcm(x.period, y.period)
        for k in range(aperiodic.bit_length()):
            if aperiodic >> k & 1:
                inner += (base * -(-(k + 2) // base) - 1) / base
    return (sum(o.period for o in s.orbits)
            + sum(o.period for o in entered) + round(inner))


def _synth_input(rng, target):
    best = None
    for _ in range(SYNTH_CANDIDATES):
        # about 40 vertices per orbit, so the drawn orbit count (uniform up
        # to target // 20) centres on the target
        s = gens.random_structure_graph(rng, max_orbits=target // 20,
                                        max_period=4, max_count=100)
        gap = abs(synthesized_vertices(s) - target)
        if best is None or gap < best[0]:
            best = (gap, s)
    return best[1], structure.synthesize(best[1])


def _build_op(kind, g, check):
    return Op(kind, lambda: structure.build_structure(g), check,
              emits=lambda s: [formats.format_structure(s)])


def setup_build_large(seed):
    ops = []
    p0, p3 = core.canonicalize_point("0"), core.canonicalize_point("3")
    for k in CHAIN_KS:
        def check(s, k=k):
            got = s.count(p0, p3)
            return None if got == 2 ** k else "chain k=%d counted %d" % (k, got)
        ops.append(_build_op("chain%d" % k, gens.chain_graph(k), check))
    rng = gens.sub_rng(seed, "synth")
    sizes = []
    for target in SYNTH_TARGETS:
        s, g = _synth_input(rng, target)
        want = renamed_structure(s)
        sizes.append("%dV/%dE" % (len(g.vertices), len(g.edges)))

        def check(b, want=want):
            return None if b == want else "synthesized build differs from input"
        ops.append(_build_op("synth%d" % target, g, check))
    return Fixture(ops, {"synthesized": sizes})


# -- decide-search ------------------------------------------------------------


def _gadget_stream():
    rng = random.Random(GADGET_STREAM_SEED)
    pool = [gens.random_simple_graph(rng, max_vertices=6) for _ in range(GADGET_POOL)]
    pairs = [(rng.randrange(GADGET_POOL), rng.randrange(GADGET_POOL))
             for _ in range(GADGET_PAIRS)]
    return pool, pairs


def _gadget_op(mode, kind, g, h, x, y, oracle_cache):
    def run():
        w = decisions.decide(mode, x, y)
        ok = w is None or decisions.verify_witness(mode, x, y, w)
        return w is not None, ok

    def check(out):
        yes, verified = out
        key = (id(g), id(h), kind)
        if key not in oracle_cache:
            oracle_cache[key] = reductions.brute_graph_oracle(kind, g, h)
        if yes != oracle_cache[key]:
            return "%s: decide says %s, oracle %s" % (kind, yes, oracle_cache[key])
        return None if verified else "witness rejected by verify_witness"
    return Op("gadget", run, check)


def rank1_flow(mode, x, y):
    """The CLI's `decide -w` flow on two structure graphs: the rank-1 fast
    path when both sides are rank 1, the general search for the witness on
    YES, then the independent witness check."""
    if decisions.is_rank_one(x) and decisions.is_rank_one(y):
        yes = decisions.rank1_decide(mode, x, y)
        w = decisions.decide(mode, x, y) if yes else None
    else:
        w = decisions.decide(mode, x, y)
        yes = w is not None
    if yes and w is None:
        return yes, False
    return yes, (not yes) or decisions.verify_witness(mode, x, y, w)


def _rank1_op(mode, x, y, kind="rank1"):
    ref = []

    def check(out):
        yes, verified = out
        if not ref:
            ref.append((decisions.decide(mode, x, y) is not None,
                        decisions.rank1_decide(mode, x, y)))
        general, fast = ref[0]
        if not (yes == general == fast):
            return "rank-1 %s: flow %s, decide %s, rank1_decide %s" % (
                mode.value, yes, general, fast)
        return None if verified else "witness rejected by verify_witness"
    return Op(kind, lambda: rank1_flow(mode, x, y), check)


def setup_decide_search(seed):
    pool, pairs = _gadget_stream()
    gadgets = [reductions.hom_gadget(g) for g in pool]
    oracle_cache = {}
    ops = []
    for (i, j) in pairs:
        for mode, kind in GADGET_MODES:
            ops.append(_gadget_op(mode, kind, pool[i], pool[j],
                                  gadgets[i], gadgets[j], oracle_cache))
    multisets = [m for k in range(1, 6)
                 for m in itertools.combinations_with_replacement(range(1, 7), k)]
    graphs = [gens.periods_structure(m, tag=i) for i, m in enumerate(multisets)]
    twins = []
    # Each rank-1 pair is a multiset of the grid against the same multiset
    # spelled in fresh symbols, so all four modes answer YES and every op
    # runs the whole flow.  Random pairs answer NO in 57-97% of calls per
    # mode within microseconds, which would put the median at the edge
    # between the NO and YES clusters and let it jump from seed to seed.
    # The cost of an op grows with the number of orbits and of points, so
    # the pairs are a systematic sample: the same number per multiset size,
    # evenly spaced over that size's multisets sorted by total period, from
    # a seeded starting offset.
    rng = gens.sub_rng(seed, "rank1")
    by_size = {}
    for i, m in enumerate(multisets):
        by_size.setdefault(len(m), []).append(i)
    for size in sorted(by_size):
        members = sorted(by_size[size], key=lambda i: (sum(multisets[i]), multisets[i]))
        step = len(members) / RANK1_PAIRS_PER_SIZE
        offset = rng.random() * step
        for k in range(RANK1_PAIRS_PER_SIZE):
            i = members[int(offset + k * step)]
            y = gens.periods_structure(multisets[i], tag=len(multisets) + len(twins))
            for mode in decisions.Mode:
                ops.append(_rank1_op(mode, graphs[i], y))
            twins.append(y)
    gens.sub_rng(seed, "order").shuffle(ops)
    # The deep pair's ops close every pass, in a fixed order: each leaves
    # about 100MB in reference cycles for the collector, so a fixed place
    # keeps the peak memory from depending on where the shuffle puts them.
    deep_x = gens.periods_structure([1] * DEEP_POINTS, tag=DEEP_POINTS)
    deep_y = gens.periods_structure([1] * DEEP_POINTS, tag=DEEP_POINTS + 1)
    for mode in decisions.Mode:
        ops.append(_rank1_op(mode, deep_x, deep_y, kind="deep"))
    for s in gadgets + graphs + twins + [deep_x, deep_y]:
        s.validate()
    return Fixture(ops)


# -- pipeline-small -----------------------------------------------------------


def _pipeline(text, is_rep):
    """Text to verified conjugacy witness, as the CLI chain would run it."""
    if is_rep:
        g = presentation.from_comb_rep(formats.parse_comb_rep(text))
    else:
        g = formats.parse_graph(text)
    s1 = structure.build_structure(g)
    sg_text = formats.format_structure(s1)
    s1r = formats.parse_structure(sg_text)
    s2 = structure.build_structure(structure.synthesize(s1r))
    w = decisions.decide(decisions.Mode.CONJUGACY, s1r, s2)
    ok = w is not None and decisions.verify_witness(
        decisions.Mode.CONJUGACY, s1r, s2, w)
    return g, s1, sg_text, s2, ok


def _pipeline_op(text, is_rep):
    ref = []

    def check(out):
        g, s1, sg_text, s2, ok = out
        if not ref:
            ref.append(structure.oracle_structure(g))
        if s1 != ref[0]:
            return "build_structure disagrees with oracle_structure"
        if s2 != renamed_structure(s1):
            return "synthesize round trip is not the renamed input"
        return None if ok else "conjugacy witness missing or rejected"
    return Op("rep" if is_rep else "graph", lambda: _pipeline(text, is_rep),
              check, emits=lambda out: [out[2], formats.format_structure(out[3])])


def setup_pipeline_small(seed):
    rng = gens.sub_rng(seed, "graphs")
    ops = []
    for _ in range(PIPELINE_GRAPHS):
        g = gens.random_certified_graph(rng, max_vertices=12)
        ops.append(_pipeline_op(formats.format_graph(g), False))
    # Arity is capped at 1: a term of arity 2 has rank 3, which
    # build_structure refuses, so it could not reach a witness.
    rng = gens.sub_rng(seed, "reps")
    for _ in range(PIPELINE_REPS):
        r = gens.random_comb_rep(rng, max_arity=1)
        ops.append(_pipeline_op(formats.format_comb_rep(r), True))
    gens.sub_rng(seed, "order").shuffle(ops)
    return Fixture(ops)


SETUP = {
    "build-large": setup_build_large,
    "decide-search": setup_decide_search,
    "pipeline-small": setup_pipeline_small,
}
