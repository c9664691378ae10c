"""Seeded end-to-end and per-layer benchmark of sofic2.

    python3 perfbench/run.py --workload build-large --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from its
`src/` directory and nowhere else.  One process runs one workload with one
client in a closed loop: whole passes over the workload's op list, each op
timed alone, until `--seconds` have passed.  Outputs are checked after the
timed region.  The last line of standard output is one JSON object:
`correct`, `attempted`, `failed` and `metrics`.

`--trace 0` reports the end-to-end metrics.  `--trace 1` runs one traced
setup, untraced passes for `--seconds`, then one traced pass, and reports the
per-layer metrics of the traced setup and pass, with the tracing overhead.
Spans and a full result record (with the run's stamp) are written under
`perfbench/out/`.  `--workload all` runs the three workloads one after
another, each in its own process.  `--record-digests` rewrites the
structure-file digests of the default seed from one pass, after an
intentional output change.
"""

import os
import sys

# String hashing is fixed, so set and dict layouts are the same in every run:
# with random hash seeds, the same chain build took from 47ms to 77ms in
# different processes.
if __name__ == "__main__" and os.environ.get("PYTHONHASHSEED") != "0":
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable, os.path.abspath(__file__)] + sys.argv[1:])

import time  # noqa: E402

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
DIGESTS = os.path.join(HERE, "digests.json")
DEFAULT_SEED = 1
WORKLOADS = ("build-large", "decide-search", "pipeline-small")
# setup_s is the median of repeated setups: at least SETUP_MIN_REPS, more
# while they total under SETUP_MIN_SECONDS, at most SETUP_MAX_REPS
SETUP_MIN_REPS, SETUP_MAX_REPS, SETUP_MIN_SECONDS = 5, 25, 2.0


def fail(msg):
    print("perfbench: %s" % msg, file=sys.stderr)
    sys.exit(2)


def import_library():
    if not os.path.isfile(os.path.join(SRC, "sofic2", "__init__.py")):
        fail("no sofic2 sources under %s; run from a source checkout" % SRC)
    sys.path[:0] = [SRC, HERE]
    import sofic2
    if os.path.dirname(os.path.abspath(sofic2.__file__)) != os.path.join(SRC, "sofic2"):
        fail("sofic2 imported from %s, not from this checkout" % sofic2.__file__)


# -- the timed loop ---------------------------------------------------------


def run_passes(ops, seconds, on_pass, tracer=None, max_passes=None):
    """Whole passes over the op list until their timed total reaches
    `seconds`.  Each pass's (output, error, seconds) rows go to `on_pass`
    after the pass, outside the timed region.  Returns per-pass wall times
    and, per pass, one (error class name or None, seconds) pair per op."""
    walls, passes = [], []
    clock = time.perf_counter
    while not passes or (sum(walls) < seconds
                         and (max_passes is None or len(passes) < max_passes)):
        rows = []
        p0 = clock()
        for op in ops:
            t = clock()
            try:
                if tracer is None:
                    out = op.run()
                else:
                    with tracer.span("bench.op." + op.kind):
                        out = op.run()
                err = None
            except Exception as e:  # every failure is counted, none dropped
                # keep the class name only: a traceback would keep every
                # frame of a deep recursion, and its locals, alive
                out, err = None, type(e).__name__
            rows.append((out, err, clock() - t))
        walls.append(clock() - p0)
        on_pass(rows)
        passes.append([(err, dt) for (_out, err, dt) in rows])
    return walls, passes


def file_digest(texts):
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


class Checker:
    """Independent output checks on every pass.  `failed` counts ops that
    raised or answered wrongly; `wrong` counts wrong answers and changed
    structure-file bytes."""

    def __init__(self, ops):
        self.ops = ops
        self.failed = self.wrong = 0
        self.problems = {}
        self.digests = [None] * len(ops)

    def note(self, key):
        self.problems[key] = self.problems.get(key, 0) + 1

    def check_pass(self, rows):
        for i, (op, (out, err, _dt)) in enumerate(zip(self.ops, rows)):
            if err is not None:
                self.failed += 1
                self.note("%s raised %s" % (op.kind, err))
                continue
            reason = op.check(out)
            if reason is None and op.emits is not None:
                d = file_digest(op.emits(out))
                if self.digests[i] is None:
                    self.digests[i] = d
                elif self.digests[i] != d:
                    reason = "structure files differ between passes"
            if reason is not None:
                self.failed += 1
                self.wrong += 1
                self.note("%s wrong: %s" % (op.kind, reason))

    def compare_recorded(self, workload):
        """Structure files of the default seed must match their recorded
        digests byte for byte."""
        if not any(op.emits for op in self.ops):
            return
        with open(DIGESTS) as fh:
            recorded = json.load(fh).get(workload)
        if recorded is None:
            self.wrong += 1
            self.note("no recorded digests for %s" % workload)
            return
        for i, (want, got) in enumerate(zip(recorded, self.digests)):
            if got is not None and want != got:
                self.wrong += 1
                self.note("structure file bytes changed (op %d)" % i)
        if len(recorded) != len(self.digests):
            self.wrong += 1
            self.note("op count differs from the recorded digests")


# -- statistics ---------------------------------------------------------------


def nearest_rank(sorted_vals, q):
    return sorted_vals[max(0, math.ceil(q * len(sorted_vals)) - 1)]


def latency_metrics(ops, passes, walls):
    samples = []
    ok = 0
    for rows in passes:
        for op, (err, dt) in zip(ops, rows):
            # a failed op counts as beyond every percentile
            samples.append((math.inf if err else dt, op.kind))
            ok += err is None
    samples.sort()
    vals = [s for (s, _k) in samples]
    n = len(vals)
    # the upper median: one measured sample, never a mean of two ops
    p50 = statistics.median_high(vals)
    p90 = nearest_rank(vals, 0.90)
    beyond90 = n - math.ceil(0.90 * n)
    kind50 = samples[n // 2][1]
    kind90 = samples[max(0, math.ceil(0.90 * n) - 1)][1]
    by_kind = {}
    for (dt, kind) in samples:
        by_kind.setdefault(kind, []).append(dt)
    return {
        "kind_median_ms": {k: statistics.median(v) * 1e3 for k, v in by_kind.items()},
        "n": n, "ops_per_s": ok / sum(walls),
        "p50_ms": p50 * 1e3, "p90_ms": p90 * 1e3, "beyond_p90": beyond90,
        "kind_p50": kind50, "kind_p90": kind90,
    }


def size_exponent(ops, passes):
    """Log-log slope of the median chain build time, smallest k to
    largest; None when the workload builds no chains."""
    times = {}
    for rows in passes:
        for op, (err, dt) in zip(ops, rows):
            if op.kind.startswith("chain") and err is None:
                times.setdefault(int(op.kind[5:]), []).append(dt)
    if len(times) < 2:
        return None
    lo, hi = min(times), max(times)
    return (math.log(statistics.median(times[hi]))
            - math.log(statistics.median(times[lo]))) / math.log(hi / lo)


# -- per-layer metrics --------------------------------------------------------


def _essential_vertex_count(g):
    """Vertices left after trimming, computed without library calls."""
    vs = set(g.vertices)
    while True:
        live = [(a, b) for (a, b, _s) in g.edges if a in vs and b in vs]
        keep = {a for (a, _b) in live} & {b for (_a, b) in live}
        if keep == vs:
            return len(vs)
        vs = keep


def observers(tracer):
    def minimize(args, result):
        with tracer.span("bench.observe"):
            if len(result.vertices) < _essential_vertex_count(args[0]):
                tracer.count("minimize.merged")

    def build(args, result):
        tracer.count("build.edges", len(args[0].edges))

    def decide(args, result):
        tracer.count("decide.returned")
        if result is not None:
            tracer.count("decide.yes")

    return {"presentation.minimize_right_resolving": minimize,
            "structure.build_structure": build,
            "decisions.decide": decide}


def layer_metrics(tracer, traced_wall, modules):
    """Per-layer metrics, name -> (value, unit), from the recorded spans;
    also the per-name (calls, self, total) stats and the largest self
    times."""
    stats, root, child = tracer.aggregate()
    names, name_ids, parents = tracer.names, tracer.name_ids, tracer.parents
    n = len(parents)
    build_id = tracer.name_id("structure.build_structure")
    in_build = bytearray(n)
    per_build = {"presentation.trim_essential": 0,
                 "presentation.check_right_resolving": 0}
    decide_by_op = {}
    for i in range(n):
        p = parents[i]
        if p >= 0 and (name_ids[p] == build_id or in_build[p]):
            in_build[i] = 1
        name = names[name_ids[i]]
        if in_build[i] and name in per_build:
            per_build[name] += 1
        if name == "decisions.decide":
            op = names[name_ids[root[i]]]
            acc = decide_by_op.setdefault(op, [0, 0.0])
            acc[0] += 1
            # self time of this span: its duration minus its children's
            acc[1] += (tracer.ends[i] - tracer.starts[i]) - child[i]

    def calls(name):
        return stats.get(name, (0, 0.0, 0.0))[0]

    def self_s(name):
        return stats.get(name, (0, 0.0, 0.0))[1]

    def ratio(a, b):
        return a / b if b else 0.0

    builds = calls("structure.build_structure")
    m = {}
    for name in ("core.LabeledGraph.make", "core.canonicalize_point",
                 "core.StructureGraph.validate",
                 "presentation.minimize_right_resolving",
                 "presentation._cycle_certificate",
                 "structure.TransferMatrix.apply"):
        m[name + ".calls"] = (calls(name), "count")
    for name in ("core.LabeledGraph.make", "core.canonicalize_point",
                 "core.StructureGraph.validate",
                 "presentation.minimize_right_resolving",
                 "presentation._cycle_certificate",
                 "presentation.trim_essential",
                 "presentation.check_right_resolving",
                 "presentation.analyze", "presentation.determinize",
                 "presentation.from_comb_rep", "structure.build_structure",
                 "structure.TransferMatrix.apply", "structure.synthesize",
                 "decisions.rank1_decide", "decisions.is_rank_one",
                 "decisions.verify_witness", "reductions.hom_gadget",
                 "formats.parse_graph", "formats.parse_comb_rep",
                 "formats.format_structure", "formats.parse_structure"):
        m[name + ".self_s"] = (self_s(name), "s")
    m["presentation.minimize_right_resolving.useful_ratio"] = (
        ratio(tracer.counters.get("minimize.merged", 0),
              calls("presentation.minimize_right_resolving")), "ratio")
    for name, k in per_build.items():
        m[name + ".calls_per_build"] = (ratio(k, builds), "count")
    m["structure.build_structure.self_us_per_edge"] = (
        ratio(self_s("structure.build_structure") * 1e6,
              tracer.counters.get("build.edges", 0)), "us")
    gadget = decide_by_op.get("bench.op.gadget", (0, 0.0))
    rank1 = decide_by_op.get("bench.op.rank1", (0, 0.0))
    m["decisions.decide.gadget.self_s"] = (gadget[1], "s")
    m["decisions.decide.rank1.self_us_per_call"] = (
        ratio(rank1[1] * 1e6, rank1[0]), "us")
    m["decisions.decide.yes_ratio"] = (
        ratio(tracer.counters.get("decide.yes", 0),
              tracer.counters.get("decide.returned", 0)), "ratio")
    for mod in modules:
        total = sum(st[1] for (name, st) in stats.items()
                    if name.split(".", 1)[0] == mod)
        m[mod + ".self_s"] = (total, "s")
        m[mod + ".share"] = (ratio(total, traced_wall), "ratio")
    top = sorted(((st[1], name) for (name, st) in stats.items()), reverse=True)
    return m, stats, top[:8]


# -- stamping and output ----------------------------------------------------


def commit_id():
    """HEAD of the checkout read from .git, or None outside a git clone."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "sofic2")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def stamp(args):
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "hash_seed": os.environ.get("PYTHONHASHSEED"), "commit": commit_id(),
        "src_sha256": source_digest(),
    }


def emit(args, record, correct, attempted, failed, metrics, samples):
    """Human-readable lines, the record file, then the JSON result line."""
    for name, (value, unit) in metrics.items():
        print("%-52s %14.6g %-6s n=%s" % (name, value, unit, samples.get(name, "")))
    os.makedirs(OUT, exist_ok=True)
    record.update({"correct": correct, "attempted": attempted, "failed": failed,
                   "metrics": {k: {"value": v, "unit": u, "samples": samples.get(k)}
                               for k, (v, u) in metrics.items()}})
    path = os.path.join(OUT, "result-%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))


def report_checks(failed, wrong, problems):
    for key, n in sorted(problems.items()):
        print("check: %-60s x%d" % (key, n))
    print("check: %d failed (%d wrong answers)" % (failed, wrong))


# -- entry points -------------------------------------------------------------


def run_untraced(args, workloads):
    import_s = time.perf_counter() - _T0
    setup = workloads.SETUP[args.workload]
    reps = []
    while len(reps) < SETUP_MIN_REPS or (sum(reps) < SETUP_MIN_SECONDS
                                         and len(reps) < SETUP_MAX_REPS):
        t = time.perf_counter()
        fx = setup(args.seed)
        reps.append(time.perf_counter() - t)
    checker = Checker(fx.ops)
    walls, passes = run_passes(fx.ops, args.seconds, checker.check_pass)
    lat = latency_metrics(fx.ops, passes, walls)
    if args.seed == DEFAULT_SEED:
        checker.compare_recorded(args.workload)
    failed, wrong, problems = checker.failed, checker.wrong, checker.problems
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run_stamp = stamp(args)
    record = dict(run_stamp)
    record.update({"passes": len(passes), "pass_walls_s": walls, "ops_per_pass": len(fx.ops),
                   "setup_reps_s": reps, "import_s": import_s,
                   "fixture": fx.info, "kind_median_ms": lat["kind_median_ms"],
                   "p50_kind": lat["kind_p50"],
                   "p90_kind": lat["kind_p90"], "problems": problems})
    print("stamp: %s" % json.dumps(run_stamp, sort_keys=True))
    print("passes: %d x %d ops; %s" % (len(passes), len(fx.ops), fx.info))
    report_checks(failed, wrong, problems)
    n = lat["n"]
    metrics = {
        "ops_per_s": (lat["ops_per_s"], "1/s"),
        "op_p50_ms": (lat["p50_ms"], "ms"),
        "setup_s": (import_s + statistics.median(reps), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    samples = {"ops_per_s": n, "op_p50_ms": n, "setup_s": len(reps),
               "peak_rss_mb": 1}
    # Reported, but not gated: fail_ratio is 0 on most workloads, p90 needs
    # ten samples beyond it, and the size exponent exists only for chains.
    extra = {"fail_ratio": failed / n}
    if lat["beyond_p90"] >= 10:
        extra["op_p90_ms"] = lat["p90_ms"]
    exp = size_exponent(fx.ops, passes)
    if exp is not None:
        extra["build_size_exponent"] = exp
    record["ungated"] = extra
    for k, v in extra.items():
        print("%-52s %14.6g (not gated)" % (k, v))
    print("p50 sample is a %s op, p90 sample a %s op (%d beyond p90)"
          % (lat["kind_p50"], lat["kind_p90"], lat["beyond_p90"]))
    emit(args, record, wrong == 0, n, failed, metrics, samples)


def run_traced(args, workloads, tracing):
    tracer = tracing.Tracer()
    obs = observers(tracer)
    tracer.install(obs)
    t = time.perf_counter()
    with tracer.span("bench.setup"):
        fx = workloads.SETUP[args.workload](args.seed)
    setup_wall = time.perf_counter() - t
    tracer.uninstall()
    checker = Checker(fx.ops)
    walls, passes = run_passes(fx.ops, args.seconds, checker.check_pass)
    traced_rows = []
    tracer.install(obs)
    twalls, tpasses = run_passes(fx.ops, 0, traced_rows.append, tracer=tracer,
                                 max_passes=1)
    tracer.uninstall()
    checker.check_pass(traced_rows[0])  # untraced, so checks add no spans
    if args.seed == DEFAULT_SEED:
        checker.compare_recorded(args.workload)
    failed, wrong, problems = checker.failed, checker.wrong, checker.problems
    metrics, stats, top = layer_metrics(tracer, setup_wall + twalls[0],
                                        tracing.MODULES)
    metrics["trace.overhead_ratio"] = (twalls[0] / statistics.median(walls), "ratio")
    exp = size_exponent(fx.ops, passes)
    metrics["build_size_exponent"] = (exp if exp is not None else 0.0, "ratio")
    samples = {k: stats.get(k.rsplit(".", 1)[0], (None,))[0] for k in metrics}
    samples["trace.overhead_ratio"] = len(walls)
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, "spans-%s-seed%d.tsv" % (args.workload, args.seed)))
    run_stamp = stamp(args)
    record = dict(run_stamp)
    record.update({"untraced_passes": len(walls), "ops_per_pass": len(fx.ops),
                   "traced_setup_s": setup_wall, "traced_pass_s": twalls[0],
                   "spans": len(tracer.parents), "problems": problems,
                   "top_self_s": top})
    print("stamp: %s" % json.dumps(run_stamp, sort_keys=True))
    print("traced: setup %.3fs + one pass %.3fs, %d spans; untraced passes %d"
          % (setup_wall, twalls[0], len(tracer.parents), len(walls)))
    for s, name in top:
        print("top self time: %-48s %.4fs" % (name, s))
    report_checks(failed, wrong, problems)
    n = sum(len(rows) for rows in passes + tpasses)
    emit(args, record, wrong == 0, n, failed, metrics, samples)


def run_all(args):
    """Each workload in its own fresh process, one after another; their
    lines are relayed, and the last line merges their results, with metric
    names prefixed by the workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", w,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            fail("workload %s exited with %d" % (w, child.returncode))
        print("== %s" % w)
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            merged["metrics"]["%s.%s" % (w, name)] = value
    print(json.dumps(merged))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    import_library()
    import workloads
    import tracing
    if args.record_digests:
        return record_digests(args, workloads)
    if args.trace:
        run_traced(args, workloads, tracing)
    else:
        run_untraced(args, workloads)
    return 0


def record_digests(args, workloads):
    fx = workloads.SETUP[args.workload](DEFAULT_SEED)
    checker = Checker(fx.ops)
    run_passes(fx.ops, 0, checker.check_pass, max_passes=1)
    if checker.failed:
        fail("refusing to record digests: %s" % checker.problems)
    digests = checker.digests
    data = {}
    if os.path.exists(DIGESTS):
        with open(DIGESTS) as fh:
            data = json.load(fh)
    data["seed"] = DEFAULT_SEED
    data[args.workload] = digests
    with open(DIGESTS, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("recorded %d digests for %s" % (len(digests), args.workload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
