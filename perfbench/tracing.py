"""Span tracing of the library's layers, installed from outside the library.

`Tracer.install` replaces every public function of the traced modules, the
private `presentation._cycle_certificate` (which `structure` imports across
the module boundary) and the constructors and bulk methods of their classes
with wrappers that record one span per call: name, parent span, start and
end.  The wrapper is also bound under every name that another `sofic2`
module imported, so calls made inside the library are recorded too.
`uninstall` puts the original objects back.

Spans stay in memory (flat arrays) until `write`.  A span's self time is its
duration minus the durations of its child spans; calls to untraced helpers
count towards the self time of the nearest traced caller.  Per-element
accessors (`PeriodicPoint.shift`, `StructureGraph.count`, ...) are left
untraced on purpose: they run millions of times and would cost more to
record than they take.
"""

import csv
import sys
import time
from array import array

MODULES = ("core", "presentation", "structure", "decisions", "reductions",
           "formats")
PRIVATE = {"presentation": ("_cycle_certificate",)}
# Plain methods traced besides every classmethod; all do work proportional
# to the size of their object.
METHODS = ("validate", "apply", "junction", "neighbors")


class Tracer:
    def __init__(self):
        self.names = []
        self._name_id = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self._undo = []
        # counters filled by observers, e.g. input edge counts
        self.counters = {}

    # -- recording ---------------------------------------------------------

    def name_id(self, name):
        """Id of a span name, or -1 when no span of that name was opened."""
        return self._name_id.get(name, -1)

    def _nid(self, name):
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name):
        sid = len(self.parents)
        self.name_ids.append(self._nid(name))
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(sid)
        self.starts.append(time.perf_counter())
        return sid

    def close(self, sid):
        self.ends[sid] = time.perf_counter()
        self._stack.pop()

    def span(self, name):
        return _Span(self, name)

    def count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    def wrap(self, name, fn, observe=None):
        open_, close = self.open, self.close

        def traced(*args, **kwargs):
            sid = open_(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(sid)
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- installation ------------------------------------------------------

    def install(self, observers=None):
        """Wrap the traced callables; `observers` maps a span name to a
        function (args, result) called after each successful call."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        observers = observers or {}
        loaded = [m for (k, m) in sorted(sys.modules.items())
                  if (k == "sofic2" or k.startswith("sofic2.")) and m is not None]
        replace = {}
        for short in MODULES:
            mod = sys.modules["sofic2." + short]
            for attr, obj in sorted(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                public = not attr.startswith("_")
                if callable(obj) and not isinstance(obj, type) and \
                        (public or attr in PRIVATE.get(short, ())):
                    name = "%s.%s" % (short, attr)
                    replace[id(obj)] = (obj, self.wrap(name, obj, observers.get(name)))
                elif isinstance(obj, type) and public:
                    self._wrap_class(short, obj, observers)
        for mod in loaded:
            for attr, obj in list(vars(mod).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._undo.append((mod, attr, obj))

    def _wrap_class(self, short, cls, observers):
        for attr, raw in sorted(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = "%s.%s.%s" % (short, cls.__name__, attr)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(name, raw.__func__,
                                                observers.get(name)))
            elif attr in METHODS and callable(raw):
                wrapped = self.wrap(name, raw, observers.get(name))
            else:
                continue
            setattr(cls, attr, wrapped)
            self._undo.append((cls, attr, raw))

    def uninstall(self):
        for (owner, attr, obj) in reversed(self._undo):
            setattr(owner, attr, obj)
        self._undo = []

    # -- analysis ----------------------------------------------------------

    def aggregate(self):
        """Per span name: calls, self seconds and total seconds; plus, per
        span, the name of its root span (the operation that caused it)."""
        n = len(self.parents)
        child = array("d", bytes(8 * n))
        root = array("i", bytes(4 * n))
        for i in range(n):
            p = self.parents[i]
            root[i] = i if p < 0 else root[p]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        stats = {}
        for i in range(n):
            name = self.names[self.name_ids[i]]
            dur = self.ends[i] - self.starts[i]
            st = stats.setdefault(name, [0, 0.0, 0.0])
            st[0] += 1
            st[1] += dur - child[i]
            st[2] += dur
        return stats, root, child

    def write(self, path):
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh, delimiter="\t")
            out.writerow(("id", "parent", "name", "start_s", "end_s"))
            t0 = self.starts[0] if len(self.starts) else 0.0
            for i in range(len(self.parents)):
                out.writerow((i, self.parents[i], self.names[self.name_ids[i]],
                              "%.9f" % (self.starts[i] - t0),
                              "%.9f" % (self.ends[i] - t0)))


class _Span:
    def __init__(self, tracer, name):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.sid = self.tracer.open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer.close(self.sid)
        return False
