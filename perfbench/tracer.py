"""Spans around the layer functions of `knotweights`, recorded from outside.

`install` replaces each function named in LAYER_FUNCTIONS by a wrapper,
in every `knotweights` module that binds it (callers import functions by
name, so patching the defining module alone would miss most calls).  It
imports nothing itself: it wraps the modules the program has loaded.  A
function that no longer exists, or whose module the program no longer
loads, is skipped and listed in `absent`, so the metrics that depend on it
can be reported as absent instead of failing.

Each call records one span (name, parent, start, end) in flat arrays.  A
span's self time is its duration minus the durations of its direct
children; over all spans, including the root, self times add up to the
root's duration.
"""

import sys
import time
from array import array

# (module under knotweights, function name)
LAYER_FUNCTIONS = (
    ("enumerate", "enumerate_jacobi"),
    ("enumerate", "enumerate_bcr"),
    ("canon", "canonical_form"),
    ("jacobi", "class_of"),
    ("jacobi", "canonicalize"),
    ("vectors", "vector_of"),
    ("relations", "generate_relations"),
    ("quotient", "quotient_basis"),
    ("quotient", "splitting"),
    ("quotient", "project_pc"),
    ("quotient", "dims_table"),
    ("conway", "wc_eval"),
    ("conway", "wc_prime_eval"),
    ("bridge", "wbcr"),
    ("bridge", "_wbcr_table"),
    ("bridge", "verify_main"),
    ("pd", "parse_pd"),
    ("alexander", "alexander_poly"),
    ("alexander", "alexander_by_skein"),
    ("series", "exp_substitute"),
    ("series", "zbcr_series"),
    ("series", "conway_series"),
    ("cache", "load"),
    ("cli", "main"),
)

PACKAGE = "knotweights"
ROOT = "request"


class Tracer:
    def __init__(self):
        self.names = []
        self.ids = {}
        self.name_of = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.absent = []
        self.originals = {}

    def _wrap(self, fn, name, on_return=None):
        nid = self.ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        name_of, parent, start, end = (self.name_of, self.parent,
                                       self.start, self.end)
        stack = self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if on_return is not None:
                on_return(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, hooks=None):
        """Wrap LAYER_FUNCTIONS; hooks[name](result) sees each return value."""
        hooks = hooks or {}
        modules = [m for n, m in sys.modules.items()
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        wrappers = {}
        for mod_name, fn_name in LAYER_FUNCTIONS:
            name = f"{mod_name}.{fn_name}"
            module = sys.modules.get(f"{PACKAGE}.{mod_name}")
            fn = getattr(module, fn_name, None)
            if fn is None:
                self.absent.append(name)
                continue
            self.originals[name] = fn
            wrappers[id(fn)] = (fn, self._wrap(fn, name, hooks.get(name)))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def root(self, fn, *args):
        """Run fn(*args) under a root span."""
        return self._wrap(fn, ROOT)(*args)

    def summary(self):
        """Calls and self seconds per span name, and the roots' total time."""
        n = len(self.name_of)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        self_s = list(dur)
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                self_s[p] -= dur[i]
        calls = dict.fromkeys(self.names, 0)
        seconds = dict.fromkeys(self.names, 0.0)
        for i in range(n):
            name = self.names[self.name_of[i]]
            calls[name] += 1
            seconds[name] += self_s[i]
        root_s = sum(dur[i] for i in range(n) if self.parent[i] < 0)
        return {"calls": calls, "self_s": seconds, "root_s": root_s,
                "spans": n}

    def count_under(self, child, ancestor, direct=False):
        """Spans named `child` with an `ancestor` span above them (directly
        above them when `direct`)."""
        cid, aid = self.ids.get(child), self.ids.get(ancestor)
        if cid is None or aid is None:
            return 0
        count = 0
        for i in range(len(self.name_of)):
            if self.name_of[i] != cid:
                continue
            p = self.parent[i]
            while p >= 0:
                if self.name_of[p] == aid:
                    count += 1
                    break
                if direct:
                    break
                p = self.parent[p]
        return count
