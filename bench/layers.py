"""Per-layer spans and counters for the traced benchmark runs.

The program has no tracing of its own, so `instrument` wraps the public
entry point of each layer (a module function or a class method) in the
running interpreter.  Every span records its self time: its duration minus
the time of the spans opened inside it, so nested calls into the same or
another layer are never counted twice.  Nothing in `src/` is changed and
the stdout of a wrapped program stays byte-identical.

`profile_layers` reads a cProfile run instead: call counts and self time of
every function defined in the scalar and linear-algebra modules.
"""

import functools
import importlib
import os
import sys
import time

# The modules that define or import (`from ... import`) a wrapped name.
MODULES = ("rootdata", "weylmod", "schur", "ulimit", "intspec", "cache",
           "cli")

# Each wrapped entry point and the span it records.  Several entry points
# can feed one span: all of them belong to that layer.
SPANS = (
    ("weylmod", None, "weyl_module", "weylmod.build"),
    ("rootdata", "RootDatum", "saturate", "rootdata.saturate"),
    ("ulimit", None, "probe_schedule", "rootdata.saturate"),
    ("rootdata", "RootDatum", "validate", "rootdata.validate"),
    ("rootdata", "CartanDatum", "validate", "rootdata.validate"),
    ("schur", "SchurAlgebra", "basis", "schur.closure"),
    ("schur", "SchurAlgebra", "verify_presentation", "schur.presentation"),
    ("schur", "TruncationMap", "verify", "schur.truncation"),
    ("schur", "SchurAlgebra", "evaluate_expr", "schur.evaluate"),
    ("intspec", None, "lattice_basis", "intspec.lattice"),
    ("intspec", "LatticeBasis", "check_integrality", "intspec.lattice"),
    ("intspec", "SpecializedSchur", "basis", "intspec.spec_closure"),
    ("intspec", "SpecializedSchur", "verify_relations", "intspec.relations"),
    ("intspec", "RTruncationMap", "verify", "intspec.truncation"),
    ("intspec", None, "kernel_probe_RU", "intspec.kernel_probe"),
    ("cache", None, "cache_store", "cache.store"),
    ("cache", None, "cache_load", "cache.load"),
)

# Modules whose functions the profiled pass sums, by metric prefix.
PROFILED = ("laurent", "linalg", "rings")


class Tracer:
    """Self time per span name and plain counters, kept in memory."""

    def __init__(self):
        self.self_s = {}
        self.counts = {}
        self.modules = {}     # (datum key, lam) -> (tensor path?, dim)
        self._stack = []      # [span name, time of its child spans]

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def innermost(self):
        return self._stack[-1][0] if self._stack else None

    def call(self, name, fn, *args, **kwargs):
        self._stack.append([name, 0.0])
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - t0
            _, children = self._stack.pop()
            self.self_s[name] = self.self_s.get(name, 0.0) + dur - children
            if self._stack:
                self._stack[-1][1] += dur

    def summary(self):
        """Spans (as `<name>_s`) and counters as one flat dict."""
        out = {name + "_s": secs for name, secs in self.self_s.items()}
        out.update(self.counts)
        built = self.modules.values()
        out["weylmod.modules"] = len(self.modules)
        out["weylmod.tensor_modules"] = sum(1 for tensor, _ in built if tensor)
        out["weylmod.max_dim"] = max((dim for _, dim in built), default=0)
        return out


def _set(owner, attr, new):
    """Replace owner.attr, and for a module function every
    `from module import attr` binding of it in the qschur modules."""
    old = getattr(owner, attr)
    setattr(owner, attr, new)
    if isinstance(owner, type):
        return
    for name in MODULES:
        other = sys.modules["qschur." + name]
        if getattr(other, attr, None) is old:
            setattr(other, attr, new)


def instrument(tracer):
    """Wrap every entry point in SPANS and the counted calls, in place."""
    mods = {name: importlib.import_module("qschur." + name)
            for name in MODULES}

    def wrap(owner, attr, span, after=None):
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            out = tracer.call(span, fn, *args, **kwargs)
            if after is not None:
                after(args, out)
            return out
        _set(owner, attr, wrapped)

    def built_module(args, mod):
        datum, lam = args
        tracer.modules.setdefault(
            (datum.key(), tuple(lam)),
            (isinstance(mod, mods["weylmod"].TensorModule), mod.dim))

    def closure_dim(counter):
        def after(args, basis):
            if id(args[0]) not in seen:     # algebras are memoized, so
                seen.add(id(args[0]))       # their ids are never reused
                tracer.count(counter, len(basis))
        seen = set()
        return after

    after = {
        "weylmod.build": built_module,
        "schur.closure": closure_dim("schur.closure_dim"),
        "intspec.spec_closure": closure_dim("intspec.realized_dim"),
    }
    for modname, clsname, attr, span in SPANS:
        owner = mods[modname]
        if clsname:
            owner = getattr(owner, clsname)
        wrap(owner, attr, span, after.get(span))

    def counted(owner, attr, counter, when=None):
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if when is None or tracer.innermost() == when:
                tracer.count(counter)
            return fn(*args, **kwargs)
        _set(owner, attr, wrapped)

    counted(mods["schur"].SchurElement, "__mul__", "schur.closure_products",
            when="schur.closure")
    counted(mods["ulimit"].LimitElement, "at", "ulimit.sets_tried")
    counted(mods["ulimit"], "separation_probe", "ulimit.probes")


def profile_layers(profile):
    """Calls and self seconds of the functions in each PROFILED module."""
    import pstats

    out = {}
    for prefix in PROFILED:
        out[prefix + ".calls"] = 0
        out[prefix + ".self_s"] = 0.0
    for (filename, _, _), row in pstats.Stats(profile).stats.items():
        parts = filename.replace(os.sep, "/").rsplit("/", 2)
        if len(parts) == 3 and parts[1] == "qschur" \
                and parts[2][:-3] in PROFILED:
            prefix = parts[2][:-3]
            out[prefix + ".calls"] += row[1]
            out[prefix + ".self_s"] += row[2]
    return out
