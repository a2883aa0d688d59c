"""Span tracer that wraps the layers of ``frescos`` from the outside.

``install`` replaces each layer's public functions, and the listed
methods of its classes, with wrappers that record one span per call:
its id, the id of the span that caused it, a name, start and end in
nanoseconds and the index of the report it served.  A function name is
rebound in every ``frescos`` module that imported it, so calls through
``from .x import f`` are seen too.  Spans stay in memory until the run
ends; ``Tracer.write`` stores them and ``Tracer.profile`` turns them
into per-name calls and self time, where self time is a span's
duration minus the durations of its children.

A few spans carry a hook that counts work after the call returns.  The
hook runs outside the span and is recorded as a sibling span named
``trace.hook``, so no layer's self time includes it.
"""

import array
import bisect
import functools
import importlib
import inspect
import json
import sys
from time import perf_counter_ns

LAYERS = ("series", "algebra", "fresco", "alpha", "oracle", "xi", "dsl", "cli")

# Scalar helpers called tens of thousands of times per report; a span
# each would cost more than the work it measures.
SKIP = {
    "series": {"rat", "rat_str", "format_series"},
    "algebra": {"format_ab"},
}

# The cli layer is traced as one span around main: argparse, report
# assembly and rendering are its self time.
ONLY = {"cli": {"main"}}

METHODS = {
    "series": {"SeriesB": ("__add__", "__sub__", "__neg__", "__mul__",
                           "__rmul__", "invert", "derive", "shift",
                           "truncate")},
    "algebra": {"AbElement": ("__add__", "__sub__", "__neg__")},
    "fresco": {"AdaptedModel": ("__init__", "apply_a", "apply_b",
                                "apply_op")},
    "oracle": {"TruncatedRep": ("apply_a", "apply_b", "embed")},
    "xi": {"XiExpansion": ("__add__", "__sub__", "scale", "apply_a",
                           "apply_b"),
           "XiSpan": ("reduce",)},
}

RENAME = {
    "series.SeriesB.__mul__": "series.mul",
    "series.SeriesB.__rmul__": "series.mul",
    "series.SeriesB.invert": "series.invert",
    "series.SeriesB.__add__": "series.addsub",
    "series.SeriesB.__sub__": "series.addsub",
    "series.SeriesB.__neg__": "series.addsub",
    "fresco.AdaptedModel.__init__": "fresco.adapted_model",
    "fresco.AdaptedModel.apply_a": "fresco.apply_a",
    "alpha.alpha_reduce_step": "alpha.reduce_step",
    "alpha.subtheme_class": "alpha.theme_classes",
    "alpha.quotient_theme_class": "alpha.theme_classes",
    "xi.xi_generate_module": "xi.generate_module",
    "xi.xi_log_filtration": "xi.log_filtration",
    "dsl.parse_dsl": "dsl.parse",
    "dsl.parse_fresco": "dsl.parse",
    "dsl.parse_xi": "dsl.parse",
    "dsl.parse_series": "dsl.parse",
    "dsl.from_json": "dsl.parse",
    "cli.main": "cli",
}

HOOK = "trace.hook"


def _mul_pairs(tracer, args, kwargs, out):
    """Products a_i b_j the series kernel forms: both nonzero, i + j <= n."""
    if out is NotImplemented:
        return
    x, y = args[0], args[1]
    n = out.order
    if type(y) is not type(x):
        tracer.count("series.mul.coeff_pairs", n + 1)
        return
    jb = [j for j, c in enumerate(y.coeffs[: n + 1]) if c]
    tracer.count("series.mul.coeff_pairs", sum(
        bisect.bisect_right(jb, n - i)
        for i, c in enumerate(x.coeffs[: n + 1]) if c))


def _reduce_key(tracer, args, kwargs, out):
    tracer.distinct.add((args, tuple(sorted(kwargs.items()))))


def _closure_pivots(tracer, args, kwargs, out):
    tracer.count("oracle.span_closure.pivots", len(out.pivots))


def _generate_yield(tracer, args, kwargs, out):
    # every pivot row enqueued both of its images; the source and each
    # nonzero image went through one insertion attempt.  The images are
    # taken with the unwrapped methods, so the hook adds no spans.
    cls = type(out.source)
    apply_a = getattr(cls.apply_a, "__wrapped__", cls.apply_a)
    apply_b = getattr(cls.apply_b, "__wrapped__", cls.apply_b)
    tried = 1
    for row in out.rows.values():
        tried += (not apply_a(row).is_zero()) + (not apply_b(row).is_zero())
    tracer.count("xi.generate_module.pivots", len(out.rows))
    tracer.count("xi.generate_module.inserted", tried)


HOOKS = {
    "series.mul": _mul_pairs,
    "oracle.span_closure": _closure_pivots,
    "xi.generate_module": _generate_yield,
    "alpha.reduce_step": _reduce_key,
}


class Tracer:
    """In-memory spans plus the counters the hooks keep."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.sid = array.array("q")
        self.parent = array.array("q")
        self.name = array.array("i")
        self.start = array.array("q")
        self.end = array.array("q")
        self.report = array.array("i")
        self.stack = []
        self.open_names = []
        self.next_id = 0
        self.report_index = -1
        self.counters = {}
        self.distinct = set()
        self._saved = []

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key, n):
        self.counters[key] = self.counters.get(key, 0) + n

    def begin_report(self, index):
        self.report_index = index

    def end_report(self):
        # repeated reductions are counted within one report: a later
        # report is a different input
        self.count("alpha.reduce_step.distinct", len(self.distinct))
        self.distinct.clear()

    def _record(self, sid, parent, nid, t0, t1):
        self.sid.append(sid)
        self.parent.append(parent)
        self.name.append(nid)
        self.start.append(t0)
        self.end.append(t1)
        self.report.append(self.report_index)

    def wrap(self, fn, name):
        nid = self.name_id(name)
        hook = HOOKS.get(name)
        hook_id = self.name_id(HOOK)
        stack = self.stack
        open_names = self.open_names

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            sid = self.next_id
            self.next_id += 1
            stack.append(sid)
            open_names.append(nid)
            t0 = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                open_names.pop()
                self._record(sid, parent, nid, t0, t1)
            if hook is not None:
                hook(self, args, kwargs, out)
                hid = self.next_id
                self.next_id += 1
                self._record(hid, parent, hook_id, t1, perf_counter_ns())
            return out

        return traced

    def install(self):
        """Wrap every traced callable; ``frescos`` must be imported."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "frescos" or k.startswith("frescos."))]
        for layer in LAYERS:
            mod = importlib.import_module("frescos." + layer)
            for fname, obj in list(vars(mod).items()):
                if not _traced_function(mod, layer, fname, obj):
                    continue
                label = "%s.%s" % (layer, fname)
                wrapper = self.wrap(obj, RENAME.get(label, label))
                for m in modules:
                    if vars(m).get(fname) is obj:
                        self._saved.append((m, fname, obj))
                        setattr(m, fname, wrapper)
            for cname, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cname)
                for meth in methods:
                    obj = cls.__dict__[meth]
                    label = "%s.%s.%s" % (layer, cname, meth)
                    self._saved.append((cls, meth, obj))
                    setattr(cls, meth, self.wrap(obj, RENAME.get(label, label)))
        self._count_closure_inserts()

    def _count_closure_inserts(self):
        # span_closure builds its span with the private echelon; count
        # the vectors offered to it while span_closure is the open span
        import frescos.oracle as oracle
        cls = oracle._Echelon
        insert = cls.__dict__["insert"]
        closure = self.name_id("oracle.span_closure")
        open_names = self.open_names

        @functools.wraps(insert)
        def counted(ech, vec):
            if open_names and open_names[-1] == closure:
                self.count("oracle.span_closure.inserted", 1)
            return insert(ech, vec)

        self._saved.append((cls, "insert", insert))
        cls.insert = counted

    def uninstall(self):
        for owner, attr, obj in reversed(self._saved):
            setattr(owner, attr, obj)
        self._saved.clear()

    # --- reading the spans ---

    def profile(self):
        """Per-name calls and self nanoseconds, plus the root total."""
        cover = {}
        for i in range(len(self.sid)):
            p = self.parent[i]
            if p >= 0:
                cover[p] = cover.get(p, 0) + self.end[i] - self.start[i]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        root_ns = 0
        for i in range(len(self.sid)):
            dur = self.end[i] - self.start[i]
            n = self.name[i]
            calls[n] += 1
            self_ns[n] += dur - cover.get(self.sid[i], 0)
            if self.parent[i] < 0:
                root_ns += dur
        return ({name: (calls[k], self_ns[k]) for k, name in enumerate(self.names)},
                root_ns)

    def write(self, path):
        """Spans as JSON header line plus one line per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names,
                                 "fields": ["id", "parent", "name", "start_ns",
                                            "end_ns", "report"]}) + "\n")
            for row in zip(self.sid, self.parent, self.name, self.start,
                           self.end, self.report):
                fh.write("%d %d %d %d %d %d\n" % row)


def _traced_function(mod, layer, fname, obj):
    if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
        return False
    if fname.startswith("_") or fname in SKIP.get(layer, ()):
        return False
    return fname in ONLY.get(layer, (fname,))
