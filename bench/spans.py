"""Spans around the package's public functions, recorded from outside.

Tracing patches module attributes: every public function of the traced
modules is replaced, at every import site, by one wrapper that records a
span ``[id, parent id, name, start, end, raised]``.  ``cli.capital_phi``
and ``oracle.capital_phi`` are separate bindings of one function, so both
are patched and both report as ``oracle.capital_phi``: a span is named
after the module that defines the function.  The ring operations
``__add__``/``__mul__`` of ``BaseScalar``, ``FloorElement`` and
``DualElement`` are counted but not timed; a call that returns
``NotImplemented`` is not counted, so each product or sum counts once.  Spans stay in memory until
``restore`` and are written out by ``write``.
"""

from __future__ import annotations

import contextlib
import json
import time
import types
from collections import Counter, defaultdict

TRACED_MODULES = ("base", "extension", "series", "invariants", "plfun",
                  "oracle", "copolygon", "tower", "cli")

# (module, class, add counter, mul counter); __radd__/__rmul__ count too
COUNTED_CLASSES = (
    ("base", "BaseScalar", "base.add", "base.mul"),
    ("extension", "FloorElement", "extension.floor_add", "extension.floor_mul"),
    ("oracle", "DualElement", "oracle.dual_add", "oracle.dual_mul"),
)

ID, PARENT, NAME, START, END, RAISED = range(6)


class Tracer:
    def __init__(self, ramify, observe=None):
        """``observe`` maps a span name to f(result) -> (counter, amount)."""
        self.ramify = ramify
        self.observe = observe or {}
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self._undo = []

    # -- installing -----------------------------------------------------

    def install(self):
        wrappers = {}
        mods = [self.ramify] + [getattr(self.ramify, m) for m in TRACED_MODULES]
        for mod in mods:
            for attr, fn in list(vars(mod).items()):
                if not (isinstance(fn, types.FunctionType)
                        and fn.__module__.startswith("ramify.")
                        and not fn.__name__.startswith("_")):
                    continue
                if fn not in wrappers:
                    name = "%s.%s" % (fn.__module__.split(".")[-1], fn.__name__)
                    wrappers[fn] = self._wrap(name, fn)
                self._patch(mod, attr, wrappers[fn])
        for mod_name, cls_name, add_key, mul_key in COUNTED_CLASSES:
            cls = getattr(getattr(self.ramify, mod_name), cls_name)
            for dunder, key in (("__add__", add_key), ("__radd__", add_key),
                                ("__mul__", mul_key), ("__rmul__", mul_key)):
                self._patch(cls, dunder, self._count(key, vars(cls)[dunder]))

    def restore(self):
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo = []

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _wrap(self, name, fn):
        observe = self.observe.get(name)

        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                key, amount = observe(result)
                self.counts[key] += amount
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def _count(self, key, fn):
        counts = self.counts

        def counted(a, b):
            result = fn(a, b)
            if result is not NotImplemented:
                counts[key] += 1
            return result

        return counted

    # -- recording ------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name):
        """One span; the innermost open span is its parent."""
        spans, stack = self.spans, self.stack
        rec = [len(spans), stack[-1] if stack else -1, name,
               time.perf_counter(), 0.0, False]
        spans.append(rec)
        stack.append(rec[ID])
        try:
            yield rec
        except BaseException:
            rec[RAISED] = True
            raise
        finally:
            rec[END] = time.perf_counter()
            stack.pop()

    def reset(self):
        self.spans.clear()
        self.counts.clear()

    # -- reading --------------------------------------------------------

    def aggregate(self):
        """Per span name: call count, total time and self time.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly because the run is single-threaded.
        """
        child = defaultdict(float)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        out = defaultdict(lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0})
        for rec in self.spans:
            agg = out[rec[NAME]]
            dur = rec[END] - rec[START]
            agg["count"] += 1
            agg["total_s"] += dur
            agg["self_s"] += dur - child[rec[ID]]
        return dict(out)

    def children(self):
        kids = defaultdict(list)
        for rec in self.spans:
            kids[rec[PARENT]].append(rec)
        return kids

    def write(self, path):
        """One JSON array per line: id, parent, name, start, end, raised."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")

