"""Span tracer that wraps pendulon's module-level functions from outside.

Modules import their kernels by name (``continuum.derivative``,
``travelwave.splu``, ...), so wrapping ``_stencils.derivative`` alone would
miss most calls. ``Tracer.patch`` therefore rebinds every module-level name,
in every layer module, that refers to a public pendulon function or to
``scipy.sparse.linalg.splu``. A span is named after the function's defining
layer, so ``continuum.derivative`` and ``travelwave.derivative`` both record
as ``_stencils.derivative``; ``splu`` records as ``<layer>.lu_factor`` for the
layer that calls it.

Spans are kept in memory as ``[name, parent, start_ns, end_ns, raised,
counts]`` and written out at the end of a run. ``counts`` is what the
counter registered for the span's name computes from the call's arguments
and result, or None; it is taken after the span's end time. The program is
single-threaded, so the children of a span are disjoint and its self time is
its duration minus the sum of its children's durations.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

LAYERS = ("_stencils", "continuum", "chain", "lattice", "travelwave",
          "perturbation", "lagrangian_orders", "reductions", "config", "cli")

NAME, PARENT, START, END, RAISED, COUNTS = range(6)


def span_name(layer, obj):
    """Span name for a module-level binding of a layer, None if untraced."""
    module = getattr(obj, "__module__", None) or ""
    name = getattr(obj, "__name__", None)
    if name == "splu" and module.startswith("scipy."):
        return f"{layer}.lu_factor"
    if not inspect.isfunction(obj) or name.startswith("_"):
        return None
    home = module.rpartition(".")[2]
    if not module.startswith("pendulon.") or home not in LAYERS:
        return None
    return f"{home}.{name}"


class Tracer:
    """Records a span per call of every traced binding while patched; use as
    a context manager so every binding is restored."""

    def __init__(self, counters=None):
        self.counters = counters or {}
        self.spans = []
        self._stack = []
        self._wrappers = {}
        self._saved = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns
        count = self.counters.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0, False, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if count is not None:
                span[COUNTS] = count(args, kwargs, result)
            return result
        return traced

    def patch(self):
        """Rebind every traced name in every layer module (see unpatch)."""
        for layer in LAYERS:
            mod = importlib.import_module(f"pendulon.{layer}")
            for attr, obj in list(vars(mod).items()):
                name = span_name(layer, obj)
                if name is None:
                    continue
                key = (name, id(obj))
                if key not in self._wrappers:
                    self._wrappers[key] = self._wrap(name, obj)
                self._saved.append((mod, attr, obj))
                setattr(mod, attr, self._wrappers[key])

    def unpatch(self):
        while self._saved:
            mod, attr, obj = self._saved.pop()
            setattr(mod, attr, obj)

    def __enter__(self):
        self.patch()
        return self

    def __exit__(self, *exc):
        self.unpatch()


def summarize(spans, first=0):
    """Per span name over spans[first:]: calls, raised, inclusive seconds,
    self seconds and the sums of the counter values.

    Inclusive time counts only the outermost span of a name, so a function
    reached through itself is not counted twice.
    """
    last = len(spans)
    child_ns = defaultdict(int)
    for i in range(first, last):
        p = spans[i][PARENT]
        if p >= first:
            child_ns[p] += spans[i][END] - spans[i][START]
    out = defaultdict(lambda: {"calls": 0, "raised": 0, "s": 0.0,
                               "self_s": 0.0})
    for i in range(first, last):
        name, parent, start, end, raised, counts = spans[i]
        row = out[name]
        for key, value in (counts or {}).items():
            row[key] = row.get(key, 0) + value
        row["calls"] += 1
        row["raised"] += int(raised)
        row["self_s"] += (end - start - child_ns[i]) * 1e-9
        p = parent
        while p >= first and spans[p][NAME] != name:
            p = spans[p][PARENT]
        if p < first:
            row["s"] += (end - start) * 1e-9
    return dict(out)
