"""Span tracing around the program's layers, recorded from outside it.

``Tracer.install`` replaces the public functions of each layer module, and
the public methods of the classes defined there, by wrappers that record a
span: name, parent span, start and end.  Program code calls its own and
other layers' functions through module attributes (``pb.cell_quadrature``,
``asm.build_local_operators``), so nested calls become child spans.  The
originals are put back when the ``with`` block ends.

Spans stay in memory; the aggregation and the span file are produced after
the timed ops.  The tracer assumes one thread, like the program's default
serial assembly.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Spans kept as parallel columns of numbers.

    Column lists of floats and ints are cheap to grow and are not scanned
    by the garbage collector, unlike one small list object per span.
    """

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = []     # per span: index into ``names``
        self.parent = []      # per span: index of the enclosing span, or -1
        self.start = []       # per span: perf_counter() at entry
        self.end = []         # per span: perf_counter() at exit
        self.op = []          # per span: index of the op it belongs to
        self._stack = []
        self.counters = defaultdict(float)
        self.op_index = -1
        self.scale = {}       # op index -> factor from wall to reported seconds

    def __len__(self):
        return len(self.start)

    def _intern(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    @contextmanager
    def span(self, name):
        i = self._open(self._intern(name))
        try:
            yield
        finally:
            self.end[i] = perf_counter()
            self._stack.pop()

    def _open(self, name_id):
        i = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_index)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def wrap(self, name, fn, observe=None):
        """``fn`` recording a span per call; ``observe(tracer, result)`` after."""
        name_id = self._intern(name)
        open_span, end, stack = self._open, self.end, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = open_span(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(self, result)
            return result

        return traced

    @contextmanager
    def install(self, modules, observers=None):
        """Wrap every public function and method of the given layer modules.

        ``modules`` maps a layer name to its module.  ``observers`` maps a
        span name to a callback that reads counters off the call's result.
        """
        observers = observers or {}
        saved = []
        for layer, module in modules.items():
            for owner, attr, fn, name in _targets(layer, module):
                saved.append((owner, attr, fn))
                setattr(owner, attr, self.wrap(name, fn, observers.get(name)))
        try:
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)


def _targets(layer, module):
    """(owner, attribute, function, span name) for everything to wrap."""
    for attr, obj in list(vars(module).items()):
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield module, attr, obj, f"{layer}.{attr}"
        elif inspect.isclass(obj) and not issubclass(obj, BaseException):
            for mattr, meth in list(vars(obj).items()):
                public = not mattr.startswith("_")
                # dataclass-generated __init__ only stores fields
                ctor = mattr == "__init__" and not dataclasses.is_dataclass(obj)
                if inspect.isfunction(meth) and (public or ctor):
                    yield obj, mattr, meth, f"{layer}.{attr}.{mattr}"


def self_times(parent, start, end):
    """Per span: its duration minus the durations of its direct children."""
    own = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[i] - start[i]
    return own


def aggregate(tracer):
    """Totals per span name: calls, inclusive seconds and self seconds.

    Times are scaled by the factor ``tracer.scale`` holds for the span's op
    (1 where it holds none).  Inclusive time counts only outermost calls of
    a name, so a recursive or re-entrant name is not counted twice.
    """
    parent, start, end = tracer.parent, tracer.start, tracer.end
    own = self_times(parent, start, end)
    stats = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
    for i, name_id in enumerate(tracer.name_id):
        k = tracer.scale.get(tracer.op[i], 1.0)
        s = stats[tracer.names[name_id]]
        s["calls"] += 1
        s["self_s"] += own[i] * k
        if not _inside_same_name(tracer.name_id, parent, i):
            s["incl_s"] += (end[i] - start[i]) * k
    return dict(stats)


def _inside_same_name(name_id, parent, i):
    p = parent[i]
    while p >= 0:
        if name_id[p] == name_id[i]:
            return True
        p = parent[p]
    return False


def layer_of(name):
    return name.split(".", 1)[0]


def write_spans(path, tracer, header):
    """One tab-separated line per span, wall microseconds from op start."""
    own = self_times(tracer.parent, tracer.start, tracer.end)
    op_start = {}
    for op, t in zip(tracer.op, tracer.start):
        op_start.setdefault(op, t)
    with open(path, "w") as out:
        out.write(f"# {header}\n")
        out.write("op\tspan\tparent\tname\tstart_us\tdur_us\tself_us\n")
        for i in range(len(tracer)):
            t0, op = tracer.start[i], tracer.op[i]
            out.write(
                f"{op}\t{i}\t{tracer.parent[i]}\t{tracer.names[tracer.name_id[i]]}\t"
                f"{(t0 - op_start[op]) * 1e6:.1f}\t"
                f"{(tracer.end[i] - t0) * 1e6:.1f}\t{own[i] * 1e6:.1f}\n"
            )
