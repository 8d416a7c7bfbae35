"""Spans at sigmalab's module boundaries, recorded from outside the package.

install() replaces, inside each sigmalab module, every function it imported
from another sigmalab module by a wrapper under the same name, so the span
opens at the name the caller uses (census -> _scan.map_segments, varieties
-> census.census, cli -> the library entry points).  Methods and properties
of the classes each module defines are wrapped on the class
(DirichletCharacter.complex_table, Modulus.unit_mask, ...).  A wrapper opens
a span only when the call crosses into another module; a call within the
module it is already in runs unwrapped.

The per-segment callbacks that census, lsd and factor pass to
_scan.map_segments are wrapped too, so segment work counts for the module
that wrote the callback and only the pool and merge bookkeeping counts for
_scan.  They may run in worker threads; each thread keeps its own stack.

Self time splits wall time: at every instant the span or spans that are
open and have no open child share that instant equally.  Summed over all
layers this is the time covered by the root spans, however many threads ran.

Installing is process-wide and permanent: a traced round runs in its own
interpreter.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("cli", "census", "lsd", "factor", "characters", "charsums", "varieties", "_scan")
# Metric names start with a letter: sigmalab._scan reports as segscan.
METRIC_PREFIX = {"_scan": "segscan"}

# Lazily built Modulus tables and the attribute that caches each one.
LAZY_MODULUS_TABLES = {"basis": "_basis", "unit_mask": "_unit_mask", "units": "_units"}

_UNTRACED_METHODS = {"__repr__", "__str__", "__eq__", "__hash__", "__setattr__", "__delattr__"}


class Span:
    __slots__ = ("layer", "label", "parent", "start", "end")

    def __init__(self, layer: str, label, parent) -> None:
        self.layer = layer
        self.label = label
        self.parent = parent
        self.start = self.end = 0.0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()

    # -------------------------------------------------------------- spans

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, layer: str, label=None, parent=None, stack=None) -> Span:
        if stack is None:
            stack = self._stack()
        span = Span(layer, label, stack[-1] if stack else parent)
        self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def exit(self, span: Span, stack=None) -> None:
        span.end = time.perf_counter()
        (self._stack() if stack is None else stack).pop()

    def _add(self, **amounts) -> None:
        with self._lock:
            for key, value in amounts.items():
                self.counters[key] += value

    # ----------------------------------------------------------- wrappers

    def wrap(self, fn, layer: str):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack and stack[-1].layer == layer:
                return fn(*args, **kwargs)
            span = self.enter(layer, stack=stack)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit(span, stack)
        return traced

    def _wrap_generator(self, fn, layer: str):
        """Each step of the generator is a span; steps taken for another
        layer are counted as items handed to that layer."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            steps = fn(*args, **kwargs)
            while True:
                stack = self._stack()
                caller = stack[-1].layer if stack else None
                span = None if caller == layer else self.enter(layer, stack=stack)
                try:
                    item = next(steps)
                except StopIteration:
                    return
                finally:
                    if span is not None:
                        self.exit(span, stack)
                self._add(**{f"{caller}.items_from.{layer}": 1})
                yield item
        return traced

    def _wrap_lazy_table(self, prop: property, cache_attr: str, layer: str) -> property:
        """A Modulus table property; its first build is also timed as
        characters.modulus_s (outermost build only, so units -> unit_mask
        is not counted twice)."""
        get = self.wrap(prop.fget, layer)

        def traced(obj):
            if getattr(obj, cache_attr) is not None or getattr(self._local, "building", False):
                return get(obj)
            self._local.building = True
            start = time.perf_counter()
            try:
                return get(obj)
            finally:
                self._local.building = False
                self._add(**{"characters.modulus_s": time.perf_counter() - start})
        return property(traced, doc=prop.__doc__)

    def _wrap_map_segments(self, map_segments):
        @functools.wraps(map_segments)
        def traced(start, stop, segment_length, fn, workers=1):
            scan = self.enter("_scan")
            layer = fn.__module__.rsplit(".", 1)[-1]

            def segment(lo, hi):
                span = self.enter(layer, parent=scan)
                try:
                    return fn(lo, hi)
                finally:
                    self.exit(span)
                    self._add(**{"_scan.segments": 1, f"{layer}.ints": hi - lo,
                                 f"{layer}.segment_s": span.end - span.start})
            try:
                parts = map_segments(start, stop, segment_length, segment, workers)
                held = sum(getattr(p, "nbytes", None) or sys.getsizeof(p) for p in parts)
                with self._lock:
                    mb = self.counters["_scan.parts_mb"]
                    self.counters["_scan.parts_mb"] = max(mb, held / 1e6)
                return parts
            finally:
                self.exit(scan)
        return traced

    def _wrap_class(self, cls: type, layer: str) -> None:
        for name, attr in list(vars(cls).items()):
            if isinstance(attr, property):
                if cls.__name__ == "Modulus" and name in LAZY_MODULUS_TABLES:
                    new = self._wrap_lazy_table(attr, LAZY_MODULUS_TABLES[name], layer)
                else:
                    new = property(self.wrap(attr.fget, layer), attr.fset, attr.fdel, attr.__doc__)
            elif isinstance(attr, (staticmethod, classmethod)):
                new = type(attr)(self.wrap(attr.__func__, layer))
            elif inspect.isfunction(attr) and name not in _UNTRACED_METHODS:
                new = self.wrap(attr, layer)
                if cls.__name__ == "DirichletCharacter" and name == "complex_table":
                    new = self._counted(new, "characters.complex_tables")
            else:
                continue
            setattr(cls, name, new)

    def _counted(self, fn, key: str):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self._add(**{key: 1})
            return fn(*args, **kwargs)
        return counted

    def install(self, modules: dict) -> None:
        """modules maps each layer name to the imported sigmalab module."""
        home = {m.__name__: layer for layer, m in modules.items()}
        map_segments = modules["_scan"].map_segments
        for layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                if isinstance(obj, type):
                    if obj.__module__ == module.__name__:
                        self._wrap_class(obj, layer)
                    continue
                target = home.get(getattr(obj, "__module__", None))
                if not callable(obj) or target is None or target == layer:
                    continue
                if obj is map_segments:
                    setattr(module, name, self._wrap_map_segments(obj))
                else:
                    setattr(module, name, self.wrap(obj, target))

    # ------------------------------------------------------------ metrics

    def self_times(self) -> dict[str, float]:
        """Wall time per layer, each instant shared by the open leaf spans."""
        events = []
        for s in self.spans:
            events.append((s.start, 1, s))
            events.append((s.end, 0, s))
        events.sort(key=lambda e: (e[0], e[1]))
        open_children: dict[Span, int] = defaultdict(int)
        closed: set = set()
        leaves: set = set()
        out: dict[str, float] = defaultdict(float)
        last = None
        for t, starting, s in events:
            if leaves:
                share = (t - last) / len(leaves)
                for leaf in leaves:
                    out[leaf.layer] += share
            last = t
            p = s.parent
            if starting:
                if open_children[s] == 0:
                    leaves.add(s)
                if p is not None:
                    open_children[p] += 1
                    leaves.discard(p)
            else:
                leaves.discard(s)
                closed.add(s)
                if p is not None:
                    open_children[p] -= 1
                    if open_children[p] == 0 and p not in closed:
                        leaves.add(p)
        return out

    def inclusive(self, layer: str) -> float:
        """Time inside the layer's outermost spans, callees included."""
        total = 0.0
        for s in self.spans:
            if s.layer != layer:
                continue
            p = s.parent
            while p is not None and p.layer != layer:
                p = p.parent
            if p is None:
                total += s.end - s.start
        return total

    def layer_metrics(self) -> dict[str, float]:
        own = self.self_times()
        calls = defaultdict(int)
        for s in self.spans:
            calls[s.layer] += 1
        c = self.counters
        out = {}
        for layer in LAYERS:
            name = METRIC_PREFIX.get(layer, layer)
            out[f"{name}.self_s"] = own.get(layer, 0.0)
            out[f"{name}.calls"] = calls[layer]
        out["segscan.segments"] = c["_scan.segments"]
        out["segscan.parts_mb"] = c["_scan.parts_mb"]
        for layer in ("census", "lsd"):
            busy = c[f"{layer}.segment_s"]
            out[f"{layer}.ints_per_s"] = c[f"{layer}.ints"] / busy if busy else 0.0
        out["characters.complex_tables"] = c["characters.complex_tables"]
        out["characters.modulus_s"] = c["characters.modulus_s"]
        busy = self.inclusive("charsums")
        chars = c["charsums.items_from.characters"]
        out["charsums.chars_per_s"] = chars / busy if busy else 0.0
        out["trace.self_sum_s"] = sum(own.values())
        return out
