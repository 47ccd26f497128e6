"""Layer spans recorded from outside lbcalc, by patching its public callables.

`Tracer.install` wraps every public function and public method of the layer
modules, plus `__init__` and `__call__`, and rebinds each wrapper wherever
an lbcalc module binds the original.  Callers that look functions up as
module attributes at call time, as the benchmark does, reach the wrappers.  Each call of a wrapper is one span.  Spans stay in memory, up to a
cap, and `write` saves them when the run ends; the per-function call counts
and the self times are kept as running totals, so they are exact however
many spans are kept.

The self time of a span is its duration minus the time that child spans of
other layers cover.  A layer's self time adds this up over the spans whose
parent belongs to another layer, so every nanosecond inside a traced call
counts for exactly one layer: the layer of the innermost span around it.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

LAYERS = ("words", "matrices", "dirichlet", "series", "germs", "estimates", "limits", "sampling")
BENCH = "bench"
SPAN_CAP = 250_000


class Tracer:
    def __init__(self):
        self.layers = LAYERS + (BENCH,)
        self.names: list = []          # function id -> "layer.qualname"
        self.layer_of: list = []       # function id -> layer id
        self.calls: list = []          # function id -> calls
        self.fn_self_ns: list = []     # function id -> summed self time
        self.layer_self_ns = [0] * len(self.layers)
        self.paused = False
        self._stack: list = []         # open frames [fid, layer, span id, other ns]
        self._ids: dict = {}
        self._patches: list = []       # (owner, attribute, original)
        self.spans_dropped = 0
        self._span_fid = array("q")
        self._span_parent = array("q")
        self._span_start = array("q")
        self._span_end = array("q")

    # -- registration -----------------------------------------------------

    def _fid(self, name: str, layer: str) -> int:
        fid = self._ids.get(name)
        if fid is None:
            fid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(self.layers.index(layer))
            self.calls.append(0)
            self.fn_self_ns.append(0)
        return fid

    def install(self, package):
        """Wrap the public callables of each layer module of `package`."""
        originals = {}
        for layer in LAYERS:
            mod = sys.modules[f"{package.__name__}.{layer}"]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(layer, obj)
                elif callable(obj) and getattr(obj, "__module__", None) == mod.__name__:
                    wrapper = self._wrapper(f"{layer}.{name}", layer, obj)
                    originals[id(obj)] = (obj, wrapper)
        owners = [m for n, m in sys.modules.items() if n == package.__name__ or n.startswith(package.__name__ + ".")]
        for owner in owners:
            for name, value in list(vars(owner).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(owner, name, hit[1])

    def _wrap_class(self, layer, cls):
        for name, member in list(vars(cls).items()):
            if name.startswith("_") and name not in ("__init__", "__call__"):
                continue
            label = f"{layer}.{cls.__name__}.{name}"
            if isinstance(member, (classmethod, staticmethod)):
                wrapped = type(member)(self._wrapper(label, layer, member.__func__))
            elif inspect.isfunction(member):
                wrapped = self._wrapper(label, layer, member)
            else:
                continue
            self._patch(cls, name, wrapped)

    def _patch(self, owner, name, value):
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- spans ------------------------------------------------------------

    def _wrapper(self, label, layer, fn):
        fid = self._fid(label, layer)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            frame = tracer._open(fid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(frame)

        return traced

    def _open(self, fid):
        self.calls[fid] += 1
        now = perf_counter_ns()
        if len(self._span_fid) < SPAN_CAP:
            sid = len(self._span_fid)
            self._span_fid.append(fid)
            self._span_parent.append(self._stack[-1][2] if self._stack else -1)
            self._span_start.append(now)
            self._span_end.append(0)
        else:
            sid = -1
            self.spans_dropped += 1
        frame = [fid, self.layer_of[fid], sid, 0, now]
        self._stack.append(frame)
        return frame

    def _close(self, frame):
        end = perf_counter_ns()
        fid, layer, sid, other, start = frame
        self._stack.pop()
        if sid >= 0:
            self._span_end[sid] = end
        dur = end - start
        own = dur - other
        self.fn_self_ns[fid] += own
        parent = self._stack[-1] if self._stack else None
        if parent is None or parent[1] != layer:
            self.layer_self_ns[layer] += own
        if parent is not None:
            parent[3] += other if parent[1] == layer else dur

    @contextmanager
    def bench_span(self, name: str):
        """A span of the benchmark's own work, in the `bench` layer."""
        frame = self._open(self._fid(f"{BENCH}.{name}", BENCH))
        try:
            yield
        finally:
            self._close(frame)

    @contextmanager
    def pause(self):
        """Run lbcalc calls untraced; their time counts for the open span."""
        before = self.paused
        self.paused = True
        try:
            yield
        finally:
            self.paused = before

    # -- results ----------------------------------------------------------

    def fn_self_s(self, label: str) -> float:
        fid = self._ids.get(label)
        return 0.0 if fid is None else self.fn_self_ns[fid] * 1e-9

    def layer_self_s(self, layer: str) -> float:
        return self.layer_self_ns[self.layers.index(layer)] * 1e-9

    def write(self, path):
        """Save the kept spans as JSON lines: one header, then one span each."""
        with open(path, "w") as out:
            out.write(json.dumps({
                "names": self.names,
                "layers": [self.layers[i] for i in self.layer_of],
                "fields": ["fid", "parent", "start_ns", "end_ns"],
                "kept": len(self._span_fid),
                "dropped": self.spans_dropped,
            }) + "\n")
            for row in zip(self._span_fid, self._span_parent, self._span_start, self._span_end):
                out.write("%d %d %d %d\n" % row)
