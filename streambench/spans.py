"""In-memory span recording around calls into framecache's modules.

A Tracer replaces module attributes (functions, or a method on a class)
with wrappers that record one span per call: name, layer, start, end,
parent span and the operation (frame or frame pair) it belongs to.  The
engine calls its helpers through its module globals, so wrapping
``framecache.engine.conv_forward`` catches every call the engine makes.
Spans stay in memory; ``write`` dumps them as JSON lines at the end.

A wrapped name that no longer exists is recorded in ``absent`` instead of
raising, so a refactor that removes a function shows as a missing span.
"""

from __future__ import annotations

import json
import time


def _layer_of(args) -> str | None:
    # Layer functions take a LayerSpec positionally; recognise it by shape,
    # not by type, so the tracer does not depend on the class existing.
    for a in args:
        if hasattr(a, "op") and hasattr(a, "name") and hasattr(a, "geom"):
            return a.name
    return None


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self.op: int | str | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str, layer: str | None) -> int:
        idx = len(self.spans)
        self.spans.append({"name": name, "layer": layer, "start": time.perf_counter(),
                           "end": None, "parent": self._stack[-1] if self._stack else None,
                           "op": self.op, "attrs": None})
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, attrs: dict | None = None):
        self.spans[idx]["end"] = time.perf_counter()
        self.spans[idx]["attrs"] = attrs
        self._stack.pop()

    def wrap(self, owner, attr: str, name: str, attrs_of=None):
        """Record a span for every call of owner.attr until unwrap().

        attrs_of(result) may return a dict of counts to store on the span.
        """
        fn = getattr(owner, attr, None)
        if fn is None:
            self.absent.append(name)
            return
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name, _layer_of(args))
            attrs = None
            try:
                result = fn(*args, **kwargs)
                if attrs_of is not None:
                    attrs = attrs_of(result)
                return result
            finally:
                tracer._close(idx, attrs)

        self._patched.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def unwrap(self):
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    def self_times(self) -> list[float]:
        """Per span, its duration minus the time its direct children cover (s)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        return [s["end"] - s["start"] - c for s, c in zip(self.spans, child)]

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
            if self.absent:
                fh.write(json.dumps({"absent": self.absent}) + "\n")
