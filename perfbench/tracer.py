"""In-memory span tracer that wraps the program's public entry points.

Spans are recorded from the benchmark's side only: :meth:`Tracer.installed`
replaces functions and methods of ``repro`` (and a few PySpark methods) with
wrappers for the duration of a traced repetition and restores them after.

* A *span* wrapper records name, start, end and parent span id.
* A *leaf* wrapper is for calls made once or twice per stream element
  (distance kernel, acceptance mask, store append). It records no span; it
  adds its call count and time to the enclosing span, and its time to that
  span's covered-by-children total, so self time stays exact.
* A *count* wrapper only counts calls into the enclosing span.

Self time of a span is its duration minus the time its children cover. The
program is single-threaded on the driver, and Spark's ``foreachBatch`` body
runs while the main thread waits inside ``run_streaming_fdm``, so one stack
of open spans gives the right parent for every span.
"""
from __future__ import annotations

import contextlib
import functools
import json
from collections import defaultdict
from time import perf_counter

_MISSING = object()


class Span:
    __slots__ = ("id", "parent", "name", "t0", "t1", "child_s", "leaf", "attrs")

    def __init__(self, sid: int, parent: int | None, name: str):
        self.id = sid
        self.parent = parent
        self.name = name
        self.t0 = perf_counter()
        self.t1 = self.t0
        self.child_s = 0.0
        self.leaf: dict[str, list] = {}
        self.attrs: dict[str, float] = {}

    @property
    def dur(self) -> float:
        return self.t1 - self.t0

    def to_json(self, t_origin: float) -> dict:
        return {
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "start_s": self.t0 - t_origin,
            "dur_s": self.dur,
            "self_s": self.dur - self.child_s,
            "leaf": self.leaf,
            "attrs": self.attrs,
        }


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self._next_id = 0
        self._patches: list = []
        self.t_origin = perf_counter()

    # -- recording ---------------------------------------------------------
    @contextlib.contextmanager
    def span(self, name: str):
        parent = self.stack[-1] if self.stack else None
        sp = Span(self._next_id, parent.id if parent else None, name)
        self._next_id += 1
        self.stack.append(sp)
        try:
            yield sp
        finally:
            sp.t1 = perf_counter()
            popped = self.stack.pop()
            if popped is not sp:
                raise RuntimeError(f"span stack corrupted: closed {name}, top {popped.name}")
            if parent is not None:
                parent.child_s += sp.dur
            self.spans.append(sp)

    def current(self) -> Span | None:
        return self.stack[-1] if self.stack else None

    # -- wrappers ----------------------------------------------------------
    def patch(self, owner, attr: str, make):
        """Replace ``owner.attr`` with ``make(original)`` until :meth:`installed` ends."""
        orig = getattr(owner, attr)
        self._patches.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, functools.wraps(orig)(make(orig)))

    def wrap_span(self, owner, attr: str, name, after=None):
        """Record a span per call. ``name`` may be a function of the parent span
        name; ``after(span, result, args)`` may set span attributes."""

        def make(orig):
            def wrapper(*args, **kw):
                if not self.stack:
                    return orig(*args, **kw)
                nm = name(self.stack[-1].name) if callable(name) else name
                with self.span(nm) as sp:
                    out = orig(*args, **kw)
                if after is not None:
                    after(sp, out, args)
                return out

            return wrapper

        self.patch(owner, attr, make)

    def wrap_leaf(self, owner, attr: str, name: str, timed: bool = True):
        def make(orig):
            def wrapper(*args, **kw):
                if not self.stack:
                    return orig(*args, **kw)
                top = self.stack[-1]
                agg = top.leaf.get(name)
                if agg is None:
                    agg = top.leaf[name] = [0, 0.0]
                agg[0] += 1
                if not timed:
                    return orig(*args, **kw)
                t0 = perf_counter()
                out = orig(*args, **kw)
                dt = perf_counter() - t0
                agg[1] += dt
                top.child_s += dt
                return out

            return wrapper

        self.patch(owner, attr, make)

    @contextlib.contextmanager
    def installed(self, install):
        """Apply ``install(self)``'s wrappers for the duration of the block."""
        try:
            install(self)
            yield self
        finally:
            for owner, attr, prev in reversed(self._patches):
                if prev is _MISSING:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, prev)
            self._patches.clear()

    # -- output ------------------------------------------------------------
    def write(self, path: str, header: dict) -> None:
        with open(path, "w") as f:
            f.write(json.dumps(header) + "\n")
            for sp in self.spans:
                f.write(json.dumps(sp.to_json(self.t_origin)) + "\n")


def summarize(spans: list[Span]) -> dict:
    """Per-name totals over one repetition's spans.

    Keys: ``spans`` ({name: {calls, s, self_s}}), ``leaf`` ({name: {calls, s}}),
    ``attrs`` (span attributes summed as ``"<span>.<attr>"``) and ``apply_s``
    (time of ``core.bank.update`` spans whose parent is a Spark batch).
    """
    spans_by = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    leaf = defaultdict(lambda: {"calls": 0, "s": 0.0})
    attrs: dict[str, float] = defaultdict(float)
    names = {sp.id: sp.name for sp in spans}
    apply_s = 0.0
    for sp in spans:
        a = spans_by[sp.name]
        a["calls"] += 1
        a["s"] += sp.dur
        a["self_s"] += sp.dur - sp.child_s
        for nm, (c, s) in sp.leaf.items():
            leaf[nm]["calls"] += c
            leaf[nm]["s"] += s
        for k, v in sp.attrs.items():
            attrs[f"{sp.name}.{k}"] += v
        if sp.name == "core.bank.update" and names.get(sp.parent) == "spark.streaming.batch":
            apply_s += sp.dur
    return {"spans": spans_by, "leaf": leaf, "attrs": attrs, "apply_s": apply_s}
