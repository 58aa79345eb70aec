"""In-memory spans recorded around calls into knapcrack's layers.

A ``Tracer`` replaces a function (or a property getter, or a classmethod)
on the object where callers look it up with a wrapper that records one
``Span`` per call: name, start, end, parent span, op id, the exception
type if the call raised, and an optional note computed from the result.
Spans stay in a list until the run writes them out.  ``install`` restores
every original on exit, so the program runs unwrapped outside it.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time


class Span:
    """One call into a layer; ``parent`` is an index into the span list or -1."""

    __slots__ = ("name", "op", "parent", "start", "end", "error", "note")

    def __init__(self, name: str, op, parent: int, start: float = 0.0,
                 end: float = 0.0, error: str | None = None, note=None):
        self.name = name
        self.op = op
        self.parent = parent
        self.start = start
        self.end = end
        self.error = error
        self.note = note

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"name": self.name, "op": self.op, "parent": self.parent,
                "start": self.start, "end": self.end, "error": self.error,
                "note": self.note}


class Tracer:
    """Records spans for the wrappers it installs; ``op`` tags new spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn, note=None):
        """``fn`` with a span around every call; ``note(args, kwargs, result)``."""
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self.op, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = clock()
                stack.pop()
            if note is not None:
                span.note = note(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def install(self, points):
        """Wrap each ``(owner, attribute, span name, note)`` until exit."""
        saved = []
        try:
            for owner, attr, name, note in points:
                raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                if isinstance(raw, property):
                    new = property(self.wrap(name, raw.fget, note))
                elif isinstance(raw, classmethod):
                    new = classmethod(self.wrap(name, raw.__func__, note))
                else:
                    new = self.wrap(name, raw, note)
                setattr(owner, attr, new)
                saved.append((owner, attr, raw))
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def write(self, path) -> None:
        """One JSON object per span, in call order."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict()) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(i)
    out = []
    for i, span in enumerate(spans):
        pieces = sorted((max(spans[c].start, span.start), min(spans[c].end, span.end))
                        for c in children[i])
        covered = 0.0
        lo = hi = None
        for a, b in pieces:
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out.append(span.duration - covered)
    return out
