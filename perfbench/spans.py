"""In-memory span tracer used by the benchmark's traced runs.

A span is ``[name, start, end, parent, item]``: ``start`` and ``end`` are
``time.perf_counter`` readings, ``parent`` is the index of the enclosing
span (-1 at top level) and ``item`` identifies the benchmark item the span
belongs to.  Spans are opened by the benchmark around its own calls into
the layers of ``soqrs``; the program itself is not instrumented.  Spans
stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import nullcontext

_NULL_SPAN = nullcontext()


class _Span:
    __slots__ = ("tracer", "name", "item", "index")

    def __init__(self, tracer: "Tracer", name: str, item) -> None:
        self.tracer = tracer
        self.name = name
        self.item = item

    def __enter__(self) -> None:
        t = self.tracer
        self.index = len(t.spans)
        parent = t._stack[-1] if t._stack else -1
        t.spans.append([self.name, time.perf_counter(), None, parent, self.item])
        t._stack.append(self.index)

    def __exit__(self, *exc) -> bool:
        t = self.tracer
        t.spans[self.index][2] = time.perf_counter()
        t._stack.pop()
        return False


class Tracer:
    """Records spans and counts while ``enabled``; otherwise does nothing.

    Untraced passes share one disabled tracer, so the code under test runs
    the same way in both modes apart from the span bookkeeping.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def span(self, name: str, item=None):
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name, item)

    def count(self, name: str, n: float = 1) -> None:
        if self.enabled:
            self.counts[name] += n

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus time in child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), inner in zip(self.spans, child):
            out[name] += end - start - inner
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "item"],
                       "spans": self.spans, "counts": dict(self.counts)}, fh)
