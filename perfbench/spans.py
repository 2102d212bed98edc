"""In-memory span recorder for the traced benchmark run.

A span is opened around each call into an agririsk layer. Spans are kept in
a list while the workload runs and written out once at the end. A layer's
self time is its span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans
    op: int  # operation id; every span of one operation shares it


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self.op = 0

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)  # reserve the slot so children point at it
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, self.op)

    def self_times(self, ops: set[int]) -> dict[str, float]:
        """Summed self time per span name over the spans of the given operations."""
        totals: dict[str, float] = {}
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        for i, s in enumerate(self.spans):
            if s.op in ops:
                totals[s.name] = totals.get(s.name, 0.0) + (s.end - s.start) - child_time[i]
        return totals

    def write(self, path: Path) -> None:
        path.write_text(json.dumps([asdict(s) for s in self.spans]) + "\n", encoding="utf-8")


class NullTracer:
    """Stand-in for untraced passes: every span is one shared no-op context."""

    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null
