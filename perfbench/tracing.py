"""Spans recorded by the benchmark around its calls into the library.

A span is ``[name, start_ns, end_ns, parent, op]``: ``parent`` is the index
of the enclosing span (-1 at top level) and ``op`` the index of the op the
span belongs to, so the spans of one op share an identifier.  The layer of
a span is its name up to the first dot (``reduction.reduce_matrix`` belongs
to ``reduction``; the benchmark's own op span and checks are ``bench``).
Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

LAYERS = ("bench", "algebra", "reduction", "quotient", "operator", "eigen",
          "spectra", "cli")


class NullTracer:
    """Tracing off: every span is one shared no-op context."""

    _ctx = contextlib.nullcontext()
    op = -1

    def span(self, name: str):
        return self._ctx


NULL = NullTracer()


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter_ns(), 0, parent, self.op]
        self.spans.append(rec)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            rec[2] = time.perf_counter_ns()


def self_time_ns(spans) -> dict[str, int]:
    """Per-layer self time: each span's duration minus its children's."""
    child = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, int] = defaultdict(int)
    for i, (name, start, end, _, _) in enumerate(spans):
        out[name.split(".", 1)[0]] += (end - start) - child[i]
    return dict(out)
