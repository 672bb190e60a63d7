"""In-memory spans around the benchmark's calls into each layer.

A span has a name, a start, an end and a parent.  Spans are kept in a
list and written out once, when the run ends.  The benchmark is single
threaded, so a span's children never overlap and its self time is its
duration minus the sum of its children's durations.

With tracing off, ``span`` hands back one shared no-op context, so the
untraced runs that give the end-to-end metrics pay nothing for it.
"""

from __future__ import annotations

import contextlib
import json
import time
from typing import Dict, List, Optional

_NOOP = contextlib.nullcontext()


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[list] = []     # [name, start, end, parent]
        self._stack: List[int] = []

    def span(self, name: str):
        if not self.enabled:
            return _NOOP
        return self._span(name)

    @contextlib.contextmanager
    def _span(self, name: str):
        parent: Optional[int] = self._stack[-1] if self._stack else None
        rec = [name, time.perf_counter(), None, parent]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> Dict[str, float]:
        """Total self seconds per span name."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out: Dict[str, float] = {}
        for i, (name, t0, t1, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (t1 - t0) - child[i]
        return out

    def overhead_s(self, reps: int = 2000) -> float:
        """Estimated cost of the spans recorded: the measured cost of
        ``reps`` enter/exit pairs on a scratch tracer, scaled to this
        tracer's span count."""
        probe = Tracer(True)
        t0 = time.perf_counter()
        for _ in range(reps):
            with probe.span("p"):
                pass
        per_span = (time.perf_counter() - t0) / reps
        return per_span * len(self.spans)

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans,
                       "self_s": self.self_times()}, f)
