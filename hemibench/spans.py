"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent, run): perf_counter seconds, the index
of the enclosing span (-1 at the root) and the id of the operation it belongs
to.  Spans stay in memory until the run ends, when ``dump`` writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import json
from collections import defaultdict
from time import perf_counter

_NULL = contextlib.nullcontext()


class NullTracer:
    """Tracing off: every span is the shared no-op context."""

    enabled = False
    run = 0

    def span(self, name: str):
        return _NULL


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self.run = 0
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, perf_counter(), 0.0, parent, self.run]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def patched(self, targets):
        """Wrap each (owner, attribute, span name) in a span while active.

        This records calls the package makes internally, such as the
        enumerations inside ``QuadricModel``, as children of the caller.
        """
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
        for (owner, attr, name), (_, _, fn) in zip(targets, saved):
            setattr(owner, attr, self._wrap(fn, name))
        try:
            yield
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def self_times(self) -> list[float]:
        """Duration of each span minus the time its direct children cover."""
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def summary(self) -> dict:
        """Per span name: call count, total and self seconds."""
        rows = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, start, end, _, _), own in zip(self.spans, self.self_times()):
            row = rows[name]
            row[0] += 1
            row[1] += end - start
            row[2] += own
        return {n: {"calls": c, "total_s": t, "self_s": s} for n, (c, t, s) in rows.items()}

    def dump(self, path) -> None:
        rows = [
            {"name": n, "start": s, "end": e, "parent": p, "run": r, "self": own}
            for (n, s, e, p, r), own in zip(self.spans, self.self_times())
        ]
        with open(path, "w", encoding="ascii") as fh:
            json.dump(rows, fh)
