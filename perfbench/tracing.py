"""In-memory spans and counters for the traced benchmark run.

Spans are recorded by the benchmark's own code around the calls it makes
into each kothedim module; nothing inside ``src/`` is instrumented.  A
span has a name, start and end (``perf_counter`` seconds), the span that
caused it and the pass it belongs to.  Spans stay in memory until the pass
ends and are then written out as JSON lines.

The untraced run never builds a Tracer: it calls the library functions
unwrapped, so its timings carry no tracing cost.
"""
from __future__ import annotations

import functools
import json
from contextlib import contextmanager, nullcontext
from time import perf_counter


class Tracer:
    def __init__(self, pass_id: str) -> None:
        self.pass_id = pass_id
        # [span id, name, start, end, parent id]
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = [len(self.spans), name, perf_counter(), None,
                  self._open[-1] if self._open else None]
        self.spans.append(record)
        self._open.append(record[0])
        try:
            yield
        finally:
            self._open.pop()
            record[3] = perf_counter()

    def count(self, key: str, k: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + k

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace ``owner.attr`` by a callable that runs it inside a span.

        ``on_result(args, kwargs, result)`` runs after the span closes, so
        counting what a call did costs the span nothing.
        """
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        setattr(owner, attr, traced)

    # -- reading the spans back ------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [end - start for _, n, start, end, _ in self.spans if n == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def child_time(self) -> dict[int, float]:
        """Per span id, the time its direct children cover (one thread, so
        children never overlap)."""
        covered: dict[int, float] = {}
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] = covered.get(parent, 0.0) + (end - start)
        return covered

    def write(self, path: str) -> None:
        covered = self.child_time()
        with open(path, "w") as fh:
            for sid, name, start, end, parent in self.spans:
                fh.write(json.dumps({
                    "pass": self.pass_id,
                    "id": sid,
                    "name": name,
                    "parent": parent,
                    "start": start,
                    "end": end,
                    "self_s": (end - start) - covered.get(sid, 0.0),
                }) + "\n")


def span_or_nothing(tracer: Tracer | None, name: str):
    """``tracer.span(name)``, or a no-op context in the untraced run."""
    return tracer.span(name) if tracer is not None else nullcontext()
