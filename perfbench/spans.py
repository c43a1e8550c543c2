"""Spans and counts recorded around the benchmark's calls into amflood.

A span is named after the public function called (``module.function``) and
covers that one call; spans of the same name are summed. Tracing lives only
in the benchmark's files: amflood itself is not instrumented.
"""

from __future__ import annotations

from time import perf_counter


class Untraced:
    """Calls straight through; the timed runs use this."""

    on = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def iterate(self, name, iterable):
        return iterable

    def count(self, name, k):
        pass


class Spans(Untraced):
    """Sums the wall time and the number of calls per span name, plus counts."""

    on = True

    def __init__(self):
        self.seconds: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}

    def _add(self, name: str, dt: float) -> None:
        self.seconds[name] = self.seconds.get(name, 0.0) + dt
        self.calls[name] = self.calls.get(name, 0) + 1

    def call(self, name, fn, *args, **kwargs):
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._add(name, perf_counter() - t0)

    def iterate(self, name, iterable):
        """Yield from ``iterable``, timing each step of it as one span."""
        it = iter(iterable)
        while True:
            t0 = perf_counter()
            try:
                item = next(it)
            except StopIteration:
                self._add(name, perf_counter() - t0)
                return
            self._add(name, perf_counter() - t0)
            yield item

    def count(self, name, k):
        self.counts[name] = self.counts.get(name, 0) + k

    def total(self, *names: str) -> float:
        return sum(self.seconds.get(n, 0.0) for n in names)

    def to_json_obj(self) -> dict:
        return {"spans": {n: {"seconds": self.seconds[n], "calls": self.calls[n]}
                          for n in sorted(self.seconds)},
                "counts": dict(sorted(self.counts.items()))}
