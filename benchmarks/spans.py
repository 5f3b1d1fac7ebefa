"""In-memory spans around calls into clawtoric, recorded from the benchmark side.

A span is (name, start, end, parent index, pass id).  Spans stay in a list
until the pass ends; only then are they folded into per-name self time
(duration minus the time covered by direct children) and call counts.
A disabled tracer hands back the function itself, so untraced passes pay
nothing per call; ``span_cost`` estimates what a traced call pays.
"""

from __future__ import annotations

import time
from functools import wraps


class Tracer:
    def __init__(self, enabled: bool, pass_id: int = 0):
        self.enabled = enabled
        self.pass_id = pass_id
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self._stack: list[int] = []

    def _open(self) -> tuple[int, int]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        return index, parent

    def _close(self, name: str, index: int, parent: int, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans[index] = (name, start, end, parent, self.pass_id)

    def wrap(self, name: str, fn):
        """fn itself when disabled, otherwise fn with a span around each call."""
        if not self.enabled:
            return fn

        @wraps(fn)
        def traced(*args, **kwargs):
            index, parent = self._open()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, index, parent, start)

        return traced

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Per span name: (summed self time in seconds, number of spans)."""
        child_time = [0.0] * len(self.spans)
        for record in self.spans:
            name, start, end, parent, _ = record
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, tuple[float, int]] = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            seconds, calls = totals.get(name, (0.0, 0))
            totals[name] = (seconds + (end - start) - child_time[index], calls + 1)
        return totals


def span_cost(calls: int = 200_000) -> float:
    """Seconds one span adds to a call: a wrapped no-op minus a bare one."""

    def noop():
        return None

    wrapped = Tracer(True).wrap("noop", noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    t2 = time.perf_counter()
    return ((t2 - t1) - (t1 - t0)) / calls
