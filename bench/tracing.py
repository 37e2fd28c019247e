"""In-memory span recorder and the statistics the benchmark reports from it.

A span is one call into a layer: its name, start, end and the span that
caused it. Spans stay in a list until the run ends; nothing is written
while the timed phase runs. A span's self time is its duration minus the
part of its interval that its children cover.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# percentiles considered for a tail figure, highest first
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans around calls made from the benchmark's own code."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self._clock = clock

    @contextmanager
    def span(self, name: str, parent: Span | None = None, **attrs):
        s = Span(len(self.spans), name, None if parent is None else parent.sid,
                 self._clock(), attrs=attrs)
        self.spans.append(s)
        try:
            yield s
        finally:
            s.end = self._clock()

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]


def covered(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted((max(lo, start), min(hi, end)) for lo, hi in intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span, keyed by span id."""
    kids: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            kids.setdefault(s.parent, []).append((s.start, s.end))
    return {s.sid: s.duration - covered(s.start, s.end, kids.get(s.sid, ())) for s in spans}


def tail_percentile(values) -> tuple[float, int, float]:
    """Highest ladder percentile with at least ten values beyond it.

    Returns ``(percentile, count, value)``. The value is the order
    statistic with exactly ``floor(count * (1 - percentile / 100))``
    values above it. With fewer than twenty values no ladder step
    qualifies and the median is returned, its percentile still reported
    as 50 so the reader sees that fewer than ten lie beyond it.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("no values")
    for pct in TAIL_LADDER:
        beyond = int(n * (1.0 - pct / 100.0) + 1e-9)
        if beyond >= TAIL_MIN_BEYOND:
            return pct, n, xs[n - 1 - beyond]
    return 50.0, n, statistics.median(xs)

