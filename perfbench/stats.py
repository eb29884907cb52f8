"""The benchmark's own arithmetic: percentiles, self time and the rung rule.

Everything here is pure Python over plain lists so the rules can be tested
without running a workload (``perfbench/test_arithmetic.py``).
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

#: Percentiles tried by :func:`tail_percentile`, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: A tail percentile is only reported when at least this many samples lie beyond it.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile with linear interpolation (numpy's default rule)."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(samples: Sequence[float]) -> float:
    return percentile(samples, 50.0)


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` sorted samples lie past the ``q``-th percentile's position.

    The position is ``(count - 1) * q / 100`` as :func:`percentile` uses it;
    integer arithmetic on tenths of a percent keeps float rounding from
    turning 10 samples into 9.
    """
    tenths = round(q * 10)
    last = count - 1
    return last - (last * tenths) // 1000


def tail_percentile(samples: Sequence[float]) -> Tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(q, value)``.  Samples too small to support even the median
    that way (fewer than 20) report their maximum, as ``q = 100``.
    """
    count = len(samples)
    for q in TAIL_PERCENTILES:
        if samples_beyond(count, q) >= MIN_BEYOND:
            return q, percentile(samples, q)
    return 100.0, max(samples)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(Q1, median, Q3)`` exactly as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else math.inf


# --------------------------------------------------------------------------- self time
def union_length(intervals: Iterable[Tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``.

    Children recorded on several threads may overlap each other; the union
    counts every instant once.
    """
    clipped = sorted(
        (max(lo, start), min(hi, end)) for lo, hi in intervals if hi > start and lo < end
    )
    total = 0.0
    current_lo: Optional[float] = None
    current_hi = 0.0
    for lo, hi in clipped:
        if current_lo is None:
            current_lo, current_hi = lo, hi
        elif lo <= current_hi:
            current_hi = max(current_hi, hi)
        else:
            total += current_hi - current_lo
            current_lo, current_hi = lo, hi
    if current_lo is not None:
        total += current_hi - current_lo
    return total


def self_time(start: float, end: float, children: Iterable[Tuple[float, float]]) -> float:
    """A span's duration minus the part of it its children cover."""
    return (end - start) - union_length(children, start, end)


# --------------------------------------------------------------------------- open loop
def latency_from_due(due: float, done: float) -> float:
    """Open-loop latency: from when the request was due, not when it was sent.

    A generator that falls behind sends late; timing from the due time keeps
    that wait in the number instead of hiding it.
    """
    return done - due


@dataclass
class Rung:
    """One offered rate of the open-loop ladder and what it achieved."""

    offered_qps: float
    dues: List[float] = field(default_factory=list)
    sends: List[float] = field(default_factory=list)
    dones: List[float] = field(default_factory=list)
    hit_latencies: List[float] = field(default_factory=list)
    failed: int = 0

    @property
    def count(self) -> int:
        return len(self.dues)

    @property
    def completed_qps(self) -> float:
        """Requests completed per second, from the first due time to the last completion."""
        if not self.dones:
            return 0.0
        span = max(self.dones) - min(self.dues)
        return self.count / span if span > 0 else 0.0

    @property
    def sent_qps(self) -> float:
        """The rate the generator actually drove (first to last send)."""
        if len(self.sends) < 2:
            return self.offered_qps
        span = max(self.sends) - min(self.sends)
        return (len(self.sends) - 1) / span if span > 0 else math.inf

    @property
    def lateness(self) -> List[float]:
        return [send - due for send, due in zip(self.sends, self.dues)]

    def hit_tail(self) -> Tuple[float, float]:
        return tail_percentile(self.hit_latencies)

    def backlog_grew(self, tolerance: float = 0.95) -> bool:
        """Completions (or sends) fell behind the offered rate.

        When the server keeps up, the last request completes a few
        milliseconds after it was due and both rates match the offered one;
        a growing queue stretches the completion span, and a generator that
        cannot drive the rate stretches the send span.
        """
        return (
            self.completed_qps < tolerance * self.offered_qps
            or self.sent_qps < tolerance * self.offered_qps
        )

    def passes(self, limit_seconds: float) -> bool:
        """No failures, no growing backlog, and the hit tail within the limit."""
        if self.failed or not self.hit_latencies or self.backlog_grew():
            return False
        return self.hit_tail()[1] <= limit_seconds


def max_qps(rungs: Sequence[Rung], limit_seconds: float) -> float:
    """The completed rate of the highest passing rung below saturation (0 when none passes).

    ``rungs`` are in ladder order.  A rung passes when its hit tail meets the
    limit with no failures and no growing backlog.  The first rung with a
    growing backlog or a failure marks saturation: a higher rung that passes
    after it caught the machine in a fast moment and is not credited.  A
    lower rung that only missed the tail limit does not cap the answer.
    """
    best = 0.0
    for rung in rungs:
        if rung.failed or rung.backlog_grew():
            break
        if rung.passes(limit_seconds):
            best = rung.completed_qps
    return best
