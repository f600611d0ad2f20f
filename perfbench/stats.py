"""Arithmetic the benchmark reports: percentiles, self time, error counts."""

from __future__ import annotations

import math


def percentile(values, q: float) -> float:
    """The q-th percentile (0..100) by linear interpolation between closest
    ranks, the same rule as numpy's default."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside 0..100")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def samples_beyond(values, q: float) -> int:
    """How many samples lie strictly above the q-th percentile."""
    cut = percentile(values, q)
    return sum(1 for v in values if v > cut)


def union_length(intervals) -> float:
    """Total length covered by (start, end) intervals, overlaps counted once."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(start: float, end: float, child_intervals) -> float:
    """A span's duration minus the part of it its children cover."""
    clipped = [
        (max(s, start), min(e, end)) for s, e in child_intervals if e > start and s < end
    ]
    return (end - start) - union_length(clipped)


class Tally:
    """Operations and correctness checks attempted, and how many failed.

    Every operation the workload performs and every check on its output
    counts once; a failed one counts once more in ``failed``.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
