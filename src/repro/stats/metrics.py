"""Measurement primitives used by experiments and the management plane."""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from ..sim import Simulator

__all__ = ["ThroughputMeter", "LatencyRecorder", "percentile"]


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile (0..100) by linear interpolation."""
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0 <= p <= 100:
        raise ValueError("p must be in [0, 100]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (p / 100) * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    frac = rank - low
    interpolated = ordered[low] * (1 - frac) + ordered[high] * frac
    # Clamp: float interpolation error must not escape the sample range.
    return min(max(interpolated, ordered[0]), ordered[-1])


class ThroughputMeter:
    """Counts bytes after a warm-up cutoff and reports goodput."""

    def __init__(self, sim: Simulator, warmup: float = 0.0) -> None:
        self.sim = sim
        self.warmup = warmup
        self.bytes = 0
        self.first_at: Optional[float] = None
        self.last_at: Optional[float] = None

    def record(self, nbytes: int) -> None:
        if self.sim.now < self.warmup:
            return
        if self.first_at is None:
            self.first_at = self.sim.now
        self.last_at = self.sim.now
        self.bytes += nbytes

    def bps(self, until: Optional[float] = None) -> float:
        """Goodput in bits/second over [first byte, ``until`` or last byte]."""
        if self.first_at is None:
            return 0.0
        end = until if until is not None else self.last_at
        span = (end or self.first_at) - self.first_at
        if span <= 0:
            return 0.0
        return self.bytes * 8.0 / span

    def mbps(self, until: Optional[float] = None) -> float:
        return self.bps(until) / 1e6

    def gbps(self, until: Optional[float] = None) -> float:
        return self.bps(until) / 1e9


class LatencyRecorder:
    """Collects latency samples; reports mean and percentiles."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def record(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("negative latency")
        self.samples.append(seconds)

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        if not self.samples:
            return 0.0
        return sum(self.samples) / len(self.samples)

    def p(self, q: float) -> float:
        return percentile(self.samples, q)
