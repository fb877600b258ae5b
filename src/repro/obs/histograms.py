"""Fixed-bucket log2 latency histograms.

A :class:`Log2Histogram` records values (nanoseconds by convention) into a
fixed array of buckets: each power of two is split into ``SUB_BUCKETS``
linear sub-buckets, so relative quantization error is bounded by
``1/SUB_BUCKETS`` (12.5 % at the default 8) while memory stays constant —
no per-sample list growth, unlike :class:`repro.stats.LatencyRecorder`.
This is what lets full-length runs keep per-nqe latency distributions.

Percentiles are extracted by walking the cumulative counts and
interpolating linearly inside the crossing bucket; exact observed min/max
clamp the ends so p0/p100 are exact.
"""

from __future__ import annotations

import math
from typing import Dict, List

__all__ = ["Log2Histogram", "SUB_BUCKETS", "MAX_EXP"]

#: Linear sub-buckets per power of two (relative error <= 1/SUB_BUCKETS).
SUB_BUCKETS = 8
#: Largest representable exponent: values >= 2**MAX_EXP ns clamp into the
#: top bucket (2**42 ns is over an hour — far beyond any sim latency).
MAX_EXP = 42


class Log2Histogram:
    """Constant-memory latency histogram with log2 buckets."""

    __slots__ = ("name", "counts", "total", "sum", "min", "max")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.counts: List[int] = [0] * ((MAX_EXP + 1) * SUB_BUCKETS)
        self.total = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = 0.0

    @staticmethod
    def _index(value: float) -> int:
        if value < 1.0:
            return 0
        mantissa, exp = math.frexp(value)  # value = mantissa * 2**exp, m in [0.5, 1)
        exp -= 1  # now value = (2*mantissa) * 2**exp, 2*mantissa in [1, 2)
        if exp >= MAX_EXP:
            return (MAX_EXP + 1) * SUB_BUCKETS - 1
        sub = int((mantissa * 2.0 - 1.0) * SUB_BUCKETS)
        if sub >= SUB_BUCKETS:  # guard float edge at the bucket boundary
            sub = SUB_BUCKETS - 1
        return exp * SUB_BUCKETS + sub

    @staticmethod
    def _bounds(index: int) -> tuple:
        exp, sub = divmod(index, SUB_BUCKETS)
        width = 2.0**exp / SUB_BUCKETS
        low = 2.0**exp + sub * width
        if index == 0:
            low = 0.0  # bucket 0 also absorbs sub-1ns values
        return low, low + width

    def record(self, value: float) -> None:
        """Record one value (negative values clamp to zero)."""
        if value < 0:
            value = 0.0
        self.counts[self._index(value)] += 1
        self.total += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0

    def percentile(self, p: float) -> float:
        """The p-th percentile (0..100), interpolated within its bucket."""
        if not 0 <= p <= 100:
            raise ValueError("p must be in [0, 100]")
        if self.total == 0:
            return 0.0
        rank = (p / 100.0) * self.total
        cumulative = 0
        for index, count in enumerate(self.counts):
            if count == 0:
                continue
            if cumulative + count >= rank:
                frac = (rank - cumulative) / count
                low, high = self._bounds(index)
                value = low + frac * (high - low)
                return min(max(value, self.min), self.max)
            cumulative += count
        return self.max

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    @property
    def p999(self) -> float:
        return self.percentile(99.9)

    def summary(self) -> Dict[str, float]:
        if self.total == 0:
            return {"count": 0}
        return {
            "count": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.p50,
            "p99": self.p99,
            "p999": self.p999,
        }

    def __len__(self) -> int:
        return self.total

    def __repr__(self) -> str:
        return f"<Log2Histogram {self.name!r} n={self.total} p50={self.p50:.0f}>"
