"""Memory-copy cost model, calibrated to the paper's Table 1.

The paper measures random-address copies between GuestLib and ServiceLib
through the shared huge pages:

====== ======
Chunk  Latency
====== ======
64 B   8 ns
512 B  64 ns
1 KB   117 ns
2 KB   214 ns
4 KB   425 ns
8 KB   809 ns
====== ======

:class:`MemcpyModel` interpolates linearly between those measured points
and extrapolates linearly outside them, so the Table 1 bench reproduces
the exact published numbers and everything else gets a smooth, monotonic
cost.  The §4.2 channel-throughput numbers (~64 Gbps at 64 B, ~81 Gbps at
8 KB per core) follow directly as ``size / latency``.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import List, Sequence, Tuple

from ..sim import NANOS

__all__ = ["MemcpyModel", "PAPER_TABLE1_POINTS"]

#: (chunk size in bytes, measured copy latency in ns) from Table 1.
PAPER_TABLE1_POINTS: Tuple[Tuple[int, float], ...] = (
    (64, 8.0),
    (512, 64.0),
    (1024, 117.0),
    (2048, 214.0),
    (4096, 425.0),
    (8192, 809.0),
)


class MemcpyModel:
    """Piecewise-linear copy-latency model through calibration points."""

    def __init__(
        self, points: Sequence[Tuple[int, float]] = PAPER_TABLE1_POINTS
    ) -> None:
        if len(points) < 2:
            raise ValueError("need at least two calibration points")
        self.points: List[Tuple[int, float]] = sorted(points)
        sizes = self._sizes = [s for s, _l in self.points]
        if len(set(sizes)) != len(sizes):
            raise ValueError("duplicate calibration sizes")
        if any(latency <= 0 for _s, latency in self.points):
            raise ValueError("latencies must be positive")

    def copy_latency_ns(self, size: int) -> float:
        """Latency in nanoseconds to copy ``size`` bytes."""
        if size < 0:
            raise ValueError("negative copy size")
        if size == 0:
            return 0.0
        sizes = self._sizes
        index = bisect_left(sizes, size)
        if index < len(sizes) and sizes[index] == size:
            return self.points[index][1]
        if index == 0:
            # Extrapolate toward zero from the first two points.
            (s0, l0), (s1, l1) = self.points[0], self.points[1]
        elif index == len(sizes):
            (s0, l0), (s1, l1) = self.points[-2], self.points[-1]
        else:
            (s0, l0), (s1, l1) = self.points[index - 1], self.points[index]
        slope = (l1 - l0) / (s1 - s0)
        return max(0.0, l0 + slope * (size - s0))

    def copy_latency(self, size: int) -> float:
        """Latency in seconds to copy ``size`` bytes."""
        return self.copy_latency_ns(size) * NANOS
