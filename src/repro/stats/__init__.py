"""Measurement: throughput meters and latency percentiles.

The periodic time-series sampler (:mod:`.series`) is imported from its
module.
"""

from .metrics import LatencyRecorder, ThroughputMeter, percentile

__all__ = [
    "ThroughputMeter",
    "LatencyRecorder",
    "percentile",
]
