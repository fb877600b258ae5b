"""Measurement: throughput meters, latency percentiles, time series."""

from .metrics import LatencyRecorder, ThroughputMeter, percentile
from .series import PeriodicSampler

__all__ = [
    "ThroughputMeter",
    "LatencyRecorder",
    "percentile",
    "PeriodicSampler",
]
