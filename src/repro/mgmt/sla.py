"""Networking SLAs (§1, §2.1).

The paper's core provider-side argument: once the provider owns the stack
it can *define and meet* networking SLAs, because it can provision and
adjust resources (cores, NSMs) specifically for networking.  An
:class:`SlaSpec` states the guarantee; an :class:`SlaMonitor` samples the
delivered service and scores compliance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..sim import Simulator
from ..stats import LatencyRecorder, ThroughputMeter

__all__ = ["SlaSpec", "SlaReport", "SlaMonitor"]


@dataclass(frozen=True)
class SlaSpec:
    """A tenant's networking guarantee."""

    #: Minimum sustained throughput (bits/second); None = best effort.
    min_throughput_bps: Optional[float] = None
    #: Maximum mean request latency (seconds); None = best effort.
    max_latency: Optional[float] = None

    def __post_init__(self) -> None:
        if self.min_throughput_bps is not None and self.min_throughput_bps <= 0:
            raise ValueError("min_throughput_bps must be positive")
        if self.max_latency is not None and self.max_latency <= 0:
            raise ValueError("max_latency must be positive")


@dataclass
class SlaReport:
    tenant: str
    throughput_ok: Optional[bool]
    latency_ok: Optional[bool]
    measured_throughput_bps: float

    @property
    def compliant(self) -> bool:
        return all(ok is not False for ok in (self.throughput_ok, self.latency_ok))


class SlaMonitor:
    """Scores delivered service against an :class:`SlaSpec`.

    Feed it the tenant's meters; call :meth:`report` at the end of a
    measurement window.
    """

    def __init__(
        self,
        sim: Simulator,
        tenant: str,
        spec: SlaSpec,
        throughput: Optional[ThroughputMeter] = None,
        latency: Optional[LatencyRecorder] = None,
    ) -> None:
        self.sim = sim
        self.tenant = tenant
        self.spec = spec
        self.throughput = throughput
        self.latency = latency
        self.violations: List[str] = []

    def report(self, until: Optional[float] = None) -> SlaReport:
        measured_bps = self.throughput.bps(until) if self.throughput else 0.0
        measured_latency = self.latency.mean if self.latency else 0.0

        throughput_ok: Optional[bool] = None
        if self.spec.min_throughput_bps is not None and self.throughput is not None:
            throughput_ok = measured_bps >= self.spec.min_throughput_bps
            if not throughput_ok:
                self.violations.append(
                    f"throughput {measured_bps/1e6:.1f} Mbps < "
                    f"{self.spec.min_throughput_bps/1e6:.1f} Mbps"
                )
        latency_ok: Optional[bool] = None
        if self.spec.max_latency is not None and self.latency is not None:
            latency_ok = measured_latency <= self.spec.max_latency
            if not latency_ok:
                self.violations.append(
                    f"latency {measured_latency*1e6:.0f}us > "
                    f"{self.spec.max_latency*1e6:.0f}us"
                )
        return SlaReport(
            tenant=self.tenant,
            throughput_ok=throughput_ok,
            latency_ok=latency_ok,
            measured_throughput_bps=measured_bps,
        )
