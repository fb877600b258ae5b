"""Resource accounting: who used how much CPU and memory, for billing.

§5: "One may charge tenants based on ... CPU and memory utilization on
average per instance used".  This module turns core counters into
per-NSM usage records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..netkernel.nsm import NSM
from ..sim import Simulator

__all__ = ["UsageRecord", "Accountant"]


@dataclass
class UsageRecord:
    name: str
    core_seconds: float
    cores: int
    memory_gb: float
    utilization: float
    polling: bool


class Accountant:
    """Collects usage snapshots for NSMs."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._nsms: List[NSM] = []

    def track(self, nsm: NSM) -> None:
        if nsm not in self._nsms:
            self._nsms.append(nsm)

    def nsm_usage(self, nsm: NSM) -> UsageRecord:
        busy = sum(core.busy_seconds for core in nsm.cores)
        polling = any(core.busy_poll for core in nsm.cores)
        return UsageRecord(
            name=nsm.name,
            core_seconds=busy,
            cores=len(nsm.cores),
            memory_gb=nsm.form.memory_gb,
            utilization=nsm.cpu_utilization(),
            polling=polling,
        )

    def all_usage(self) -> Dict[str, UsageRecord]:
        return {nsm.name: self.nsm_usage(nsm) for nsm in self._nsms}
