"""NSM scaling: scale-up (more cores) and scale-out (more NSMs).

§2.1: the provider can "dynamically scale up the network stack module
with more dedicated cores; or scale out with more modules to support
higher throughput to a large number of concurrent connections".  The
controller here implements both with a simple utilization policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..netkernel.nsm import NSM
from ..netkernel.provision import Hypervisor
from ..sim import Simulator

__all__ = ["ScalingPolicy", "ScalingController"]


@dataclass
class ScalingPolicy:
    """Thresholds driving the controller."""

    #: Scale up/out when utilization exceeds this for one interval.
    high_watermark: float = 0.85
    check_interval: float = 0.5
    #: Scale up (add a core) until this many, then scale out.
    max_cores_per_nsm: int = 4


@dataclass
class ScalingAction:
    at: float
    nsm: str
    action: str


class ScalingController:
    """Watches NSM utilization and adds cores or sibling NSMs."""

    def __init__(
        self,
        sim: Simulator,
        hypervisor: Hypervisor,
        policy: Optional[ScalingPolicy] = None,
    ) -> None:
        self.sim = sim
        self.hypervisor = hypervisor
        self.policy = policy or ScalingPolicy()
        self.actions: List[ScalingAction] = []
        self._last_busy: dict[int, float] = {}
        sim.process(self._loop(), name="scaling-controller")

    def _interval_utilization(self, nsm: NSM) -> float:
        """Utilization over the last check interval (not since t=0)."""
        busy = sum(core.busy_seconds for core in nsm.cores)
        prev = self._last_busy.get(nsm.nsm_id, 0.0)
        self._last_busy[nsm.nsm_id] = busy
        window = self.policy.check_interval * len(nsm.cores)
        return min(1.0, (busy - prev) / window) if window > 0 else 0.0

    def _loop(self):
        while True:
            yield self.sim.timeout(self.policy.check_interval)
            for nsm in list(self.hypervisor.nsms):
                if self._interval_utilization(nsm) >= self.policy.high_watermark:
                    self._grow(nsm)

    def _grow(self, nsm: NSM) -> None:
        if len(nsm.cores) < self.policy.max_cores_per_nsm:
            core = self.hypervisor.host.allocate_cores(1)[0]
            nsm.cores.append(core)
            nsm.stack.cores.append(core)
            self.actions.append(ScalingAction(self.sim.now, nsm.name, "scale-up"))
            return
        # The sibling runs the same stack: its spec is the NSM's own (specs
        # are not mutated after boot, so sharing one is safe).
        self.hypervisor.boot_nsm(nsm.spec, name=f"{nsm.name}-sib{len(self.actions)}")
        self.actions.append(ScalingAction(self.sim.now, nsm.name, "scale-out"))
