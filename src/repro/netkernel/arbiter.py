"""Fastpass-style centralized arbitration as an NSM capability (§5).

"some new protocols such as Fastpass [31] and pHost [14] require
coordination among end-hosts and are deemed infeasible for public clouds.
They can now be implemented as NSMs and deployed easily for all tenants."

Fastpass (Perry et al., SIGCOMM 2014) achieves a "zero-queue" datacenter
by having a logically centralized arbiter assign each packet a timeslot,
so the fabric never accumulates a standing queue.  Here the arbiter is a
provider service; NSMs whose spec carries a reference to it ask for a
transmission grant before submitting each SEND to their stack — possible
precisely because the provider owns every participating stack, which is
the paper's point.

The model: one arbiter per fabric bottleneck, granting byte-timeslots at
``fabric_rate_bps`` with a small control round-trip per grant.  Sends
admitted this way arrive at the bottleneck already conforming, so the
switch queue stays near empty and latency-sensitive neighbours never see
bufferbloat.
"""

from __future__ import annotations

from typing import Optional

from ..sim import Event, Simulator

__all__ = ["FastpassArbiter"]


class FastpassArbiter:
    """Grants fabric timeslots; never oversubscribes the bottleneck."""

    def __init__(
        self,
        sim: Simulator,
        fabric_rate_bps: float,
        control_delay: float = 20e-6,
        utilization_target: float = 0.98,
    ) -> None:
        if fabric_rate_bps <= 0:
            raise ValueError("fabric rate must be positive")
        if control_delay < 0:
            raise ValueError("control delay must be >= 0")
        if not 0 < utilization_target <= 1.0:
            raise ValueError("utilization target must be in (0, 1]")
        self.sim = sim
        #: Timeslots are issued at slightly under fabric rate so the
        #: bottleneck queue drains between grants.
        self.grant_rate_bytes_per_s = fabric_rate_bps * utilization_target / 8.0
        self.control_delay = control_delay
        self._horizon = 0.0  # next free timeslot on the fabric
        self.grants_issued = 0
        self.bytes_granted = 0

    def request(self, nbytes: int) -> Event:
        """Ask for a timeslot for ``nbytes``; fires when transmission may
        start (the arbiter's schedule guarantees the fabric is clear)."""
        if nbytes <= 0:
            raise ValueError("grant request must be positive")
        event = Event(self.sim)
        earliest = self.sim.now + self.control_delay
        start = max(earliest, self._horizon)
        self._horizon = start + nbytes / self.grant_rate_bytes_per_s
        self.grants_issued += 1
        self.bytes_granted += nbytes
        self.sim.schedule_call(start - self.sim.now, event.succeed)
        return event
