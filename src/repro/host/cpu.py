"""CPU cores with work-conserving time accounting.

A :class:`Core` is a serial work queue: ``execute(cost)`` returns an event
that fires when the core has spent ``cost`` seconds on the request, after
finishing everything queued before it.  This gives saturated cores natural
queueing delay and makes "the NSM gets 1 dedicated core" a real constraint,
which the efficiency/SLA experiments rely on.

Utilization is tracked exactly (total busy seconds), so accounting and
pricing (:mod:`repro.mgmt`) can bill tenants per the paper's §5.
"""

from __future__ import annotations

from heapq import heappush
from typing import List, Optional

from ..obs import runtime as obs_runtime
from ..sim import Event, Simulator

__all__ = ["Core", "CpuSet"]


class Core:
    """One hardware thread, modelled as a serial FIFO of timed work items."""

    def __init__(self, sim: Simulator, name: str = "core", ghz: float = 2.3) -> None:
        if ghz <= 0:
            raise ValueError("clock rate must be positive")
        self.sim = sim
        self.name = name
        self.ghz = ghz
        self._busy_until = 0.0
        self.busy_seconds = 0.0
        self.ops = 0
        #: True when a busy-poll loop owns this core: every otherwise-idle
        #: cycle is burned polling, so accounting reports it fully busy.
        self.busy_poll = False
        self._tracer = obs_runtime.get_tracer()
        self._traced = self._tracer.enabled

    def _charge(self, cost_seconds: float) -> float:
        """Queue ``cost_seconds`` behind the core's backlog; return the
        delay from now until that work completes."""
        if not cost_seconds >= 0:  # NaN would poison _busy_until for good
            raise ValueError(f"negative or NaN CPU cost: {cost_seconds!r}")
        if self._traced:
            self._tracer.on_cpu(self.name, cost_seconds)
        now = self.sim.now
        start = self._busy_until
        if now > start:
            start = now
        finish = start + cost_seconds
        self._busy_until = finish
        self.busy_seconds += cost_seconds
        self.ops += 1
        # The delay, not ``finish``: this and ``execute_call`` schedule at
        # ``now + (finish - now)``, whose rounding every recorded
        # timestamp was taken with.
        return finish - now

    def execute(self, cost_seconds: float) -> Event:
        """Enqueue ``cost_seconds`` of work; event fires at completion."""
        return self.sim.timeout(self._charge(cost_seconds))

    def execute_call(self, cost_seconds: float, func, *args) -> None:
        """Charge ``cost_seconds``, then call ``func(*args)`` at completion.

        Same finish time as ``execute(cost).add_callback(...)`` without an
        event or a closure — the common shape for charging an op cost and
        then pushing an nqe or a packet; one frame (``_charge`` inlined).
        """
        if not cost_seconds >= 0:
            raise ValueError(f"negative or NaN CPU cost: {cost_seconds!r}")
        if self._traced:
            self._tracer.on_cpu(self.name, cost_seconds)
        sim = self.sim
        now = sim.now
        start = self._busy_until
        if now > start:
            start = now
        finish = start + cost_seconds
        self._busy_until = finish
        self.busy_seconds += cost_seconds
        self.ops += 1
        heappush(sim._queue, (now + (finish - now), next(sim._counter), func, args))

    @property
    def backlog_seconds(self) -> float:
        """Work currently queued ahead of a new arrival."""
        return max(0.0, self._busy_until - self.sim.now)

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Busy fraction over ``elapsed`` (defaults to the whole run)."""
        if self.busy_poll:
            return 1.0
        window = elapsed if elapsed is not None else self.sim.now
        if window <= 0:
            return 0.0
        return min(1.0, self.busy_seconds / window)

    def __repr__(self) -> str:
        return f"<Core {self.name} busy={self.busy_seconds:.6f}s>"


class CpuSet:
    """A named group of cores (a VM's vCPUs, an NSM's dedicated cores)."""

    def __init__(self, sim: Simulator, count: int, name: str = "cpu", ghz: float = 2.3) -> None:
        if count < 1:
            raise ValueError("a CPU set needs at least one core")
        self.sim = sim
        self.name = name
        self.cores: List[Core] = [
            Core(sim, name=f"{name}[{i}]", ghz=ghz) for i in range(count)
        ]
        self._rr = 0

    def __len__(self) -> int:
        return len(self.cores)

    def __iter__(self):
        return iter(self.cores)

    def __getitem__(self, index: int) -> Core:
        return self.cores[index]

    def pick(self) -> Core:
        """Round-robin core selection (RSS-style flow placement)."""
        core = self.cores[self._rr % len(self.cores)]
        self._rr += 1
        return core

    def total_busy_seconds(self) -> float:
        return sum(core.busy_seconds for core in self.cores)

    def utilization(self, elapsed: Optional[float] = None) -> float:
        window = elapsed if elapsed is not None else self.sim.now
        if window <= 0:
            return 0.0
        return min(1.0, self.total_busy_seconds() / (window * len(self.cores)))

    def add_core(self) -> Core:
        """Scale up: add one core to the set (used by mgmt.scaling)."""
        core = Core(self.sim, name=f"{self.name}[{len(self.cores)}]", ghz=self.cores[0].ghz)
        self.cores.append(core)
        return core
