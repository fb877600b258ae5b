"""Trumpet-style precise monitoring triggers (§5).

"management protocols such as failure detection [17] and monitoring [28]
can be deployed readily as NSMs" — [28] is Trumpet (Moshref et al.,
SIGCOMM 2016): per-host *trigger engines* that evaluate predicates over
packet events at fine time granularity and fire alerts within
milliseconds.

Because the provider owns the NSM, the trigger engine reads each tenant's
stack counters directly — no tenant cooperation, no mirror taps.  A
:class:`Trigger` watches one NSM-level signal (tenant egress rate, active
connections, retransmission rate) against a threshold over a sliding
window; the :class:`TriggerEngine` evaluates every trigger at a fixed
sweep interval and records firings.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..netkernel.nsm import NSM
from ..sim import Simulator

__all__ = ["Signal", "Trigger", "TriggerEvent", "TriggerEngine"]


class Signal(enum.Enum):
    """What a trigger watches, per NSM."""

    EGRESS_BPS = "egress-bps"
    INGRESS_BPS = "ingress-bps"
    ACTIVE_CONNECTIONS = "connections"
    RETRANSMIT_RATE = "retransmits-per-s"
    #: Packets/s the NSM's NIC dropped because it is failed (blackholed):
    #: the provider-side signal that an NSM needs replacing — faults are
    #: injected by :mod:`repro.faults`, detected here.
    NIC_DROPS = "nic-drops-per-s"


@dataclass
class TriggerEvent:
    at: float
    trigger: str
    nsm: str
    value: float
    threshold: float


@dataclass
class Trigger:
    """Fire when ``signal`` compared to ``threshold`` holds for a sweep."""

    name: str
    nsm: NSM
    signal: Signal
    threshold: float
    above: bool = True  # fire when value > threshold (else when below)
    #: Suppress refiring for this long after an event (hysteresis).
    cooldown: float = 0.1
    _last_fired: float = field(default=-1e9, repr=False)
    _last_counters: Dict[str, float] = field(default_factory=dict, repr=False)

    def _sample(self, now: float, interval: float) -> float:
        stats = self.nsm.stack.stats
        if self.signal is Signal.ACTIVE_CONNECTIONS:
            return float(self.nsm.stack.connection_count)
        counters = {
            Signal.EGRESS_BPS: float(stats.bytes_out) * 8.0,
            Signal.INGRESS_BPS: float(stats.bytes_in) * 8.0,
            # The stack's own total over every connection it has carried:
            # it never drops when a connection closes.
            Signal.RETRANSMIT_RATE: float(stats.retransmits),
            Signal.NIC_DROPS: float(self.nsm.nic.dropped_failed),
        }
        current = counters[self.signal]
        previous = self._last_counters.get(self.signal.value, current)
        self._last_counters[self.signal.value] = current
        return (current - previous) / interval if interval > 0 else 0.0

    def evaluate(self, now: float, interval: float) -> Optional[TriggerEvent]:
        value = self._sample(now, interval)
        breached = value > self.threshold if self.above else value < self.threshold
        if not breached or now - self._last_fired < self.cooldown:
            return None
        self._last_fired = now
        return TriggerEvent(
            at=now,
            trigger=self.name,
            nsm=self.nsm.name,
            value=value,
            threshold=self.threshold,
        )


class TriggerEngine:
    """Sweeps all installed triggers every ``interval`` seconds."""

    def __init__(self, sim: Simulator, interval: float = 0.010) -> None:
        if interval <= 0:
            raise ValueError("sweep interval must be positive")
        self.sim = sim
        self.interval = interval
        self.triggers: List[Trigger] = []
        self.events: List[TriggerEvent] = []
        self.on_event: Optional[Callable[[TriggerEvent], None]] = None
        self.sweeps = 0
        sim.process(self._sweep_loop(), name="trumpet-engine")

    def install(self, trigger: Trigger) -> Trigger:
        if any(existing.name == trigger.name for existing in self.triggers):
            raise ValueError(f"duplicate trigger name {trigger.name!r}")
        self.triggers.append(trigger)
        return trigger

    def remove(self, name: str) -> None:
        self.triggers = [t for t in self.triggers if t.name != name]

    def _sweep_loop(self):
        while True:
            yield self.sim.timeout(self.interval)
            self.sweeps += 1
            for trigger in self.triggers:
                event = trigger.evaluate(self.sim.now, self.interval)
                if event is not None:
                    self.events.append(event)
                    if self.on_event is not None:
                        self.on_event(event)

    def events_for(self, trigger_name: str) -> List[TriggerEvent]:
        return [e for e in self.events if e.trigger == trigger_name]
