"""Cheap per-layer counters with optional sim-clock cadence snapshots.

A :class:`CounterSet` is a flat name -> number map: ``inc`` for monotonic
counts (ops, bytes, drops, retransmits), ``set_max`` for high-water marks
(queue occupancy).  Increments are one dict operation — cheap enough to
leave on for every instrumented event when the tracer is enabled.

:class:`CounterCadence` snapshots the whole set on a fixed simulated-time
interval, producing the coarse time series that provider-side monitoring
consumes without needing per-event data.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

__all__ = ["CounterSet", "CounterCadence"]


class CounterSet:
    """Flat named counters: monotonic increments and high-water marks."""

    __slots__ = ("_values",)

    def __init__(self) -> None:
        self._values: Dict[str, float] = {}

    def inc(self, name: str, delta: float = 1) -> None:
        values = self._values
        values[name] = values.get(name, 0) + delta

    def set_max(self, name: str, value: float) -> None:
        values = self._values
        if value > values.get(name, 0):
            values[name] = value

    def get(self, name: str, default: float = 0) -> float:
        return self._values.get(name, default)

    def as_dict(self) -> Dict[str, float]:
        return dict(self._values)

    def clear(self) -> None:
        self._values.clear()

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, name: str) -> bool:
        return name in self._values


class CounterCadence:
    """Snapshot a :class:`CounterSet` every ``interval`` simulated seconds.

    The snapshot process runs forever; it is only started by
    ``Tracer.attach`` when a cadence was requested, and simulations driven
    with ``sim.run(until=...)`` (every experiment harness) terminate
    normally.  A ``sim.run()`` with no horizon would spin on the cadence
    timer — don't enable a cadence for open-ended runs.
    """

    def __init__(self, interval: float) -> None:
        if interval <= 0:
            raise ValueError("cadence interval must be positive")
        self.interval = interval
        self.snapshots: List[Tuple[float, Dict[str, float]]] = []

    def start(self, sim, counters: CounterSet) -> None:
        sim.process(self._run(sim, counters), name="obs.cadence")

    def _run(self, sim, counters: CounterSet):
        while True:
            yield sim.timeout(self.interval)
            self.snapshots.append((sim.now, counters.as_dict()))
