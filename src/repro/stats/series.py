"""Time-series sampling for utilization / backlog plots."""

from __future__ import annotations

from typing import Callable, List, Tuple

from ..sim import Simulator

__all__ = ["PeriodicSampler"]


class PeriodicSampler:
    """Runs ``probe()`` every ``interval`` and appends ``(time, value)`` to
    :attr:`series`."""

    def __init__(
        self,
        sim: Simulator,
        probe: Callable[[], float],
        interval: float = 0.1,
        name: str = "sampler",
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.series: List[Tuple[float, float]] = []
        self._probe = probe
        self._interval = interval
        sim.process(self._loop(sim), name=name)

    def _loop(self, sim: Simulator):
        while True:
            yield sim.timeout(self._interval)
            self.series.append((sim.now, float(self._probe())))
