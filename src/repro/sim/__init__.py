"""Discrete-event simulation kernel used by every subsystem in repro.

Public surface:

* :class:`Simulator` — clock + event queue (one ``heapq`` list).
* :class:`Deadline` — a lazily re-armed protocol timer (one live entry).
* :class:`Event`, :class:`Timeout`, :class:`AnyOf`, :class:`AllOf` — waitables.
* :class:`Process` — generator-based coroutine; also an event.
* :class:`Store` — a FIFO item queue (the listener's accept queue,
  ServiceLib's worker shards).
* :data:`NANOS` — the time-unit helper for nanosecond costs.

The fluid engine (:mod:`.fluid`) sits above TCP and is imported from its
module by the runs that install it.
"""

from .engine import NANOS, Deadline, Simulator
from .events import AllOf, AnyOf, Event, Interrupt, SimulationError, Timeout
from .process import Process
from .resources import Store

__all__ = [
    "Simulator",
    "Deadline",
    "Event",
    "Timeout",
    "AnyOf",
    "AllOf",
    "Interrupt",
    "SimulationError",
    "Process",
    "Store",
    "NANOS",
]
