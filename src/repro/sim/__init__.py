"""Discrete-event simulation kernel used by every subsystem in repro.

Public surface:

* :class:`Simulator` — clock + event queue (one ``heapq`` list).
* :class:`Deadline` — a lazily re-armed protocol timer (one live entry).
* :class:`FifoTimer` — items due a fixed delay after they are added, in
  order, behind one queue entry (TCP's TIME_WAIT expiry).
* :class:`Event`, :class:`Timeout`, :class:`AnyOf` — waitables.
* :class:`Process` — generator-based coroutine; also an event.
* :class:`Store` — a FIFO item queue (the listener's accept queue,
  ServiceLib's worker shards).
* :data:`NANOS` — the time-unit helper for nanosecond costs.

The fluid engine (:mod:`.fluid`) sits above TCP and is imported from its
module by the runs that install it; other layers reach it only through
``Simulator.fidelity``, one guarded call per site.
"""

from .engine import NANOS, Deadline, FifoTimer, Simulator
from .events import AnyOf, Event, SimulationError, Timeout
from .process import Process
from .resources import Store

__all__ = [
    "Simulator",
    "Deadline",
    "FifoTimer",
    "Event",
    "Timeout",
    "AnyOf",
    "SimulationError",
    "Process",
    "Store",
    "NANOS",
]
