"""Discrete-event simulation kernel used by every subsystem in repro.

Public surface:

* :class:`Simulator` — clock + event queue (one ``heapq`` list).
* :class:`Deadline` — a lazily re-armed protocol timer (one live entry).
* :class:`Event`, :class:`Timeout`, :class:`AnyOf`, :class:`AllOf` — waitables.
* :class:`Process` — generator-based coroutine; also an event.
* :class:`Store`, :class:`Resource`, :class:`Container` — shared resources.
* :data:`NANOS`, :data:`MICROS`, :data:`MILLIS` — time-unit helpers.
"""

from .engine import MICROS, MILLIS, NANOS, Deadline, Simulator
from .events import AllOf, AnyOf, Event, Interrupt, SimulationError, Timeout
from .fluid import FidelityController, FluidFlow, FluidRoute
from .process import Process
from .resources import Container, Resource, Store

__all__ = [
    "Simulator",
    "Deadline",
    "FidelityController",
    "FluidFlow",
    "FluidRoute",
    "Event",
    "Timeout",
    "AnyOf",
    "AllOf",
    "Interrupt",
    "SimulationError",
    "Process",
    "Store",
    "Resource",
    "Container",
    "NANOS",
    "MICROS",
    "MILLIS",
]
