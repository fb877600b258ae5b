"""Event primitives for the discrete-event simulation kernel.

An :class:`Event` is a one-shot occurrence with an attached value.  Processes
(see :mod:`repro.sim.process`) yield events to suspend until the event is
triggered.  Events may *succeed* (carrying a value) or *fail* (carrying an
exception that is re-raised inside every waiting process).

The design follows the classic SimPy shape but is implemented from scratch
and trimmed to what this project needs.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, Iterable, List, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import Simulator

__all__ = ["Event", "Timeout", "AnyOf", "SimulationError"]


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel (e.g. double trigger)."""


class Event:
    """A one-shot event that callbacks and processes can wait on.

    Events move through three states: *pending* (created, not triggered;
    ``_ok`` is None), *triggered* (scheduled to fire; ``_ok`` says whether
    it succeeded), and *processed* (callbacks have run; ``callbacks`` is
    None).

    :attr:`callbacks` costs nothing per waiter it does not need: the
    shared empty tuple with no waiter, the waiter itself (a callable,
    never a list or a falsy object) with one, a list in attach order with
    two or more, and ``None`` once processed.  Most events (fire-and-forget timers, a
    process's own completion) never get a waiter, and most of the rest
    get exactly one: the process asleep on them.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        #: ``()``, one waiter, or a list of waiters; ``None`` once
        #: processed (see the class docstring).
        self.callbacks: Any = ()
        self._value: Any = None
        #: None while pending, then True (succeeded) or False (failed).
        self._ok: Optional[bool] = None

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._ok is not None

    @property
    def processed(self) -> bool:
        """True once all callbacks have executed."""
        return self.callbacks is None

    @property
    def ok(self) -> Optional[bool]:
        """True if the event succeeded, False if it failed, None while
        pending."""
        return self._ok

    @property
    def value(self) -> Any:
        """The value the event fired with."""
        if self._ok is None:
            raise SimulationError("value read before event was triggered")
        return self._value

    # -- triggering --------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._ok is not None:
            raise SimulationError("event already triggered")
        self._ok = True
        self._value = value
        # Inlined Simulator._schedule_event — succeed() is the kernel's
        # hottest trigger path.
        sim = self.sim
        heappush(sim._queue, (sim.now, next(sim._counter), self, None))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        Every process waiting on the event will have ``exception`` raised at
        its yield point.
        """
        if self._ok is not None:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.sim._schedule_event(self)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Attach ``callback(event)``; runs immediately if already processed."""
        callbacks = self.callbacks
        if callbacks is None:
            callback(self)
        elif not callbacks:
            self.callbacks = callback
        elif callbacks.__class__ is list:
            callbacks.append(callback)
        else:
            self.callbacks = [callbacks, callback]


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if not delay >= 0:  # also refuses NaN, which would corrupt the heap
            raise ValueError(f"negative or NaN timeout delay: {delay!r}")
        super().__init__(sim)
        self._ok = True
        self._value = value
        sim._schedule_event(self, delay=delay)


class AnyOf(Event):
    """Fires when any child event fires; value maps fired events to values."""

    __slots__ = ("events",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self.events: List[Event] = list(events)
        if not self.events:
            self.succeed({})
            return
        for event in self.events:
            if event.sim is not sim:
                raise SimulationError("cannot mix events from different simulators")
            event.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self._ok is not None:
            return
        if not event.ok:
            self.fail(event.value)
            return
        # ``processed`` (not ``triggered``): a Timeout counts as triggered
        # from construction, but only events that actually fired belong in
        # the value.
        self.succeed(
            {child: child.value for child in self.events if child.processed and child.ok}
        )
