"""Generator-based simulation processes.

A process wraps a Python generator.  The generator *yields events* to
suspend; when the event fires the process resumes with the event's value
(or the event's exception raised at the yield point).  A process is itself
an :class:`~repro.sim.events.Event` that fires when the generator returns,
so processes can wait on each other.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from .events import Event, SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import Simulator

__all__ = ["Process"]


class Process(Event):
    """A running simulation process.

    The wrapped generator may ``yield`` any :class:`Event`; it resumes when
    that event fires.  The generator's ``return`` value becomes the
    process-event's value.

    A process is its own resume callback: calling it with the fired
    event resumes the generator, so a suspension stores the process in
    the event's ``callbacks`` and allocates nothing (no bound method, and
    no list for the sole waiter).
    """

    __slots__ = ("generator", "name", "_alive")

    def __init__(
        self,
        sim: "Simulator",
        generator: Generator,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(sim)
        if not hasattr(generator, "send"):
            raise TypeError(
                f"process body must be a generator, got {type(generator).__name__}"
            )
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._alive = True
        # Bootstrap: resume once at the current time.
        boot = Event(sim)
        boot.callbacks = self
        boot.succeed()

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._alive

    # -- kernel internals ----------------------------------------------------
    def __call__(self, event: Event) -> None:
        """Resume the generator with ``event``'s outcome."""
        if not self._alive:
            return
        try:
            # The fields, not the properties: a fired event is triggered.
            if event._ok:
                nxt = self.generator.send(event._value)
            else:
                nxt = self.generator.throw(event._value)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        except BaseException as exc:
            self._die(exc)
            return
        self._wait_on(nxt)

    def _wait_on(self, target: Any) -> None:
        if not isinstance(target, Event):
            self._die(
                SimulationError(
                    f"process {self.name!r} yielded {target!r}, expected an Event"
                )
            )
            return
        if target.sim is not self.sim:
            self._die(SimulationError("yielded event belongs to another simulator"))
            return
        # Inlined Event.add_callback — one call saved per process suspension.
        callbacks = target.callbacks
        if callbacks is None:
            self(target)
        elif not callbacks:
            target.callbacks = self
        elif callbacks.__class__ is list:
            callbacks.append(self)
        else:
            target.callbacks = [callbacks, self]

    def _finish(self, value: Any) -> None:
        self._alive = False
        self.succeed(value)

    def _die(self, exc: BaseException) -> None:
        self._alive = False
        if self.callbacks is not None and not self.callbacks and self._ok is None:
            # Nobody is waiting on this process: surface the crash loudly
            # instead of swallowing it.
            raise exc
        self.fail(exc)
