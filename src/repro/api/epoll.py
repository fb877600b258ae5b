"""epoll-style readiness multiplexing over a :class:`SocketApi`.

The paper's prototype defers select()/epoll() support to future work; we
implement it, since event-driven servers (the RPC and web workloads) need
it and it exercises GuestLib's event-notification path.

Readiness is tracked incrementally, the way a real epoll keeps its ready
list inside the kernel: each registered fd gets one :class:`_Item`, its
interest record and its readiness waiter at once (``api.watch_readable``),
and when the item fires the fd moves into a ready-set and wakes any
pending ``wait()``.  A ``wait()`` call therefore touches only the ready
fds — O(ready), not O(registered) — and arms nothing of its own.  An fd
is re-armed only after a ``wait()`` observes it unready again, so a
descriptor that stays readable across many waits (level-triggered
behaviour) costs nothing per wait.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..sim import Event, Simulator
from .errors import BadFileDescriptor
from .socket_api import SocketApi

__all__ = ["Epoll", "EPOLLIN"]

#: Readable readiness (the only event class the virtual API needs so far).
EPOLLIN = 0x001


class _Item:
    """A registered fd: its interest record and its readiness waiter.

    The socket API wakes a waiter by ``succeed()``; the item answers by
    queueing its own call at the ``(now, seq)`` ``Event.succeed`` would
    take, so an fd costs one 56 B item however often it is armed, and
    no Event.
    """

    __slots__ = ("epoll", "fd", "armed")

    def __init__(self, epoll: "Epoll", fd: int) -> None:
        self.epoll = epoll
        self.fd = fd
        #: Watched (or fired and not yet run): arming again is a no-op.
        self.armed = False

    def succeed(self, _value=None) -> None:
        self.epoll.sim.schedule_call(0.0, self)

    def __call__(self) -> None:
        self.armed = False
        epoll = self.epoll
        if epoll._interest.get(self.fd) is self:  # else unregistered since
            epoll._ready[self.fd] = None
            epoll._wake()


class Epoll:
    """Readiness multiplexer: register fds, wait for any to become ready."""

    def __init__(self, sim: Simulator, api: SocketApi) -> None:
        self.sim = sim
        self.api = api
        self._interest: Dict[int, _Item] = {}
        # fds believed readable; insertion-ordered, validated at wait().
        self._ready: Dict[int, None] = {}
        self._pending_wait: Optional[Event] = None

    def register(self, fd: int, events: int = EPOLLIN) -> None:
        if events != EPOLLIN:
            raise ValueError("only EPOLLIN is supported")
        if fd not in self._interest:
            self._interest[fd] = _Item(self, fd)
        if self.api.readable_now(fd):
            self._ready[fd] = None
            self._wake()
        else:
            self._arm(fd)

    def unregister(self, fd: int) -> None:
        if fd not in self._interest:
            raise BadFileDescriptor(f"fd {fd} not registered")
        # An armed item may still fire later (e.g. the peer's FIN); it
        # finds itself no longer registered and does nothing.
        del self._interest[fd]
        self._ready.pop(fd, None)

    def _arm(self, fd: int) -> None:
        """Have ``fd``'s item woken once ``fd`` is readable."""
        item = self._interest[fd]
        if not item.armed:
            item.armed = True
            self.api.watch_readable(fd, item)

    def _wake(self) -> None:
        pending = self._pending_wait
        if pending is None:
            return
        fired = self._collect_ready()
        if fired:
            self._pending_wait = None
            pending.succeed(fired)

    def _collect_ready(self) -> List[Tuple[int, int]]:
        """Validate the ready-set; re-arm fds that went unready."""
        fired: List[Tuple[int, int]] = []
        stale: List[int] = []
        for fd in self._ready:
            if self.api.readable_now(fd):
                fired.append((fd, EPOLLIN))
            else:
                stale.append(fd)
        for fd in stale:
            del self._ready[fd]
            self._arm(fd)
        return fired

    def wait(self) -> Event:
        """Event fires with ``[(fd, EPOLLIN), ...]`` of ready descriptors.

        Level-triggered: fds that are already readable fire immediately,
        and an fd left readable (e.g. a short ``recv``) reports again on
        the next ``wait()``.
        """
        if not self._interest:
            raise RuntimeError("epoll_wait() with an empty interest set")
        result = Event(self.sim)
        fired = self._collect_ready()
        if fired:
            result.succeed(fired)
            return result
        if self._pending_wait is not None:
            raise RuntimeError("epoll_wait() re-entered while already waiting")
        self._pending_wait = result
        return result
