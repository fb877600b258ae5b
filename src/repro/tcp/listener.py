"""Passive-open handling: the listen/accept queue."""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from ..net import Endpoint
from ..sim import Event, Simulator, Store

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .connection import TcpConnection

__all__ = ["Listener"]


class Listener:
    """A listening socket: completed connections queue for ``accept()``.

    ``backlog`` bounds connections that finished the handshake but have not
    been accepted; beyond it new SYNs are dropped (the client retries), as
    with a full real accept queue.
    """

    def __init__(self, sim: Simulator, port: int, backlog: int = 128) -> None:
        if backlog < 1:
            raise ValueError("backlog must be >= 1")
        self.sim = sim
        self.port = port
        self.backlog = backlog
        self._accept_queue: Store = Store(sim, capacity=backlog)
        self._watchers: list = []
        self.closed = False
        #: ServiceLib hook: called with each newly established connection.
        self.on_new_connection: Optional[Callable[["TcpConnection"], None]] = None
        self.dropped_full = 0
        self._local: Optional[Endpoint] = None
        #: :meth:`enqueue_established`, bound once: every child
        #: connection's ``on_established_cb`` shares it instead of holding
        #: a 64 B bound method of its own.
        self.on_established = self.enqueue_established

    def local_endpoint(self, ip: str) -> Endpoint:
        """The local endpoint of a connection accepted here at ``ip``:
        one shared by every such connection, not one each."""
        local = self._local
        if local is None or local.ip != ip:
            local = self._local = Endpoint(ip, self.port)
        return local

    @property
    def queue_length(self) -> int:
        return len(self._accept_queue)

    def can_admit(self) -> bool:
        return not self.closed and not self._accept_queue.is_full

    def enqueue_established(self, conn: "TcpConnection") -> None:
        """Called by the stack once a child's handshake completes.

        With an ``on_new_connection`` callback installed (ServiceLib's
        nk_new_accept path) the callback *is* the consumer, so the
        connection bypasses the accept queue entirely.
        """
        if self.on_new_connection is not None:
            self.on_new_connection(conn)
            return
        if not self._accept_queue.try_put(conn):
            self.dropped_full += 1
            conn.abort()
            return
        if self._watchers:
            watchers, self._watchers = self._watchers, []
            for watcher in watchers:
                watcher.succeed()

    def accept(self) -> Event:
        """Event fires with the next established :class:`TcpConnection`."""
        if self.closed:
            raise RuntimeError(f"accept() on closed listener :{self.port}")
        return self._accept_queue.get()

    def watch_readable(self, waiter) -> None:
        """Readiness (epoll EPOLLIN): ``waiter.succeed()`` once a
        connection is queued."""
        if len(self._accept_queue) > 0:
            waiter.succeed()
        else:
            self._watchers.append(waiter)

    def close(self) -> None:
        self.closed = True
