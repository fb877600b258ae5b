"""The tenant-facing socket API.

Applications program against :class:`SocketApi` — the classic BSD socket
verbs over integer file descriptors, asynchronous (every call returns a
simulation :class:`~repro.sim.events.Event`).  Two implementations exist:

* :class:`KernelSocketApi` — the legacy path: calls go to the TCP stack in
  the guest kernel, and ``set_congestion_control`` is limited to what that
  kernel ships (a Windows guest cannot pick BBR).
* :class:`~repro.netkernel.guestlib.GuestLib` — the NetKernel path: calls
  become nqes in shared-memory queues and execute in the NSM.

Because both present the same surface, the *same application code* runs on
either — the paper's "applications do not need to change" property, tested
explicitly in the integration suite.
"""

from __future__ import annotations

from typing import Dict, Optional, Protocol, Union

from ..net import Endpoint
from ..sim import Event, Simulator
from ..tcp import Listener, TcpConnection, TcpStack
from .errors import (
    AddressInUse,
    BadFileDescriptor,
    InvalidSocketState,
    UnsupportedCongestionControl,
    wrap_transport_error,
)

__all__ = ["SocketApi", "KernelSocketApi"]


class SocketApi(Protocol):
    """The socket interface (BSD verbs, fd-based, event-returning) that
    :class:`KernelSocketApi` and GuestLib both provide."""

    def socket(self) -> Event:
        """Create a socket; event fires with the new fd."""

    def bind(self, fd: int, port: int) -> Event:
        """Assign a local port; event fires when the binding is in effect.

        The kernel implementation resolves immediately; the NetKernel
        implementation round-trips through the NSM.  Argument errors raise
        synchronously in both.
        """

    def listen(self, fd: int, backlog: int = 128) -> Event:
        """Start accepting; event fires when the listener is live."""

    def accept(self, fd: int) -> Event:
        """Event fires with the fd of the next accepted connection."""

    def connect(self, fd: int, remote: Endpoint) -> Event:
        """Event fires when the handshake completes (or fails)."""

    def send(self, fd: int, nbytes: int) -> Event:
        """Event fires with the byte count accepted into the send buffer."""

    def recv(self, fd: int, max_bytes: int) -> Event:
        """Event fires with bytes read; 0 means EOF."""

    def close(self, fd: int) -> Event:
        """close(2) semantics: fires once the fd is released to the app.

        Teardown (send-buffer drain, FIN handshake, TIME_WAIT) continues
        in the background, as with real sockets.
        """

    def set_congestion_control(self, fd: int, name: str) -> None:
        """setsockopt(TCP_CONGESTION) equivalent (synchronous, may raise)."""

    # -- readiness (epoll support) ---------------------------------------------
    def watch_readable(self, fd: int, waiter) -> None:
        """Call ``waiter.succeed()`` once recv()/accept() would not block."""

    def readable_now(self, fd: int) -> bool:
        """Whether recv()/accept() would not block right now."""


class _KernelSocket:
    """fd-table entry for :class:`KernelSocketApi` until the socket
    connects: a connected fd maps to its :class:`TcpConnection` itself."""

    __slots__ = ("bound_port", "cc_name", "listener")

    def __init__(self) -> None:
        self.bound_port: Optional[int] = None
        self.cc_name: Optional[str] = None
        self.listener: Optional[Listener] = None


class KernelSocketApi:
    """Sockets served by the guest kernel's own TCP stack (legacy path)."""

    def __init__(
        self,
        sim: Simulator,
        stack: TcpStack,
        available_cc: Optional[frozenset] = None,
    ) -> None:
        self.sim = sim
        self.stack = stack
        self.available_cc = available_cc
        self._fds: Dict[int, Union[_KernelSocket, TcpConnection]] = {}
        self._next_fd = 3  # 0/1/2 are stdio, as tradition demands
        self._bound_ports: Dict[int, int] = {}  # port -> the live fd holding it

    @property
    def ip(self) -> str:
        return self.stack.ip

    # -- helpers -----------------------------------------------------------------
    def _alloc_fd(self, entry) -> int:
        fd = self._next_fd
        self._next_fd += 1
        self._fds[fd] = entry
        return fd

    def _get(self, fd: int):
        try:
            return self._fds[fd]
        except KeyError:
            raise BadFileDescriptor(f"fd {fd}") from None

    def _socket(self, fd: int) -> _KernelSocket:
        sock = self._get(fd)
        if sock.__class__ is not _KernelSocket:
            raise InvalidSocketState(f"fd {fd} already connected")
        return sock

    def _conn(self, fd: int) -> TcpConnection:
        conn = self._get(fd)
        if conn.__class__ is _KernelSocket:
            raise InvalidSocketState(f"fd {fd} not connected")
        return conn

    # -- API ----------------------------------------------------------------------
    def socket(self) -> Event:
        event = Event(self.sim)
        event.succeed(self._alloc_fd(_KernelSocket()))
        return event

    def bind(self, fd: int, port: int) -> Event:
        sock = self._socket(fd)
        if sock.listener is not None:
            raise InvalidSocketState(f"fd {fd} already active")
        if port in self._bound_ports:
            raise AddressInUse(f"port {port}")
        sock.bound_port = port
        self._bound_ports[port] = fd
        event = Event(self.sim)
        event.succeed()
        return event

    def listen(self, fd: int, backlog: int = 128) -> Event:
        sock = self._socket(fd)
        if sock.bound_port is None:
            raise InvalidSocketState(f"fd {fd} not bound")
        if sock.listener is not None:
            raise InvalidSocketState(f"fd {fd} already listening")
        sock.listener = self.stack.listen(
            sock.bound_port, backlog, congestion_control=sock.cc_name
        )
        event = Event(self.sim)
        event.succeed()
        return event

    def accept(self, fd: int) -> Event:
        sock = self._socket(fd)
        if sock.listener is None:
            raise InvalidSocketState(f"fd {fd} is not listening")
        accepted = sock.listener.accept()
        result = Event(self.sim)
        accepted.add_callback(
            lambda ev: result.succeed(self._alloc_fd(ev.value))
        )
        return result

    def connect(self, fd: int, remote: Endpoint) -> Event:
        sock = self._socket(fd)
        conn = self._fds[fd] = self.stack.connect(
            remote,
            congestion_control=sock.cc_name,
            local_port=sock.bound_port,
        )
        result = Event(self.sim)
        established = conn.established

        def finish(ev: Event) -> None:
            if ev.ok:
                result.succeed()
            else:
                result.fail(wrap_transport_error(ev.value))

        established.add_callback(finish)
        return result

    def send(self, fd: int, nbytes: int) -> Event:
        return self._conn(fd).send(nbytes)

    def recv(self, fd: int, max_bytes: int) -> Event:
        return self._conn(fd).recv(max_bytes)

    def close(self, fd: int) -> Event:
        """Like close(2): returns once the fd is gone from the app's view.

        The connection machinery continues in the background (data drain,
        FIN handshake, TIME_WAIT) exactly as real kernels do.
        """
        entry = self._get(fd)
        del self._fds[fd]
        if entry.__class__ is _KernelSocket:
            port = entry.bound_port
            if entry.listener is not None:
                entry.listener.close()
        else:
            port = entry.key[0]
            entry.start_close()
        if self._bound_ports.get(port) == fd:
            del self._bound_ports[port]
        event = Event(self.sim)
        event.succeed()
        return event

    def set_congestion_control(self, fd: int, name: str) -> None:
        sock = self._get(fd)
        if self.available_cc is not None and name not in self.available_cc:
            raise UnsupportedCongestionControl(
                f"{name!r} is not available in this guest kernel "
                f"(have: {sorted(self.available_cc)})"
            )
        if sock.__class__ is not _KernelSocket:
            raise InvalidSocketState("set congestion control before connect()")
        sock.cc_name = name

    # -- readiness ----------------------------------------------------------------
    def watch_readable(self, fd: int, waiter) -> None:
        entry = self._get(fd)
        if entry.__class__ is _KernelSocket:
            entry = entry.listener
            if entry is None:
                raise InvalidSocketState(
                    f"fd {fd} is neither connected nor listening"
                )
        entry.watch_readable(waiter)

    def readable_now(self, fd: int) -> bool:
        entry = self._get(fd)
        if entry.__class__ is _KernelSocket:
            return entry.listener is not None and entry.listener.queue_length > 0
        buffer = entry.recv_buffer
        return buffer.available > 0 or buffer.eof
