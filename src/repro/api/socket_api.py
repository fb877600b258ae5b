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

from typing import Dict, Optional, Protocol

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
    def wait_readable(self, fd: int) -> Event:
        """Fires when recv()/accept() would not block."""

    def readable_now(self, fd: int) -> bool:
        """Whether recv()/accept() would not block right now."""


class _KernelSocket:
    """fd-table entry for :class:`KernelSocketApi`."""

    __slots__ = ("fd", "bound_port", "cc_name", "listener", "conn")

    def __init__(self, fd: int) -> None:
        self.fd = fd
        self.bound_port: Optional[int] = None
        self.cc_name: Optional[str] = None
        self.listener: Optional[Listener] = None
        self.conn: Optional[TcpConnection] = None


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
        self._fds: Dict[int, _KernelSocket] = {}
        self._next_fd = 3  # 0/1/2 are stdio, as tradition demands
        self._bound_ports: set = set()  # ports held by live fds

    @property
    def ip(self) -> str:
        return self.stack.ip

    # -- helpers -----------------------------------------------------------------
    def _alloc_fd(self) -> _KernelSocket:
        fd = self._next_fd
        self._next_fd += 1
        sock = _KernelSocket(fd)
        self._fds[fd] = sock
        return sock

    def _get(self, fd: int) -> _KernelSocket:
        try:
            return self._fds[fd]
        except KeyError:
            raise BadFileDescriptor(f"fd {fd}") from None

    def _register_conn(self, conn: TcpConnection) -> int:
        sock = self._alloc_fd()
        sock.conn = conn
        return sock.fd

    # -- API ----------------------------------------------------------------------
    def socket(self) -> Event:
        sock = self._alloc_fd()
        event = Event(self.sim)
        event.succeed(sock.fd)
        return event

    def bind(self, fd: int, port: int) -> Event:
        sock = self._get(fd)
        if sock.conn is not None or sock.listener is not None:
            raise InvalidSocketState(f"fd {fd} already active")
        if port in self._bound_ports:
            raise AddressInUse(f"port {port}")
        sock.bound_port = port
        self._bound_ports.add(port)
        event = Event(self.sim)
        event.succeed()
        return event

    def listen(self, fd: int, backlog: int = 128) -> Event:
        sock = self._get(fd)
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
        sock = self._get(fd)
        if sock.listener is None:
            raise InvalidSocketState(f"fd {fd} is not listening")
        accepted = sock.listener.accept()
        result = Event(self.sim)
        accepted.add_callback(
            lambda ev: result.succeed(self._register_conn(ev.value))
        )
        return result

    def connect(self, fd: int, remote: Endpoint) -> Event:
        sock = self._get(fd)
        if sock.conn is not None:
            raise InvalidSocketState(f"fd {fd} already connected")
        sock.conn = self.stack.connect(
            remote,
            congestion_control=sock.cc_name,
            local_port=sock.bound_port,
        )
        result = Event(self.sim)
        established = sock.conn.established

        def finish(ev: Event) -> None:
            if ev.ok:
                result.succeed()
            else:
                result.fail(wrap_transport_error(ev.value))

        established.add_callback(finish)
        return result

    def send(self, fd: int, nbytes: int) -> Event:
        sock = self._get(fd)
        if sock.conn is None:
            raise InvalidSocketState(f"fd {fd} not connected")
        return sock.conn.send(nbytes)

    def recv(self, fd: int, max_bytes: int) -> Event:
        sock = self._get(fd)
        if sock.conn is None:
            raise InvalidSocketState(f"fd {fd} not connected")
        return sock.conn.recv(max_bytes)

    def close(self, fd: int) -> Event:
        """Like close(2): returns once the fd is gone from the app's view.

        The connection machinery continues in the background (data drain,
        FIN handshake, TIME_WAIT) exactly as real kernels do.
        """
        sock = self._get(fd)
        self._fds.pop(fd, None)
        if sock.bound_port is not None:
            self._bound_ports.discard(sock.bound_port)
        if sock.conn is not None:
            sock.conn.close()
        elif sock.listener is not None:
            sock.listener.close()
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
        if sock.conn is not None:
            raise InvalidSocketState("set congestion control before connect()")
        sock.cc_name = name

    # -- readiness ----------------------------------------------------------------
    def wait_readable(self, fd: int) -> Event:
        sock = self._get(fd)
        if sock.conn is not None:
            event = Event(self.sim)
            sock.conn.watch_readable(event)
            return event
        if sock.listener is not None:
            return sock.listener.wait_pending()
        raise InvalidSocketState(f"fd {fd} is neither connected nor listening")

    def readable_now(self, fd: int) -> bool:
        sock = self._get(fd)
        if sock.conn is not None:
            buffer = sock.conn.recv_buffer
            return buffer.available > 0 or buffer.eof
        if sock.listener is not None:
            return sock.listener.queue_length > 0
        return False
