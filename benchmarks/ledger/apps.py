"""The ledger's own applications, written against the public socket API.

They are copied in rather than imported from ``repro.experiments`` so a
refactor of the experiment harnesses cannot move the benchmark; the sink
also keeps the per-message read times the ledger reports.  None of the
bookkeeping schedules a simulator event.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.api.epoll import Epoll
from repro.api.errors import SocketError

#: Back-off after a failed connect or transfer before retrying (sim seconds).
RETRY_DELAY = 0.001
#: Connect-phase stagger per fan-in client (keeps SYN backlogs shallow).
CONNECT_SPACING = 2e-6


class BulkSender:
    """Writes ``write_size`` blocks forever; reconnects on a typed error."""

    def __init__(self, sim, api, remote, write_size=65536, start_delay=0.0):
        self.sim = sim
        self.api = api
        self.remote = remote
        self.write_size = write_size
        self.start_delay = start_delay
        self.bytes_sent = 0
        self.sends_issued = 0
        self.connects = 0
        self.errors = 0
        sim.process(self._run(), name=f"ledger-tx:{remote}")

    def _run(self):
        sim, api = self.sim, self.api
        if self.start_delay > 0:
            yield sim.timeout(self.start_delay)
        while True:
            try:
                fd = yield api.socket()
                yield api.connect(fd, self.remote)
                self.connects += 1
                while True:
                    self.sends_issued += 1
                    yield api.send(fd, self.write_size)
                    self.bytes_sent += self.write_size
            except SocketError:
                self.errors += 1
                yield sim.timeout(RETRY_DELAY)


class BulkReceiver:
    """A supervised bulk sink: re-listens after a reset, drains every
    accepted connection in its own process, meters bytes after ``warmup``."""

    def __init__(self, sim, api, port, warmup=0.0, read_size=1 << 20,
                 on_delivery: Optional[Callable[[], None]] = None):
        self.sim = sim
        self.api = api
        self.port = port
        self.warmup = warmup
        self.read_size = read_size
        self.on_delivery = on_delivery
        self.bytes_total = 0
        self.bytes_metered = 0
        self.errors = 0
        self.connections_served = 0
        self.last_delivery_at = -1.0
        sim.process(self._listen(), name=f"ledger-rx:{port}")

    def _listen(self):
        sim, api = self.sim, self.api
        while True:
            try:
                fd = yield api.socket()
                yield api.bind(fd, self.port)
                yield api.listen(fd)
                while True:
                    conn_fd = yield api.accept(fd)
                    self.connections_served += 1
                    sim.process(self._drain(conn_fd), name=f"ledger-rx:{self.port}.c")
            except SocketError:
                self.errors += 1
                yield sim.timeout(RETRY_DELAY)

    def _drain(self, conn_fd):
        sim, api = self.sim, self.api
        try:
            while True:
                n = yield api.recv(conn_fd, self.read_size)
                if n == 0:
                    break
                now = sim.now
                self.last_delivery_at = now
                self.bytes_total += n
                if now >= self.warmup:
                    self.bytes_metered += n
                if self.on_delivery is not None:
                    self.on_delivery()
        except SocketError:
            self.errors += 1
        try:
            yield api.close(conn_fd)
        except SocketError:
            pass


class WebClient:
    """Closed loop: connect, request, drain the response, close, repeat.

    Counts every request it starts, so one that is refused, reset or cut
    short shows as failed instead of merely not completing.
    """

    def __init__(self, sim, api, remote, request_bytes, response_bytes,
                 start_delay):
        self.sim = sim
        self.api = api
        self.remote = remote
        self.request_bytes = request_bytes
        self.response_bytes = response_bytes
        self.start_delay = start_delay
        self.started = 0
        self.completed = 0
        self.failed = 0
        #: Simulated connect-to-close seconds of each completed request.
        self.latencies: List[float] = []
        self.process = sim.process(self._run(), name=f"ledger-web:{remote}")

    def _run(self):
        sim, api = self.sim, self.api
        yield sim.timeout(self.start_delay)
        while True:
            self.started += 1
            began = sim.now
            try:
                fd = yield api.socket()
                yield api.connect(fd, self.remote)
                yield api.send(fd, self.request_bytes)
                received = 0
                while received < self.response_bytes:
                    n = yield api.recv(fd, 65536)
                    if n == 0:
                        break
                    received += n
                yield api.close(fd)
            except SocketError:
                received = -1
            if received == self.response_bytes:
                self.latencies.append(sim.now - began)
                self.completed += 1
            else:
                self.failed += 1
                yield sim.timeout(RETRY_DELAY)


class EpollSink:
    """One epoll loop serving a listener plus every accepted connection.

    ``message_reads`` holds the simulated time at which each whole
    ``message_bytes`` message had been read from its connection.
    """

    def __init__(self, sim, api, port, message_bytes, read_size=1 << 16):
        self.sim = sim
        self.api = api
        self.port = port
        self.message_bytes = message_bytes
        self.read_size = read_size
        self.bytes = 0
        self.accepted = 0
        self.message_reads: List[float] = []
        self._bytes_of = {}
        sim.process(self._run(), name=f"ledger-sink:{port}")

    def _run(self):
        sim, api = self.sim, self.api
        size = self.message_bytes
        bytes_of = self._bytes_of
        reads = self.message_reads
        listen_fd = yield api.socket()
        yield api.bind(listen_fd, self.port)
        yield api.listen(listen_fd, backlog=512)
        epoll = Epoll(sim, api)
        epoll.register(listen_fd)
        while True:
            ready = yield epoll.wait()
            for fd, _events in ready:
                if fd == listen_fd:
                    conn_fd = yield api.accept(fd)
                    epoll.register(conn_fd)
                    bytes_of[conn_fd] = 0
                    self.accepted += 1
                    continue
                n = yield api.recv(fd, self.read_size)
                if n == 0:
                    epoll.unregister(fd)
                    yield api.close(fd)
                    continue
                self.bytes += n
                before = bytes_of[fd]
                after = bytes_of[fd] = before + n
                for _ in range(after // size - before // size):
                    reads.append(sim.now)


class SendPlan:
    """The schedule every fan-in sender shares (one per world).

    ``offsets[i]`` is client ``i``'s seeded position in a round, in slots:
    it connects at ``offsets[i] * CONNECT_SPACING`` and its message ``m``
    is due at ``connect_phase + (m * n_conns + offsets[i]) * send_spacing``.
    """

    __slots__ = ("connect_phase", "n_conns", "send_spacing",
                 "messages_per_conn", "message_bytes", "offsets")

    def __init__(self, connect_phase, n_conns, send_spacing,
                 messages_per_conn, message_bytes, offsets):
        self.connect_phase = connect_phase
        self.n_conns = n_conns
        self.send_spacing = send_spacing
        self.messages_per_conn = messages_per_conn
        self.message_bytes = message_bytes
        self.offsets = offsets

    def due(self, index: int, message: int) -> float:
        return self.connect_phase + (
            message * self.n_conns + self.offsets[index]
        ) * self.send_spacing


class ScheduledSender:
    """Connects once, then sends fixed-size messages at absolute times."""

    __slots__ = ("sim", "api", "remote", "plan", "index", "sent", "lateness")

    def __init__(self, sim, api, remote, plan: SendPlan, index: int):
        self.sim = sim
        self.api = api
        self.remote = remote
        self.plan = plan
        self.index = index
        self.sent = 0
        #: Worst (send call time - due time) of this sender's messages.
        self.lateness = 0.0
        sim.process(self._run(), name="ledger-sender")

    def _run(self):
        sim, api, plan = self.sim, self.api, self.plan
        connect_at = plan.offsets[self.index] * CONNECT_SPACING
        if connect_at > 0:
            yield sim.timeout(connect_at)
        fd = yield api.socket()
        yield api.connect(fd, self.remote)
        for m in range(plan.messages_per_conn):
            delay = plan.due(self.index, m) - sim.now
            if delay > 0:
                yield sim.timeout(delay)
            elif -delay > self.lateness:
                self.lateness = -delay
            yield api.send(fd, plan.message_bytes)
            self.sent += 1
