"""Request/response (RPC) applications over persistent connections.

Used by the notification ablation (polling vs batched interrupts adds
per-hop latency that RPCs feel directly) and the multi-tenant SLA
experiments.
"""

from __future__ import annotations

from typing import Optional

from ..api.epoll import Epoll
from ..api.socket_api import SocketApi
from ..net import Endpoint
from ..sim import Process, Simulator
from ..stats import LatencyRecorder

__all__ = ["RpcServer", "RpcClient"]


class RpcServer:
    """Echo-style server: reads a request, answers with ``response_bytes``.

    Serves any number of concurrent connections using epoll — exercising
    the readiness API on both the legacy and NetKernel paths.
    """

    def __init__(
        self,
        sim: Simulator,
        api: SocketApi,
        port: int,
        request_bytes: int = 128,
        response_bytes: int = 128,
    ) -> None:
        self.sim = sim
        self.api = api
        self.port = port
        self.request_bytes = request_bytes
        self.response_bytes = response_bytes
        self.requests_served = 0
        self.process: Process = sim.process(self._run(), name=f"rpc-srv:{port}")

    def _run(self):
        listen_fd = yield self.api.socket()
        yield self.api.bind(listen_fd, self.port)
        yield self.api.listen(listen_fd)
        epoll = Epoll(self.sim, self.api)
        epoll.register(listen_fd)
        pending: dict[int, int] = {}  # conn fd -> bytes of request received
        while True:
            ready = yield epoll.wait()
            for fd, _events in ready:
                if fd == listen_fd:
                    conn_fd = yield self.api.accept(listen_fd)
                    pending[conn_fd] = 0
                    epoll.register(conn_fd)
                    continue
                n = yield self.api.recv(fd, self.request_bytes)
                if n == 0:
                    epoll.unregister(fd)
                    pending.pop(fd, None)
                    yield self.api.close(fd)
                    continue
                pending[fd] = pending.get(fd, 0) + n
                while pending[fd] >= self.request_bytes:
                    pending[fd] -= self.request_bytes
                    yield self.api.send(fd, self.response_bytes)
                    self.requests_served += 1


class RpcClient:
    """Closed-loop client: issues requests back-to-back, records latency."""

    def __init__(
        self,
        sim: Simulator,
        api: SocketApi,
        remote: Endpoint,
        request_bytes: int = 128,
        response_bytes: int = 128,
        max_requests: Optional[int] = None,
        start_delay: float = 0.0,
    ) -> None:
        self.sim = sim
        self.api = api
        self.remote = remote
        self.request_bytes = request_bytes
        self.response_bytes = response_bytes
        self.max_requests = max_requests
        self.start_delay = start_delay
        self.latency = LatencyRecorder()
        self.completed = 0
        self.process: Process = sim.process(self._run(), name=f"rpc-cli:{remote}")

    def _run(self):
        if self.start_delay > 0:
            yield self.sim.timeout(self.start_delay)
        fd = yield self.api.socket()
        yield self.api.connect(fd, self.remote)
        while self.max_requests is None or self.completed < self.max_requests:
            started = self.sim.now
            yield self.api.send(fd, self.request_bytes)
            received = 0
            while received < self.response_bytes:
                n = yield self.api.recv(fd, self.response_bytes - received)
                if n == 0:
                    return  # server went away
                received += n
            self.latency.record(self.sim.now - started)
            self.completed += 1
        yield self.api.close(fd)
