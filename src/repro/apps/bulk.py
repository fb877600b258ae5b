"""Bulk-transfer applications (iperf-style).

These run against any :class:`~repro.api.socket_api.SocketApi`, so the
same workload drives legacy VMs and NetKernel VMs — the compatibility the
paper promises.
"""

from __future__ import annotations

from typing import Optional

from ..api.socket_api import SocketApi
from ..net import Endpoint
from ..sim import Process, Simulator
from ..stats import ThroughputMeter

__all__ = ["BulkReceiver", "BulkSender"]

#: Bytes a receiver asks for per ``recv`` and a sender hands over per ``send``.
READ_SIZE = 1 << 20
WRITE_SIZE = 65536


class BulkReceiver:
    """Accepts one connection per call slot and drains it, measuring goodput."""

    def __init__(
        self,
        sim: Simulator,
        api: SocketApi,
        port: int,
        warmup: float = 0.0,
    ) -> None:
        self.sim = sim
        self.api = api
        self.port = port
        self.meter = ThroughputMeter(sim, warmup=warmup)
        self.connections_served = 0
        self.process: Process = sim.process(self._run(), name=f"bulk-rx:{port}")

    def _run(self):
        fd = yield self.api.socket()
        yield self.api.bind(fd, self.port)
        yield self.api.listen(fd)
        conn_fd = yield self.api.accept(fd)
        self.connections_served += 1
        while True:
            n = yield self.api.recv(conn_fd, READ_SIZE)
            if n == 0:
                break
            self.meter.record(n)
        yield self.api.close(conn_fd)


class BulkSender:
    """Opens one connection and writes continuously (or a fixed total)."""

    def __init__(
        self,
        sim: Simulator,
        api: SocketApi,
        remote: Endpoint,
        total_bytes: Optional[int] = None,
        congestion_control: Optional[str] = None,
        start_delay: float = 0.0,
    ) -> None:
        self.sim = sim
        self.api = api
        self.remote = remote
        self.total_bytes = total_bytes
        self.congestion_control = congestion_control
        self.start_delay = start_delay
        self.bytes_sent = 0
        self.process: Process = sim.process(self._run(), name=f"bulk-tx:{remote}")

    def _run(self):
        if self.start_delay > 0:
            yield self.sim.timeout(self.start_delay)
        fd = yield self.api.socket()
        if self.congestion_control is not None:
            self.api.set_congestion_control(fd, self.congestion_control)
        yield self.api.connect(fd, self.remote)
        while self.total_bytes is None or self.bytes_sent < self.total_bytes:
            size = WRITE_SIZE
            if self.total_bytes is not None:
                size = min(size, self.total_bytes - self.bytes_sent)
            yield self.api.send(fd, size)
            self.bytes_sent += size
        yield self.api.close(fd)
