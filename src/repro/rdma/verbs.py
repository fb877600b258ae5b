"""A Verbs-style RDMA API over the RC transport.

The guest-facing shape of RDMA (§1: "Verbs for RDMA" is the other
interface NetKernel preserves): queue pairs, work requests, completion
queues polled by the application.  Two-sided SEND/RECV semantics — the
receiver posts buffers; each arriving message consumes one and produces a
receive completion; the sender gets a send completion when the message is
acknowledged.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional

from ..net import NIC
from ..sim import Event, Simulator
from .transport import RcEndpoint, RdmaFabric

__all__ = ["WcOpcode", "WorkCompletion", "CompletionQueue", "QueuePair", "RdmaDevice"]

class WcOpcode(enum.Enum):
    SEND = "send"
    RECV = "recv"


@dataclass
class WorkCompletion:
    """One entry polled from a completion queue."""

    opcode: WcOpcode
    byte_len: int
    qp_num: int
    success: bool = True


class CompletionQueue:
    """Polled completion queue with an optional blocking wait."""

    def __init__(self, sim: Simulator, depth: int = 1024) -> None:
        if depth < 1:
            raise ValueError("CQ depth must be >= 1")
        self.sim = sim
        self.depth = depth
        self._entries: Deque[WorkCompletion] = deque()
        self._waiters: List[Event] = []
        self.overflows = 0

    def push(self, completion: WorkCompletion) -> None:
        if len(self._entries) >= self.depth:
            self.overflows += 1  # real CQs go to error state; we count
            return
        self._entries.append(completion)
        if self._waiters:
            waiters, self._waiters = self._waiters, []
            for waiter in waiters:
                waiter.succeed()

    def poll(self, max_entries: int = 16) -> List[WorkCompletion]:
        """Non-blocking poll, as ibv_poll_cq."""
        polled: List[WorkCompletion] = []
        while self._entries and len(polled) < max_entries:
            polled.append(self._entries.popleft())
        return polled

    def wait_nonempty(self) -> Event:
        """Completion-channel style blocking (ibv_get_cq_event)."""
        event = Event(self.sim)
        if self._entries:
            event.succeed()
        else:
            self._waiters.append(event)
        return event


class QueuePair:
    """An RC queue pair bound to send/recv completion queues."""

    def __init__(
        self,
        sim: Simulator,
        endpoint: RcEndpoint,
        send_cq: CompletionQueue,
        recv_cq: CompletionQueue,
    ) -> None:
        self.sim = sim
        self.endpoint = endpoint
        self.send_cq = send_cq
        self.recv_cq = recv_cq
        self._recv_buffers: Deque[int] = deque()  # each posted buffer's max_len
        self.rnr_drops = 0  # messages arriving with no posted receive
        endpoint.on_message = self._on_message

    @property
    def qp_num(self) -> int:
        return self.endpoint.qpn

    @property
    def connected(self) -> bool:
        return self.endpoint.remote_ip is not None

    def connect(self, remote_ip: str, remote_qpn: int) -> None:
        self.endpoint.connect(remote_ip, remote_qpn)

    def post_recv(self, max_len: int = 1 << 20) -> None:
        """Post one receive buffer."""
        self._recv_buffers.append(max_len)

    def post_send(self, nbytes: int) -> None:
        """Post one SEND (its completion lands in send_cq)."""
        if not self.connected:
            raise RuntimeError("QP is not connected")
        message = self.endpoint.post_send(nbytes)
        message.completion.add_callback(
            lambda _ev: self.send_cq.push(
                WorkCompletion(WcOpcode.SEND, nbytes, self.qp_num)
            )
        )

    def _on_message(self, msg_id: int, nbytes: int) -> None:
        if not self._recv_buffers:
            self.rnr_drops += 1  # receiver-not-ready
            return
        max_len = self._recv_buffers.popleft()
        self.recv_cq.push(
            WorkCompletion(
                WcOpcode.RECV,
                min(nbytes, max_len),
                self.qp_num,
                success=nbytes <= max_len,
            )
        )


class RdmaDevice:
    """Factory tied to one NIC (the 'HCA'): creates CQs and QPs."""

    def __init__(self, sim: Simulator, fabric: RdmaFabric, nic: NIC) -> None:
        self.sim = sim
        self.fabric = fabric
        self.nic = nic
        fabric.attach_nic(nic)

    @property
    def ip(self) -> str:
        return self.nic.ip

    def create_cq(self, depth: int = 1024) -> CompletionQueue:
        return CompletionQueue(self.sim, depth)

    def create_qp(
        self,
        send_cq: Optional[CompletionQueue] = None,
        recv_cq: Optional[CompletionQueue] = None,
        window_segments: int = 64,
    ) -> QueuePair:
        return QueuePair(
            self.sim,
            self.fabric.create_endpoint(self.nic, window_segments),
            send_cq or self.create_cq(),
            recv_cq or self.create_cq(),
        )
