"""Reliable-connection (RC) message transport for the RDMA substrate.

Datacenter RDMA runs over a lossless fabric (PFC), so the transport here
is credit-windowed go-back-N with *no congestion control* — matching how
RoCE RC behaves inside one ECN-tamed fabric hop.  Messages are MTU-
segmented, acknowledged cumulatively per message, and delivered in order.

This is intentionally not TCP: no handshake (queue pairs are connected
out of band by the provider, as with real QP exchange), no byte stream
(message semantics), static windows.
"""

from __future__ import annotations

from collections import deque
from itertools import count
from typing import Callable, Deque, Dict, Optional, Tuple

from ..net import NIC, Packet
from ..sim import Deadline, Event, Simulator

__all__ = ["RdmaMessage", "RcEndpoint", "RdmaFabric"]

_msg_ids = count(1)

#: RoCE-style per-frame payload (no TCP header, small transport header).
RDMA_MTU_PAYLOAD = 4096
RETRANSMIT_TIMEOUT = 0.01


class RdmaMessage:
    """One SEND message in flight."""

    __slots__ = ("msg_id", "nbytes", "completion")

    def __init__(self, sim: Simulator, nbytes: int) -> None:
        self.msg_id = next(_msg_ids)
        self.nbytes = nbytes
        self.completion = Event(sim)


class _RcSegment:
    """Wire unit: (qp context, message id, segment index, flags)."""

    __slots__ = ("dst_qpn", "msg_id", "seq", "nbytes", "is_last", "ack")

    def __init__(self, dst_qpn, msg_id, seq, nbytes, is_last, ack=None):
        self.dst_qpn = dst_qpn
        self.msg_id = msg_id
        self.seq = seq
        self.nbytes = nbytes
        self.is_last = is_last
        self.ack = ack  # cumulative segment sequence acknowledged


class RcEndpoint:
    """One side of a connected queue pair's transport."""

    def __init__(
        self,
        sim: Simulator,
        fabric: "RdmaFabric",
        local_ip: str,
        qpn: int,
        window_segments: int = 64,
    ) -> None:
        self.sim = sim
        self.fabric = fabric
        self.local_ip = local_ip
        self.qpn = qpn
        self.window = window_segments
        self.remote_ip: Optional[str] = None
        self.remote_qpn: Optional[int] = None
        # sender state
        self._snd_nxt = 0
        self._snd_una = 0
        self._tx_queue: Deque[Tuple[RdmaMessage, int, int, bool]] = deque()
        self._unacked: Deque[Tuple[int, RdmaMessage, int, int, bool]] = deque()
        self._rto = Deadline(sim, self, RcEndpoint._rto_fire)
        # receiver state
        self._rcv_nxt = 0
        self._partial: Dict[int, int] = {}  # msg_id -> bytes received
        #: Delivery callback: fn(msg_id, nbytes) per completed message.
        self.on_message: Optional[Callable[[int, int], None]] = None
        self.retransmit_events = 0

    # ----------------------------------------------------------------- wiring --
    def connect(self, remote_ip: str, remote_qpn: int) -> None:
        """Out-of-band QP connection (the provider exchanges QPNs)."""
        self.remote_ip = remote_ip
        self.remote_qpn = remote_qpn

    # ------------------------------------------------------------------- send --
    def post_send(self, nbytes: int) -> RdmaMessage:
        """Queue one message; its ``completion`` fires when fully acked."""
        if nbytes <= 0:
            raise ValueError("message size must be positive")
        if self.remote_ip is None:
            raise RuntimeError(f"QP {self.qpn} is not connected")
        message = RdmaMessage(self.sim, nbytes)
        remaining = nbytes
        seq_count = max(1, -(-nbytes // RDMA_MTU_PAYLOAD))
        for index in range(seq_count):
            chunk = min(RDMA_MTU_PAYLOAD, remaining)
            remaining -= chunk
            self._tx_queue.append(
                (message, chunk, index, index == seq_count - 1)
            )
        self._pump()
        return message

    def _pump(self) -> None:
        while self._tx_queue and self._snd_nxt - self._snd_una < self.window:
            message, chunk, _index, is_last = self._tx_queue.popleft()
            seq = self._snd_nxt
            self._snd_nxt += 1
            self._unacked.append((seq, message, chunk, _index, is_last))
            self._transmit(seq, message, chunk, is_last)
        if self._unacked:
            self._rto.arm(RETRANSMIT_TIMEOUT)

    def _transmit(self, seq: int, message: RdmaMessage, chunk: int, is_last: bool) -> None:
        segment = _RcSegment(self.remote_qpn, message.msg_id, seq, chunk, is_last)
        self.fabric.send(self.local_ip, self.remote_ip, chunk, segment)

    # -------------------------------------------------------------------- ack --
    def _send_ack(self) -> None:
        segment = _RcSegment(self.remote_qpn, 0, 0, 0, False, ack=self._rcv_nxt)
        self.fabric.send(self.local_ip, self.remote_ip, 0, segment)

    def on_segment(self, segment: _RcSegment) -> None:
        if segment.ack is not None:
            self._on_ack(segment.ack)
            return
        if segment.seq != self._rcv_nxt:
            # Lossless fabric assumption: out-of-order only after a drop
            # upstream; go-back-N discards and re-acks.
            self._send_ack()
            return
        self._rcv_nxt += 1
        got = self._partial.get(segment.msg_id, 0) + segment.nbytes
        if segment.is_last:
            self._partial.pop(segment.msg_id, None)
            if self.on_message is not None:
                self.on_message(segment.msg_id, got)
        else:
            self._partial[segment.msg_id] = got
        self._send_ack()

    def _on_ack(self, ack: int) -> None:
        progressed = False
        while self._unacked and self._unacked[0][0] < ack:
            _seq, message, _chunk, _index, is_last = self._unacked.popleft()
            progressed = True
            if is_last:
                message.completion.succeed()
        self._snd_una = max(self._snd_una, ack)
        if progressed:
            self._rto.cancel()
        self._pump()

    # ------------------------------------------------------------------- rto --
    def _rto_fire(self) -> None:
        # Go-back-N: replay everything outstanding.
        self.retransmit_events += 1
        for seq, message, chunk, _index, is_last in self._unacked:
            self._transmit(seq, message, chunk, is_last)
        self._rto.arm(RETRANSMIT_TIMEOUT)


class RdmaFabric:
    """Registry of RC endpoints over the simulated network.

    Endpoints attach to NICs; the fabric routes RC segments by
    (destination ip, destination qpn).
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._nics: Dict[str, NIC] = {}
        self._endpoints: Dict[Tuple[str, int], RcEndpoint] = {}
        self._next_qpn = 1

    def attach_nic(self, nic: NIC) -> None:
        if nic.ip in self._nics:
            return
        self._nics[nic.ip] = nic
        previous = nic.rx_handler

        def handler(packet: Packet) -> None:
            payload = packet.payload
            if isinstance(payload, _RcSegment):
                endpoint = self._endpoints.get((packet.dst, payload.dst_qpn))
                if endpoint is not None:
                    endpoint.on_segment(payload)
                return
            if previous is not None:
                previous(packet)

        nic.rx_handler = handler

    def create_endpoint(self, nic: NIC, window_segments: int = 64) -> RcEndpoint:
        self.attach_nic(nic)
        qpn = self._next_qpn
        self._next_qpn += 1
        endpoint = RcEndpoint(self.sim, self, nic.ip, qpn, window_segments)
        self._endpoints[(nic.ip, qpn)] = endpoint
        return endpoint

    def send(self, src_ip: str, dst_ip: str, nbytes: int, segment: _RcSegment) -> None:
        nic = self._nics[src_ip]
        nic.transmit(
            Packet(
                src=src_ip,
                dst=dst_ip,
                payload_bytes=nbytes,
                payload=segment,
                protocol="rdma",
            )
        )
