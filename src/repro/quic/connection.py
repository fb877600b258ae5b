"""One QUIC connection: handshake, streams, ACK/loss recovery.

A :class:`QuicConnection` multiplexes many :class:`QuicStream` byte
pipes over a single congestion controller (any algorithm from the
shared :mod:`repro.cc` registry) and a single loss-recovery state
machine.  The moving parts, against their RFC 9000/9002 counterparts:

* **Handshake** — 1-RTT: client INITIAL → server HANDSHAKE (carrying a
  resumption ticket) → established.  With a ticket the client is
  established *immediately* and data rides ZERO_RTT packets — the
  0-RTT resumption that `repro stackswap` measures.
* **ACKs** — every ack-eliciting packet is acknowledged immediately
  with the receiver's packet-number ranges (no delayed-ACK timer: the
  simulation favours determinism over ACK-thinning realism).
* **Loss detection** — packet-threshold reordering (a packet is lost
  when :data:`REORDER_THRESHOLD` newer packets are acknowledged), one
  congestion event per recovery epoch, plus a probe timeout (PTO) that
  retransmits the oldest outstanding packet and collapses the window.
  The flight map is kept in packet-number order, so an ACK is one merge
  walk against its ranges, the lost packets are a prefix of the flight
  and the oldest packet is its first key: no scan of the whole flight.
* **Sending** — window-based: packets go out while
  ``bytes_in_flight < cc.window()``; pure ACKs bypass the window.

Retransmission is frame-level: a lost packet's stream frames re-queue
and are repacked, possibly coalesced with fresh data.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from ..net import Endpoint
from ..sim import Deadline, Event, Simulator
from ..tcp.cc.base import CongestionControl, RateSample
from ..tcp.intervals import IntervalSet
from .packet import QuicPacket, QuicPacketType, StreamFrame
from .stream import QuicStream

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .stack import QuicStack

__all__ = ["QuicConnection"]

#: Packet-threshold loss detection (RFC 9002 kPacketThreshold).
REORDER_THRESHOLD = 3
#: Probe timeout before an RTT estimate exists, and its floor after.
INITIAL_PTO_S = 0.002
MIN_PTO_S = 100e-6
#: ACK ranges carried per ACK (newest first).
ACK_RANGE_LIMIT = 8


class _SentPacket:
    """Bookkeeping for one in-flight ack-eliciting packet."""

    __slots__ = ("frames", "sent_at", "size", "ptype", "prior_delivered")

    def __init__(
        self,
        frames: Tuple[StreamFrame, ...],
        sent_at: float,
        size: int,
        ptype: QuicPacketType,
        prior_delivered: int,
    ) -> None:
        self.frames = frames
        self.sent_at = sent_at
        self.size = size
        self.ptype = ptype
        self.prior_delivered = prior_delivered


def _newly_acked(
    sent: Dict[int, _SentPacket], ranges: Tuple[Tuple[int, int], ...]
) -> List[int]:
    """The packet numbers of ``sent`` that ``ranges`` acknowledge, ascending.

    ``sent`` iterates in ascending packet number and ``ranges`` are the
    peer's :meth:`QuicConnection._ack_ranges`: inclusive, disjoint, newest
    first.  One merge walk from the oldest range, stopping at the first
    packet above the newest acked number, so the cost is the packets
    below that number plus the ranges, never flight x ranges.  Returns a
    list because the caller pops from ``sent`` while consuming it.
    """
    acked: List[int] = []
    newest = ranges[0][1]
    at = len(ranges) - 1
    lo, hi = ranges[at]
    for num in sent:
        if num > newest:
            break
        while num > hi:  # past this range: on to the next newer one
            at -= 1
            lo, hi = ranges[at]
        if num >= lo:
            acked.append(num)
    return acked


class QuicConnection:
    """A QUIC connection endpoint (one side)."""

    __slots__ = (
        "sim",
        "stack",
        "core",
        "local",
        "remote",
        "cc",
        "config",
        "scid",
        "dcid",
        "tenant",
        "is_client",
        "ticket",
        "established",
        "handshake_confirmed",
        "zero_rtt",
        "closed",
        "on_new_stream",
        "streams",
        "_next_stream_id",
        "_rr_index",
        "_pkt_num",
        "sent",
        "bytes_in_flight",
        "largest_acked",
        "_recovery_until",
        "_retx",
        "_pump_scheduled",
        "delivered",
        "_rcvd",
        "srtt",
        "_pto",
        "_pto_backoff",
    )

    def __init__(
        self,
        sim: Simulator,
        stack: "QuicStack",
        local: Endpoint,
        remote: Endpoint,
        cc: CongestionControl,
        config,
        scid: int,
        dcid: int,
        tenant: Optional[int],
        is_client: bool,
        ticket: Optional[int] = None,
    ) -> None:
        self.sim = sim
        self.stack = stack
        #: The CPU core packet work is charged to (None: uncharged), set
        #: and cleared by the stack that carries the connection.
        self.core = None
        self.local = local
        self.remote = remote
        self.cc = cc
        self.config = config
        self.scid = scid  # the peer routes to us with this
        self.dcid = dcid  # we route to the peer with this
        self.tenant = tenant
        self.is_client = is_client
        self.ticket = ticket  # client: resumption ticket presented
        self.established = Event(sim)
        self.handshake_confirmed = False
        self.zero_rtt = is_client and ticket is not None
        self.closed = False
        #: Server-side hook: called with each peer-opened stream.
        self.on_new_stream: Optional[Callable[[QuicStream], None]] = None

        self.streams: Dict[int, QuicStream] = {}
        # Stream ids: client-initiated even, server-initiated odd.
        self._next_stream_id = 0 if is_client else 1
        self._rr_index = 0  # round-robin cursor over sendable streams

        # -- sender state ----------------------------------------------
        self._pkt_num = 0
        # Iterates in ascending packet number: _send_packet is the only
        # writer, always under the next _pkt_num, and entries are only ever
        # popped, so insertion order is the index the ACK path walks.
        self.sent: Dict[int, _SentPacket] = {}
        self.bytes_in_flight = 0
        self.largest_acked = -1
        self._recovery_until = -1
        self._retx: List[StreamFrame] = []
        self._pump_scheduled = False
        self.delivered = 0  # total bytes acked (rate samples)

        # -- receiver state --------------------------------------------
        self._rcvd = IntervalSet()  # packet numbers seen

        # -- timers ----------------------------------------------------
        self.srtt: Optional[float] = None
        self._pto = Deadline(sim, self, QuicConnection._on_pto)
        self._pto_backoff = 1.0

        if self.zero_rtt:
            # Resumption: usable now; the server confirms (and rotates
            # the ticket) with a HANDSHAKE reply to our first packet.
            self.established.succeed()

    # ------------------------------------------------------------ streams --
    def open_stream(self) -> QuicStream:
        """Locally-initiated stream; its ``established`` mirrors ours."""
        stream = QuicStream(self.sim, self, self._next_stream_id)
        self._next_stream_id += 2
        self.streams[stream.stream_id] = stream
        self.stack.stats.streams_opened += 1
        if self.established.triggered:
            stream.established.succeed()
        else:
            self.established.add_callback(
                lambda _ev, s=stream: s.established.succeed()
            )
        return stream

    def _peer_stream(self, stream_id: int) -> Optional[QuicStream]:
        stream = self.streams.get(stream_id)
        if stream is not None:
            return stream
        local_parity = 0 if self.is_client else 1
        if stream_id % 2 == local_parity:
            return None  # stale frame for a stream we once owned
        stream = QuicStream(self.sim, self, stream_id)
        self.streams[stream_id] = stream
        stream.established.succeed()
        if self.on_new_stream is not None:
            self.on_new_stream(stream)
        return stream

    def stream_wants_send(self) -> None:
        self._schedule_pump()

    # ---------------------------------------------------------- handshake --
    def start_handshake(self) -> None:
        """Client: first packet (INITIAL, or 0-RTT data if ticketed)."""
        if self.zero_rtt:
            self.stack.stats.resumptions_0rtt += 1
            self._schedule_pump()  # data may already be queued
            return
        self._send_packet(QuicPacketType.INITIAL, ())
        self._arm_pto()

    def server_accept(self, first: QuicPacket) -> None:
        """Server: process the client's first packet (INITIAL or 0-RTT
        data) and reply with a HANDSHAKE carrying a fresh ticket; the
        reply's ack ranges acknowledge the first packet."""
        self.established.succeed()
        self.handshake_confirmed = True
        self._rcvd.add(first.pkt_num, first.pkt_num + 1)
        if first.ack_ranges:
            self._on_ack(first.ack_ranges)
        for frame in first.frames:
            stream = self._peer_stream(frame.stream_id)
            if stream is not None:
                stream.on_frame(frame.offset, frame.length, frame.fin)
        ticket = self.stack.issue_ticket(self.tenant)
        self._send_packet(QuicPacketType.HANDSHAKE, (), ticket=ticket)
        self._arm_pto()

    # ------------------------------------------------------------ receive --
    def on_packet(self, pkt: QuicPacket, src_ip: str) -> None:
        if self.closed:
            return
        if src_ip != self.remote.ip:
            # Path migration: the connection id, not the 4-tuple, is the
            # route — adopt the new address and carry on.
            self.remote = Endpoint(src_ip, self.remote.port)
            self.stack.stats.migrations += 1
        if pkt.close:
            self._teardown()
            return
        self._rcvd.add(pkt.pkt_num, pkt.pkt_num + 1)
        if pkt.ptype is QuicPacketType.HANDSHAKE:
            self.handshake_confirmed = True
            if pkt.ticket is not None:
                self.stack.store_ticket(self.tenant, self.remote, pkt.ticket)
            if not self.established.triggered:
                self.established.succeed()
            self._schedule_pump()  # data queued during the handshake
        if pkt.ack_ranges:
            self._on_ack(pkt.ack_ranges)
        for frame in pkt.frames:
            stream = self._peer_stream(frame.stream_id)
            if stream is not None:
                stream.on_frame(frame.offset, frame.length, frame.fin)
        if pkt.ack_eliciting:
            self._send_ack()

    def _send_ack(self) -> None:
        ranges = self._ack_ranges()
        qpkt = QuicPacket(
            dcid=self.dcid,
            scid=self.scid,
            ptype=QuicPacketType.ONE_RTT,
            pkt_num=self._pkt_num,
            ack_ranges=ranges,
        )
        self._pkt_num += 1
        self.stack.send_packet(self, qpkt)

    def _ack_ranges(self) -> Tuple[Tuple[int, int], ...]:
        """At most :data:`ACK_RANGE_LIMIT` inclusive ``(lo, hi)`` ranges of the
        received packet numbers, newest first, out of the 64 newest
        intervals retained.

        The peer's :func:`_newly_acked` relies on two order contracts: the
        ranges are strictly descending, disjoint and non-adjacent, and the
        first one holds the highest packet number received.
        """
        intervals = self._rcvd.intervals()
        if len(intervals) > 64:
            self._rcvd.trim_below(intervals[-64][0])
            intervals = intervals[-64:]
        newest_first = [(lo, hi - 1) for lo, hi in reversed(intervals[-ACK_RANGE_LIMIT:])]
        return tuple(newest_first)

    # --------------------------------------------------------------- acks --
    def _on_ack(self, ranges: Tuple[Tuple[int, int], ...]) -> None:
        now = self.sim.now
        newly_acked = 0
        rtt_sample: Optional[float] = None
        prior_delivered = 0
        newest = ranges[0][1]
        for num in _newly_acked(self.sent, ranges):
            pkt = self.sent.pop(num)
            self.bytes_in_flight -= pkt.size
            newly_acked += pkt.size
            for frame in pkt.frames:
                stream = self.streams.get(frame.stream_id)
                if stream is not None:
                    stream.on_frame_acked(frame.offset, frame.length, frame.fin)
            rtt_sample = now - pkt.sent_at  # freshest (highest) sample wins
            prior_delivered = pkt.prior_delivered
        if newest > self.largest_acked:
            self.largest_acked = newest
        if newly_acked:
            self.delivered += newly_acked
            if rtt_sample is not None:
                self.srtt = (
                    rtt_sample
                    if self.srtt is None
                    else 0.875 * self.srtt + 0.125 * rtt_sample
                )
            rate = None
            if rtt_sample and rtt_sample > 0:
                rate = (self.delivered - prior_delivered) / rtt_sample
            self.cc.on_ack(
                RateSample(
                    newly_acked=newly_acked,
                    rtt=rtt_sample,
                    delivery_rate=rate,
                    delivered_total=self.delivered,
                    prior_delivered=prior_delivered,
                    in_flight=self.bytes_in_flight,
                    now=now,
                )
            )
            self._pto_backoff = 1.0
        if self.cc.in_recovery and self.largest_acked > self._recovery_until:
            self.cc.on_recovery_exit()
        self._detect_losses()
        self._arm_pto()
        self._schedule_pump()

    def _detect_losses(self) -> None:
        threshold = self.largest_acked - REORDER_THRESHOLD
        if threshold < 0 or not self.sent:
            return
        # The lost packets are the flight's prefix up to ``threshold``,
        # collected first: _requeue may resend a handshake into ``sent``.
        lost = []
        for num in self.sent:
            if num > threshold:
                break
            lost.append(num)
        if not lost:
            return
        for num in lost:
            pkt = self.sent.pop(num)
            self.bytes_in_flight -= pkt.size
            self._requeue(pkt)
        if lost[-1] > self._recovery_until:
            self._recovery_until = self._pkt_num - 1
            self.stack.stats.loss_events += 1
            self.cc.on_loss_event(self.bytes_in_flight)

    def _requeue(self, pkt: _SentPacket) -> None:
        self.stack.stats.retransmits += 1
        if pkt.ptype in (QuicPacketType.INITIAL, QuicPacketType.HANDSHAKE):
            ticket = (
                self.stack.issue_ticket(self.tenant)
                if pkt.ptype is QuicPacketType.HANDSHAKE
                else None
            )
            self._send_packet(pkt.ptype, pkt.frames, ticket=ticket)
            return
        self._retx.extend(pkt.frames)
        self._schedule_pump()

    # --------------------------------------------------------------- PTO ---
    def _pto_interval(self) -> float:
        if self.srtt is None:
            return INITIAL_PTO_S * self._pto_backoff
        return max(3.0 * self.srtt, MIN_PTO_S) * self._pto_backoff

    def _arm_pto(self) -> None:
        if self.sent:
            self._pto.arm(self._pto_interval())
        else:
            self._pto.cancel()

    def _on_pto(self) -> None:
        self.stack.stats.ptos += 1
        pkt = self.sent.pop(next(iter(self.sent)))  # the oldest
        self.bytes_in_flight -= pkt.size
        self.cc.on_rto()
        self._pto_backoff = min(self._pto_backoff * 2.0, 64.0)
        self._requeue(pkt)
        self._arm_pto()

    # --------------------------------------------------------------- send --
    @property
    def _can_send_data(self) -> bool:
        return self.established.triggered or self.zero_rtt

    def _data_ptype(self) -> QuicPacketType:
        if self.is_client and not self.handshake_confirmed and self.zero_rtt:
            return QuicPacketType.ZERO_RTT
        return QuicPacketType.ONE_RTT

    def _schedule_pump(self) -> None:
        if self._pump_scheduled or self.closed:
            return
        self._pump_scheduled = True
        self.sim.schedule_call(0.0, self._pump)

    def _pump(self) -> None:
        self._pump_scheduled = False
        if self.closed or not self._can_send_data:
            return
        mss = self.stack.effective_mss()
        window = self.cc.window()
        while self.bytes_in_flight < window:
            frames = self._next_frames(mss)
            if not frames:
                break
            self._send_packet(self._data_ptype(), tuple(frames))
        if self.sent:
            self._arm_pto()

    def _next_frames(self, budget: int) -> List[StreamFrame]:
        """Up to ``budget`` payload bytes of frames: retransmits first,
        then fresh stream data round-robin (several small streams may
        coalesce into one packet — that's the multiplexing)."""
        frames: List[StreamFrame] = []
        while self._retx and budget > 0:
            frame = self._retx[0]
            if frame.length > budget and frames:
                break
            self._retx.pop(0)
            if frame.length > budget:
                head = StreamFrame(frame.stream_id, frame.offset, budget, False)
                tail = StreamFrame(
                    frame.stream_id,
                    frame.offset + budget,
                    frame.length - budget,
                    frame.fin,
                )
                self._retx.insert(0, tail)
                frame = head
            frames.append(frame)
            budget -= frame.length
        if budget <= 0:
            return frames
        sendable = [
            s
            for s in self.streams.values()
            if s.pending_bytes > 0 or s.fin_pending
        ]
        if not sendable:
            return frames
        start = self._rr_index % len(sendable)
        for i in range(len(sendable)):
            if budget <= 0:
                break
            stream = sendable[(start + i) % len(sendable)]
            take = min(stream.pending_bytes, budget)
            fin = False
            if take or stream.fin_pending:
                offset = stream.snd_nxt
                stream.snd_nxt += take
                if (
                    stream.fin_offset is not None
                    and stream.snd_nxt >= stream.fin_offset
                    and not stream.fin_sent
                ):
                    fin = True
                    stream.fin_sent = True
                frames.append(
                    StreamFrame(stream.stream_id, offset, take, fin)
                )
                budget -= take
        self._rr_index += 1
        return frames

    def _send_packet(
        self,
        ptype: QuicPacketType,
        frames: Tuple[StreamFrame, ...],
        ticket: Optional[int] = None,
    ) -> None:
        long_header = ptype is not QuicPacketType.ONE_RTT
        qpkt = QuicPacket(
            dcid=self.dcid,
            scid=self.scid,
            ptype=ptype,
            pkt_num=self._pkt_num,
            frames=frames,
            ack_ranges=self._ack_ranges() if self._rcvd else (),
            dst_port=self.remote.port if long_header else None,
            src_port=self.local.port if long_header else None,
            tenant=self.tenant if long_header else None,
            ticket=(
                ticket
                if ticket is not None
                else (self.ticket if ptype is QuicPacketType.ZERO_RTT else None)
            ),
        )
        size = max(qpkt.payload_bytes, 1)  # empty handshakes still count
        self.sent[self._pkt_num] = _SentPacket(
            frames, self.sim.now, size, ptype, self.delivered
        )
        self.bytes_in_flight += size
        self._pkt_num += 1
        self.stack.send_packet(self, qpkt)

    # ------------------------------------------------------------ teardown --
    @property
    def is_idle(self) -> bool:
        """Every local stream fully sent+acked and nothing in flight."""
        return (
            self.established.triggered
            and self.bytes_in_flight == 0
            and not self._retx
            and bool(self.streams)
            and all(s.send_done for s in self.streams.values())
        )

    def close_connection(self) -> None:
        """Send CONNECTION_CLOSE and drop local state (tickets survive)."""
        if self.closed:
            return
        qpkt = QuicPacket(
            dcid=self.dcid,
            scid=self.scid,
            ptype=QuicPacketType.ONE_RTT,
            pkt_num=self._pkt_num,
            close=True,
        )
        self._pkt_num += 1
        self.stack.send_packet(self, qpkt)
        self._teardown()

    def _teardown(self) -> None:
        if self.closed:
            return
        self.closed = True
        self._pto.release()
        self.sent.clear()
        self.bytes_in_flight = 0
        self._retx.clear()
        for stream in self.streams.values():
            stream.abort()
        self.stack.forget(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        role = "client" if self.is_client else "server"
        return (
            f"<QuicConnection {role} scid={self.scid} dcid={self.dcid} "
            f"streams={len(self.streams)} inflight={self.bytes_in_flight}>"
        )
