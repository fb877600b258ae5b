"""The TCP connection state machine.

Implements connection establishment, ordered reliable delivery over virtual
byte streams, cumulative ACKs with fast retransmit / NewReno-style recovery,
RTO with Karn backoff and go-back-N resend, RFC 7323 timestamps for RTT,
delayed ACKs, flow control with window updates, classic-ECN and
accurate-ECN (DCTCP) echo, pacing, and per-packet delivery-rate samples for
model-based congestion control (BBR).

Sequence numbers are absolute Python integers (no 32-bit wraparound): the
simulation never runs long enough for wrap to matter and the invariants are
much easier to audit.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from dataclasses import dataclass
from operator import attrgetter
from typing import TYPE_CHECKING, Optional, Sequence

from ..net import Endpoint
from ..sim import Deadline, Event, Simulator
from .buffers import NOTHING_HELD, OutOfOrder, ReceiveBuffer, SendBuffer
from .cc.base import CongestionControl, RateSample, make as make_cc
from .intervals import EMPTY, IntervalSet
from .rtt import RttEstimator
from .segment import TcpSegment

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .stack import ConnKey, TcpStack

__all__ = ["TcpState", "TcpConfig", "TcpConnection", "ColdState", "ConnectionReset"]


class ConnectionReset(Exception):
    """Raised to readers/writers when the peer resets the connection."""


class TcpState(enum.Enum):
    CLOSED = "closed"
    LISTEN = "listen"
    SYN_SENT = "syn-sent"
    SYN_RCVD = "syn-rcvd"
    ESTABLISHED = "established"
    FIN_WAIT_1 = "fin-wait-1"
    FIN_WAIT_2 = "fin-wait-2"
    CLOSE_WAIT = "close-wait"
    CLOSING = "closing"
    LAST_ACK = "last-ack"
    TIME_WAIT = "time-wait"


# Checked after every segment; a module global reads in a tenth of the
# time an Enum class attribute takes.
_TIME_WAIT = TcpState.TIME_WAIT

#: Wire-level MSS (used by congestion control and loss recovery).
MSS = 1448
#: Delayed ACKs (RFC 1122): every second full-sized segment is acked at
#: once, any other within 40 ms.
DELACK_SEGMENTS = 2
DELACK_TIMEOUT = 0.040
#: SYN transmissions before ``connect()`` fails.
SYN_RETRIES = 6


@dataclass(slots=True)
class TcpConfig:
    """Per-connection tunables (the stack supplies defaults)."""

    #: Effective segmentation size for sends (64 KB with TSO).
    effective_mss: int = MSS
    sndbuf: int = 4 * 1024 * 1024
    rcvbuf: int = 4 * 1024 * 1024
    ecn: bool = False
    #: Nagle's algorithm (RFC 896): hold sub-MSS writes while data is in
    #: flight.  Off by default, as most latency-conscious services set
    #: TCP_NODELAY; no workload turns it on, only the Nagle tests in
    #: tests/test_tcp_edge_cases.py.
    nagle: bool = False
    msl: float = 0.05  # short TIME_WAIT, keeps port churn tractable


@dataclass(slots=True)
class _TxRecord:
    """Sender-side state for one transmitted segment (BBR rate sampling)."""

    end_seq: int
    sent_time: float
    #: Send time of the first packet of the flight this segment extends
    #: (bounds the delivery-rate sample on the send side, as in tcp_rate.c).
    first_tx_time: float
    delivered_at_send: int
    delivered_time_at_send: float
    is_app_limited: bool
    payload_len: int = 0


_end_seq = attrgetter("end_seq")


class ColdState:
    """A connection's fields that an in-order flow, never closed, keeps at
    their birth values: loss recovery, ECN, FIN bookkeeping, the persist
    timer and the SYN retry budget.

    A connection starts on its stack's shared read-only instance
    (``TcpStack.shared_cold``) and builds its own at its first write of
    any of them (see "owned parts" in :class:`TcpConnection`).
    """

    __slots__ = (
        # loss recovery (SACK scoreboard, RFC 2018/6675-style)
        "dupacks",
        "recover",
        "in_fast_recovery",
        "sacked",
        "rexmitted",
        "covered",
        "rto_high",
        "last_repair_time",
        "rack_armed",
        # ECN
        "ecn_echo_latched",
        "send_cwr",
        "ecn_reduction_seq",
        # FIN
        "fin_sent",
        "fin_seq",
        "fin_received_seq",
        # timers
        "persist",
        "syn_retries_left",
    )

    #: True only on a stack's shared instance (``TcpStack.shared_cold``).
    read_only = False

    def __init__(self) -> None:
        self.dupacks = 0
        self.recover = 0
        self.in_fast_recovery = False
        # The scoreboards share EMPTY until this connection sees loss.
        self.sacked: IntervalSet = EMPTY  # peer-held ranges above snd_una
        self.rexmitted: IntervalSet = EMPTY  # holes already retransmitted
        # sacked | rexmitted, kept in step: the sender's holes are its gaps.
        self.covered: IntervalSet = EMPTY
        self.rto_high = 0  # everything below this is presumed lost after RTO
        self.last_repair_time = 0.0  # RACK-style lost-retransmission timer
        self.rack_armed = False
        self.ecn_echo_latched = False
        self.send_cwr = False
        self.ecn_reduction_seq = 0
        self.fin_sent = False
        self.fin_seq: Optional[int] = None
        self.fin_received_seq: Optional[int] = None
        # Built on first arm: most connections never probe a zero window.
        self.persist: Optional[Deadline] = None
        self.syn_retries_left = SYN_RETRIES


class TcpConnection:
    """One endpoint of a TCP connection."""

    __slots__ = (
        "sim",
        "stack",
        "core",
        "key",
        "cc",
        "config",
        "state",
        # sender
        "iss",
        "snd_una",
        "snd_nxt",
        "snd_wnd",
        "send_buffer",
        # receiver
        "irs",
        "rcv_nxt",
        "ooo",
        "recv_buffer",
        "_ts_recent",
        "_last_advertised_wnd",
        # RTT / timers
        "rtt",
        "_rto",
        # delayed ack
        "_delack_pending",
        "_delack_bytes",
        "_delack",
        # loss recovery, ECN, FIN, persist timer, SYN retries
        "cold",
        # delivery-rate sampling
        "delivered",
        "delivered_time",
        "_tx_records",
        "_tx_head",
        "_first_tx_time",
        "_app_limited_until",
        # pacing
        "_next_send_time",
        "_pacing_timer_armed",
        # app-visible
        "_established",
        "_closed",
        "on_data_available",
        "on_established_cb",
        # hybrid fidelity
        "_fidelity",
        "_fluid",
        # a TIME_WAIT record refers to its connection weakly
        "__weakref__",
    )

    def __init__(
        self,
        sim: Simulator,
        stack: "TcpStack",
        key: "ConnKey",
        cc: CongestionControl,
        config: Optional[TcpConfig] = None,
    ) -> None:
        self.sim = sim
        self.stack = stack
        #: The CPU core protocol work is charged to (None: uncharged); the
        #: stack sets it when it takes the connection and clears it when
        #: it lets go.
        self.core = None
        #: ``(local_port, remote_ip, remote_port)``: the very tuple the
        #: stack's demux table files this connection under.
        self.key = key
        self.cc = cc
        self.config = config or TcpConfig()
        self.state = TcpState.CLOSED

        # --- sender state ---
        self.iss = 0
        self.snd_una = 0
        self.snd_nxt = 0
        self.snd_wnd = 65535
        # Congestion control, RTT estimator, both buffers, the
        # out-of-order queue and the cold fields start as shared read-only
        # parts; every write site swaps in this connection's own first (see
        # "owned parts" below).
        self.send_buffer = stack.shared_send_buffer[self.config.sndbuf]

        # --- receiver state ---
        self.irs: Optional[int] = None
        self.rcv_nxt = 0  # next in-order sequence number expected
        self.ooo: OutOfOrder = NOTHING_HELD  # held above rcv_nxt
        self.recv_buffer = stack.shared_recv_buffer[self.config.rcvbuf]
        self._ts_recent: Optional[float] = None
        self._last_advertised_wnd = self.config.rcvbuf

        # --- RTT / timers ---
        self.rtt = stack.shared_rtt
        # Built on first arm and released once nothing is outstanding
        # after the handshake: the fluid handshake arms none, and only a
        # data receiver delays ACKs.
        self._rto: Optional[Deadline] = None

        # --- delayed ack ---
        self._delack_pending = 0
        self._delack_bytes = 0
        self._delack: Optional[Deadline] = None

        # --- loss recovery, ECN, FIN, persist timer, SYN retries ---
        self.cold: ColdState = stack.shared_cold

        # --- delivery-rate sampling (BBR) ---
        self.delivered = 0
        self.delivered_time = 0.0
        # In send order (end_seq increasing) behind a head cursor; the
        # shared () whenever nothing is outstanding.  A list, not a dict
        # keyed by end_seq: an empty dict is ~0.2 KB and never shrinks.
        self._tx_records: Sequence[_TxRecord] = ()
        self._tx_head = 0
        self._first_tx_time = 0.0
        self._app_limited_until = 0

        # --- pacing ---
        self._next_send_time = 0.0
        self._pacing_timer_armed = False

        # --- app-visible events ---
        self._established: Optional[Event] = Event(sim)
        # Built on first use: most connections are never waited on to close.
        self._closed: Optional[Event] = None
        #: Optional hooks used by ServiceLib (nk_*_callback analogues).
        self.on_data_available = None
        self.on_established_cb = None

        # --- hybrid fidelity (repro.sim.fluid) ---
        #: The installed FidelityController, or None (pure packet mode).
        #: The controller nulls this per-connection when the path can
        #: never promote, so the per-ACK hook below stays one attribute
        #: test for ineligible connections.
        self._fidelity = getattr(sim, "fidelity", None)
        #: None while this connection's send side is packet; otherwise
        #: the controller's state for it (armed to drain, or its FluidFlow),
        #: read only by the controller.
        self._fluid = None

    # ------------------------------------------------------------------ API --
    @property
    def data_seq_base(self) -> int:
        """Sequence number of stream byte 0 (SYN occupies ``iss``)."""
        return self.iss + 1

    @property
    def bytes_in_flight(self) -> int:
        return self.snd_nxt - self.snd_una

    @property
    def local(self) -> Endpoint:
        """This end's address, built on demand (repr, errors, apps)."""
        return Endpoint(self.stack.ip, self.key[0])

    @property
    def remote(self) -> Endpoint:
        """The peer's address, built on demand (repr, errors, apps)."""
        return Endpoint(self.key[1], self.key[2])

    @property
    def established(self) -> Event:
        """Fires once the handshake completes; fails on a reset or when
        the SYN retries run out.  The connection lets go of the event
        once its waiters have run; a later read gets a stand-in that is
        likewise succeeded and processed."""
        event = self._established
        if event is None:
            event = Event(self.sim)
            event._ok, event.callbacks = True, None
        return event

    @property
    def closed(self) -> Event:
        """Fires once the connection is fully closed."""
        closed = self._closed
        if closed is None:
            closed = self._closed = Event(self.sim)
            if self.state is TcpState.TIME_WAIT:  # the record fires it if freed
                self.stack.settle_time_wait(self)
        return closed

    def open_active(self) -> None:
        """Client side: send SYN, move to SYN_SENT."""
        if self.state is not TcpState.CLOSED:
            raise RuntimeError(f"open_active in state {self.state}")
        self.state = TcpState.SYN_SENT
        self._send_syn()

    def open_passive_from_syn(self, seg: TcpSegment) -> None:
        """Server side: a listener spawned us for this SYN."""
        self.state = TcpState.SYN_RCVD
        self._accept_syn(seg)
        self._transmit(self._make_segment(self.iss, syn=True, ack=True))
        self.snd_nxt = self.iss + 1
        self._arm_rto()

    def send(self, nbytes: int) -> Event:
        """Queue ``nbytes`` of app data; event fires when buffered."""
        accepted = Event(self.sim)
        self._write(nbytes, accepted)
        accepted.add_callback(lambda _ev: self._pump())
        return accepted

    def send_call(self, nbytes: int, func, *args) -> None:
        """:meth:`send` without the event: where it would fire, one queue
        entry pumps and then calls ``func(*args)``, as its callbacks did."""
        self._write(nbytes, (self._sent, (func, args)))

    def _sent(self, func, args) -> None:
        self._pump()
        func(*args)

    def _write(self, nbytes: int, waiter) -> None:
        if self.state in (
            TcpState.FIN_WAIT_1,
            TcpState.FIN_WAIT_2,
            TcpState.CLOSING,
            TcpState.LAST_ACK,
            TcpState.TIME_WAIT,
        ):
            raise RuntimeError("send() after close()")
        send_buffer = self.send_buffer
        if send_buffer.read_only:
            send_buffer = self._own_send_buffer()
        send_buffer.admit(nbytes, waiter)

    def recv(self, max_bytes: int) -> Event:
        """Read up to ``max_bytes``; fires with count (0 = EOF)."""
        recv_buffer = self.recv_buffer
        if recv_buffer.read_only:
            recv_buffer = self._own_recv_buffer()
        event = recv_buffer.read(max_bytes)
        event.add_callback(lambda _ev: self._after_app_read())
        return event

    def watch_readable(self, waiter) -> None:
        """Wake ``waiter`` (see :meth:`Simulator.wake`) once data or EOF
        is readable, without consuming it."""
        recv_buffer = self.recv_buffer
        if recv_buffer.read_only:
            recv_buffer = self._own_recv_buffer()
        recv_buffer.watch(waiter)

    def close(self) -> Event:
        """Half-close: FIN after all queued data; event fires fully closed."""
        closed = self.closed
        self.start_close()
        return closed

    def start_close(self) -> None:
        """:meth:`close` without building its event (see ``TimeWait``)."""
        if self._fluid is not None:
            self._fidelity.demote(self, "close")
        send_buffer = self.send_buffer
        if send_buffer.read_only:
            send_buffer = self._own_send_buffer()
        send_buffer.close()
        if self.state is TcpState.ESTABLISHED:
            self.state = TcpState.FIN_WAIT_1
        elif self.state is TcpState.CLOSE_WAIT:
            self.state = TcpState.LAST_ACK
        elif self.state in (TcpState.SYN_SENT, TcpState.CLOSED):
            self.state = TcpState.CLOSED
            self._finish_closed()
            return
        self._pump()

    def abort(self) -> None:
        """Send RST and tear down immediately."""
        if self._fluid is not None:
            self._fidelity.demote(self, "abort")
        if self.state not in (TcpState.CLOSED, TcpState.TIME_WAIT):
            self._transmit(self._make_segment(self.snd_nxt, rst=True, ack=True))
        self.state = TcpState.CLOSED
        self._finish_closed()

    # ------------------------------------------------------- segment arrival --
    def on_segment(self, seg: TcpSegment, ecn_ce: bool = False) -> None:
        """Demuxed entry point from the stack (CPU already charged)."""
        if seg.rst:
            self._on_rst()
            return

        if self.state is TcpState.SYN_SENT:
            if seg.syn and seg.ack and seg.ack_no == self.iss + 1:
                self._accept_syn(seg)
                self.snd_una = seg.ack_no
                self._become_established()
                self._send_ack()
                self._pump()
            return

        if self.state is TcpState.SYN_RCVD:
            if seg.ack and seg.ack_no == self.iss + 1 and not seg.syn:
                self.snd_una = seg.ack_no
                self._become_established()
                # fall through: the ACK may carry data
            elif seg.syn:
                # Duplicate SYN: re-answer.
                self._transmit(
                    self._make_segment(self.iss, syn=True, ack=True), syn=True
                )
                return

        if self.state in (TcpState.CLOSED, TcpState.LISTEN):
            return
        if seg.syn:
            return  # stray SYN on an established connection

        if seg.ts_val is not None:
            self._ts_recent = seg.ts_val

        if seg.ack:
            self._process_ack(seg)
        if seg.payload_len > 0:
            self._process_data(seg, ecn_ce)
        if seg.fin:
            self._process_fin(seg)
        elif seg.payload_len == 0 and not seg.ack:
            pass  # keepalive-ish no-op
        if self.state is _TIME_WAIT:
            # Every reply to this segment is built: the stack's TIME_WAIT
            # record takes over from here.
            self.stack.settle_time_wait(self)

    # ------------------------------------------------------------ ACK path --
    def _process_ack(self, seg: TcpSegment) -> None:
        ack = seg.ack_no
        self.snd_wnd = seg.wnd
        if ack > self.snd_nxt:
            return  # acks data never sent; ignore

        # Fold in SACK blocks (clipped to un-acked, in-flight data).
        newly_sacked = 0
        floor = max(ack, self.snd_una)
        cold = self.cold
        for block_start, block_end in seg.sack:
            clipped_start = max(block_start, floor)
            clipped_end = min(block_end, self.snd_nxt)
            if clipped_end > clipped_start:
                if cold.read_only:
                    cold = self._own_cold()
                if cold.sacked is EMPTY:
                    cold.sacked = IntervalSet()
                if cold.covered is EMPTY:
                    cold.covered = IntervalSet()
                newly_sacked += cold.sacked.add(clipped_start, clipped_end)
                cold.covered.add(clipped_start, clipped_end)

        if ack <= self.snd_una:
            is_dup = (
                ack == self.snd_una
                and seg.payload_len == 0
                and not seg.fin
                and self.snd_una < self.snd_nxt
            )
            if is_dup or newly_sacked > 0:
                self._on_dupack(seg, newly_sacked)
            elif self.snd_wnd > 0:
                self._pump()  # window update may unblock us
            return

        advance = ack - self.snd_una
        self.snd_una = ack
        if cold.read_only:
            previously_sacked = 0  # no scoreboard and no dupacks to clear
        else:
            # The scoreboard never reaches below snd_una, so what the trim
            # drops is exactly the SACKed part of [old snd_una, ack).
            previously_sacked = cold.sacked.trim_below(ack)
            cold.rexmitted.trim_below(ack)
            cold.covered.trim_below(ack)
            cold.dupacks = 0

        # Delivery accounting: bytes first reported delivered by this ACK.
        delivered_inc = (advance - previously_sacked) + newly_sacked
        self.delivered += delivered_inc
        self.delivered_time = self.sim.now
        sample = self._make_rate_sample(seg, delivered_inc)

        # RTT from the echoed timestamp.
        if seg.ts_ecr is not None:
            rtt = self.sim.now - seg.ts_ecr
            if rtt > 0:
                estimator = self.rtt
                if estimator.read_only:
                    estimator = self._own_rtt()
                estimator.on_sample(rtt)
                sample.rtt = rtt

        # Ack covers our FIN?
        fin_seq = cold.fin_seq
        fin_acked = fin_seq is not None and ack >= fin_seq + 1

        stream_acked = advance
        if fin_acked:
            stream_acked -= 1  # FIN consumed one sequence number
        if stream_acked > 0:
            send_buffer = self.send_buffer
            if send_buffer.read_only:
                send_buffer = self._own_send_buffer()
            send_buffer.on_ack(stream_acked)

        # Every hook below may write; on_ack, which ends this path, does.
        cc = self.cc
        if cc.read_only:
            cc = self._own_cc()
        # ECN echo (classic): one reduction per window.
        if seg.ece:
            self.stack.stats.ecn_echoes += 1
            if cc.wants_accurate_ecn:
                sample.ce_marked = True
            elif self.snd_una > cold.ecn_reduction_seq:
                cc.on_ecn(self.bytes_in_flight)
                if cold.read_only:
                    cold = self._own_cold()
                cold.ecn_reduction_seq = self.snd_nxt
                cold.send_cwr = True

        if cold.in_fast_recovery and ack >= cold.recover:
            cold.in_fast_recovery = False
            self._forget_repairs()
            cold.rto_high = 0
            cc.on_recovery_exit()
        cc.on_ack(sample)

        if self.snd_una == self.snd_nxt:
            if self._rto is not None:
                self._rto.cancel()
            estimator = self.rtt
            if estimator.read_only:
                estimator = self._own_rtt()
            estimator.reset_backoff()
        else:
            self._arm_rto(restart=True)

        self._on_fin_progress(fin_acked)
        if self.cold.in_fast_recovery:
            self._recovery_send()
        else:
            self._pump()
        if self._fidelity is not None:
            self._fidelity.on_ack_progress(self)

    def _make_rate_sample(self, seg: TcpSegment, delivered_inc: int) -> RateSample:
        record: Optional[_TxRecord] = None
        # Records are queued in send order with monotonically increasing
        # end_seq, so cumulative ACKs pop a prefix.
        records, head = self._tx_records, self._tx_head
        while head < len(records) and records[head].end_seq <= seg.ack_no:
            candidate = records[head]
            head += 1
            if record is None or candidate.sent_time > record.sent_time:
                record = candidate
        if head:
            if head == len(records):
                self._tx_records = records = ()
                self._tx_head = head = 0
            elif head > 256:  # bound the dead prefix kept for O(1) pops
                del records[:head]
                self._tx_head = head = 0
            else:
                self._tx_head = head
        # A SACK-only ACK samples (and retires) the segment its freshest
        # block ends at.
        if record is None and seg.sack:
            end = seg.sack[0][1]
            i = bisect_left(records, end, head, key=_end_seq)
            if i < len(records) and records[i].end_seq == end:
                record = records.pop(i)
        sample = RateSample(
            newly_acked=delivered_inc,
            delivered_total=self.delivered,
            in_flight=self.bytes_in_flight,
            now=self.sim.now,
        )
        if record is not None:
            sample.is_app_limited = record.is_app_limited
            sample.prior_delivered = record.delivered_at_send
            # Guard against burst-ACK overestimation: the flight cannot have
            # been delivered faster than it was sent (max of both intervals).
            ack_interval = self.sim.now - record.delivered_time_at_send
            send_interval = record.sent_time - record.first_tx_time
            interval = max(ack_interval, send_interval)
            if interval > 0:
                sample.delivery_rate = (
                    self.delivered - record.delivered_at_send
                ) / interval
            self._first_tx_time = record.sent_time
        return sample

    def _on_dupack(self, seg: TcpSegment, newly_sacked: int) -> None:
        self.stack.stats.dup_acks += 1
        cold = self.cold
        if cold.read_only:
            cold = self._own_cold()
        cold.dupacks += 1

        if newly_sacked > 0:
            # SACKed bytes are delivered: feed the model (BBR cares) and
            # restart the RTO — forward progress is happening (as Linux's
            # tcp_rearm_rto does), even without cumulative advance.
            self._arm_rto(restart=True)
            self.delivered += newly_sacked
            self.delivered_time = self.sim.now
            sample = self._make_rate_sample(seg, newly_sacked)
            if seg.ts_ecr is not None:
                rtt = self.sim.now - seg.ts_ecr
                if rtt > 0:
                    sample.rtt = rtt
                    estimator = self.rtt
                    if estimator.read_only:
                        estimator = self._own_rtt()
                    estimator.on_sample(rtt)
            cc = self.cc
            if cc.read_only:
                cc = self._own_cc()
            cc.on_ack(sample)

        # sacked lies within [snd_una, snd_nxt), so its total is the
        # SACKed bytes in flight.
        lost_threshold = cold.sacked.total() >= 3 * MSS
        if not cold.in_fast_recovery and (cold.dupacks >= 3 or lost_threshold):
            self._enter_fast_recovery()
        elif cold.in_fast_recovery:
            self._recovery_send()

    def _enter_fast_recovery(self) -> None:
        cold = self.cold
        cold.in_fast_recovery = True
        cold.recover = self.snd_nxt
        self._own_cc().on_loss_event(self.bytes_in_flight)
        self.stack.stats.fast_retransmits += 1
        self._recovery_send()
        self._arm_rto(restart=True)

    def _recovery_send(self) -> None:
        """SACK-based retransmission (RFC 6675 pipe algorithm, simplified).

        Fill the congestion window with (1) not-yet-retransmitted holes
        below the highest SACKed byte, then (2) new data.  Only a
        connection in recovery gets here, so its cold part is its own.
        """
        cold = self.cold
        span = self.snd_nxt - self.snd_una
        sacked = cold.sacked.total()  # all of it lies in [snd_una, snd_nxt)
        high_sacked = min(cold.sacked.max_end(), self.snd_nxt)
        # After an RTO everything outstanding at timeout time is presumed lost.
        high_lost = max(high_sacked, min(cold.rto_high, self.snd_nxt))

        # Holes below high_lost that are neither SACKed nor already
        # repaired: the gaps of their union.  Their size is the window
        # minus what the union covers; the holes themselves are fetched
        # only as far as the burst budget below can reach (the loop
        # spends at most ``mss`` bytes, the last hole it touches whole),
        # and before the loop marks any of them repaired.
        covered = cold.covered
        fin_seq = cold.fin_seq
        mss = MSS
        lost_unrepaired = max(high_lost - self.snd_una, 0) - covered.covered(
            self.snd_una, high_lost
        )
        holes = covered.holes(self.snd_una, high_lost, mss)

        pipe = span - sacked - lost_unrepaired
        cwnd = self.cc.window()
        # ACK clocking: at most one segment of retransmission per incoming
        # ACK, so repair traffic cannot exceed the bottleneck rate and
        # re-lose the repairs.  (It also bounds the loop below by bytes
        # sent, not by how many holes there are.)
        burst_budget = mss

        for hole_start, hole_end in holes:
            cursor = hole_start
            while cursor < hole_end and pipe < cwnd and burst_budget > 0:
                if fin_seq is not None and cursor >= fin_seq:
                    # The hole is our FIN: resend it, not payload.
                    seg = self._make_segment(cursor, ack=True, fin=True)
                    self._count_retransmit()
                    self._transmit(seg, retransmit=True)
                    self._mark_rexmitted(cursor, cursor + 1)
                    cold.last_repair_time = self.sim.now
                    pipe += 1
                    break
                length = min(mss, hole_end - cursor)
                if fin_seq is not None:
                    length = min(length, fin_seq - cursor)
                seg = self._make_segment(
                    cursor, ack=True, payload_len=length
                )
                self._count_retransmit()
                self._transmit(seg, retransmit=True)
                self._mark_rexmitted(cursor, cursor + length)
                cold.last_repair_time = self.sim.now
                cursor += length
                pipe += length
                burst_budget -= length
            if pipe >= cwnd or burst_budget <= 0:
                break

        if pipe < cwnd:
            # Packet conservation allows new data too.
            self._pump(allowed_in_flight=self.bytes_in_flight + (cwnd - pipe))

        if cold.rexmitted and not cold.rack_armed:
            self._arm_rack()

    def _count_retransmit(self) -> None:
        stack = self.stack
        stack.stats.retransmits += 1
        if stack._traced:
            stack.tracer.count("tcp.retransmits")

    def _mark_rexmitted(self, start: int, end: int) -> None:
        cold = self.cold
        if cold.rexmitted is EMPTY:
            cold.rexmitted = IntervalSet()
        if cold.covered is EMPTY:
            cold.covered = IntervalSet()
        cold.rexmitted.add(start, end)
        cold.covered.add(start, end)

    def _forget_repairs(self) -> None:
        """Clear the repaired-marks; the union falls back to the SACKed."""
        cold = self.cold
        cold.rexmitted = EMPTY
        cold.covered = cold.sacked.copy() if cold.sacked else EMPTY

    # RACK-style lost-retransmission detection: if snd_una has not moved a
    # round trip after a hole was repaired, the retransmission itself was
    # lost — clear the repaired-marks and retry, instead of waiting for the
    # (window-collapsing) RTO.
    def _arm_rack(self) -> None:
        self.cold.rack_armed = True
        timeout = 1.25 * (self.rtt.srtt or self.rtt.rto)
        self.sim.schedule_call(timeout, self._rack_fire, self.snd_una)

    def _rack_fire(self, una_then: int) -> None:
        cold = self.cold
        cold.rack_armed = False
        if not cold.in_fast_recovery:
            return
        if self.snd_una == una_then and cold.rexmitted:
            repair_age = self.sim.now - cold.last_repair_time
            if repair_age >= 1.25 * (self.rtt.srtt or self.rtt.rto):
                self._forget_repairs()
            self._recovery_send()
        if cold.in_fast_recovery and cold.rexmitted and not cold.rack_armed:
            self._arm_rack()

    # ------------------------------------------------------------ data path --
    def _process_data(self, seg: TcpSegment, ecn_ce: bool) -> None:
        if self.irs is None:
            return
        seq = seg.seq
        rcv_nxt = self.rcv_nxt
        ooo = self.ooo
        if seq > rcv_nxt and ooo.read_only:
            ooo = self.ooo = OutOfOrder()  # the first out-of-order segment
        self.rcv_nxt = ooo.receive(rcv_nxt, seq, seq + seg.payload_len)
        advanced = self.rcv_nxt - rcv_nxt
        in_order = advanced > 0
        if advanced:
            recv_buffer = self.recv_buffer
            if recv_buffer.read_only:
                recv_buffer = self._own_recv_buffer()
            recv_buffer.deliver(advanced)
            self._check_fin_delivery()
            if self.on_data_available is not None:
                self.on_data_available(self, advanced)
        # Echo CE marks regardless of local config: a mark can only exist
        # if the sender negotiated ECN.  Classic receivers latch the echo
        # until the sender's CWR; DCTCP-style receivers echo per segment
        # (handled in _schedule_ack below).
        cold = self.cold
        if ecn_ce:
            if cold.read_only:
                cold = self._own_cold()
            cold.ecn_echo_latched = True
        elif seg.cwr and cold.ecn_echo_latched and not self.cc.wants_accurate_ecn:
            cold.ecn_echo_latched = False

        self._delack_bytes += seg.payload_len
        immediate = not in_order or not ooo.read_only and ooo.total() > 0
        self._schedule_ack(immediate=immediate, accurate_ecn_ce=ecn_ce)

    def _after_app_read(self) -> None:
        """Send a window update if reading opened the window substantially."""
        if self.state not in (TcpState.ESTABLISHED, TcpState.FIN_WAIT_1, TcpState.FIN_WAIT_2):
            return
        ooo = self.ooo
        wnd = self.recv_buffer.window(0 if ooo.read_only else ooo.total())
        if wnd - self._last_advertised_wnd >= self.config.rcvbuf // 4:
            self._send_ack()

    # ------------------------------------------------------------- ACK sending --
    def _schedule_ack(self, immediate: bool, accurate_ecn_ce: bool = False) -> None:
        if self.cc.wants_accurate_ecn:
            # DCTCP receiver: every data segment is acked, echoing its mark.
            self._send_ack(ece_override=accurate_ecn_ce)
            return
        self._delack_pending += 1
        # The segment threshold counts MSS-equivalents: one TSO/GRO
        # aggregate of >= 2*MSS must be acked immediately (as Linux does),
        # or a lone super-segment in flight would stall on the delack timer.
        if (
            immediate
            or self._delack_pending >= DELACK_SEGMENTS
            or self._delack_bytes >= DELACK_SEGMENTS * MSS
        ):
            self._send_ack()
            return
        # The timer runs from the first unacknowledged segment (every ACK
        # sent cancels it): a later one leaves it where it is.
        delack = self._delack
        if delack is None:
            delack = self._delack = Deadline(
                self.sim, self, TcpConnection._send_ack
            )
        elif delack.armed:
            return
        delack.arm(DELACK_TIMEOUT)

    def _send_ack(self, ece_override: Optional[bool] = None) -> None:
        if self.irs is None or self.state in (TcpState.CLOSED, TcpState.LISTEN):
            return
        self._delack_pending = 0
        self._delack_bytes = 0
        if self._delack is not None:
            self._delack.cancel()
        seg = self._make_segment(self.snd_nxt, ack=True)
        if ece_override is not None:
            seg.ece = ece_override
        self._transmit(seg)

    # ------------------------------------------------------------- FIN path --
    def _process_fin(self, seg: TcpSegment) -> None:
        fin_seq = seg.seq + seg.payload_len
        cold = self.cold
        if cold.read_only:
            cold = self._own_cold()
        cold.fin_received_seq = fin_seq
        # FIN is in order only when all stream data before it has arrived.
        if self.rcv_nxt == fin_seq:
            self.rcv_nxt += 1
            recv_buffer = self.recv_buffer
            if recv_buffer.read_only:
                recv_buffer = self._own_recv_buffer()
            recv_buffer.deliver_eof()
            self._fin_advance_state()
        self._send_ack()

    def _check_fin_delivery(self) -> None:
        fin_received_seq = self.cold.fin_received_seq
        if fin_received_seq is not None and self.rcv_nxt == fin_received_seq:
            self.rcv_nxt += 1
            recv_buffer = self.recv_buffer
            if recv_buffer.read_only:
                recv_buffer = self._own_recv_buffer()
            recv_buffer.deliver_eof()
            self._fin_advance_state()
            self._send_ack()

    def _fin_advance_state(self) -> None:
        if self.state is TcpState.ESTABLISHED:
            self.state = TcpState.CLOSE_WAIT
        elif self.state is TcpState.FIN_WAIT_1:
            self.state = TcpState.CLOSING
        elif self.state is TcpState.FIN_WAIT_2:
            self._enter_time_wait()

    def _on_fin_progress(self, fin_acked: bool) -> None:
        if not fin_acked:
            return
        if self.state is TcpState.FIN_WAIT_1:
            self.state = TcpState.FIN_WAIT_2
        elif self.state is TcpState.CLOSING:
            self._enter_time_wait()
        elif self.state is TcpState.LAST_ACK:
            self.state = TcpState.CLOSED
            self._finish_closed()

    def _enter_time_wait(self) -> None:
        self.state = TcpState.TIME_WAIT
        self.stack.enter_time_wait(self)

    def _time_wait_done(self) -> None:
        if self.state is TcpState.TIME_WAIT:
            self.state = TcpState.CLOSED
            self._finish_closed()

    def _finish_closed(self) -> None:
        if self._fluid is not None:
            self._fidelity.demote(self, "closed")
        self._release_timers()
        closed = self.closed
        if not closed.triggered:
            closed.succeed()
        self.stack.forget(self)

    def _release_timers(self) -> None:
        # Pending timer entries must not keep a closed connection (or one
        # in TIME_WAIT, whose FIN is acked) alive.
        if self._rto is not None:
            self._rto.release()
            self._rto = None
        cold = self.cold
        if cold.persist is not None:
            cold.persist.release()
            cold.persist = None
        if self._delack is not None:
            self._delack.release()
            self._delack = None

    def _on_rst(self) -> None:
        self.state = TcpState.CLOSED
        self._own_recv_buffer().deliver_eof()
        if not self.established.triggered:
            self.established.fail(ConnectionReset(f"{self.local} reset by peer"))
        self._finish_closed()

    # ------------------------------------------------------------ transmit --
    def _pump(self, allowed_in_flight: Optional[int] = None) -> None:
        """Send whatever the window, pacing and app data allow.

        ``allowed_in_flight`` overrides the usual min(cwnd, rwnd) budget;
        fast recovery uses it to apply the pipe algorithm's allowance.
        """
        if self.state not in (
            TcpState.ESTABLISHED,
            TcpState.CLOSE_WAIT,
            TcpState.FIN_WAIT_1,
            TcpState.CLOSING,
            TcpState.LAST_ACK,
        ):
            return
        if self._fluid is not None and self._fidelity.pump(self):
            return
        cold = self.cold
        while True:
            sent_bytes = self.snd_nxt - self.data_seq_base - (
                1 if cold.fin_sent else 0
            )
            available = self.send_buffer.written - sent_bytes
            if allowed_in_flight is not None:
                window = min(allowed_in_flight, max(self.snd_wnd, 0))
            else:
                window = min(self.cc.window(), max(self.snd_wnd, 0))
            in_flight = self.bytes_in_flight

            want_fin = (
                self.send_buffer.fin_requested
                and available == 0
                and not cold.fin_sent
                and self.state in (TcpState.FIN_WAIT_1, TcpState.CLOSING, TcpState.LAST_ACK)
            )
            if available <= 0 and not want_fin:
                if in_flight == 0 and self.send_buffer.written > 0:
                    self._mark_app_limited()
                break
            if in_flight >= window:
                if self.snd_wnd == 0 and in_flight == 0:
                    self._arm_persist()
                break
            if self._pacing_blocked():
                break
            if (
                self.config.nagle
                and not want_fin
                and 0 < available < MSS
                and in_flight > 0
            ):
                break  # Nagle: hold the runt until the pipe drains

            if want_fin:
                seg = self._make_segment(self.snd_nxt, ack=True, fin=True)
                if cold.read_only:
                    cold = self._own_cold()
                cold.fin_seq = self.snd_nxt
                cold.fin_sent = True
                self.snd_nxt += 1
                self._transmit(seg)
                self._arm_rto()
                break

            length = min(available, self.config.effective_mss)
            seg = self._make_segment(self.snd_nxt, ack=True, payload_len=length)
            self.snd_nxt += length
            self._transmit(seg)
            self._arm_rto()
            self._pacing_advance(length)

    def _mark_app_limited(self) -> None:
        self._app_limited_until = self.delivered + self.bytes_in_flight

    # pacing ---------------------------------------------------------------
    def _pacing_blocked(self) -> bool:
        rate = self.cc.pacing_rate()
        if rate is None or rate <= 0:
            return False
        if self.sim.now + 1e-12 >= self._next_send_time:
            return False
        if not self._pacing_timer_armed:
            self._pacing_timer_armed = True
            self.sim.schedule_call(
                self._next_send_time - self.sim.now, self._pacing_fire
            )
        return True

    def _pacing_fire(self) -> None:
        self._pacing_timer_armed = False
        self._pump()

    def _pacing_advance(self, nbytes: int) -> None:
        rate = self.cc.pacing_rate()
        if rate is None or rate <= 0:
            return
        base = max(self.sim.now, self._next_send_time)
        self._next_send_time = base + nbytes / rate

    # segment construction ----------------------------------------------------
    def _make_segment(
        self,
        seq: int,
        ack: bool = False,
        syn: bool = False,
        fin: bool = False,
        rst: bool = False,
        payload_len: int = 0,
    ) -> TcpSegment:
        ooo = self.ooo
        acks_data = ack and self.irs is not None
        if ooo.read_only:  # nothing held: the common case
            wnd = self.recv_buffer.window()
            sack = ()
        else:
            wnd = self.recv_buffer.window(ooo.total())
            sack = ooo.sack_blocks() if acks_data else ()
        self._last_advertised_wnd = wnd
        seg = TcpSegment(
            src_port=self.key[0],
            dst_port=self.key[2],
            seq=seq,
            ack_no=self.rcv_nxt if acks_data else 0,
            payload_len=payload_len,
            syn=syn,
            ack=ack,
            fin=fin,
            rst=rst,
            wnd=wnd,
            ts_val=self.sim.now,
            ts_ecr=self._ts_recent,
            sack=sack,
        )
        cold = self.cold
        if ack and not rst and cold.ecn_echo_latched and not self.cc.wants_accurate_ecn:
            seg.ece = True
        if payload_len > 0 and cold.send_cwr:
            seg.cwr = True
            cold.send_cwr = False
        return seg

    def _transmit(self, seg: TcpSegment, retransmit: bool = False) -> None:
        if seg.payload_len > 0 and not retransmit:
            if self.bytes_in_flight == 0:
                self._first_tx_time = self.sim.now
            record = _TxRecord(
                end_seq=seg.end_seq,
                sent_time=self.sim.now,
                first_tx_time=self._first_tx_time,
                delivered_at_send=self.delivered,
                delivered_time_at_send=self.delivered_time or self.sim.now,
                is_app_limited=self.delivered + self.bytes_in_flight
                <= self._app_limited_until,
                payload_len=seg.payload_len,
            )
            if self._tx_records:
                self._tx_records.append(record)
            else:
                self._tx_records = [record]
        self.stack.send_segment(self, seg)

    # SYN helpers ---------------------------------------------------------------
    def _send_syn(self) -> None:
        seg = self._make_segment(self.iss, syn=True)
        self.snd_nxt = self.iss + 1
        self._transmit(seg)
        self._arm_rto()

    def _accept_syn(self, seg: TcpSegment) -> None:
        self.irs = seg.seq
        self.rcv_nxt = seg.seq + 1
        self.snd_wnd = seg.wnd
        if seg.ts_val is not None:
            self._ts_recent = seg.ts_val

    def _become_established(self) -> None:
        if self.state in (TcpState.SYN_SENT, TcpState.SYN_RCVD):
            self.state = TcpState.ESTABLISHED
            self.delivered_time = self.sim.now
            established = self._established
            if not established.triggered:
                established.succeed()
                # Kept until the event pops (its waiters have run): a
                # reader before then still gets this event, not a stand-in.
                established.add_callback(self._let_go_of_established)
            if self.on_established_cb is not None:
                self.on_established_cb(self)
            if self._fidelity is not None:
                self._fidelity.on_established(self)
            rto = self._rto
            if rto is not None and self.snd_una == self.snd_nxt:
                # Nothing is outstanding: the handshake's timer stops
                # (RFC 6298 5.2), and the first data segment arms a fresh
                # one (5.1) instead of inheriting the SYN's deadline.
                rto.release()
                self._rto = None
                if not self.rtt.read_only:
                    self.rtt.reset_backoff()

    def _let_go_of_established(self, _event: Event) -> None:
        self._established = None

    # timers ----------------------------------------------------------------
    # Re-armed on every ACK and transmission; lazily, see repro.sim.Deadline.
    def _arm_rto(self, restart: bool = False) -> None:
        rto = self._rto
        if rto is None:
            rto = self._rto = Deadline(self.sim, self, TcpConnection._rto_fire)
        elif not restart and rto.armed:
            return
        rto.arm(self.rtt.rto)

    def _rto_fire(self) -> None:
        if self.state is TcpState.SYN_SENT:
            cold = self.cold
            if cold.read_only:
                cold = self._own_cold()
            cold.syn_retries_left -= 1
            if cold.syn_retries_left <= 0:
                self.established.fail(
                    ConnectionReset(f"connect {self.remote}: SYN retries exhausted")
                )
                self.state = TcpState.CLOSED
                self._finish_closed()
                return
            self._own_rtt().on_timeout()
            self._send_syn()
            return
        if self.state is TcpState.SYN_RCVD:
            self._own_rtt().on_timeout()
            self._transmit(self._make_segment(self.iss, syn=True, ack=True))
            self._arm_rto()
            return
        if self.snd_una >= self.snd_nxt:
            return  # everything acked; nothing to do
        self.stack.stats.timeouts += 1
        self._own_rtt().on_timeout()
        self._own_cc().on_rto()
        cold = self.cold
        if cold.read_only:
            cold = self._own_cold()
        # Treat everything unsacked as lost; retransmit via the scoreboard
        # machinery while the window regrows from one MSS.  SACKed ranges
        # are kept (as Linux does) so delivered-byte accounting stays exact.
        cold.dupacks = 0
        self._forget_repairs()
        self._tx_records = ()
        self._tx_head = 0
        cold.in_fast_recovery = True
        cold.recover = self.snd_nxt
        cold.rto_high = self.snd_nxt
        self._arm_rto(restart=True)
        self._recovery_send()

    def _arm_persist(self) -> None:
        cold = self.cold
        if cold.read_only:
            cold = self._own_cold()
        if cold.persist is None:
            cold.persist = Deadline(self.sim, self, TcpConnection._persist_fire)
        cold.persist.arm(self.rtt.rto)

    def _persist_fire(self) -> None:
        if self.snd_wnd == 0 and self.state is TcpState.ESTABLISHED:
            # Window probe: 1-byte nudge would be the real thing; a bare ACK
            # suffices to elicit a window update in this simulation.
            self._send_ack()
            self._arm_persist()

    # owned parts ----------------------------------------------------------
    # A connection starts on its stack's shared read-only parts.  Each of
    # these returns the connection's own part to write, built in place of
    # the shared one the first time (equal to it: the shared one never
    # changed).  Write sites that run on every connection test
    # ``read_only`` inline and call these only on a first write; the
    # rare ones (RST, RTO, loss) call them directly.  The out-of-order
    # queue has one write site, which builds its own there.
    def _own_cc(self) -> CongestionControl:
        cc = self.cc
        if cc.read_only:
            cc = self.cc = make_cc(cc.name, mss=MSS)
        return cc

    def _own_rtt(self) -> RttEstimator:
        estimator = self.rtt
        if estimator.read_only:
            estimator = self.rtt = RttEstimator()
        return estimator

    def _own_cold(self) -> ColdState:
        cold = self.cold
        if cold.read_only:
            cold = self.cold = ColdState()
        return cold

    def _own_send_buffer(self) -> SendBuffer:
        buffer = self.send_buffer
        if buffer.read_only:
            buffer = self.send_buffer = SendBuffer(self.sim, buffer.capacity)
        return buffer

    def _own_recv_buffer(self) -> ReceiveBuffer:
        buffer = self.recv_buffer
        if buffer.read_only:
            buffer = self.recv_buffer = ReceiveBuffer(self.sim, buffer.capacity)
        return buffer

    def __repr__(self) -> str:
        return (
            f"<TcpConnection {self.local}->{self.remote} {self.state.value} "
            f"cc={self.cc.name} una={self.snd_una} nxt={self.snd_nxt}>"
        )
