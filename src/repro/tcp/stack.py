"""A TCP/IP protocol stack instance.

One :class:`TcpStack` corresponds to "the network stack" of a guest kernel,
an NSM, or a bare-metal host.  It owns a NIC, demultiplexes inbound
segments to connections, allocates ports, spawns server connections for
listeners, and charges CPU for protocol processing so that a stack confined
to one core (like the paper's 1-core NSM) has a realistic throughput
ceiling.

CPU cost model: each segment costs ``per_segment_ns`` plus
``per_byte_ns`` × payload on both transmit and receive, charged to the core
the connection is hashed to (RSS-style).  The provisioning layer
(repro.netkernel.provision / nsm) calibrates the constants so guest-kernel
and NSM stacks pay the same per-core total (see docs/ARCHITECTURE.md),
which is what makes Figure 4 come out even.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field, replace
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Tuple, Union

from ..net import NIC, Endpoint, Packet
from ..net.addressing import EPHEMERAL_BASE
from ..obs import runtime as obs_runtime
from ..sim import NANOS, Event, FifoTimer, Simulator
from .buffers import ReceiveBuffer, SendBuffer, make_read_only
from .cc import base as cc_base
from .connection import MSS, ColdState, TcpConfig, TcpConnection, TcpState
from .listener import Listener
from .rtt import RttEstimator
from .segment import TcpSegment

__all__ = ["StackConfig", "TcpStack", "StackStats", "TimeWait"]


class _Core:  # typing protocol, duck-typed against repro.host.cpu.Core
    def execute(self, cost_seconds: float) -> Event: ...  # pragma: no cover


@dataclass
class StackConfig:
    """Stack-wide defaults and CPU cost constants."""

    #: Default congestion control for new connections.
    congestion_control: str = "cubic"
    #: Template for per-connection tunables.
    tcp: TcpConfig = field(default_factory=TcpConfig, init=False)
    #: Fixed CPU cost per segment processed (protocol work, interrupts).
    per_segment_ns: float = 2000.0
    #: CPU cost per payload byte (copies, checksums).
    per_byte_ns: float = 0.30


@dataclass
class StackStats:
    segments_in: int = 0
    segments_out: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    rst_sent: int = 0
    no_socket_drops: int = 0
    connections_opened: int = 0
    connections_accepted: int = 0
    # Loss recovery and ECN, summed over every connection the stack has
    # carried: the only copy (a connection keeps no counters of its own).
    retransmits: int = 0
    fast_retransmits: int = 0
    timeouts: int = 0
    dup_acks: int = 0
    ecn_echoes: int = 0


ConnKey = Tuple[int, str, int]  # (local_port, remote_ip, remote_port)


class TimeWait(weakref.ref):
    """A connection in TIME_WAIT, as the demux table holds it.

    Linux swaps a socket that enters TIME_WAIT for a small
    ``inet_timewait_sock``; this is the same move.  The record is a weak
    reference to its connection (``record()`` is the connection, or None
    once freed), so the connection (buffers, scoreboards, RTT and
    congestion state, timers) is freed as soon as the application lets
    go of it, not 2 MSL later.  The record keeps the demux entry, the
    connection's ``closed`` event or None if none was built (``close()``
    handed it to callers who may still poll it), and only what the answer
    to a late segment and the 2 MSL expiry read (RFC 9293 section
    3.10.7.4): while the connection lives, segments go to it unchanged;
    once it is gone, the record acknowledges a retransmitted FIN or
    duplicate data as the connection would have, and an RST closes it.

    Its ``key`` is the connection's, the very tuple the demux table files
    both under: expiry and an RST delete the entry by it, and an answer
    takes its ports from it and goes out through
    :meth:`TcpStack.send_segment` as the connection's would, on its
    ``core``.  ``wnd`` is the window the answers
    advertise: the int the receive buffer's ``window()`` returned, since
    once the FIN is in and nothing is left unread no read or arrival can
    move it; the buffer itself while unread bytes remain (the application
    may still read after TIME_WAIT begins).

    The record holds no queue entry of its own: the stack queues it in
    the :class:`~repro.sim.FifoTimer` for its 2 MSL, one per duration,
    which stamps it with ``fifo_when`` and ``fifo_seq`` and calls
    :meth:`expire` at ``now + 2 * msl`` as computed at entry.
    """

    __slots__ = (
        "stack",
        "key",
        "core",
        "accurate_ecn",
        # refreshed after every segment the connection processes (and
        # ``closed`` when it builds one in TIME_WAIT)
        "closed",
        "snd_nxt",
        "rcv_nxt",
        "ts_recent",
        "ecn_echo",
        "wnd",
        # the FifoTimer's stamp
        "fifo_when",
        "fifo_seq",
    )

    #: What a reader of the demux table sees.
    state = TcpState.TIME_WAIT

    def __init__(self, conn: TcpConnection) -> None:
        super().__init__(conn)
        self.stack = conn.stack
        self.key = conn.key
        self.core = conn.core
        self.accurate_ecn = conn.cc.wants_accurate_ecn
        self.update(conn)

    def update(self, conn: TcpConnection) -> None:
        self.snd_nxt = conn.snd_nxt
        self.rcv_nxt = conn.rcv_nxt
        self.ts_recent = conn._ts_recent
        self.ecn_echo = conn.cold.ecn_echo_latched
        self.closed = conn._closed
        buffer = conn.recv_buffer
        self.wnd = buffer if buffer.available else buffer.window()

    def on_segment(self, seg: TcpSegment, ecn_ce: bool = False) -> None:
        conn = self()
        if conn is not None:
            conn.on_segment(seg, ecn_ce)
            return
        # What TcpConnection.on_segment does in TIME_WAIT, less the state
        # nobody can observe any more.
        if seg.rst:
            self._close()
            return
        if seg.syn:
            return
        if seg.ts_val is not None:
            self.ts_recent = seg.ts_val
        if seg.payload_len > 0:  # a duplicate, acknowledged at once
            if self.accurate_ecn:
                self._ack(ecn_ce)
            else:
                if ecn_ce:
                    self.ecn_echo = True
                elif seg.cwr:
                    self.ecn_echo = False
                self._ack(self.ecn_echo)
        if seg.fin:
            self._ack(self.ecn_echo and not self.accurate_ecn)

    def _ack(self, ece: bool) -> None:
        wnd = self.wnd
        if wnd.__class__ is not int:  # unread bytes: the buffer's window now
            wnd = wnd.window()
        seg = TcpSegment(
            src_port=self.key[0],
            dst_port=self.key[2],
            seq=self.snd_nxt,
            ack_no=self.rcv_nxt,
            ack=True,
            wnd=wnd,
            ts_val=self.stack.sim.now,
            ts_ecr=self.ts_recent,
            ece=ece,
        )
        self.stack.send_segment(self, seg)

    def expire(self) -> None:
        """2 MSL after entry: TIME_WAIT -> CLOSED.  A no-op once an RST
        closed the record; a connection migration adopted is still closed
        here, on the stack that holds it now."""
        conn = self()
        if conn is not None:
            conn._time_wait_done()
        elif self.stack._connections.get(self.key) is self:
            self._close()

    def _close(self) -> None:
        # TcpConnection._finish_closed for a connection that is gone.
        if self.closed is not None and not self.closed.triggered:
            self.closed.succeed()
        del self.stack._connections[self.key]

    def __repr__(self) -> str:
        return f"<TimeWait {self.key} alive={self() is not None}>"


def _holds(entry, conn: TcpConnection) -> bool:
    """Whether demux entry ``entry`` stands for ``conn``."""
    return entry is conn or entry.__class__ is TimeWait and entry() is conn


class _SharedParts(dict):
    """key -> ``build(key)`` made read-only, built on first lookup."""

    __slots__ = ("build",)

    def __init__(self, build) -> None:
        super().__init__()
        self.build = build

    def __missing__(self, key):
        part = self[key] = make_read_only(self.build(key))
        return part


#: Every TcpConfig field value as one tuple: the _tcp_config cache fingerprint.
_tcp_field_values = attrgetter(*TcpConfig.__dataclass_fields__)


class TcpStack:
    """A complete TCP endpoint bound to one NIC/IP."""

    def __init__(
        self,
        sim: Simulator,
        nic: NIC,
        cores: Optional[List[_Core]] = None,
        config: Optional[StackConfig] = None,
        name: Optional[str] = None,
    ) -> None:
        self.sim = sim
        self.nic = nic
        self.cores = list(cores) if cores else []
        self.config = config or StackConfig()
        self.name = name or f"stack:{nic.ip}"
        self.ip = nic.ip
        nic.rx_handler = self.on_packet

        #: A connection in TIME_WAIT is held as its TimeWait record.
        self._connections: Dict[ConnKey, Union[TcpConnection, TimeWait]] = {}
        #: 2 MSL -> the records waiting it out, in entry order: one queue
        #: entry per duration instead of one per record.
        self._time_wait: Dict[float, FifoTimer] = {}
        self._listeners: Dict[int, Listener] = {}
        self._next_ephemeral = EPHEMERAL_BASE
        self._next_core = 0
        self._cfg_cache: Dict[tuple, TcpConfig] = {}
        # The parts a new connection starts with, read-only and shared by
        # every connection until it first writes one and builds its own
        # (DESIGN.md section 16, "An idle endpoint builds nothing").
        self.shared_cc = _SharedParts(lambda name: cc_base.make(name, mss=MSS))
        self.shared_send_buffer = _SharedParts(lambda size: SendBuffer(sim, size))
        self.shared_recv_buffer = _SharedParts(lambda size: ReceiveBuffer(sim, size))
        self.shared_rtt = make_read_only(RttEstimator())
        self.shared_cold = make_read_only(ColdState())
        #: Fastpass-style fabric arbiter: when set, every payload-bearing
        #: segment waits for a wire timeslot grant before transmission
        #: (pure ACKs bypass — they are a rounding error on the fabric).
        self.arbiter = None
        self.stats = StackStats()
        self.tracer = obs_runtime.get_tracer()
        self._traced = self.tracer.enabled
        if sim.fidelity is not None:
            sim.fidelity.register_stack(self)

    # ----------------------------------------------------------- provisioning --
    def effective_mss(self) -> int:
        return self.nic.offload.effective_mss

    def _tcp_config(self, **overrides) -> TcpConfig:
        """A per-connection TcpConfig built from the stack template.

        Configs are never written to after a connection starts, so
        identical requests share one cached instance instead of paying
        ``dataclasses.replace`` per connection — a measurable win under
        connection churn.  The cache key fingerprints the template's
        current field values, so mutating ``stack.config.tcp`` between
        connections (as the Nagle tests do) still takes effect.
        """
        template = self.config.tcp
        try:
            key = (
                self.effective_mss(),
                _tcp_field_values(template),
                tuple(sorted(overrides.items())),
            )
            cached = self._cfg_cache.get(key)
        except TypeError:  # unhashable field/override value: build uncached
            cached = key = None
        if cached is not None:
            return cached
        cfg = replace(template)
        cfg.effective_mss = max(MSS, self.effective_mss())
        for name, value in overrides.items():
            setattr(cfg, name, value)
        if key is not None:
            self._cfg_cache[key] = cfg
        return cfg

    def allocate_port(self) -> int:
        port = self._next_ephemeral
        self._next_ephemeral += 1
        if self._next_ephemeral > 65535:
            self._next_ephemeral = EPHEMERAL_BASE
        return port

    def _assign_core(self, conn: TcpConnection) -> None:
        if self.cores:
            conn.core = self.cores[self._next_core % len(self.cores)]
            self._next_core += 1

    # ------------------------------------------------------------- active open --
    def connect(
        self,
        remote: Endpoint,
        congestion_control: Optional[str] = None,
        local_port: Optional[int] = None,
        **tcp_overrides,
    ) -> TcpConnection:
        """Open a connection; wait on ``conn.established`` for completion."""
        port = local_port if local_port is not None else self.allocate_port()
        key = (port, remote.ip, remote.port)
        if key in self._connections:
            raise RuntimeError(f"connection collision on {key}")
        cfg = self._tcp_config(**tcp_overrides)
        cc = self.shared_cc[congestion_control or self.config.congestion_control]
        conn = self._connections[key] = TcpConnection(self.sim, self, key, cc, cfg)
        self.stats.connections_opened += 1
        self._assign_core(conn)
        fid = self.sim.fidelity
        if fid is None or not fid.try_fluid_connect(self, conn):
            conn.open_active()
        return conn

    # ------------------------------------------------------------ passive open --
    def listen(
        self,
        port: int,
        backlog: int = 128,
        congestion_control: Optional[str] = None,
        **tcp_overrides,
    ) -> Listener:
        if port in self._listeners and not self._listeners[port].closed:
            raise RuntimeError(f"port {port} already listening")
        listener = Listener(self.sim, port, backlog)
        listener._cc_name = congestion_control  # type: ignore[attr-defined]
        listener._tcp_overrides = tcp_overrides  # type: ignore[attr-defined]
        self._listeners[port] = listener
        return listener

    def accept_child(self, listener: Listener, key: ConnKey) -> TcpConnection:
        """A new child of ``listener`` filed under ``key`` (its SYN's demux
        key), on a core, handed to the listener once established (still
        CLOSED)."""
        cfg = self._tcp_config(**getattr(listener, "_tcp_overrides", {}))
        cc = self.shared_cc[
            getattr(listener, "_cc_name", None) or self.config.congestion_control
        ]
        conn = self._connections[key] = TcpConnection(self.sim, self, key, cc, cfg)
        self.stats.connections_accepted += 1
        self._assign_core(conn)
        conn.on_established_cb = listener.on_established
        return conn

    # --------------------------------------------------------------- data path --
    def send_segment(
        self, conn: Union[TcpConnection, TimeWait], seg: TcpSegment
    ) -> None:
        """Charge transmit CPU, then hand the packet to the NIC.

        A :class:`TimeWait` record answering for its connection sends
        here too: it has the ``key`` and ``core`` read below, and sends
        no payload, so no ``config`` (``id(conn)`` is then the record's
        own).
        """
        self.stats.segments_out += 1
        self.stats.bytes_out += seg.payload_len
        cost = (
            self.config.per_segment_ns + self.config.per_byte_ns * seg.payload_len
        ) * NANOS
        span = None
        if self._traced:
            tracer = self.tracer
            tracer.count("tcp.segments_out")
            tracer.count("tcp.bytes_out", seg.payload_len)
            # Parent under the ServiceLib send that produced these bytes
            # (payload segments only; pure ACKs stand alone and are left
            # to the sampler).
            parent = tracer.flow_parent(id(conn)) if seg.payload_len else None
            if parent is not None:
                span = parent.child("tcp.tx_segment", "tcp")
            elif seg.payload_len:
                span = tracer.span("tcp.tx_segment", "tcp")
            if span is not None:
                span.cpu(cost / NANOS).annotate(bytes=seg.payload_len)
        packet = Packet(
            src=self.ip,
            dst=conn.key[1],
            payload_bytes=seg.payload_len,
            payload=seg,
            ecn_capable=seg.payload_len > 0 and conn.config.ecn,
        )
        core = conn.core
        if core is None:
            self._to_wire(packet, seg, span)
            return
        core.execute_call(cost, self._to_wire, packet, seg, span)

    def _to_wire(self, packet: Packet, seg: TcpSegment, span=None) -> None:
        if span is not None:
            span.end()
        if self.arbiter is not None and seg.payload_len > 0:
            self.arbiter.request(packet.wire_bytes()).add_callback(
                lambda _ev: self.nic.transmit(packet)
            )
        else:
            self.nic.transmit(packet)

    def on_packet(self, packet: Packet) -> None:
        """NIC receive entry point: charge CPU, then demultiplex."""
        seg = packet.payload
        if not isinstance(seg, TcpSegment):
            return
        self.stats.segments_in += 1
        self.stats.bytes_in += seg.payload_len
        if self._traced:
            self.tracer.count("tcp.segments_in")
            self.tracer.count("tcp.bytes_in", seg.payload_len)
        key = (seg.dst_port, packet.src, seg.src_port)
        conn = self._connections.get(key)
        core = conn.core if conn is not None else (
            self.cores[0] if self.cores else None
        )
        if core is None:
            self._demux(packet, seg, key)
            return
        cost = (
            self.config.per_segment_ns + self.config.per_byte_ns * seg.payload_len
        ) * NANOS
        core.execute_call(cost, self._demux, packet, seg, key)

    def _demux(
        self, packet: Packet, seg: TcpSegment, key: Optional[ConnKey] = None
    ) -> None:
        # The connection is looked up here (not carried over from
        # on_packet) because it may close while the CPU charge drains;
        # only the key tuple is reused (a SYN's becomes its child's).
        if key is None:
            key = (seg.dst_port, packet.src, seg.src_port)
        conn = self._connections.get(key)  # or its TimeWait record
        if conn is not None:
            conn.on_segment(seg, packet.ecn_ce)
            return
        if seg.syn and not seg.ack:
            listener = self._listeners.get(seg.dst_port)
            if listener is not None:
                if listener.can_admit():
                    self.accept_child(listener, key).open_passive_from_syn(seg)
                else:  # backlog full: silent drop, client retries
                    self.stats.no_socket_drops += 1
                return
        if not seg.rst:
            self._send_rst(packet, seg)

    def _send_rst(self, packet: Packet, seg: TcpSegment) -> None:
        self.stats.rst_sent += 1
        rst = TcpSegment(
            src_port=seg.dst_port,
            dst_port=seg.src_port,
            seq=seg.ack_no,
            ack_no=seg.end_seq,
            rst=True,
            ack=True,
        )
        self.nic.transmit(
            Packet(
                src=self.ip,
                dst=packet.src,
                payload_bytes=0,
                payload=rst,
            )
        )

    # --------------------------------------------------------------- migration --
    def release_connection(self, conn: TcpConnection) -> Optional[ConnKey]:
        """Detach a live connection for migration (no FIN, no state loss).

        The connection keeps its whole sequence/CC/buffer state; only the
        demux entry and core assignment leave this stack.  Returns the
        demux key, or None if the connection was not (or no longer) ours.
        """
        key = conn.key
        if not _holds(self._connections.get(key), conn):
            return None
        if conn._fluid is not None:
            conn._fidelity.demote(conn, "migration")
        # A connection in TIME_WAIT leaves its record behind (still due to
        # close it at 2 MSL) and is adopted whole.
        del self._connections[key]
        conn.core = None
        return key

    def adopt_connection(self, conn: TcpConnection) -> None:
        """Re-home a migrated live connection onto this stack.

        Only valid when this stack answers for the connection's local IP
        (whole-NSM migration moves the IP via ``take_over_ip`` in the
        same simulated instant, so the wire 4-tuple never changes and the
        peer notices nothing).
        """
        key = conn.key
        if key in self._connections:
            raise RuntimeError(f"connection collision on {key}")
        self._connections[key] = conn
        conn.stack = self
        self._assign_core(conn)

    def release_listener(self, listener: Listener) -> None:
        if self._listeners.get(listener.port) is listener:
            del self._listeners[listener.port]

    def adopt_listener(self, listener: Listener) -> None:
        if (
            listener.port in self._listeners
            and not self._listeners[listener.port].closed
        ):
            raise RuntimeError(f"port {listener.port} already listening")
        self._listeners[listener.port] = listener

    # ------------------------------------------------------------- bookkeeping --
    def enter_time_wait(self, conn: TcpConnection) -> None:
        """``conn`` entered TIME_WAIT: a :class:`TimeWait` record takes
        its demux entry and joins the FIFO that expires it at 2 MSL."""
        key = conn.key
        record = TimeWait(conn)
        if self._connections.get(key) is conn:
            self._connections[key] = record
        duration = 2 * conn.config.msl
        fifo = self._time_wait.get(duration)
        if fifo is None:
            fifo = self._time_wait[duration] = FifoTimer(
                self.sim, duration, TimeWait.expire
            )
        fifo.add(record)

    def settle_time_wait(self, conn: TcpConnection) -> None:
        """A connection in TIME_WAIT finished processing a segment: bring
        its record up to date and let go of everything that held it."""
        record = self._connections.get(conn.key)
        if record.__class__ is not TimeWait or record() is not conn:
            return  # adopted whole by migration: the table holds it
        record.update(conn)
        conn._release_timers()
        if self._traced:
            # The connection may be freed long before 2 MSL and its id
            # reused: drop its flow-parent span now, not at forget.
            self.tracer.bind_flow(id(conn), None)

    def forget(self, conn: TcpConnection) -> None:
        """Remove a fully closed connection from the demux table."""
        key = conn.key
        if _holds(self._connections.get(key), conn):
            del self._connections[key]
        conn.core = None
        if self._traced:
            # A closed connection is freed at close and the next one may
            # reuse its id: drop the flow-parent span bound to this one.
            self.tracer.bind_flow(id(conn), None)

    def __repr__(self) -> str:
        return f"<TcpStack {self.name} conns={len(self._connections)}>"
