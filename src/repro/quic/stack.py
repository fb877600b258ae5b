"""A QUIC-like userspace protocol stack bound to one NIC/IP.

:class:`QuicStack` is the second stack family an NSM can host (the
first is :class:`repro.tcp.stack.TcpStack`).  It deliberately mirrors
the TCP stack's shape — CPU cost charged per packet + per byte on a
hashed core, ``on_packet`` demux behind an ``isinstance`` guard so both
families can share a NIC, an ``arbiter`` hook for Fastpass-style
transmission gating — but routes by **connection id**, not 4-tuple:

* ``connect()`` returns a :class:`QuicStream`, not a connection.  A
  live connection to the same ``(tenant, remote)`` is reused (a new
  stream opens instantly); otherwise a new connection starts, with
  0-RTT resumption when a ticket from a previous connection is cached.
* ``listen()`` hands every peer-opened *stream* to
  ``on_new_connection`` — the ServiceLib accept path sees exactly the
  duck-typed surface TCP gives it and cannot tell the families apart.
* Inbound routing is ``dcid -> connection``; ``INITIAL``/``ZERO_RTT``
  packets additionally carry ``dst_port`` for listener lookup and
  ``tenant``/``ticket`` for 0-RTT admission.

Tickets are **tenant-keyed** on both ends: the client caches them per
``(tenant, remote)`` and the server validates that a presented ticket
was issued to the same tenant, so one tenant's resumption state never
shortcuts another's handshake.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Callable, Dict, List, Optional, Tuple

from ..net import NIC, Endpoint, Packet
from ..net.addressing import EPHEMERAL_BASE
from ..sim import NANOS, Simulator
from ..tcp.cc import base as cc_base
from .connection import QuicConnection
from .packet import QuicPacket, QuicPacketType
from .stream import QuicStream

__all__ = ["QuicConfig", "QuicStack", "QuicStackStats", "QuicListener"]

#: Process-wide connection-id allocator (reset via repro.runstate so
#: parallel runs stay bit-identical to serial ones).
_cid_ids = count(1)
#: Resumption-ticket allocator, same determinism contract.
_ticket_ids = count(1)

#: Sentinel distinguishing "no ticket issued" from "issued to tenant None".
_MISSING = object()


@dataclass
class QuicConfig:
    """Stack-wide defaults and CPU cost constants (mirrors StackConfig)."""

    congestion_control: str = "cubic"
    #: Fixed CPU cost per packet processed (framing, crypto stand-in).
    per_packet_ns: float = 2000.0
    #: CPU cost per payload byte (copies, AEAD stand-in).
    per_byte_ns: float = 0.30
    sndbuf: int = 4 * 1024 * 1024
    rcvbuf: int = 4 * 1024 * 1024


@dataclass
class QuicStackStats:
    packets_out: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    connections_opened: int = 0
    connections_accepted: int = 0
    streams_opened: int = 0
    handshakes: int = 0
    resumptions_0rtt: int = 0
    zero_rtt_rejected: int = 0
    retransmits: int = 0
    loss_events: int = 0
    ptos: int = 0
    migrations: int = 0


class QuicListener:
    """A listening port: peer-opened streams flow to ``on_new_connection``."""

    def __init__(self, stack: "QuicStack", port: int, backlog: int = 128) -> None:
        self.stack = stack
        self.port = port
        self.backlog = backlog
        self.closed = False
        #: ServiceLib hook: called with each newly established stream.
        self.on_new_connection: Optional[Callable[[QuicStream], None]] = None
        self._cc_name: Optional[str] = None

    def close(self) -> None:
        self.closed = True
        self.stack._listeners.pop(self.port, None)


class _Core:  # typing protocol, duck-typed against repro.host.cpu.Core
    def execute_call(self, cost, func, *args): ...  # pragma: no cover


class QuicStack:
    """A complete QUIC endpoint bound to one NIC/IP."""

    #: ServiceLib passes ``tenant=`` to connect() for stacks that ask.
    wants_tenant = True

    def __init__(
        self,
        sim: Simulator,
        nic: NIC,
        cores: Optional[List[_Core]] = None,
        config: Optional[QuicConfig] = None,
        name: Optional[str] = None,
    ) -> None:
        self.sim = sim
        self.nic = nic
        self.cores = list(cores) if cores else []
        self.config = config or QuicConfig()
        self.name = name or f"quic:{nic.ip}"
        self.ip = nic.ip
        nic.rx_handler = self.on_packet

        #: scid -> connection (the routing table; never consults 4-tuples).
        self._by_cid: Dict[int, QuicConnection] = {}
        #: (tenant, remote ip, remote port) -> live client connection.
        self._conn_by_peer: Dict[Tuple, QuicConnection] = {}
        self._listeners: Dict[int, QuicListener] = {}
        #: Client ticket cache: (tenant, remote ip, remote port) -> ticket.
        self._tickets: Dict[Tuple, int] = {}
        #: Server-issued tickets: ticket -> tenant it was issued to.
        self._issued: Dict[int, Optional[int]] = {}
        self._next_ephemeral = EPHEMERAL_BASE
        self._next_core = 0
        #: Fastpass-style fabric arbiter (same contract as TcpStack).
        self.arbiter = None
        self.stats = QuicStackStats()

    # ----------------------------------------------------------- provisioning --
    def effective_mss(self) -> int:
        return self.nic.offload.effective_mss

    def allocate_port(self) -> int:
        port = self._next_ephemeral
        self._next_ephemeral += 1
        if self._next_ephemeral > 65535:
            self._next_ephemeral = EPHEMERAL_BASE
        return port

    def _assign_core(self, conn: QuicConnection) -> None:
        if self.cores:
            conn.core = self.cores[self._next_core % len(self.cores)]
            self._next_core += 1

    def _make_cc(self, name: Optional[str], mss: int) -> cc_base.CongestionControl:
        return cc_base.make(name or self.config.congestion_control, mss=mss)

    # ------------------------------------------------------------- active open --
    def connect(
        self,
        remote: Endpoint,
        congestion_control: Optional[str] = None,
        local_port: Optional[int] = None,
        tenant: Optional[int] = None,
        **_overrides,
    ) -> QuicStream:
        """Open a stream to ``remote``; wait on ``stream.established``.

        Reuses a live connection to the same (tenant, remote) when one
        exists — opening another stream costs zero round trips.  A new
        connection resumes via 0-RTT when a ticket is cached.
        """
        peer_key = (tenant, remote.ip, remote.port)
        conn = self._conn_by_peer.get(peer_key)
        if conn is not None and not conn.closed:
            return conn.open_stream()
        local = Endpoint(self.ip, local_port or self.allocate_port())
        cc = self._make_cc(congestion_control, self.effective_mss())
        scid, dcid = next(_cid_ids), next(_cid_ids)
        ticket = self._tickets.get(peer_key)
        conn = QuicConnection(
            self.sim,
            self,
            local,
            remote,
            cc,
            self.config,
            scid=scid,
            dcid=dcid,
            tenant=tenant,
            is_client=True,
            ticket=ticket,
        )
        self._by_cid[scid] = conn
        self._conn_by_peer[peer_key] = conn
        self.stats.connections_opened += 1
        self._assign_core(conn)
        stream = conn.open_stream()
        conn.start_handshake()
        return stream

    # ------------------------------------------------------------ passive open --
    def listen(
        self,
        port: int,
        backlog: int = 128,
        congestion_control: Optional[str] = None,
        **_overrides,
    ) -> QuicListener:
        if port in self._listeners and not self._listeners[port].closed:
            raise RuntimeError(f"port {port} already listening")
        listener = QuicListener(self, port, backlog)
        listener._cc_name = congestion_control
        self._listeners[port] = listener
        return listener

    def _accept_new(self, pkt: QuicPacket, src_ip: str) -> None:
        listener = self._listeners.get(pkt.dst_port)
        if listener is None or listener.closed:
            return
        if pkt.ptype is QuicPacketType.ZERO_RTT:
            if self._issued.get(pkt.ticket, _MISSING) == pkt.tenant:
                self.stats.resumptions_0rtt += 1
            else:
                # Unknown/foreign ticket: admit via a full handshake but
                # count the rejection — the data frames are idempotent
                # byte ranges, so processing them stays deterministic.
                self.stats.zero_rtt_rejected += 1
        remote = Endpoint(src_ip, pkt.src_port or 0)
        cc = self._make_cc(listener._cc_name, self.effective_mss())
        conn = QuicConnection(
            self.sim,
            self,
            Endpoint(self.ip, pkt.dst_port),
            remote,
            cc,
            self.config,
            scid=pkt.dcid,  # adopt the cid the client already routes with
            dcid=pkt.scid,
            tenant=pkt.tenant,
            is_client=False,
        )
        self._by_cid[conn.scid] = conn
        self.stats.connections_accepted += 1
        self.stats.handshakes += 1
        self._assign_core(conn)

        def deliver(stream: QuicStream, lst=listener) -> None:
            if lst.on_new_connection is not None:
                lst.on_new_connection(stream)

        conn.on_new_stream = deliver
        conn.server_accept(pkt)

    # --------------------------------------------------------------- data path --
    def send_packet(self, conn: QuicConnection, qpkt: QuicPacket) -> None:
        """Charge transmit CPU, then hand the packet to the NIC."""
        self.stats.packets_out += 1
        self.stats.bytes_out += qpkt.payload_bytes
        packet = Packet(
            src=self.ip,
            dst=conn.remote.ip,
            payload_bytes=qpkt.payload_bytes,
            payload=qpkt,
            protocol="quic",
        )
        cost = (
            self.config.per_packet_ns + self.config.per_byte_ns * qpkt.payload_bytes
        ) * NANOS
        core = conn.core
        if core is None:
            self._to_wire(packet, qpkt)
            return
        core.execute_call(cost, self._to_wire, packet, qpkt)

    def _to_wire(self, packet: Packet, qpkt: QuicPacket) -> None:
        if self.arbiter is not None and qpkt.payload_bytes > 0:
            self.arbiter.request(packet.wire_bytes()).add_callback(
                lambda _ev: self.nic.transmit(packet)
            )
        else:
            self.nic.transmit(packet)

    def on_packet(self, packet: Packet) -> None:
        """NIC receive entry point: charge CPU, then route by dcid."""
        qpkt = packet.payload
        if not isinstance(qpkt, QuicPacket):
            return
        self.stats.bytes_in += qpkt.payload_bytes
        conn = self._by_cid.get(qpkt.dcid)
        core = conn.core if conn is not None else (
            self.cores[0] if self.cores else None
        )
        cost = (
            self.config.per_packet_ns + self.config.per_byte_ns * qpkt.payload_bytes
        ) * NANOS
        if core is None:
            self._route(packet, qpkt)
            return
        core.execute_call(cost, self._route, packet, qpkt)

    def _route(self, packet: Packet, qpkt: QuicPacket) -> None:
        # Looked up again after the CPU charge drains — the connection
        # may have closed in between (same discipline as TcpStack).
        conn = self._by_cid.get(qpkt.dcid)
        if conn is not None:
            conn.on_packet(qpkt, packet.src)
            return
        if qpkt.ptype in (QuicPacketType.INITIAL, QuicPacketType.ZERO_RTT):
            self._accept_new(qpkt, packet.src)
            return
        # Packet for a connection we no longer know: drop silently (the
        # peer's PTO or CONNECTION_CLOSE handling cleans up).

    # --------------------------------------------------------------- tickets --
    def issue_ticket(self, tenant: Optional[int]) -> int:
        ticket = next(_ticket_ids)
        self._issued[ticket] = tenant
        return ticket

    def store_ticket(
        self, tenant: Optional[int], remote: Endpoint, ticket: int
    ) -> None:
        self._tickets[(tenant, remote.ip, remote.port)] = ticket

    # --------------------------------------------------------------- migration --
    def release_connection(self, conn: QuicConnection) -> Optional[int]:
        """Detach a live connection for migration (no CONNECTION_CLOSE).

        The connection keeps its streams, sequence state and CC intact;
        only the cid route, peer-reuse entry and core assignment leave
        this stack.  Returns the scid, or None if not ours any more.
        """
        if self._by_cid.get(conn.scid) is not conn:
            return None
        del self._by_cid[conn.scid]
        peer_key = (conn.tenant, conn.remote.ip, conn.remote.port)
        if self._conn_by_peer.get(peer_key) is conn:
            del self._conn_by_peer[peer_key]
        conn.core = None
        return conn.scid

    def adopt_connection(self, conn: QuicConnection) -> None:
        """Re-home a migrated live connection onto this stack.

        QUIC routes by connection id, so the adopting stack may answer
        from a *different* IP: the peer sees the new source address and
        rebinds its path (counted in ``stats.migrations``) — this is
        what makes per-tenant QUIC migration work without IP takeover.
        """
        if conn.scid in self._by_cid:
            raise RuntimeError(f"cid collision on {conn.scid}")
        self._by_cid[conn.scid] = conn
        if conn.is_client and not conn.closed:
            peer_key = (conn.tenant, conn.remote.ip, conn.remote.port)
            self._conn_by_peer.setdefault(peer_key, conn)
        conn.stack = self
        conn.local = Endpoint(self.ip, conn.local.port)
        self._assign_core(conn)

    def release_listener(self, listener: QuicListener) -> None:
        if self._listeners.get(listener.port) is listener:
            del self._listeners[listener.port]

    def adopt_listener(self, listener: QuicListener) -> None:
        if (
            listener.port in self._listeners
            and not self._listeners[listener.port].closed
        ):
            raise RuntimeError(f"port {listener.port} already listening")
        listener.stack = self
        self._listeners[listener.port] = listener

    def move_tickets(self, dst: "QuicStack", tenant: Optional[int] = None) -> int:
        """Hand 0-RTT resumption state to ``dst`` (all tenants, or one).

        Client-side cached tickets and server-side issued tickets both
        move, so resumption keeps working across the migration.  Returns
        how many ticket entries moved.
        """
        moved = 0
        for key in list(self._tickets):
            if tenant is None or key[0] == tenant:
                dst._tickets[key] = self._tickets.pop(key)
                moved += 1
        for ticket in list(self._issued):
            if tenant is None or self._issued[ticket] == tenant:
                dst._issued[ticket] = self._issued.pop(ticket)
                moved += 1
        return moved

    # ------------------------------------------------------------- bookkeeping --
    def forget(self, conn: QuicConnection) -> None:
        """Remove a closed connection from the routing tables."""
        if self._by_cid.get(conn.scid) is conn:
            del self._by_cid[conn.scid]
        peer_key = (conn.tenant, conn.remote.ip, conn.remote.port)
        if self._conn_by_peer.get(peer_key) is conn:
            del self._conn_by_peer[peer_key]
        conn.core = None

    def close_idle_connections(self) -> int:
        """Tear down connections whose streams are all sent and acked.

        Tickets survive, so the next ``connect()`` to the same peer
        resumes with 0-RTT — this is the "short-lived connection" shape
        the stackswap experiment measures.  Returns how many closed.
        """
        closed = 0
        for conn in list(self._by_cid.values()):
            if conn.is_client and conn.is_idle:
                conn.close_connection()
                closed += 1
        return closed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<QuicStack {self.name} conns={len(self._by_cid)}>"
