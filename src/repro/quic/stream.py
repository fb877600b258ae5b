"""QUIC streams: the application-visible byte pipes.

A :class:`QuicStream` is what the ServiceLib sees when it asks the QUIC
family for "a connection" — it duck-types the surface
:class:`repro.tcp.connection.TcpConnection` exposes there
(``established``, ``send()``, ``recv_buffer``, ``watch_readable()``,
``start_close()``), while the :class:`repro.quic.connection.QuicConnection`
underneath multiplexes many streams over one handshake, one congestion
controller and one loss-recovery state machine.

Buffering reuses the TCP building blocks (:class:`SendBuffer`,
:class:`ReceiveBuffer`, :class:`OutOfOrder`) — they model a virtual
byte stream and know nothing about TCP sequence numbers, so stream
offsets slot straight in.

Simplification recorded: there is no per-stream receiver flow control
(no MAX_STREAM_DATA); sender-side backpressure comes from the 4 MB
``SendBuffer`` capacity, and every consumer in this repo (ServiceLib's
rx chain) drains continuously.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..sim import Event, Simulator
from ..tcp.buffers import NOTHING_HELD, OutOfOrder, ReceiveBuffer, SendBuffer
from ..tcp.intervals import IntervalSet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .connection import QuicConnection

__all__ = ["QuicStream"]


class QuicStream:
    """One bidirectional stream inside a QUIC connection."""

    __slots__ = (
        "sim",
        "conn",
        "stream_id",
        "established",
        "send_buffer",
        "snd_nxt",
        "_acked",
        "cum_acked",
        "fin_offset",
        "fin_sent",
        "fin_acked",
        "recv_buffer",
        "rcv_nxt",
        "ooo",
        "remote_fin_offset",
        "_eof_delivered",
        "reset",
    )

    def __init__(
        self, sim: Simulator, conn: "QuicConnection", stream_id: int
    ) -> None:
        self.sim = sim
        self.conn = conn
        self.stream_id = stream_id
        #: Fires when the underlying connection is usable; for streams
        #: opened on an already-established (or 0-RTT) connection this
        #: has already succeeded by the time the caller sees the stream.
        self.established = Event(sim)
        # -- send side -------------------------------------------------
        self.send_buffer = SendBuffer(sim, capacity=conn.config.sndbuf)
        #: Next fresh (never-sent) offset.
        self.snd_nxt = 0
        self._acked = IntervalSet()
        #: Contiguous acknowledged prefix (drives SendBuffer release).
        self.cum_acked = 0
        self.fin_offset: Optional[int] = None
        self.fin_sent = False
        self.fin_acked = False
        # -- receive side ----------------------------------------------
        self.recv_buffer = ReceiveBuffer(sim, capacity=conn.config.rcvbuf)
        #: Next in-order offset expected, and what is held above it (the
        #: shared empty queue until the first out-of-order frame).
        self.rcv_nxt = 0
        self.ooo: OutOfOrder = NOTHING_HELD
        self.remote_fin_offset: Optional[int] = None
        self._eof_delivered = False
        self.reset = False

    # ------------------------------------------------------------ app API --
    def send(self, nbytes: int) -> Event:
        """Accept ``nbytes`` from the app; event fires once buffered."""
        event = Event(self.sim)
        self._write(nbytes, event)
        return event

    def send_call(self, nbytes: int, func, *args) -> None:
        """:meth:`send`, then ``func(*args)`` as its own queue entry."""
        self._write(nbytes, (func, args))

    def _write(self, nbytes: int, waiter) -> None:
        self.send_buffer.admit(nbytes, waiter)
        self.conn.stream_wants_send()

    def watch_readable(self, waiter) -> None:
        """Wake ``waiter`` once data or EOF is readable, as
        ``TcpConnection.watch_readable`` does."""
        self.recv_buffer.watch(waiter)

    def start_close(self) -> None:
        """Half-close: FIN at the current write watermark."""
        if self.fin_offset is not None:
            return
        self.send_buffer.close()
        self.fin_offset = self.send_buffer.written
        self.conn.stream_wants_send()

    def abort(self) -> None:
        """Connection-level teardown reached this stream."""
        if self.reset:
            return
        self.reset = True
        if not self._eof_delivered:
            self._eof_delivered = True
            self.recv_buffer.deliver_eof()

    # ------------------------------------------------------- sender state --
    @property
    def pending_bytes(self) -> int:
        """Fresh bytes accepted from the app but never packetized."""
        return self.send_buffer.written - self.snd_nxt

    @property
    def fin_pending(self) -> bool:
        """A FIN still needs to ride a frame (after all fresh bytes)."""
        return (
            self.fin_offset is not None
            and not self.fin_sent
            and self.pending_bytes == 0
        )

    @property
    def send_done(self) -> bool:
        """Everything written (and the FIN) has been acknowledged."""
        return self.fin_offset is not None and self.fin_acked

    def on_frame_acked(self, offset: int, length: int, fin: bool) -> None:
        """The peer acknowledged a packet carrying this stream range."""
        if length > 0:
            self._acked.add(offset, offset + length)
            advanced = 0
            for start, end in self._acked:
                if start > self.cum_acked:
                    break
                if end > self.cum_acked:
                    advanced += end - self.cum_acked
                    self.cum_acked = end
            if advanced:
                self._acked.trim_below(self.cum_acked)
                self.send_buffer.on_ack(advanced)
        if fin:
            self.fin_acked = True

    # ----------------------------------------------------- receiver state --
    def on_frame(self, offset: int, length: int, fin: bool) -> None:
        """A stream frame arrived (possibly out of order or duplicate)."""
        if fin:
            self.remote_fin_offset = offset + length
        rcv_nxt = self.rcv_nxt
        if length:
            ooo = self.ooo
            if offset > rcv_nxt and ooo.read_only:
                ooo = self.ooo = OutOfOrder()
            self.rcv_nxt = ooo.receive(rcv_nxt, offset, offset + length)
            if self.rcv_nxt > rcv_nxt:
                self.recv_buffer.deliver(self.rcv_nxt - rcv_nxt)
        if (
            self.remote_fin_offset is not None
            and self.rcv_nxt >= self.remote_fin_offset
            and not self._eof_delivered
        ):
            self._eof_delivered = True
            self.recv_buffer.deliver_eof()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<QuicStream {self.stream_id} on cid {self.conn.scid} "
            f"nxt={self.snd_nxt} acked={self.cum_acked}>"
        )
