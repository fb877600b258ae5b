"""QUIC-like packet model.

As everywhere in this repo, payload data is virtual: frames carry byte
counts and offsets, not buffers.  A :class:`QuicPacket` rides as the
``payload`` of a :class:`repro.net.Packet` with ``protocol="quic"`` —
TCP stacks ignore it (their ``on_packet`` guards on ``TcpSegment``) and
vice versa, so both families can share a NIC demux path.

The model keeps QUIC's load-bearing ideas and drops the rest:

* **Connection IDs** — every packet names its destination connection by
  ``dcid``; routing never consults the 4-tuple, so a connection survives
  address changes (path migration).
* **Long vs short headers** — ``INITIAL``/``ZERO_RTT``/``HANDSHAKE``
  packets carry the extra routing context a server needs before a
  connection exists (``dst_port`` for listener lookup, ``tenant`` and
  ``ticket`` for 0-RTT admission); ``ONE_RTT`` packets carry only the
  dcid.
* **Stream frames** — ``(stream_id, offset, length, fin)``; several fit
  in one packet, which is what makes stream multiplexing real.
* **ACK ranges** — every ack-eliciting packet is acknowledged with the
  receiver's packet-number ranges, the basis of loss detection.

No varint encoding, no crypto: the handshake's cost is modelled as RTTs,
not cycles.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Tuple

__all__ = [
    "QuicPacketType",
    "StreamFrame",
    "QuicPacket",
]


class QuicPacketType(enum.Enum):
    INITIAL = "initial"  # client hello: starts the 1-RTT handshake
    HANDSHAKE = "handshake"  # server reply: completes it, carries a ticket
    ZERO_RTT = "0rtt"  # resumption: data before handshake confirmation
    ONE_RTT = "1rtt"  # established: short header, dcid-only routing


@dataclass(frozen=True)
class StreamFrame:
    """``length`` bytes of stream ``stream_id`` starting at ``offset``."""

    stream_id: int
    offset: int
    length: int
    fin: bool = False

    def __post_init__(self) -> None:
        if self.length < 0 or self.offset < 0:
            raise ValueError("stream frame offset/length must be >= 0")


@dataclass
class QuicPacket:
    """One QUIC packet (a UDP datagram's worth of frames)."""

    dcid: int
    scid: int
    ptype: QuicPacketType
    pkt_num: int
    frames: Tuple[StreamFrame, ...] = ()
    #: Receiver's packet-number ranges, newest first: ((lo, hi), ...).
    ack_ranges: Tuple[Tuple[int, int], ...] = ()
    #: Long-header context (INITIAL / ZERO_RTT / HANDSHAKE only).
    dst_port: Optional[int] = None
    src_port: Optional[int] = None
    tenant: Optional[int] = None
    ticket: Optional[int] = None
    #: CONNECTION_CLOSE: tear down the connection at the receiver.
    close: bool = False
    payload_bytes: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        self.payload_bytes = sum(f.length for f in self.frames)

    @property
    def ack_eliciting(self) -> bool:
        """Packets the peer must acknowledge (everything but pure ACKs)."""
        return bool(self.frames) or self.ptype in (
            QuicPacketType.INITIAL,
            QuicPacketType.HANDSHAKE,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<QuicPacket {self.ptype.value} #{self.pkt_num} "
            f"dcid={self.dcid} frames={len(self.frames)} "
            f"bytes={self.payload_bytes}>"
        )
