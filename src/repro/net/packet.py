"""Packet model and wire-level framing accounting.

Payload data is *virtual*: packets carry byte counts, not buffers.  What
matters for the experiments is timing, and timing is governed by wire size.

Wire accounting follows standard Ethernet/IP/TCP framing so that the
achievable goodput of a 40 GbE link lands at the paper's ~37 Gbps:

* per frame: preamble (8) + Ethernet header (14) + FCS (4) + interpacket
  gap (12) = 38 bytes of channel overhead;
* per frame: IPv4 header (20) + TCP header (20) + timestamp option (12).

A TSO super-segment occupies the wire as the several MTU-sized frames the
real NIC would emit, so oversize segments do not cheat the link.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import Any

__all__ = [
    "Packet",
    "ETHERNET_FRAME_OVERHEAD",
    "IPV4_HEADER",
    "TCP_HEADER",
    "TCP_TIMESTAMP_OPTION",
    "DEFAULT_MTU",
    "mss_for_mtu",
    "wire_bytes",
]

#: Preamble + Ethernet header + FCS + inter-packet gap, per frame on the wire.
ETHERNET_FRAME_OVERHEAD = 38
#: IPv4 header without options.
IPV4_HEADER = 20
#: TCP header without options.
TCP_HEADER = 20
#: The timestamp option (RFC 7323) padded to 12 bytes, present on segments.
TCP_TIMESTAMP_OPTION = 12
#: Default Ethernet MTU.
DEFAULT_MTU = 1500

_packet_ids = count(1)


def mss_for_mtu(mtu: int = DEFAULT_MTU) -> int:
    """Maximum TCP payload per frame for a given MTU (timestamps on)."""
    return mtu - IPV4_HEADER - TCP_HEADER - TCP_TIMESTAMP_OPTION


#: Every link runs at :data:`DEFAULT_MTU`: its TCP payload per frame, and
#: the channel bytes each frame adds.
_MSS = mss_for_mtu()
_PER_FRAME = ETHERNET_FRAME_OVERHEAD + IPV4_HEADER + TCP_HEADER + TCP_TIMESTAMP_OPTION


@dataclass(slots=True)
class Packet:
    """A network packet carrying an opaque payload object.

    ``payload_bytes`` is the size of the transported application/transport
    payload; ``payload`` usually holds a :class:`repro.tcp.segment.TcpSegment`.
    """

    src: str
    dst: str
    payload_bytes: int
    payload: Any = None
    protocol: str = "tcp"
    ecn_capable: bool = False
    ecn_ce: bool = False
    #: Stamped at construction, never passed in.
    packet_id: int = field(default_factory=lambda: next(_packet_ids), init=False)

    def __post_init__(self) -> None:
        if self.payload_bytes < 0:
            raise ValueError("payload_bytes must be >= 0")

    def frames(self) -> int:
        """Number of MTU-sized frames this packet occupies on the wire."""
        if self.payload_bytes <= 0:
            return 1
        return -(-self.payload_bytes // _MSS)  # ceil division

    def wire_bytes(self) -> int:
        """Total channel bytes consumed, including all per-frame overhead."""
        return self.payload_bytes + self.frames() * _PER_FRAME


def wire_bytes(payload_bytes: int) -> int:
    """Wire bytes for a payload of ``payload_bytes`` (packet-less helper)."""
    frames = 1 if payload_bytes <= 0 else -(-payload_bytes // _MSS)
    return payload_bytes + frames * _PER_FRAME
