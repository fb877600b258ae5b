"""TCP segment representation.

Segments are carried as the payload of :class:`repro.net.packet.Packet`.
Data is virtual — a segment carries ``payload_len`` bytes of abstract
stream, identified purely by sequence range, which is all the protocol
machinery needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = ["TcpSegment"]


@dataclass(slots=True)
class TcpSegment:
    """One TCP segment (possibly a TSO super-segment).

    ``seq`` numbers the first payload byte; SYN and FIN each consume one
    sequence number, as in the real protocol.  Slotted — segments are the
    most-allocated object in a bulk-transfer run.
    """

    src_port: int
    dst_port: int
    seq: int
    ack_no: int = 0
    payload_len: int = 0
    syn: bool = False
    ack: bool = False
    fin: bool = False
    rst: bool = False
    wnd: int = 65535
    # RFC 7323 timestamps (seconds; virtual clock).
    ts_val: Optional[float] = None
    ts_ecr: Optional[float] = None
    # ECN bits echoed at the TCP layer.
    ece: bool = False
    cwr: bool = False
    # SACK blocks (RFC 2018): out-of-order ranges the receiver holds.
    sack: Tuple[Tuple[int, int], ...] = ()

    @property
    def seq_space(self) -> int:
        """Sequence numbers consumed: payload plus SYN/FIN flags."""
        return self.payload_len + (1 if self.syn else 0) + (1 if self.fin else 0)

    @property
    def end_seq(self) -> int:
        """First sequence number after this segment."""
        return self.seq + self.seq_space

    def describe(self) -> str:
        """Compact human-readable form for traces and assertion messages."""
        flags = "".join(
            flag
            for flag, on in (
                ("S", self.syn),
                ("A", self.ack),
                ("F", self.fin),
                ("R", self.rst),
                ("E", self.ece),
                ("C", self.cwr),
            )
            if on
        )
        return (
            f"[{self.src_port}->{self.dst_port} {flags or '.'} "
            f"seq={self.seq} ack={self.ack_no} len={self.payload_len} wnd={self.wnd}]"
        )
