"""TCP segment representation.

Segments are carried as the payload of :class:`repro.net.packet.Packet`.
Data is virtual — a segment carries ``payload_len`` bytes of abstract
stream, identified purely by sequence range, which is all the protocol
machinery needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

__all__ = ["TcpSegment", "alloc_segment", "free_segment"]


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


# -- free-list reuse -----------------------------------------------------------
#
# Segments are the most-allocated object in any run (one per transmit, one
# per pure ACK).  Their lifecycle is strictly linear: built by a sender,
# carried inside exactly one Packet, consumed by exactly one receiving
# stack's demux, never retained (connections copy the sequence numbers
# into IntervalSet/ReassemblyQueue; the packet tap snapshots a string).
# So the receiving ``TcpStack._demux`` returns each segment here and
# senders reuse it.
# Segments that never reach a demux (lost, queue-dropped, blackholed)
# simply fall to the garbage collector — a pool miss, not a leak.

_FREE: List["TcpSegment"] = []
_POOL_MAX = 8192

_new = TcpSegment.__new__


def alloc_segment(
    src_port: int,
    dst_port: int,
    seq: int,
    ack_no: int = 0,
    payload_len: int = 0,
    syn: bool = False,
    ack: bool = False,
    fin: bool = False,
    rst: bool = False,
    wnd: int = 65535,
    ts_val: Optional[float] = None,
    ts_ecr: Optional[float] = None,
    ece: bool = False,
    cwr: bool = False,
    sack: Tuple[Tuple[int, int], ...] = (),
) -> "TcpSegment":
    """A :class:`TcpSegment`, reused from the free list when possible."""
    if _FREE:
        seg = _FREE.pop()
    else:
        seg = _new(TcpSegment)
    seg.src_port = src_port
    seg.dst_port = dst_port
    seg.seq = seq
    seg.ack_no = ack_no
    seg.payload_len = payload_len
    seg.syn = syn
    seg.ack = ack
    seg.fin = fin
    seg.rst = rst
    seg.wnd = wnd
    seg.ts_val = ts_val
    seg.ts_ecr = ts_ecr
    seg.ece = ece
    seg.cwr = cwr
    seg.sack = sack
    return seg


def free_segment(seg: "TcpSegment") -> None:
    """Return a fully-consumed segment to the free list."""
    if len(_FREE) < _POOL_MAX:
        _FREE.append(seg)
