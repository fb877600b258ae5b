"""NIC offload capabilities (TSO/GSO/GRO).

Real virtualized datapaths hand the NIC super-segments of up to 64 KB and
let hardware segment them (TSO); receive-side coalescing (GRO) mirrors it.
We model the offload by letting TCP emit super-segments whose *wire* cost is
still per-MTU-frame (see :mod:`repro.net.packet`), which both matches real
goodput and keeps packet-level simulation of a 40 GbE link tractable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .packet import mss_for_mtu

__all__ = ["OffloadConfig", "TSO_MAX_BYTES"]

#: Linux's default GSO/TSO ceiling.
TSO_MAX_BYTES = 65536


@dataclass(frozen=True)
class OffloadConfig:
    """Per-NIC offload switches.

    ``effective_mss`` is what the TCP sender should use as its segmentation
    unit: the TSO ceiling when offload is on, else the path MSS.
    """

    tso: bool = True
    gro: bool = True

    @property
    def effective_mss(self) -> int:
        if self.tso:
            return TSO_MAX_BYTES
        return mss_for_mtu()
