"""NIC models: physical NICs, paravirtual vNICs and SR-IOV virtual functions.

A NIC sits between an upper layer (a TCP stack, via ``rx_handler``) and a
lower layer (a switch port or a link, via ``downstream``).  The distinction
between the three kinds is *where forwarding work happens*:

* :class:`PhysicalNIC` — bridges the host's switch to the external wire.
* :class:`VirtualNIC` — paravirtual device; traffic traverses the host's
  *software* switch, costing hypervisor CPU per packet.
* :class:`VirtualFunction` — SR-IOV VF; traffic goes through the NIC's
  embedded hardware switch, bypassing host CPU (the paper's prototype gives
  each NSM one X710 VF).
"""

from __future__ import annotations

from typing import Callable, Optional

from ..sim import Simulator
from .offload import OffloadConfig
from .packet import Packet

__all__ = ["NIC", "PhysicalNIC", "VirtualNIC", "VirtualFunction"]

RxHandler = Callable[[Packet], None]


class NIC:
    """Base NIC: owns an IP, an offload config, and tx/rx plumbing."""

    kind = "nic"

    def __init__(
        self,
        sim: Simulator,
        ip: str,
        offload: Optional[OffloadConfig] = None,
        name: Optional[str] = None,
    ) -> None:
        self.sim = sim
        self.ip = ip
        self.offload = offload or OffloadConfig()
        self.name = name or f"{self.kind}:{ip}"
        self.rx_handler: Optional[RxHandler] = None
        self.downstream: Optional[Callable[[Packet, "NIC"], None]] = None
        #: Failure injection: a failed NIC silently blackholes both
        #: directions (the behaviour of dead hardware), unlike a
        #: *detached* NIC, which is a configuration error and raises.
        self.failed = False
        #: Migration: once an NSM's address moves to its successor, the
        #: retired VF is unprogrammed from the embedded switch.  Late TX
        #: from residual per-core work is dropped in hardware, not an
        #: error (the peer retransmits to the new owner of the address).
        self.draining = False
        self.tx_packets = 0
        self.rx_packets = 0
        self.tx_bytes = 0
        self.rx_bytes = 0
        self.dropped_failed = 0
        self.dropped_draining = 0

    def fail(self) -> None:
        """Inject a NIC failure (used by failure-detection experiments)."""
        self.failed = True
        if self.sim.fidelity is not None:
            self.sim.fidelity.on_nic_failed(self)

    def repair(self) -> None:
        self.failed = False

    def transmit(self, packet: Packet) -> None:
        """Send a packet toward the network."""
        if self.failed:
            self.dropped_failed += 1
            return
        if self.draining:
            self.dropped_draining += 1
            return
        if self.downstream is None:
            raise RuntimeError(f"NIC {self.name!r} is not attached to anything")
        self.tx_packets += 1
        self.tx_bytes += packet.payload_bytes
        self.downstream(packet, self)

    def receive(self, packet: Packet) -> None:
        """Called by the lower layer when a packet arrives for this NIC."""
        if self.failed:
            self.dropped_failed += 1
            return
        self.rx_packets += 1
        self.rx_bytes += packet.payload_bytes
        if self.rx_handler is not None:
            self.rx_handler(packet)


class PhysicalNIC(NIC):
    """The host's uplink port; bridges the internal switch and the wire."""

    kind = "pnic"

    def __init__(
        self,
        sim: Simulator,
        ip: str,
        offload: Optional[OffloadConfig] = None,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(sim, ip, offload, name)
        self.wire: Optional[Callable[[Packet], None]] = None
        self.from_wire: Optional[Callable[[Packet], None]] = None

    def to_wire(self, packet: Packet) -> None:
        if self.wire is None:
            raise RuntimeError(f"pNIC {self.name!r} has no wire attached")
        self.wire(packet)

    def wire_receive(self, packet: Packet) -> None:
        """Entry point for the external link's deliver callback."""
        if self.from_wire is None:
            raise RuntimeError(f"pNIC {self.name!r} not attached to a switch")
        self.from_wire(packet)


class VirtualNIC(NIC):
    """Paravirtual NIC attached to the host's software switch."""

    kind = "vnic"


class VirtualFunction(NIC):
    """SR-IOV virtual function attached to the embedded hardware switch."""

    kind = "vf"
