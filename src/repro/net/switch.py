"""Host-internal switches: software overlay vSwitch vs embedded SR-IOV switch.

Both route packets between the NICs of one physical host and its pNIC
uplink.  The difference the paper cares about (§3.1) is *who pays CPU*:

* :class:`VirtualSwitch` (OVS / Hyper-V-switch-like) spends hypervisor CPU
  on every packet it forwards.
* :class:`EmbeddedSwitch` (SR-IOV) forwards in NIC hardware — zero host
  CPU, lower latency — the configuration the NetKernel prototype uses.
"""

from __future__ import annotations

from typing import Dict, Optional, Protocol

from ..sim import NANOS, Simulator
from .nic import NIC, PhysicalNIC
from .packet import Packet

__all__ = ["HostSwitch", "VirtualSwitch", "EmbeddedSwitch"]


class _Core(Protocol):  # pragma: no cover - typing only
    def execute(self, cost_seconds: float): ...


class HostSwitch:
    """Forwards packets between local NICs and the pNIC uplink.

    Local destinations are looked up by IP; anything unknown goes out the
    uplink.  ``per_packet_cpu_ns`` is charged to ``core`` (when given) for
    every forwarded packet, and delivery waits for the core — so a saturated
    hypervisor core becomes a throughput bottleneck, as with real software
    switches.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str = "switch",
        forward_latency: float = 0.0,
        per_packet_cpu_ns: float = 0.0,
        core: Optional[_Core] = None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.forward_latency = forward_latency
        self.per_packet_cpu_ns = per_packet_cpu_ns
        self.core = core
        self.table: Dict[str, NIC] = {}
        self.uplink: Optional[PhysicalNIC] = None
        self.forwarded = 0
        self.uplinked = 0

    def attach(self, nic: NIC) -> None:
        """Plug a local NIC (vNIC or VF) into the switch."""
        if nic.ip in self.table:
            raise ValueError(f"duplicate IP on switch {self.name!r}: {nic.ip}")
        self.table[nic.ip] = nic
        nic.downstream = self.forward

    def detach(self, nic: NIC) -> None:
        self.table.pop(nic.ip, None)
        nic.downstream = None

    def set_uplink(self, pnic: PhysicalNIC) -> None:
        """Designate the physical NIC that bridges to the external wire."""
        self.uplink = pnic
        pnic.downstream = self.forward
        pnic.from_wire = lambda packet: self.forward(packet, pnic)

    def forward(self, packet: Packet, ingress: NIC) -> None:
        if self.core is not None and self.per_packet_cpu_ns > 0:
            self.core.execute_call(
                self.per_packet_cpu_ns * NANOS, self._route, packet, ingress
            )
        elif self.forward_latency > 0:
            self.sim.schedule_call(self.forward_latency, self._route, packet, ingress)
        else:
            self._route(packet, ingress)

    def _route(self, packet: Packet, ingress: NIC) -> None:
        target = self.table.get(packet.dst)
        if target is not None and target is not ingress:
            self.forwarded += 1
            if self.core is not None and self.forward_latency > 0:
                self.sim.schedule_call(self.forward_latency, target.receive, packet)
            else:
                target.receive(packet)
            return
        if self.uplink is not None and ingress is not self.uplink:
            self.uplinked += 1
            self.uplink.to_wire(packet)
            return
        # No local target and either no uplink or the packet came from the
        # wire for an unknown IP: drop silently (real switches do too).


class VirtualSwitch(HostSwitch):
    """Software overlay switch: per-packet hypervisor CPU cost.

    Defaults are in line with measured OVS datapath costs (~1 µs/packet on
    a 2.3 GHz core) plus a 2 µs forwarding latency.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str = "vswitch",
        per_packet_cpu_ns: float = 1000.0,
        core: Optional[_Core] = None,
    ) -> None:
        super().__init__(sim, name, 2e-6, per_packet_cpu_ns, core)


class EmbeddedSwitch(HostSwitch):
    """SR-IOV embedded hardware switch: no host CPU, 300 ns latency."""

    def __init__(self, sim: Simulator, name: str = "sriov-switch") -> None:
        super().__init__(sim, name, 3e-7)
