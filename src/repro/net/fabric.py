"""Multi-host fabric: a core switch interconnecting host uplinks.

The two-host testbeds wire pNICs back to back; anything larger needs a
fabric hop.  :class:`CoreSwitch` is a store-and-forward switch whose ports
are full links (40 Gbit/s, 5 us propagation, a 2 MB queue), routing
between hosts by their address prefix (each host's NICs live in a /16 of
its :class:`~repro.net.addressing.AddressAllocator`).
"""

from __future__ import annotations

from typing import Dict, TYPE_CHECKING

from ..sim import Simulator
from .link import DuplexLink
from .packet import Packet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..host.machine import PhysicalHost

__all__ = ["CoreSwitch"]

#: Store-and-forward latency of one switch hop.
FORWARD_LATENCY = 5e-7


class CoreSwitch:
    """A datacenter core/ToR switch joining many hosts."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.name = "core"
        self._routes: Dict[str, DuplexLink] = {}  # "10.3" -> that host's link
        self.forwarded = 0
        self.dropped_unroutable = 0

    @staticmethod
    def _prefix(ip: str) -> str:
        parts = ip.split(".")
        return ".".join(parts[:2])

    def attach_host(self, host: "PhysicalHost") -> DuplexLink:
        """Cable a host's pNIC to this switch; returns the uplink."""
        prefix = self._prefix(host.addresses.prefix + ".0.0")
        if prefix in self._routes:
            raise ValueError(f"prefix {prefix} already attached to {self.name}")
        link = DuplexLink(
            self.sim,
            rate_bps=40e9,
            propagation_delay=5e-6,
            queue_bytes=2 * 1024 * 1024,
            name=f"{self.name}<->{host.name}",
        )
        # Host side: pNIC transmits into the host->switch half.
        host.pnic.wire = link.a_to_b.send
        # Switch side: we hear the host on a_to_b, the host hears b_to_a.
        link.a_to_b.deliver = self._ingress
        link.b_to_a.deliver = host.pnic.wire_receive
        self._routes[prefix] = link
        return link

    def _ingress(self, packet: Packet) -> None:
        route = self._routes.get(self._prefix(packet.dst))
        if route is None:
            self.dropped_unroutable += 1
            return
        self.forwarded += 1
        self.sim.schedule_call(FORWARD_LATENCY, route.b_to_a.send, packet)
