"""Network substrate: packets, links, loss, NICs, switches and offloads.

The multi-host core switch (:mod:`.fabric`) is imported from its module.
"""

from .addressing import AddressAllocator, Endpoint
from .link import DropTailQueue, DuplexLink, Link, LinkStats
from .loss import EpisodicLoss, IIDLoss, LossModel, NoLoss
from .nic import NIC, PhysicalNIC, VirtualFunction, VirtualNIC
from .offload import TSO_MAX_BYTES, OffloadConfig
from .packet import (
    DEFAULT_MTU,
    ETHERNET_FRAME_OVERHEAD,
    IPV4_HEADER,
    TCP_HEADER,
    TCP_TIMESTAMP_OPTION,
    Packet,
    mss_for_mtu,
    wire_bytes,
)
from .switch import EmbeddedSwitch, HostSwitch, VirtualSwitch

__all__ = [
    "AddressAllocator",
    "Endpoint",
    "DropTailQueue",
    "DuplexLink",
    "Link",
    "LinkStats",
    "LossModel",
    "NoLoss",
    "IIDLoss",
    "EpisodicLoss",
    "NIC",
    "PhysicalNIC",
    "VirtualNIC",
    "VirtualFunction",
    "OffloadConfig",
    "TSO_MAX_BYTES",
    "Packet",
    "DEFAULT_MTU",
    "ETHERNET_FRAME_OVERHEAD",
    "IPV4_HEADER",
    "TCP_HEADER",
    "TCP_TIMESTAMP_OPTION",
    "mss_for_mtu",
    "wire_bytes",
    "HostSwitch",
    "VirtualSwitch",
    "EmbeddedSwitch",
]
