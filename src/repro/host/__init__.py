"""Host substrate: CPU cores, memory model, physical hosts, VMs."""

from .cpu import Core, CpuSet
from .machine import PhysicalHost
from .memory import PAPER_TABLE1_POINTS, MemcpyModel
from .vm import VM, GuestOS, NetworkMode

__all__ = [
    "Core",
    "CpuSet",
    "PhysicalHost",
    "MemcpyModel",
    "PAPER_TABLE1_POINTS",
    "VM",
    "GuestOS",
    "NetworkMode",
]
