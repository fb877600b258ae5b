"""Physical host model: cores, memory, NICs, internal switch.

Mirrors the paper's testbed servers: Xeon E5-2618LV3 8-core @ 2.3 GHz,
192 GB RAM, Intel X710 40 GbE with SR-IOV.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..net import (
    AddressAllocator,
    EmbeddedSwitch,
    HostSwitch,
    OffloadConfig,
    PhysicalNIC,
    VirtualFunction,
    VirtualNIC,
    VirtualSwitch,
)
from ..sim import Simulator
from .cpu import Core, CpuSet
from .memory import MemcpyModel

__all__ = ["PhysicalHost"]


class PhysicalHost:
    """One physical server with an internal switch and a pNIC uplink."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        ip: str,
        cores: int = 8,
        memory_gb: int = 192,
        sriov: bool = True,
        addresses: Optional[AddressAllocator] = None,
        offload: Optional[OffloadConfig] = None,
    ) -> None:
        if cores < 2:
            raise ValueError("a host needs at least 2 cores")
        self.sim = sim
        self.name = name
        self.cpu = CpuSet(sim, cores, name=f"{name}.cpu")
        self.memory_gb = memory_gb
        self.memcpy = MemcpyModel()
        self.addresses = addresses or AddressAllocator()
        self.offload = offload or OffloadConfig()
        self.sriov = sriov

        # Reserve core 0 for the hypervisor (vSwitch, CoreEngine).
        self.hypervisor_core: Core = self.cpu[0]
        self._next_guest_core = 1

        if sriov:
            self.switch: HostSwitch = EmbeddedSwitch(sim, name=f"{name}.sw")
        else:
            self.switch = VirtualSwitch(
                sim, name=f"{name}.vsw", core=self.hypervisor_core
            )
        self.pnic = PhysicalNIC(sim, ip, offload=self.offload, name=f"{name}.pnic")
        self.switch.set_uplink(self.pnic)

        self._memory_used_gb = 0.0
        self.nics: Dict[str, object] = {}

    # -- resources -------------------------------------------------------------
    def allocate_cores(self, count: int) -> List[Core]:
        """Dedicate ``count`` guest cores (round-robins past the end)."""
        if count < 1:
            raise ValueError("must allocate at least one core")
        cores = []
        for _ in range(count):
            index = 1 + (self._next_guest_core - 1) % (len(self.cpu) - 1)
            cores.append(self.cpu[index])
            self._next_guest_core += 1
        return cores

    def reserve_memory(self, gb: float) -> None:
        if self._memory_used_gb + gb > self.memory_gb:
            raise RuntimeError(
                f"{self.name}: out of memory "
                f"({self._memory_used_gb}+{gb} > {self.memory_gb} GB)"
            )
        self._memory_used_gb += gb

    # -- NIC provisioning --------------------------------------------------------
    def create_vnic(self, name: str) -> VirtualNIC:
        """Paravirtual NIC through the host's (software) switch."""
        nic = VirtualNIC(self.sim, self.addresses.allocate(), self.offload, name)
        self.switch.attach(nic)
        self.nics[nic.ip] = nic
        return nic

    def create_vf(self, name: str) -> VirtualFunction:
        """SR-IOV virtual function (requires an embedded switch)."""
        if not self.sriov:
            raise RuntimeError(f"{self.name} has no SR-IOV NIC")
        vf = VirtualFunction(self.sim, self.addresses.allocate(), self.offload, name)
        self.switch.attach(vf)
        self.nics[vf.ip] = vf
        return vf

    def __repr__(self) -> str:
        return f"<PhysicalHost {self.name} cores={len(self.cpu)} mem={self.memory_gb}GB>"
