"""Multi-tenant NSM placement (§2.1 multiplexing gains).

"They can also exploit the multiplexing gains by serving multiple tenant
VMs with the same network stack module."  The placer assigns tenant VMs
to shared NSMs by congestion-control requirement, booting new modules
only when existing ones are at tenant capacity.
"""

from __future__ import annotations

from typing import Dict, List

from ..host.vm import VM
from ..netkernel.nsm import NSM, NsmSpec
from ..netkernel.provision import Hypervisor
from ..sim import Simulator

__all__ = ["NsmPlacer"]


class NsmPlacer:
    """Boots tenants onto shared NSMs (VM-form, one core each),
    minimizing module count."""

    def __init__(
        self,
        sim: Simulator,
        hypervisor: Hypervisor,
        tenants_per_nsm: int = 4,
    ) -> None:
        if tenants_per_nsm < 1:
            raise ValueError("tenants_per_nsm must be >= 1")
        self.sim = sim
        self.hypervisor = hypervisor
        self.tenants_per_nsm = tenants_per_nsm
        self.placements: Dict[str, str] = {}  # vm name -> nsm name

    def boot_tenant(self, name: str, congestion_control: str, vcpus: int = 2) -> VM:
        """Boot a NetKernel VM (Linux, 4 GB) onto a shared NSM offering
        this stack."""
        nsm = self.hypervisor.find_shared_nsm(congestion_control)
        if nsm is None:
            nsm = self.hypervisor.boot_nsm(
                NsmSpec(
                    congestion_control=congestion_control,
                    max_tenants=self.tenants_per_nsm,
                )
            )
        vm = self.hypervisor.boot_netkernel_vm(name, nsm, vcpus=vcpus)
        self.placements[name] = nsm.name
        return vm

    def modules_in_use(self) -> List[NSM]:
        used = {name for name in self.placements.values()}
        return [nsm for nsm in self.hypervisor.nsms if nsm.name in used]

    def consolidation_ratio(self) -> float:
        """Tenants per module actually achieved."""
        modules = self.modules_in_use()
        if not modules:
            return 0.0
        return len(self.placements) / len(modules)
