"""Virtual machines and guest operating systems.

The guest OS matters because the paper's whole premise is that a network
stack is welded to its kernel: a Windows guest cannot load Linux's BBR
module.  :class:`GuestOS` encodes which congestion-control implementations
each kernel ships, and the legacy (in-guest) socket API enforces it.
NetKernel VMs are free of this restriction — the stack lives in the NSM.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, FrozenSet, List, Optional

from ..sim import Simulator
from .cpu import Core

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.socket_api import SocketApi
    from ..tcp import TcpStack

__all__ = ["GuestOS", "NetworkMode", "VM"]


class GuestOS(enum.Enum):
    """Guest kernels and the congestion control each one ships."""

    LINUX = "linux"
    WINDOWS = "windows"
    FREEBSD = "freebsd"

    @property
    def available_cc(self) -> FrozenSet[str]:
        return _OS_CC[self]

    @property
    def default_cc(self) -> str:
        return _OS_DEFAULT_CC[self]


_OS_CC = {
    # Linux 4.9 ships all of these as kernel modules.
    GuestOS.LINUX: frozenset({"reno", "cubic", "bbr", "dctcp"}),
    # Windows Server 2016: Compound TCP / (new) reno lineage; no BBR.
    GuestOS.WINDOWS: frozenset({"ctcp", "reno"}),
    # FreeBSD 11: newreno default, cubic available.
    GuestOS.FREEBSD: frozenset({"reno", "cubic"}),
}

_OS_DEFAULT_CC = {
    GuestOS.LINUX: "cubic",
    GuestOS.WINDOWS: "ctcp",
    GuestOS.FREEBSD: "reno",
}


class NetworkMode(enum.Enum):
    """How a VM gets networking."""

    #: Figure 1(a)/2(a): the stack runs in the guest kernel over a vNIC/VF.
    LEGACY = "legacy"
    #: Figure 1(b)/2(b): GuestLib + NSM; no NIC in the guest at all.
    NETKERNEL = "netkernel"


class VM:
    """A tenant virtual machine.

    Built by the hypervisor (:mod:`repro.netkernel.provision`); apps use
    ``vm.api`` — the same :class:`~repro.api.socket_api.SocketApi` surface
    regardless of :class:`NetworkMode`, which is exactly the paper's
    "applications do not need to change" property.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        guest_os: GuestOS,
        cores: List[Core],
        memory_gb: float,
        mode: NetworkMode,
    ) -> None:
        if not cores:
            raise ValueError("a VM needs at least one vCPU")
        self.sim = sim
        self.name = name
        self.guest_os = guest_os
        self.cores = cores
        self.memory_gb = memory_gb
        self.mode = mode
        #: Assigned by the hypervisor at boot.
        self.api: Optional["SocketApi"] = None
        #: Legacy mode only: the in-guest kernel stack.
        self.guest_stack: Optional["TcpStack"] = None
        #: NetKernel mode only: set by CoreEngine at boot.
        self.vm_id: Optional[int] = None

    @property
    def ip(self) -> Optional[str]:
        """The VM's network identity.

        Legacy: its vNIC address.  NetKernel: the address of its NSM's NIC
        (the guest itself has no NIC — §2.2 "Removal of NIC in Guest").
        """
        if self.guest_stack is not None:
            return self.guest_stack.ip
        if self.api is not None and hasattr(self.api, "ip"):
            return self.api.ip
        return None

    def __repr__(self) -> str:
        return (
            f"<VM {self.name} os={self.guest_os.value} mode={self.mode.value} "
            f"vcpus={len(self.cores)}>"
        )
