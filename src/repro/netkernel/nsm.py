"""Network Stack Modules (NSMs).

An NSM is the provider-managed entity that runs a network stack on behalf
of tenant VMs.  §5 discusses the form-factor design space; we model all
three options with their tradeoffs:

=================  ==========  =========  ==============  =============
Form               per-op cost  memory     boot time       isolation
=================  ==========  =========  ==============  =============
VM (prototype)     1.0×         1 GB       ~30 s           strong
Container          0.6×         256 MB     ~2 s            namespace
Hypervisor module  0.4×         64 MB      ~0.2 s          none (shared)
=================  ==========  =========  ==============  =============

The prototype's NSM: a KVM VM with 1 core, 1 GB RAM and one SR-IOV VF of
the Intel X710 (§4.1), running a ported Linux 4.9 TCP/IP stack.
"""

from __future__ import annotations

import enum
import importlib
from itertools import count
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from ..host.cpu import Core
from ..host.machine import PhysicalHost
from ..net import NIC
from ..sim import Simulator
from ..tcp import StackConfig, TcpStack

if TYPE_CHECKING:
    from .arbiter import FastpassArbiter

__all__ = [
    "NsmForm",
    "NsmSpec",
    "NSM",
    "STACK_FAMILIES",
    "register_stack_family",
]

_nsm_ids = count(1)

#: Stack-family registry: family name -> builder(sim, nsm, spec) -> stack.
#: "Stack as a service" means the family is a provisioning knob like the
#: CC algorithm; tenants pick a family per NsmSpec and the NSM builds the
#: matching protocol stack behind the unchanged GuestLib/SocketApi
#: surface.  Families outside this module (repro.quic) self-register on
#: import; unknown names are resolved by importing ``repro.<family>``.
STACK_FAMILIES: Dict[str, Callable[[Simulator, "NSM", "NsmSpec"], object]] = {}


def register_stack_family(
    name: str, builder: Callable[[Simulator, "NSM", "NsmSpec"], object]
) -> None:
    """Register a protocol-stack family for NSMs to host."""
    if not name or name in STACK_FAMILIES:
        raise ValueError(f"bad or duplicate stack family: {name!r}")
    STACK_FAMILIES[name] = builder


def _resolve_family(name: str) -> Callable[[Simulator, "NSM", "NsmSpec"], object]:
    builder = STACK_FAMILIES.get(name)
    if builder is None:
        # Families self-register when their package is imported.
        try:
            importlib.import_module(f"repro.{name}")
        except ImportError:
            pass
        builder = STACK_FAMILIES.get(name)
    if builder is None:
        raise KeyError(
            f"unknown stack family {name!r}; available: {sorted(STACK_FAMILIES)}"
        )
    return builder


def _build_tcp_stack(sim: Simulator, nsm: "NSM", spec: "NsmSpec") -> TcpStack:
    config = StackConfig(
        congestion_control=spec.congestion_control,
        # The NSM stack's per-byte protocol cost; the delivery copy into
        # huge pages is charged separately by ServiceLib, so the per-core
        # total matches a native stack's protocol + copy_to_user cost.
        per_segment_ns=1500.0 * spec.form.cpu_multiplier,
        per_byte_ns=0.06,
    )
    if spec.tcp_overrides:
        for key, value in spec.tcp_overrides.items():
            setattr(config.tcp, key, value)
    return TcpStack(
        sim, nsm.nic, cores=nsm.cores, config=config, name=f"{nsm.name}.stack"
    )


register_stack_family("tcp", _build_tcp_stack)


class NsmForm(enum.Enum):
    """NSM realizations and their overhead profiles (§5)."""

    VM = "vm"
    CONTAINER = "container"
    HYPERVISOR_MODULE = "module"

    @property
    def cpu_multiplier(self) -> float:
        """Per-operation CPU overhead relative to the VM form."""
        return {"vm": 1.0, "container": 0.6, "module": 0.4}[self.value]

    @property
    def memory_gb(self) -> float:
        return {"vm": 1.0, "container": 0.25, "module": 0.0625}[self.value]

    @property
    def boot_seconds(self) -> float:
        return {"vm": 30.0, "container": 2.0, "module": 0.2}[self.value]

    @property
    def isolation(self) -> str:
        return {"vm": "strong", "container": "namespace", "module": "shared"}[
            self.value
        ]


class NsmSpec:
    """What a tenant (or the provider) asks for when requesting an NSM."""

    def __init__(
        self,
        congestion_control: str = "cubic",
        form: NsmForm = NsmForm.VM,
        cores: int = 1,
        max_tenants: int = 1,
        tcp_overrides: Optional[dict] = None,
        rx_chunk_bytes: int = 65536,
        arbiter: Optional["FastpassArbiter"] = None,
        servicelib_workers: int = 1,
        stack_family: str = "tcp",
    ) -> None:
        if cores < 1:
            raise ValueError("an NSM needs at least one core")
        if max_tenants < 1:
            raise ValueError("max_tenants must be >= 1")
        #: Which protocol-stack family this NSM hosts (see STACK_FAMILIES).
        self.stack_family = stack_family
        self.congestion_control = congestion_control
        self.form = form
        self.cores = cores
        self.max_tenants = max_tenants
        self.tcp_overrides = dict(tcp_overrides or {})
        if rx_chunk_bytes < 512:
            raise ValueError("rx_chunk_bytes must be >= 512")
        #: DATA-nqe granularity for received data; the prototype used 8 KB
        #: huge-page chunks, we default to the TSO aggregate size.
        self.rx_chunk_bytes = rx_chunk_bytes
        #: Fastpass-style centralized arbiter (see repro.netkernel.arbiter):
        #: when set, every SEND waits for a fabric timeslot grant.
        self.arbiter = arbiter
        if servicelib_workers < 1:
            raise ValueError("servicelib_workers must be >= 1")
        if servicelib_workers > cores:
            raise ValueError("servicelib_workers cannot exceed NSM cores")
        #: Multi-queue ServiceLib (§5 future work): parallel op workers,
        #: one per core, lifting the short-connection ceiling of a single
        #: dispatch loop.
        self.servicelib_workers = servicelib_workers


class NSM:
    """A running network stack module on a physical host."""

    def __init__(
        self,
        sim: Simulator,
        host: PhysicalHost,
        spec: NsmSpec,
        name: Optional[str] = None,
    ) -> None:
        self.sim = sim
        self.host = host
        self.spec = spec
        self.nsm_id = next(_nsm_ids)
        self.name = name or f"nsm{self.nsm_id}"
        self.form = spec.form

        self.cores: List[Core] = host.allocate_cores(spec.cores)
        host.reserve_memory(spec.form.memory_gb)

        if host.sriov:
            self.nic: NIC = host.create_vf(f"{self.name}.vf")
        else:
            self.nic = host.create_vnic(f"{self.name}.vnic")

        self.stack = _resolve_family(spec.stack_family)(sim, self, spec)
        self.stack.arbiter = spec.arbiter
        #: Attached by CoreEngine at setup.
        self.servicelib = None
        self.tenant_vm_ids: List[int] = []
        #: Fault injection: a crashed NSM blackholes its NIC and stops
        #: serving ops until replaced (there is no in-place restart — the
        #: paper's recovery story is live replacement by a standby).
        self.failed = False

    @property
    def ip(self) -> str:
        return self.nic.ip

    def can_accept_tenant(self) -> bool:
        return len(self.tenant_vm_ids) < self.spec.max_tenants

    def cpu_utilization(self, elapsed: Optional[float] = None) -> float:
        window = elapsed if elapsed is not None else self.sim.now
        if window <= 0:
            return 0.0
        busy = sum(core.busy_seconds for core in self.cores)
        return min(1.0, busy / (window * len(self.cores)))

    def crash(self) -> None:
        """Fault injection: the NSM dies wholesale (idempotent).

        Its NIC blackholes (TCP peers see silence, not FINs), and its
        ServiceLib stops consuming and producing nqes.  Detection and
        recovery are CoreEngine's job, via missed heartbeats.
        """
        if self.failed:
            return
        self.failed = True
        self.nic.fail()
        if self.servicelib is not None:
            self.servicelib.crash()

    def take_over_ip(self, dead: "NSM") -> None:
        """Failover IP takeover: assume ``dead``'s network identity.

        The VM's address *is* its NSM's address (§2.2), so a transparent
        replacement must answer on the dead NSM's IP.  Re-keys the host
        switch table and the stack's cached local address; the standby
        must be idle (no established connections under its boot-time IP).
        """
        if dead.host is not self.host:
            raise RuntimeError(
                f"{self.name} cannot take over {dead.name}: different hosts"
            )
        switch = self.host.switch
        switch.detach(dead.nic)
        switch.detach(self.nic)
        self.host.nics.pop(dead.nic.ip, None)
        self.host.nics.pop(self.nic.ip, None)
        self.nic.ip = dead.nic.ip
        self.stack.ip = self.nic.ip
        switch.attach(self.nic)
        self.host.nics[self.nic.ip] = self.nic

    def shutdown(self) -> None:
        """Release host resources (scale-down path)."""
        self.host.release_memory(self.spec.form.memory_gb)
        self.host.switch.detach(self.nic)

    def __repr__(self) -> str:
        return (
            f"<NSM {self.name} form={self.form.value} cc={self.spec.congestion_control} "
            f"cores={len(self.cores)} tenants={len(self.tenant_vm_ids)}>"
        )
