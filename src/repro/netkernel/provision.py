"""Provisioning: booting tenant VMs and NSMs on a physical host.

The :class:`Hypervisor` is the provider-side control plane of one host.
It can boot VMs the legacy way (in-guest stack over a vNIC/VF, Figure
2(a)) or the NetKernel way (GuestLib + NSM, Figure 2(b)), and boots and
registers NSMs, including shared (multiplexed) ones.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from ..api.socket_api import KernelSocketApi
from ..host.machine import PhysicalHost
from ..obs import runtime as obs_runtime
from ..host.vm import VM, GuestOS, NetworkMode
from ..sim import Simulator
from ..tcp import StackConfig, TcpStack
from .coreengine import CoreEngine, CoreEngineConfig
from .nsm import NSM, NsmSpec

if TYPE_CHECKING:
    from .rdma_nsm import RdmaNsm, TenantRdma

__all__ = ["Hypervisor", "LEGACY_STACK_PER_BYTE_NS", "LEGACY_STACK_PER_SEGMENT_NS"]

#: Legacy guest-kernel stack costs: protocol work plus the copy to
#: userspace, all on the guest core that owns the connection.  The NSM
#: path splits the same total between the NSM stack and ServiceLib's
#: huge-page copy — which is why Figure 4 comes out even.
LEGACY_STACK_PER_BYTE_NS = 0.12
LEGACY_STACK_PER_SEGMENT_NS = 1500.0


class Hypervisor:
    """Provider control plane for one physical host."""

    def __init__(
        self,
        sim: Simulator,
        host: PhysicalHost,
        coreengine_config: Optional[CoreEngineConfig] = None,
    ) -> None:
        self.sim = sim
        self.host = host
        # Components capture the process-wide tracer at construction
        # (obs.runtime contract).  Experiments boot VMs/NSMs *after* the
        # testbed factory returns, by which time the process-wide tracer
        # may belong to another testbed (or have been reset), so the
        # hypervisor pins the tracer active at its own construction and
        # re-installs it around every boot path: one host, one tracer.
        self._tracer = obs_runtime.get_tracer()
        self.coreengine = CoreEngine(
            sim,
            host.hypervisor_core,
            coreengine_config,
            name=f"{host.name}.ce",
        )
        self.vms: List[VM] = []
        self.nsms: List[NSM] = []
        self.rdma_nsms: List[RdmaNsm] = []
        #: Warm standby NSMs for failover (see :meth:`enable_failover`).
        self.standby_pool: List[NSM] = []
        self._standby_spec: Optional[NsmSpec] = None

    # ------------------------------------------------------------------- NSMs --
    def boot_nsm(self, spec: NsmSpec, name: Optional[str] = None) -> NSM:
        """Boot a network stack module and register it with CoreEngine."""
        with obs_runtime.installed(self._tracer):
            nsm = NSM(self.sim, self.host, spec, name=name)
            self.coreengine.attach_nsm(nsm)
        self.nsms.append(nsm)
        return nsm

    def boot_rdma_nsm(self, fabric, cores: int = 1, name: Optional[str] = None) -> RdmaNsm:
        """Boot an RDMA stack module (§2.1's 'customized stack (say RDMA)')."""
        from .rdma_nsm import RdmaNsm

        with obs_runtime.installed(self._tracer):
            nsm = RdmaNsm(self.sim, self.host, fabric, cores=cores, name=name)
        self.rdma_nsms.append(nsm)
        return nsm

    def attach_rdma(self, vm: VM, nsm: RdmaNsm) -> TenantRdma:
        """Give a (NetKernel or legacy) VM a Verbs handle served by ``nsm``."""
        from .rdma_nsm import TenantRdma

        with obs_runtime.installed(self._tracer):
            handle = TenantRdma(self.sim, nsm, vm.cores[0])
        vm.rdma = handle  # type: ignore[attr-defined]
        return handle

    def enable_failover(self, spec: Optional[NsmSpec] = None, standbys: int = 1) -> None:
        """Provision warm standby NSMs and arm CoreEngine's failover path.

        The provider keeps ``standbys`` pre-booted NSMs idle on this host
        (paying their memory but skipping the form's boot delay — 30 s for
        a VM-form NSM — at failover time).  When CoreEngine declares an
        NSM dead it calls back here for a replacement; an exhausted pool
        falls back to booting a cold standby of the dead NSM's own spec.

        Heartbeats must be armed separately via
        ``CoreEngineConfig.heartbeat_interval`` (they charge NSM CPU, so
        the watchdog is opt-in per run).
        """
        self._standby_spec = spec
        for index in range(standbys):
            self.standby_pool.append(
                self.boot_nsm(
                    spec if spec is not None else NsmSpec(),
                    name=f"{self.host.name}.standby{index}",
                )
            )
        self.coreengine.standby_provider = self._take_standby

    def _take_standby(self, dead: NSM) -> Optional[NSM]:
        if self.standby_pool:
            return self.standby_pool.pop(0)
        # Pool exhausted: boot a cold replacement (same spec as the dead
        # NSM unless a standby spec was pinned).  A host out of memory
        # yields no standby — connections still reset cleanly, new ops
        # fail typed rather than the watchdog dying mid-failover.
        try:
            return self.boot_nsm(
                self._standby_spec if self._standby_spec is not None else dead.spec,
                name=f"{dead.name}.standby",
            )
        except RuntimeError:
            return None

    def migrate_nsm(self, src: NSM, dst: NSM, tenant=None, at=None, **kwargs):
        """Launch a live migration of ``src``'s tenant stacks onto ``dst``.

        Returns the :class:`repro.netkernel.migration.MigrationCoordinator`
        immediately; the handoff runs as a simulator process.  Await
        ``coordinator.done`` (or inspect ``coordinator.record`` after the
        run) for the outcome.  ``tenant`` narrows the move to one VM's
        connections (tenant-routable families only, e.g. QUIC); ``at``
        delays the launch by that many simulated seconds (the handle
        exists right away, so a fault plan can target it before the
        simulation starts); ``kwargs`` forward to the coordinator (phase
        pacing, drain budgets).
        """
        from .migration import MigrationCoordinator

        with obs_runtime.installed(self._tracer):
            coordinator = MigrationCoordinator(
                self.coreengine, src, dst, tenant=tenant, **kwargs
            )
            if at is None:
                coordinator.start()
            else:
                self.sim.schedule_call(at, coordinator.start)
        return coordinator

    def find_shared_nsm(
        self, congestion_control: str, stack_family: str = "tcp"
    ) -> Optional[NSM]:
        """An existing NSM with capacity offering this stack (multiplexing).

        A tenant shares an NSM only when *both* the protocol family and
        the CC algorithm match — a QUIC tenant never lands on a TCP NSM.
        """
        for nsm in self.nsms:
            if (
                nsm.spec.congestion_control == congestion_control
                and nsm.spec.stack_family == stack_family
                and nsm.can_accept_tenant()
            ):
                return nsm
        return None

    # ----------------------------------------------------------------- tenants --
    def boot_legacy_vm(
        self,
        name: str,
        guest_os: GuestOS = GuestOS.LINUX,
        vcpus: int = 2,
        memory_gb: float = 4.0,
        use_sriov: bool = True,
        congestion_control: Optional[str] = None,
        tcp_overrides: Optional[dict] = None,
    ) -> VM:
        """Figure 2(a): the network stack runs in the guest kernel."""
        cores = self.host.allocate_cores(vcpus)
        self.host.reserve_memory(memory_gb)
        with obs_runtime.installed(self._tracer):
            vm = VM(self.sim, name, guest_os, cores, memory_gb, NetworkMode.LEGACY)

            cc = congestion_control or guest_os.default_cc
            if cc not in guest_os.available_cc:
                raise ValueError(
                    f"{guest_os.value} guests cannot run {cc!r} natively "
                    f"(have: {sorted(guest_os.available_cc)})"
                )
            if use_sriov and self.host.sriov:
                nic = self.host.create_vf(f"{name}.vf")
            else:
                nic = self.host.create_vnic(f"{name}.vnic")
            config = StackConfig(
                congestion_control=cc,
                per_segment_ns=LEGACY_STACK_PER_SEGMENT_NS,
                per_byte_ns=LEGACY_STACK_PER_BYTE_NS,
            )
            if tcp_overrides:
                for key, value in tcp_overrides.items():
                    setattr(config.tcp, key, value)
            vm.guest_stack = TcpStack(
                self.sim, nic, cores=cores, config=config, name=f"{name}.stack"
            )
            vm.api = KernelSocketApi(
                self.sim, vm.guest_stack, available_cc=guest_os.available_cc
            )
        self.vms.append(vm)
        return vm

    def boot_netkernel_vm(
        self,
        name: str,
        nsm: NSM,
        guest_os: GuestOS = GuestOS.LINUX,
        vcpus: int = 2,
        memory_gb: float = 4.0,
        rate_limit_bps: Optional[float] = None,
    ) -> VM:
        """Figure 2(b): GuestLib in the guest, the stack in ``nsm``.

        Works for *any* guest OS — that is the point: a Windows VM served
        by a BBR NSM uses BBR (§4.3).  ``rate_limit_bps`` caps the
        tenant's egress (§5 QoS); the cap is CoreEngine's, keyed by the
        tenant, so it holds on whichever NSM serves the VM.
        """
        cores = self.host.allocate_cores(vcpus)
        self.host.reserve_memory(memory_gb)
        with obs_runtime.installed(self._tracer):
            vm = VM(self.sim, name, guest_os, cores, memory_gb, NetworkMode.NETKERNEL)
            attachment = self.coreengine.attach_vm(cores[0], nsm)
        vm.api = attachment.guestlib
        vm.vm_id = attachment.vm_id
        if rate_limit_bps is not None:
            self.coreengine.rate_caps[vm.vm_id] = rate_limit_bps
        self.vms.append(vm)
        return vm

    def __repr__(self) -> str:
        return (
            f"<Hypervisor {self.host.name} vms={len(self.vms)} "
            f"nsms={len(self.nsms)}>"
        )
