"""Ablation D (§2.1): multiplexing gains from shared NSMs.

"They can also exploit the multiplexing gains by serving multiple tenant
VMs with the same network stack module."

N tenants each run a moderate bulk workload.  Dedicated placement boots
one 1-core/1-GB NSM per tenant; shared placement packs all tenants onto a
single NSM.  We compare provider resources (cores, memory) against the
delivered aggregate throughput and per-tenant fairness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..apps import BulkReceiver, BulkSender
from ..mgmt import NsmPlacer
from ..net import Endpoint
from ..netkernel import NsmSpec
from .common import make_lan_testbed

__all__ = ["MultiplexRow", "MultiplexResult", "run_multiplexing_ablation"]


@dataclass
class MultiplexRow:
    placement: str
    nsm_count: int
    cores_reserved: int
    memory_gb: float
    aggregate_gbps: float
    min_tenant_gbps: float
    max_tenant_gbps: float


@dataclass
class MultiplexResult:
    rows: List[MultiplexRow]

    def table(self) -> str:
        lines = [
            "Ablation D: dedicated vs shared (multiplexed) NSMs",
            f"{'placement':>10} {'NSMs':>5} {'cores':>6} {'mem':>7} "
            f"{'aggregate':>10} {'min..max per tenant':>22}",
        ]
        for row in self.rows:
            lines.append(
                f"{row.placement:>10} {row.nsm_count:>5} {row.cores_reserved:>6} "
                f"{row.memory_gb:>5.1f}GB {row.aggregate_gbps:>6.2f} Gbps "
                f"{row.min_tenant_gbps:>8.2f}..{row.max_tenant_gbps:.2f} Gbps"
            )
        return "\n".join(lines)


def _measure(shared: bool, tenants: int, duration: float, warmup: float) -> MultiplexRow:
    testbed = make_lan_testbed()
    sim = testbed.sim

    # Receiver side: one NSM + VM that hosts all the sinks.
    sink_nsm = testbed.hypervisor_b.boot_nsm(
        NsmSpec(congestion_control="cubic", cores=2, max_tenants=1)
    )
    sink_vm = testbed.hypervisor_b.boot_netkernel_vm("sink", sink_nsm, vcpus=4)

    # Sender side: tenants placed on dedicated or shared NSMs.
    placer = NsmPlacer(
        sim,
        testbed.hypervisor_a,
        tenants_per_nsm=tenants if shared else 1,
    )
    vms = [
        placer.boot_tenant(f"tenant{i}", congestion_control="cubic", vcpus=1)
        for i in range(tenants)
    ]

    receivers = []
    for i, vm in enumerate(vms):
        port = 5000 + i
        receivers.append(BulkReceiver(sim, sink_vm.api, port, warmup=warmup))
        BulkSender(sim, vm.api, Endpoint(sink_vm.api.ip, port))
    sim.run(until=duration)

    modules = placer.modules_in_use()
    per_tenant = [rx.meter.bps(until=duration) / 1e9 for rx in receivers]
    return MultiplexRow(
        placement="shared" if shared else "dedicated",
        nsm_count=len(modules),
        cores_reserved=sum(len(nsm.cores) for nsm in modules),
        memory_gb=sum(nsm.form.memory_gb for nsm in modules),
        aggregate_gbps=sum(per_tenant),
        min_tenant_gbps=min(per_tenant),
        max_tenant_gbps=max(per_tenant),
    )


def run_multiplexing_ablation(
    tenants: int = 4,
    duration: float = 0.3,
    warmup: float = 0.08,
    jobs: int = 1,
) -> MultiplexResult:
    """Dedicated vs shared placement for the same tenant population."""
    from ..parallel import parallel_map

    rows = parallel_map(
        _measure,
        [(False, tenants, duration, warmup), (True, tenants, duration, warmup)],
        jobs=jobs,
        keys=["multiplex:dedicated", "multiplex:shared"],
    )
    return MultiplexResult(rows=rows)
