"""Ablation D (§2.1): multiplexing gains from shared NSMs.

"They can also exploit the multiplexing gains by serving multiple tenant
VMs with the same network stack module."

N tenants each run a moderate bulk workload.  Dedicated placement boots
one 1-core/1-GB NSM per tenant; shared placement packs all tenants onto a
single NSM.  We compare provider resources (cores, memory) against the
delivered aggregate throughput and per-tenant fairness.
"""

from __future__ import annotations

from ..apps import BulkReceiver, BulkSender
from ..mgmt import NsmPlacer
from ..net import Endpoint
from ..netkernel import NsmSpec
from .common import make_lan_testbed
from .registry import Experiment
from .table import Column, Table

__all__ = ["MULTIPLEX", "EXPERIMENT", "run_multiplexing_ablation"]

MULTIPLEX = Table(
    "Ablation D: dedicated vs shared (multiplexed) NSMs",
    (
        Column("placement", "placement", 10, ">10"),
        Column("nsm_count", "NSMs", 5, ">5"),
        Column("cores_reserved", "cores", 6, ">6"),
        Column("memory_gb", "mem", 7, ">5.1f", "GB"),
        Column("aggregate_gbps", "aggregate", 10, ">6.2f", " Gbps"),
        Column(
            "tenant_range", "min..max per tenant", 22, unit=" Gbps",
            derive=lambda r: f"{r['min_tenant_gbps']:>8.2f}..{r['max_tenant_gbps']:.2f}",
        ),
    ),
)


def _measure(shared: bool, tenants: int, duration: float, warmup: float) -> dict:
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
    return dict(
        placement="shared" if shared else "dedicated",
        nsm_count=len(modules),
        cores_reserved=sum(len(nsm.cores) for nsm in modules),
        memory_gb=sum(nsm.form.memory_gb for nsm in modules),
        aggregate_gbps=sum(per_tenant),
        min_tenant_gbps=min(per_tenant),
        max_tenant_gbps=max(per_tenant),
    )


#: Dedicated vs shared placement for the same tenant population.
EXPERIMENT = Experiment(
    points=lambda tenants=4, duration=0.3, warmup=0.08: [
        (f"multiplex:{placement}", (shared, tenants, duration, warmup))
        for shared, placement in ((False, "dedicated"), (True, "shared"))
    ],
    measure=_measure,
    result=lambda values, **_params: MULTIPLEX.fill(values),
)
run_multiplexing_ablation = EXPERIMENT.run
