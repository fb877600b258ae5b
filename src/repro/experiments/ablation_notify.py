"""Ablation C (§5): polling vs batched soft interrupts.

"We use polling for fast prototyping now.  More efficient soft interrupts
(with batching) or hypercalls can provide low latency while saving
precious CPU cycles here."

Polling gives the lowest notification latency but pins the CoreEngine and
ServiceLib cores at 100%; batched interrupts add a coalescing delay per
hop but only consume CPU proportional to load.  An RPC workload feels the
per-hop latency directly.
"""

from __future__ import annotations

from ..apps.rpc import RpcClient, RpcServer
from ..net import Endpoint
from ..netkernel import CoreEngineConfig, NotifyMode, NsmSpec
from .common import make_lan_testbed
from .registry import Experiment
from .table import Column, Table

__all__ = ["NOTIFY", "EXPERIMENT", "run_notify_ablation"]

#: ``provider_cores_burned``: hypervisor + NSM cores burned, as a
#: fraction of one core (polling pegs them at 1.0 each regardless of load).
NOTIFY = Table(
    "Ablation C: notification mechanism (RPC latency vs provider CPU)",
    (
        Column("mode", "mode", 10, ">10"),
        Column("rpc_p50_us", "p50", 9, ">6.0f", "us"),
        Column("rpc_p99_us", "p99", 9, ">6.0f", "us"),
        Column("rpcs_completed", "rpcs", 7, ">7"),
        Column("provider_cores_burned", "cores burned", 13, ">13.2f"),
    ),
)


#: Simulated seconds per notification mode.
DURATION = 0.3


def _measure(mode: NotifyMode) -> dict:
    config = CoreEngineConfig(notify_mode=mode)
    testbed = make_lan_testbed(coreengine_config=config)
    sim = testbed.sim
    nsm_a = testbed.hypervisor_a.boot_nsm(NsmSpec(congestion_control="cubic"))
    nsm_b = testbed.hypervisor_b.boot_nsm(NsmSpec(congestion_control="cubic"))
    vm_a = testbed.hypervisor_a.boot_netkernel_vm("client", nsm_a, vcpus=2)
    vm_b = testbed.hypervisor_b.boot_netkernel_vm("server", nsm_b, vcpus=2)

    RpcServer(sim, vm_b.api, port=7000)
    client = RpcClient(
        sim, vm_a.api, Endpoint(vm_b.api.ip, 7000), start_delay=0.005
    )
    sim.run(until=DURATION)

    # Provider-side CPU: the two CoreEngine cores plus the two NSM cores.
    provider_cores = [
        testbed.host_a.hypervisor_core,
        testbed.host_b.hypervisor_core,
        *nsm_a.cores,
        *nsm_b.cores,
    ]
    burned = sum(core.utilization(DURATION) for core in provider_cores)
    latency = client.latency
    return dict(
        mode=mode.value,
        rpc_p50_us=latency.p(50) * 1e6 if len(latency) else float("nan"),
        rpc_p99_us=latency.p(99) * 1e6 if len(latency) else float("nan"),
        rpcs_completed=client.completed,
        provider_cores_burned=burned,
    )


#: Polling vs batched interrupts under an identical RPC workload.
EXPERIMENT = Experiment(
    points=lambda: [
        (f"notify:{mode.value}", (mode,))
        for mode in (NotifyMode.POLLING, NotifyMode.BATCHED_INTERRUPT)
    ],
    measure=_measure,
    result=lambda values: NOTIFY.fill(values),
)
run_notify_ablation = EXPERIMENT.run
