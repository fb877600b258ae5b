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

from dataclasses import dataclass
from typing import List

from ..apps.rpc import RpcClient, RpcServer
from ..net import Endpoint
from ..netkernel import CoreEngineConfig, NotifyMode, NsmSpec
from .common import make_lan_testbed

__all__ = ["NotifyRow", "NotifyResult", "run_notify_ablation"]


@dataclass
class NotifyRow:
    mode: str
    rpc_p50_us: float
    rpc_p99_us: float
    rpcs_completed: int
    #: Hypervisor + NSM cores burned, as a fraction of one core
    #: (polling pegs them at 1.0 each regardless of load).
    provider_cores_burned: float


@dataclass
class NotifyResult:
    rows: List[NotifyRow]

    def table(self) -> str:
        lines = [
            "Ablation C: notification mechanism (RPC latency vs provider CPU)",
            f"{'mode':>10} {'p50':>9} {'p99':>9} {'rpcs':>7} {'cores burned':>13}",
        ]
        for row in self.rows:
            lines.append(
                f"{row.mode:>10} {row.rpc_p50_us:>6.0f}us {row.rpc_p99_us:>6.0f}us "
                f"{row.rpcs_completed:>7} {row.provider_cores_burned:>13.2f}"
            )
        return "\n".join(lines)


def _measure(mode: NotifyMode, duration: float) -> NotifyRow:
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
    sim.run(until=duration)

    # Provider-side CPU: the two CoreEngine cores plus the two NSM cores.
    provider_cores = [
        testbed.host_a.hypervisor_core,
        testbed.host_b.hypervisor_core,
        *nsm_a.cores,
        *nsm_b.cores,
    ]
    burned = sum(core.utilization(duration) for core in provider_cores)
    latency = client.latency
    return NotifyRow(
        mode=mode.value,
        rpc_p50_us=latency.p(50) * 1e6 if len(latency) else float("nan"),
        rpc_p99_us=latency.p(99) * 1e6 if len(latency) else float("nan"),
        rpcs_completed=client.completed,
        provider_cores_burned=burned,
    )


def run_notify_ablation(duration: float = 0.3) -> NotifyResult:
    """Polling vs batched interrupts under an identical RPC workload."""
    return NotifyResult(
        rows=[
            _measure(NotifyMode.POLLING, duration),
            _measure(NotifyMode.BATCHED_INTERRUPT, duration),
        ]
    )
