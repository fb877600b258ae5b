"""Ablation F (§5): QoS for tenants sharing one NSM.

"The resource allocation and scheduling of the NSMs also needs to be
strategically managed and optimized when we use a NSM to serve multiple
VMs concurrently while providing QoS guarantees."

Demonstrations on a shared NSM:

* **Rate guarantee**: a tenant capped by a ServiceLib token bucket lands
  exactly on its configured egress rate.
* **Tenant protection**: two bulk tenants share one NSM and one 40 GbE
  wire.  With no QoS, short-timescale Cubic competition splits the wire
  arbitrarily; capping the aggressive tenant guarantees the other one the
  remainder.

At the calibrated op costs the ServiceLib dispatch loop is never the
contended resource, so the rate cap is the QoS lever: the only one the
repo models.  Caps are set with ``boot_netkernel_vm(rate_limit_bps=)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..apps import BulkReceiver, BulkSender
from ..net import Endpoint
from ..netkernel import NsmSpec
from .common import make_lan_testbed

__all__ = ["QosRow", "QosResult", "run_qos_ablation", "measure_rate_cap"]


@dataclass
class QosRow:
    config: str
    victim_gbps: float
    aggressor_gbps: float

    @property
    def victim_share(self) -> float:
        total = self.victim_gbps + self.aggressor_gbps
        return self.victim_gbps / total if total else 0.0


@dataclass
class QosResult:
    rows: List[QosRow]
    rate_cap_gbps: float
    rate_measured_gbps: float

    def table(self) -> str:
        lines = [
            "Ablation F: per-tenant QoS on a shared NSM",
            f"rate guarantee: capped tenant measured "
            f"{self.rate_measured_gbps:.2f} Gbps (cap {self.rate_cap_gbps:.2f})",
            f"{'config':>16} {'victim':>10} {'aggressor':>10} {'victim share':>13}",
        ]
        for row in self.rows:
            lines.append(
                f"{row.config:>16} {row.victim_gbps:>6.2f} Gbps "
                f"{row.aggressor_gbps:>5.2f} Gbps {row.victim_share*100:>12.0f}%"
            )
        return "\n".join(lines)


def measure_rate_cap(
    cap_bps: float = 5e9, duration: float = 0.3, warmup: float = 0.1
) -> float:
    """A single tenant with an egress cap: measured goodput (Gbps)."""
    testbed = make_lan_testbed()
    sim = testbed.sim
    nsm_tx = testbed.hypervisor_a.boot_nsm(NsmSpec(congestion_control="cubic"))
    nsm_rx = testbed.hypervisor_b.boot_nsm(NsmSpec(congestion_control="cubic"))
    vm_tx = testbed.hypervisor_a.boot_netkernel_vm(
        "capped", nsm_tx, rate_limit_bps=cap_bps
    )
    vm_rx = testbed.hypervisor_b.boot_netkernel_vm("sink", nsm_rx, vcpus=4)
    receiver = BulkReceiver(sim, vm_rx.api, 5000, warmup=warmup)
    BulkSender(sim, vm_tx.api, Endpoint(vm_rx.api.ip, 5000))
    sim.run(until=duration)
    return receiver.meter.bps(until=duration) / 1e9


#: Simulated seconds per run, and the warmup its goodput excludes.
DURATION = 0.4
WARMUP = 0.15


def _measure_sharing(aggressor_cap_bps: Optional[float]) -> QosRow:
    testbed = make_lan_testbed()
    sim = testbed.sim
    nsm_tx = testbed.hypervisor_a.boot_nsm(
        NsmSpec(congestion_control="cubic", max_tenants=2)
    )
    nsm_rx = testbed.hypervisor_b.boot_nsm(
        NsmSpec(congestion_control="cubic", cores=2, max_tenants=2)
    )
    victim = testbed.hypervisor_a.boot_netkernel_vm("victim", nsm_tx, vcpus=1)
    aggressor = testbed.hypervisor_a.boot_netkernel_vm(
        "aggressor", nsm_tx, vcpus=1, rate_limit_bps=aggressor_cap_bps
    ) if aggressor_cap_bps is not None else testbed.hypervisor_a.boot_netkernel_vm(
        "aggressor", nsm_tx, vcpus=1
    )
    sink = testbed.hypervisor_b.boot_netkernel_vm("sink", nsm_rx, vcpus=4)

    victim_rx = BulkReceiver(sim, sink.api, 5000, warmup=WARMUP)
    # The victim starts late: without QoS the established aggressor holds
    # the queue and the victim crawls through Cubic convergence.
    BulkSender(sim, victim.api, Endpoint(sink.api.ip, 5000), start_delay=0.05)
    aggressor_rx = BulkReceiver(sim, sink.api, 5001, warmup=WARMUP)
    BulkSender(sim, aggressor.api, Endpoint(sink.api.ip, 5001))

    sim.run(until=DURATION)
    return QosRow(
        config="no-qos" if aggressor_cap_bps is None
        else f"cap@{aggressor_cap_bps/1e9:.0f}G",
        victim_gbps=victim_rx.meter.bps(until=DURATION) / 1e9,
        aggressor_gbps=aggressor_rx.meter.bps(until=DURATION) / 1e9,
    )


def run_qos_ablation() -> QosResult:
    """Rate guarantee plus shared-NSM tenant protection."""
    cap = 5e9
    measured = measure_rate_cap(cap, DURATION, WARMUP)
    return QosResult(
        rows=[_measure_sharing(None), _measure_sharing(10e9)],
        rate_cap_gbps=cap / 1e9,
        rate_measured_gbps=measured,
    )
