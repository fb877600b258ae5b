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

from typing import Optional

from ..apps import BulkReceiver, BulkSender
from ..net import Endpoint
from ..netkernel import NsmSpec
from .common import make_lan_testbed
from .registry import Experiment
from .table import Column, Table

__all__ = ["QOS", "EXPERIMENT", "run_qos_ablation", "measure_rate_cap"]


def _victim_share(row: dict) -> float:
    total = row["victim_gbps"] + row["aggressor_gbps"]
    return row["victim_gbps"] / total if total else 0.0


#: One row per sharing configuration; the note is the rate guarantee.
QOS = Table(
    "Ablation F: per-tenant QoS on a shared NSM",
    (
        Column("config", "config", 16, ">16"),
        Column("victim_gbps", "victim", 10, ">6.2f", " Gbps"),
        Column("aggressor_gbps", "aggressor", 10, ">5.2f", " Gbps"),
        Column("victim_share", "victim share", 13, ">13.0%", derive=_victim_share),
    ),
    above=(
        "rate guarantee: capped tenant measured "
        "{rate_measured_gbps:.2f} Gbps (cap {rate_cap_gbps:.2f})",
    ),
)


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


def _measure_sharing(aggressor_cap_bps: Optional[float]) -> dict:
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
    return dict(
        config="no-qos" if aggressor_cap_bps is None
        else f"cap@{aggressor_cap_bps/1e9:.0f}G",
        victim_gbps=victim_rx.meter.bps(until=DURATION) / 1e9,
        aggressor_gbps=aggressor_rx.meter.bps(until=DURATION) / 1e9,
    )


#: The rate cap a lone tenant is measured against.
RATE_CAP_BPS = 5e9


def _measure(cap_bps: Optional[float], shared: bool):
    if shared:
        return _measure_sharing(cap_bps)
    return measure_rate_cap(cap_bps, DURATION, WARMUP)


def _result(values) -> Table:
    rate_measured_gbps, *rows = values
    return QOS.fill(
        rows, rate_cap_gbps=RATE_CAP_BPS / 1e9, rate_measured_gbps=rate_measured_gbps
    )


#: Rate guarantee plus shared-NSM tenant protection.
EXPERIMENT = Experiment(
    points=lambda: [
        ("qos:rate-cap", (RATE_CAP_BPS, False)),
        ("qos:no-qos", (None, True)),
        ("qos:capped", (10e9, True)),
    ],
    measure=_measure,
    result=_result,
)
run_qos_ablation = EXPERIMENT.run
