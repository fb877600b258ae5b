"""Ablation E (§5 "Container"): per-container network stacks via NSaaS.

"A critical limitation of the current container technology is that
containers have to use the host's network stack.  There are many cases
where it is actually better to use different stacks for containers
running on the same host.  A container running a Spark task may use DCTCP
for its traffic, while a web server container may need BBR or CUBIC."

Scenario: one host runs a Spark-like bulk container and a latency-
sensitive RPC container, both crossing the same ECN-capable datacenter
fabric link.

* **Shared host stack** (today): both containers must use the host's CC
  (Cubic).  The bulk flow fills the fabric queue and the RPC container
  eats the queueing delay.
* **NSaaS**: the Spark container picks a DCTCP NSM, which holds the queue
  at the ECN marking threshold — bulk throughput stays high and the RPC
  container's tail latency drops by an order of magnitude.

Containers are modelled as lightweight tenants (the paper notes the
specific design "may differ in many ways"; the stack-choice economics are
what this ablation demonstrates).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..apps import BulkReceiver, BulkSender
from ..apps.rpc import RpcClient, RpcServer
from ..net import Endpoint
from ..netkernel import NsmForm, NsmSpec
from .common import make_lan_testbed

__all__ = ["ContainerRow", "ContainerResult", "run_container_ablation"]

#: A 10 GbE fabric hop with a deep queue and DCTCP-style marking threshold.
FABRIC_RATE = 10e9
FABRIC_QUEUE = 1 * 1024 * 1024
FABRIC_ECN_THRESHOLD = 90 * 1024


@dataclass
class ContainerRow:
    config: str
    spark_cc: str
    spark_gbps: float
    rpc_p50_us: float
    rpc_p99_us: float


@dataclass
class ContainerResult:
    rows: List[ContainerRow]

    def table(self) -> str:
        lines = [
            "Ablation E: per-container stacks (Spark bulk + RPC on one host)",
            f"{'config':>14} {'spark cc':>9} {'spark tput':>11} "
            f"{'rpc p50':>9} {'rpc p99':>9}",
        ]
        for row in self.rows:
            lines.append(
                f"{row.config:>14} {row.spark_cc:>9} {row.spark_gbps:>7.2f} Gbps "
                f"{row.rpc_p50_us:>6.0f}us {row.rpc_p99_us:>6.0f}us"
            )
        return "\n".join(lines)


def _measure(spark_cc: str, config_label: str, duration: float) -> ContainerRow:
    testbed = make_lan_testbed(
        rate_bps=FABRIC_RATE,
        queue_bytes=FABRIC_QUEUE,
    )
    # Enable ECN marking on the fabric wire.
    testbed.wire.a_to_b.queue.ecn_threshold_bytes = FABRIC_ECN_THRESHOLD
    testbed.wire.b_to_a.queue.ecn_threshold_bytes = FABRIC_ECN_THRESHOLD
    sim = testbed.sim

    spark_overrides = {"ecn": spark_cc == "dctcp"}
    nsm_spark_tx = testbed.hypervisor_a.boot_nsm(
        NsmSpec(spark_cc, form=NsmForm.CONTAINER, tcp_overrides=spark_overrides)
    )
    nsm_rpc_tx = testbed.hypervisor_a.boot_nsm(
        NsmSpec("cubic", form=NsmForm.CONTAINER)
    )
    nsm_spark_rx = testbed.hypervisor_b.boot_nsm(
        NsmSpec(spark_cc, form=NsmForm.CONTAINER, tcp_overrides=spark_overrides)
    )
    nsm_rpc_rx = testbed.hypervisor_b.boot_nsm(
        NsmSpec("cubic", form=NsmForm.CONTAINER)
    )
    spark_tx = testbed.hypervisor_a.boot_netkernel_vm("spark", nsm_spark_tx, vcpus=2)
    rpc_tx = testbed.hypervisor_a.boot_netkernel_vm("webct", nsm_rpc_tx, vcpus=1)
    spark_rx = testbed.hypervisor_b.boot_netkernel_vm("spark-peer", nsm_spark_rx, vcpus=2)
    rpc_rx = testbed.hypervisor_b.boot_netkernel_vm("web-peer", nsm_rpc_rx, vcpus=1)

    receiver = BulkReceiver(sim, spark_rx.api, port=5000, warmup=duration * 0.2)
    BulkSender(sim, spark_tx.api, Endpoint(spark_rx.api.ip, 5000))
    RpcServer(sim, rpc_rx.api, port=7000)
    rpc_client = RpcClient(sim, rpc_tx.api, Endpoint(rpc_rx.api.ip, 7000))

    sim.run(until=duration)
    latency = rpc_client.latency
    return ContainerRow(
        config=config_label,
        spark_cc=spark_cc,
        spark_gbps=receiver.meter.bps(until=duration) / 1e9,
        rpc_p50_us=latency.p(50) * 1e6 if len(latency) else float("nan"),
        rpc_p99_us=latency.p(99) * 1e6 if len(latency) else float("nan"),
    )


def run_container_ablation(duration: float = 0.4) -> ContainerResult:
    """Shared host stack (cubic for everyone) vs per-container NSMs."""
    return ContainerResult(
        rows=[
            _measure("cubic", "shared-stack", duration),
            _measure("dctcp", "nsaas", duration),
        ]
    )
