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

from ..apps import BulkReceiver, BulkSender
from ..apps.rpc import RpcClient, RpcServer
from ..net import Endpoint
from ..netkernel import NsmForm, NsmSpec
from .common import make_lan_testbed
from .registry import Experiment
from .table import Column, Table

__all__ = ["CONTAINERS", "EXPERIMENT", "run_container_ablation"]

#: A 10 GbE fabric hop with a deep queue and DCTCP-style marking threshold.
FABRIC_RATE = 10e9
FABRIC_QUEUE = 1 * 1024 * 1024
FABRIC_ECN_THRESHOLD = 90 * 1024


CONTAINERS = Table(
    "Ablation E: per-container stacks (Spark bulk + RPC on one host)",
    (
        Column("config", "config", 14, ">14"),
        Column("spark_cc", "spark cc", 9, ">9"),
        Column("spark_gbps", "spark tput", 11, ">7.2f", " Gbps"),
        Column("rpc_p50_us", "rpc p50", 9, ">6.0f", "us"),
        Column("rpc_p99_us", "rpc p99", 9, ">6.0f", "us"),
    ),
)


def _measure(spark_cc: str, config_label: str, duration: float) -> dict:
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
    return dict(
        config=config_label,
        spark_cc=spark_cc,
        spark_gbps=receiver.meter.bps(until=duration) / 1e9,
        rpc_p50_us=latency.p(50) * 1e6 if len(latency) else float("nan"),
        rpc_p99_us=latency.p(99) * 1e6 if len(latency) else float("nan"),
    )


#: Shared host stack (cubic for everyone) vs per-container NSMs.
EXPERIMENT = Experiment(
    points=lambda duration=0.4: [
        ("containers:shared-stack", ("cubic", "shared-stack", duration)),
        ("containers:nsaas", ("dctcp", "nsaas", duration)),
    ],
    measure=_measure,
    result=lambda values, **_params: CONTAINERS.fill(values),
)
run_container_ablation = EXPERIMENT.run
