"""Ablation G (§5): Fastpass-style centralized arbitration via NSMs.

"some new protocols such as Fastpass [31] and pHost [14] require
coordination among end-hosts and are deemed infeasible for public clouds.
They can now be implemented as NSMs and deployed easily for all tenants."

Three bulk tenants share one NSM and one 40 GbE fabric hop while an
independent RPC pair probes latency across the same wire.  Without
arbitration the bulk flows keep the 2 MB fabric queue full and the RPC
tail rides the bufferbloat; with the provider-run arbiter granting wire
timeslots, the queue stays empty and RPC latency collapses to the
propagation floor — at ~2% throughput cost (the arbiter's utilization
headroom).
"""

from __future__ import annotations

from typing import Optional

from ..apps import BulkReceiver, BulkSender
from ..apps.rpc import RpcClient, RpcServer
from ..net import Endpoint
from ..netkernel import NsmSpec
from ..netkernel.arbiter import FastpassArbiter
from ..stats.series import PeriodicSampler
from .common import make_lan_testbed
from .registry import Experiment
from .table import Column, Table

__all__ = ["FASTPASS", "EXPERIMENT", "run_fastpass_ablation"]

FASTPASS = Table(
    "Ablation G: Fastpass-style arbitration as an NSM service",
    (
        Column("config", "config", 10, ">10"),
        Column("aggregate_gbps", "bulk", 11, ">7.2f", " Gbps"),
        Column("rpc_p50_us", "rpc p50", 9, ">6.0f", "us"),
        Column("rpc_p99_us", "rpc p99", 9, ">6.0f", "us"),
        Column("queue_max_kb", "fabric queue max", 17, ">15.0f", "KB"),
    ),
)


def _measure(use_arbiter: bool, duration: float, warmup: float) -> dict:
    testbed = make_lan_testbed(queue_bytes=2 * 1024 * 1024)
    sim = testbed.sim
    arbiter: Optional[FastpassArbiter] = (
        FastpassArbiter(sim, fabric_rate_bps=40e9) if use_arbiter else None
    )
    nsm_tx = testbed.hypervisor_a.boot_nsm(NsmSpec(max_tenants=4, arbiter=arbiter))
    nsm_rx = testbed.hypervisor_b.boot_nsm(NsmSpec(cores=2, max_tenants=4))
    sink = testbed.hypervisor_b.boot_netkernel_vm("sink", nsm_rx, vcpus=4)

    receivers = []
    for index in range(3):
        vm = testbed.hypervisor_a.boot_netkernel_vm(f"bulk{index}", nsm_tx, vcpus=1)
        receivers.append(BulkReceiver(sim, sink.api, 5000 + index, warmup=warmup))
        BulkSender(sim, vm.api, Endpoint(sink.api.ip, 5000 + index))

    rpc_server_vm = testbed.hypervisor_b.boot_legacy_vm("rpc-server")
    rpc_client_vm = testbed.hypervisor_a.boot_legacy_vm("rpc-client")
    RpcServer(sim, rpc_server_vm.api, 7000)
    client = RpcClient(
        sim, rpc_client_vm.api, Endpoint(rpc_server_vm.api.ip, 7000),
        start_delay=0.02,
    )
    queue_sampler = PeriodicSampler(
        sim,
        lambda: testbed.wire.a_to_b.queue.backlog_bytes,
        interval=0.001,
        name="fabric-queue",
    )
    sim.run(until=duration)

    total_bytes = sum(rx.meter.bytes for rx in receivers)
    latency = client.latency
    return dict(
        config="fastpass" if use_arbiter else "tcp-only",
        aggregate_gbps=total_bytes * 8 / (duration - warmup) / 1e9,
        rpc_p50_us=latency.p(50) * 1e6 if len(latency) else float("nan"),
        rpc_p99_us=latency.p(99) * 1e6 if len(latency) else float("nan"),
        queue_max_kb=max(value for _t, value in queue_sampler.series) / 1024,
    )


#: Bulk tenants + RPC probe, with and without the arbiter.
EXPERIMENT = Experiment(
    points=lambda duration=0.4, warmup=0.1: [
        (f"fastpass:{use}", (use, duration, warmup)) for use in (False, True)
    ],
    measure=_measure,
    result=lambda values, **_params: FASTPASS.fill(values),
)
run_fastpass_ablation = EXPERIMENT.run
