"""Ablation H (§5): short-connection scalability of the NetKernel datapath.

"The latency overhead may also affect the scalability of handling many
concurrent short connections [24]."

A web-style workload (connect, 256 B request, 16 KB response, close) with
N concurrent closed-loop clients, served by one VM — legacy in-guest
stack vs NetKernel.  Reported: sustained requests/second and per-request
latency, plus NetKernel's per-request overhead.  Every request costs the
NetKernel path a fixed set of extra hops (socket + connect + close nqe
round trips and fd/cID table churn), so the interesting question is how
that overhead scales with concurrency.
"""

from __future__ import annotations

from typing import Sequence

from ..apps import WebClient, WebServer
from ..net import Endpoint
from ..netkernel import NsmSpec
from .common import make_lan_testbed
from .registry import Experiment
from .table import Column, Table

__all__ = ["CONNSCALE", "EXPERIMENT", "run_connscale_ablation"]

CONNSCALE = Table(
    "Ablation H: short-connection scalability (web workload)",
    (
        Column("mode", "mode", 10, ">10"),
        Column("clients", "clients", 8, ">8"),
        Column("requests_per_s", "req/s", 9, ">9.0f"),
        Column("p50_us", "p50", 9, ">6.0f", "us"),
        Column("p99_us", "p99", 9, ">6.0f", "us"),
    ),
)


def _measure(mode: str, clients: int, duration: float, warmup: float) -> dict:
    testbed = make_lan_testbed()
    sim = testbed.sim
    if mode.startswith("netkernel"):
        # "netkernel-4q" boots the §5 future-work variant: a multi-queue
        # ServiceLib with one dispatch worker per NSM core.
        workers = int(mode.split("-")[1][0]) if "-" in mode else 1
        spec = lambda: NsmSpec(cores=max(1, workers), servicelib_workers=workers)
        nsm_a = testbed.hypervisor_a.boot_nsm(spec())
        nsm_b = testbed.hypervisor_b.boot_nsm(spec())
        client_vm = testbed.hypervisor_a.boot_netkernel_vm("clients", nsm_a, vcpus=4)
        server_vm = testbed.hypervisor_b.boot_netkernel_vm("server", nsm_b, vcpus=4)
    else:
        client_vm = testbed.hypervisor_a.boot_legacy_vm("clients", vcpus=4)
        server_vm = testbed.hypervisor_b.boot_legacy_vm("server", vcpus=4)

    WebServer(sim, server_vm.api, port=80)
    workers = [
        WebClient(
            sim,
            client_vm.api,
            Endpoint(server_vm.api.ip, 80),
            start_delay=0.01 + 0.0005 * index,
        )
        for index in range(clients)
    ]
    sim.run(until=duration)

    samples = []
    completed = 0
    for worker in workers:
        samples.extend(
            value for value in worker.latency.samples
        )
        completed += worker.completed
    from ..stats import percentile

    span = duration - warmup
    return dict(
        mode=mode,
        clients=clients,
        requests_per_s=completed / span,
        p50_us=percentile(samples, 50) * 1e6 if samples else float("nan"),
        p99_us=percentile(samples, 99) * 1e6 if samples else float("nan"),
    )


def _points(
    client_counts: Sequence[int] = (1, 8, 32),
    duration: float = 0.3,
    warmup: float = 0.02,
    modes: Sequence[str] = ("native", "netkernel", "netkernel-4q"),
):
    """Native vs NetKernel (single and multi-queue) short-connection
    rates: the (mode x clients) grid is the slowest ablation to run."""
    return [
        (f"connscale:{mode}:{clients}c", (mode, clients, duration, warmup))
        for mode in modes
        for clients in client_counts
    ]


EXPERIMENT = Experiment(
    points=_points,
    measure=_measure,
    result=lambda values, **_params: CONNSCALE.fill(values),
)
run_connscale_ablation = EXPERIMENT.run
