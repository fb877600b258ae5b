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

from dataclasses import dataclass
from typing import List, Sequence

from ..apps import WebClient, WebServer
from ..net import Endpoint
from ..netkernel import NsmSpec
from .common import make_lan_testbed

__all__ = ["ConnScaleRow", "ConnScaleResult", "run_connscale_ablation"]


@dataclass
class ConnScaleRow:
    mode: str
    clients: int
    requests_per_s: float
    p50_us: float
    p99_us: float


@dataclass
class ConnScaleResult:
    rows: List[ConnScaleRow]

    def table(self) -> str:
        lines = [
            "Ablation H: short-connection scalability (web workload)",
            f"{'mode':>10} {'clients':>8} {'req/s':>9} {'p50':>9} {'p99':>9}",
        ]
        for row in self.rows:
            lines.append(
                f"{row.mode:>10} {row.clients:>8} {row.requests_per_s:>9.0f} "
                f"{row.p50_us:>6.0f}us {row.p99_us:>6.0f}us"
            )
        return "\n".join(lines)


def _measure(mode: str, clients: int, duration: float, warmup: float) -> ConnScaleRow:
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
    return ConnScaleRow(
        mode=mode,
        clients=clients,
        requests_per_s=completed / span,
        p50_us=percentile(samples, 50) * 1e6 if samples else float("nan"),
        p99_us=percentile(samples, 99) * 1e6 if samples else float("nan"),
    )


def run_connscale_ablation(
    client_counts: Sequence[int] = (1, 8, 32),
    duration: float = 0.3,
    warmup: float = 0.02,
    modes: Sequence[str] = ("native", "netkernel", "netkernel-4q"),
    jobs: int = 1,
) -> ConnScaleResult:
    """Native vs NetKernel (single and multi-queue) short-connection rates.

    The (mode × clients) grid is the slowest part of the ablation suite;
    ``jobs`` fans it across worker processes with bit-identical results.
    """
    from ..parallel import parallel_map

    grid = [
        (mode, clients, duration, warmup)
        for mode in modes
        for clients in client_counts
    ]
    rows = parallel_map(
        _measure,
        grid,
        jobs=jobs,
        keys=[f"connscale:{mode}:{clients}c" for mode, clients, _, _ in grid],
    )
    return ConnScaleResult(rows=rows)
