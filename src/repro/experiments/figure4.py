"""Figure 4: throughput of TCP Cubic, native vs NetKernel Cubic NSM.

The paper's result: the Cubic NSM achieves "virtually same throughput
with running TCP Cubic natively in the VM", with both reaching line rate
(~37 Gbps) at two or more flows.  One flow sits below line rate (bounded
by the per-connection window against the end-to-end RTT); aggregate
throughput saturates the 40 GbE wire from two flows on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..apps import BulkReceiver, BulkSender
from ..netkernel import NsmSpec
from .common import (
    FIG4_SOCKET_BUF,
    LAN_LINE_RATE_GBPS,
    LanTestbed,
    install_fluid,
    make_lan_testbed,
)

__all__ = ["Figure4Row", "Figure4Result", "run_figure4", "measure_lan_throughput"]

@dataclass
class Figure4Row:
    flows: int
    native_gbps: float
    nsm_gbps: float

    @property
    def ratio(self) -> float:
        """NSM throughput relative to native (1.0 = identical)."""
        if self.native_gbps == 0:
            return 0.0
        return self.nsm_gbps / self.native_gbps


@dataclass
class Figure4Result:
    rows: List[Figure4Row]

    def table(self) -> str:
        lines = [
            "Figure 4: TCP Cubic throughput, native guest vs NetKernel NSM",
            f"{'flows':>6} {'Linux (CUBIC)':>15} {'CUBIC NSM':>12} {'NSM/native':>11}",
        ]
        for row in self.rows:
            lines.append(
                f"{row.flows:>6} {row.native_gbps:>12.2f} Gbps "
                f"{row.nsm_gbps:>9.2f} Gbps {row.ratio:>10.2f}x"
            )
        lines.append(f"(40 GbE line rate after framing: ~{LAN_LINE_RATE_GBPS} Gbps)")
        return "\n".join(lines)


def _build_lan_world(
    mode: str,
    flows: int,
    congestion_control: str = "cubic",
    warmup: float = 0.1,
    tracer=None,
    fidelity: str = "packet",
) -> Tuple[LanTestbed, List[BulkReceiver]]:
    """Build the figure-4 workload: the testbed and its metered receivers."""
    if mode not in ("native", "netkernel"):
        raise ValueError(f"mode must be 'native' or 'netkernel', got {mode!r}")
    testbed = make_lan_testbed(tracer=tracer)
    # Install before any VM/NSM boots: stacks snapshot sim.fidelity at
    # construction.  No-op (returns None) at packet fidelity.
    install_fluid(testbed, mode=fidelity)
    overrides = {"rcvbuf": FIG4_SOCKET_BUF, "sndbuf": FIG4_SOCKET_BUF}

    if mode == "netkernel":
        nsm_a = testbed.hypervisor_a.boot_nsm(
            NsmSpec(congestion_control=congestion_control, tcp_overrides=overrides)
        )
        nsm_b = testbed.hypervisor_b.boot_nsm(
            NsmSpec(congestion_control=congestion_control, tcp_overrides=overrides)
        )
        vm_a = testbed.hypervisor_a.boot_netkernel_vm("client", nsm_a, vcpus=4)
        vm_b = testbed.hypervisor_b.boot_netkernel_vm("server", nsm_b, vcpus=4)
    else:
        vm_a = testbed.hypervisor_a.boot_legacy_vm(
            "client",
            vcpus=4,
            congestion_control=congestion_control,
            tcp_overrides=overrides,
        )
        vm_b = testbed.hypervisor_b.boot_legacy_vm(
            "server",
            vcpus=4,
            congestion_control=congestion_control,
            tcp_overrides=overrides,
        )

    receivers = []
    for i in range(flows):
        port = 5000 + i
        receivers.append(BulkReceiver(testbed.sim, vm_b.api, port, warmup=warmup))
        BulkSender(testbed.sim, vm_a.api, remote_for(vm_b, port))
    return testbed, receivers


def measure_lan_throughput(
    mode: str,
    flows: int,
    congestion_control: str = "cubic",
    duration: float = 0.35,
    warmup: float = 0.1,
    tracer=None,
    stats_out=None,
    fidelity: str = "packet",
) -> float:
    """Aggregate goodput (Gbps) of ``flows`` bulk flows on the LAN testbed.

    Pass a dict as ``stats_out`` to receive simulator-level metrics
    (``events_processed``, ``sim_seconds``) — the bench harness uses this.
    """
    testbed, receivers = _build_lan_world(
        mode, flows, congestion_control, warmup, tracer=tracer, fidelity=fidelity
    )
    testbed.run(until=duration)
    if stats_out is not None:
        stats_out["events_processed"] = testbed.events_processed
        stats_out["sim_seconds"] = duration
    total_bps = sum(rx.meter.bps(until=duration) for rx in receivers)
    return total_bps / 1e9


def remote_for(vm, port: int):
    from ..net import Endpoint

    return Endpoint(vm.api.ip, port)


def _measure_point(
    mode: str,
    flows: int,
    duration: float,
    warmup: float,
    fidelity: str = "packet",
) -> float:
    return measure_lan_throughput(
        mode, flows, duration=duration, warmup=warmup, fidelity=fidelity
    )


def run_figure4(
    flow_counts: Sequence[int] = (1, 2, 3),
    duration: float = 0.35,
    warmup: float = 0.1,
    jobs: int = 1,
    fidelity: str = "packet",
) -> Figure4Result:
    """Regenerate Figure 4: one row per flow count.

    ``jobs`` fans the (mode × flows) grid across worker processes; the
    merged result is bit-identical to the serial run.
    """
    from ..parallel import parallel_map

    grid = [
        (mode, flows, duration, warmup, fidelity)
        for flows in flow_counts
        for mode in ("native", "netkernel")
    ]
    values = parallel_map(
        _measure_point,
        grid,
        jobs=jobs,
        keys=[f"fig4:{mode}:{flows}f" for mode, flows, *_rest in grid],
    )
    rows = []
    for index, flows in enumerate(flow_counts):
        native, nsm = values[2 * index], values[2 * index + 1]
        rows.append(Figure4Row(flows=flows, native_gbps=native, nsm_gbps=nsm))
    return Figure4Result(rows=rows)
