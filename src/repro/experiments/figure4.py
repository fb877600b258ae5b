"""Figure 4: throughput of TCP Cubic, native vs NetKernel Cubic NSM.

The paper's result: the Cubic NSM achieves "virtually same throughput
with running TCP Cubic natively in the VM", with both reaching line rate
(~37 Gbps) at two or more flows.  One flow sits below line rate (bounded
by the per-connection window against the end-to-end RTT); aggregate
throughput saturates the 40 GbE wire from two flows on.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..apps import BulkReceiver, BulkSender
from ..net import Endpoint
from ..netkernel import NsmSpec
from .common import (
    FIG4_SOCKET_BUF,
    LAN_LINE_RATE_GBPS,
    LanTestbed,
    install_fluid,
    make_lan_testbed,
)
from .registry import Experiment
from .table import Column, Table

__all__ = ["FIGURE4", "EXPERIMENT", "run_figure4", "measure_lan_throughput"]

#: One row per flow count; ``ratio`` is NSM throughput over native
#: (1.0 = identical, 0.0 when native moved nothing).
FIGURE4 = Table(
    "Figure 4: TCP Cubic throughput, native guest vs NetKernel NSM",
    (
        Column("flows", "flows", 6, ">6"),
        Column("native_gbps", "Linux (CUBIC)", 15, ">12.2f", " Gbps"),
        Column("nsm_gbps", "CUBIC NSM", 12, ">9.2f", " Gbps"),
        Column(
            "ratio", "NSM/native", 11, ">10.2f", "x",
            derive=lambda r: r["nsm_gbps"] / r["native_gbps"] if r["native_gbps"] else 0.0,
        ),
    ),
    below=(f"(40 GbE line rate after framing: ~{LAN_LINE_RATE_GBPS} Gbps)",),
)


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
        BulkSender(testbed.sim, vm_a.api, Endpoint(vm_b.api.ip, port))
    return testbed, receivers


def measure_lan_throughput(
    mode: str,
    flows: int,
    congestion_control: str = "cubic",
    duration: float = 0.35,
    warmup: float = 0.1,
    fidelity: str = "packet",
    tracer=None,
    stats_out=None,
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


def _points(
    flow_counts: Sequence[int] = (1, 2, 3),
    duration: float = 0.35,
    warmup: Optional[float] = None,
    fidelity: str = "packet",
):
    """The (flows x mode) grid; ``warmup`` defaults to a quarter of the run."""
    warmup = duration * 0.25 if warmup is None else warmup
    return [
        (f"fig4:{mode}:{flows}f", (mode, flows, "cubic", duration, warmup, fidelity))
        for flows in flow_counts
        for mode in ("native", "netkernel")
    ]


def _result(values, flow_counts, **_params) -> Table:
    return FIGURE4.fill(
        dict(flows=flows, native_gbps=native, nsm_gbps=nsm)
        for flows, native, nsm in zip(flow_counts, values[::2], values[1::2])
    )


#: Figure 4: one row per flow count; ``jobs`` fans the grid.
EXPERIMENT = Experiment(points=_points, measure=measure_lan_throughput, result=_result)
run_figure4 = EXPERIMENT.run
