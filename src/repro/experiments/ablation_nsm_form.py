"""Ablation A (§5 "NSM form"): VM vs container vs hypervisor-module NSMs.

The paper: "VM based NSMs is the most flexible ... On the other hand VMs
consume more resources and may not offer best performance ... A container
or a module based NSM consumes much less resources and can offer better
performance."  We quantify exactly that: throughput, CPU burned per GB
moved, memory footprint, boot time and isolation class per form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..apps import BulkReceiver, BulkSender
from ..net import Endpoint
from ..netkernel import NsmForm, NsmSpec
from .common import FIG4_SOCKET_BUF, make_lan_testbed

__all__ = ["NsmFormRow", "NsmFormResult", "run_nsm_form_ablation"]


@dataclass
class NsmFormRow:
    form: str
    throughput_gbps: float
    cpu_seconds_per_gb: float
    memory_gb: float
    boot_seconds: float
    isolation: str


@dataclass
class NsmFormResult:
    rows: List[NsmFormRow]

    def table(self) -> str:
        lines = [
            "Ablation A: NSM form factor tradeoffs (bulk workload)",
            f"{'form':>10} {'tput':>10} {'cpu s/GB':>9} {'mem':>7} "
            f"{'boot':>7} {'isolation':>10}",
        ]
        for row in self.rows:
            lines.append(
                f"{row.form:>10} {row.throughput_gbps:>6.2f} Gbps "
                f"{row.cpu_seconds_per_gb:>8.4f} {row.memory_gb:>5.2f}GB "
                f"{row.boot_seconds:>6.1f}s {row.isolation:>10}"
            )
        return "\n".join(lines)


#: Bulk flows per form, simulated seconds, and the warmup goodput excludes.
FLOWS = 2
DURATION = 0.3
WARMUP = 0.08


def run_nsm_form_ablation() -> NsmFormResult:
    """One row per NSM form (VM, container, hypervisor module), measured
    on the LAN testbed."""
    rows = []
    overrides = {"rcvbuf": FIG4_SOCKET_BUF, "sndbuf": FIG4_SOCKET_BUF}
    for form in NsmForm:
        testbed = make_lan_testbed()
        sim = testbed.sim
        spec = NsmSpec(congestion_control="cubic", form=form, tcp_overrides=overrides)
        nsm_a = testbed.hypervisor_a.boot_nsm(spec)
        nsm_b = testbed.hypervisor_b.boot_nsm(
            NsmSpec(congestion_control="cubic", form=form, tcp_overrides=overrides)
        )
        vm_a = testbed.hypervisor_a.boot_netkernel_vm("client", nsm_a, vcpus=4)
        vm_b = testbed.hypervisor_b.boot_netkernel_vm("server", nsm_b, vcpus=4)
        receivers = []
        for i in range(FLOWS):
            port = 5000 + i
            receivers.append(BulkReceiver(sim, vm_b.api, port, warmup=WARMUP))
            BulkSender(sim, vm_a.api, Endpoint(vm_b.api.ip, port))
        sim.run(until=DURATION)
        total_bps = sum(rx.meter.bps(until=DURATION) for rx in receivers)
        gb_moved = sum(rx.meter.bytes for rx in receivers) / 1e9
        nsm_cpu = sum(core.busy_seconds for core in nsm_b.cores) + sum(
            core.busy_seconds for core in nsm_a.cores
        )
        rows.append(
            NsmFormRow(
                form=form.value,
                throughput_gbps=total_bps / 1e9,
                cpu_seconds_per_gb=nsm_cpu / gb_moved if gb_moved else 0.0,
                memory_gb=form.memory_gb,
                boot_seconds=form.boot_seconds,
                isolation=form.isolation,
            )
        )
    return NsmFormResult(rows=rows)
