"""Ablation A (§5 "NSM form"): VM vs container vs hypervisor-module NSMs.

The paper: "VM based NSMs is the most flexible ... On the other hand VMs
consume more resources and may not offer best performance ... A container
or a module based NSM consumes much less resources and can offer better
performance."  We quantify exactly that: throughput, CPU burned per GB
moved, memory footprint, boot time and isolation class per form.
"""

from __future__ import annotations

from ..apps import BulkReceiver, BulkSender
from ..net import Endpoint
from ..netkernel import NsmForm, NsmSpec
from .common import FIG4_SOCKET_BUF, make_lan_testbed
from .registry import Experiment
from .table import Column, Table

__all__ = ["NSM_FORM", "EXPERIMENT", "run_nsm_form_ablation"]

NSM_FORM = Table(
    "Ablation A: NSM form factor tradeoffs (bulk workload)",
    (
        Column("form", "form", 10, ">10"),
        Column("throughput_gbps", "tput", 10, ">6.2f", " Gbps"),
        Column("cpu_seconds_per_gb", "cpu s/GB", 9, ">8.4f"),
        Column("memory_gb", "mem", 7, ">5.2f", "GB"),
        Column("boot_seconds", "boot", 7, ">6.1f", "s"),
        Column("isolation", "isolation", 10, ">10"),
    ),
)

#: Bulk flows per form, simulated seconds, and the warmup goodput excludes.
FLOWS = 2
DURATION = 0.3
WARMUP = 0.08


def _measure(form: NsmForm) -> dict:
    """One NSM form on the LAN testbed."""
    overrides = {"rcvbuf": FIG4_SOCKET_BUF, "sndbuf": FIG4_SOCKET_BUF}
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
    return dict(
        form=form.value,
        throughput_gbps=total_bps / 1e9,
        cpu_seconds_per_gb=nsm_cpu / gb_moved if gb_moved else 0.0,
        memory_gb=form.memory_gb,
        boot_seconds=form.boot_seconds,
        isolation=form.isolation,
    )


#: One row per NSM form (VM, container, hypervisor module).
EXPERIMENT = Experiment(
    points=lambda: [(f"form:{form.value}", (form,)) for form in NsmForm],
    measure=_measure,
    result=lambda values: NSM_FORM.fill(values),
)
run_nsm_form_ablation = EXPERIMENT.run
