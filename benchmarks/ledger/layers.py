"""Per-layer measurements, all taken from outside the program.

Three sources, one function each:

* :func:`counters` reads the public counters of a finished world
  (``Simulator.events_processed``, ``CoreEngine.nqes_copied``,
  ``StackStats``, ``LinkStats``, ``Core.busy_seconds``, ...);
* :func:`profile_buckets` turns a ``cProfile`` run of the timed window
  into self time per ``repro`` package;
* :func:`obs_metrics` reads ``repro.obs.summary`` of a traced run for the
  simulated per-hop budget.

Layers are the ``repro`` packages.
"""

from __future__ import annotations

import os
from typing import Dict

PACKAGES = ("sim", "net", "tcp", "quic", "netkernel", "host", "api", "apps",
            "faults", "obs", "other")

#: Modules reported on their own, ``package.module`` -> file under repro/.
MODULES = {
    "sim.engine": "sim/engine.py",
    "sim.wheel": "sim/wheel.py",
    "sim.events": "sim/events.py",
    "sim.process": "sim/process.py",
    "sim.fluid": "sim/fluid.py",
    "netkernel.guestlib": "netkernel/guestlib.py",
    "netkernel.queues": "netkernel/queues.py",
    "netkernel.coreengine": "netkernel/coreengine.py",
    "netkernel.servicelib": "netkernel/servicelib.py",
    "netkernel.hugepages": "netkernel/hugepages.py",
    "netkernel.conntable": "netkernel/conntable.py",
    "host.cpu": "host/cpu.py",
    "tcp.connection": "tcp/connection.py",
    "tcp.stack": "tcp/stack.py",
    "tcp.intervals": "tcp/intervals.py",
    "tcp.buffers": "tcp/buffers.py",
    "tcp.cc": "tcp/cc/",
    "quic.connection": "quic/connection.py",
    "quic.stack": "quic/stack.py",
    "net.link": "net/link.py",
    "api.epoll": "api/epoll.py",
    "api.socket_api": "api/socket_api.py",
}

#: The ledger's own applications are application code too.
_APPS_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "apps.py")


def _package_of(filename: str) -> str:
    """The layer a profiled function's file belongs to."""
    marker = "/repro/"
    at = filename.rfind(marker)
    if at >= 0:
        package = filename[at + len(marker):].split("/", 1)[0]
        return package if package in PACKAGES else "other"
    return "apps" if filename == _APPS_FILE else "other"


def profile_buckets(stats: Dict) -> Dict[str, float]:
    """Self time, share and inbound calls per package from ``pstats`` data.

    ``stats`` is ``pstats.Stats(...).stats``: ``{(file, line, name):
    (primitive calls, calls, tottime, cumtime, callers)}``.  ``tottime``
    is self time: a function's duration minus its callees'.
    """
    self_s = {package: 0.0 for package in PACKAGES}
    calls_in = {package: 0 for package in PACKAGES}
    module_s = {name: 0.0 for name in MODULES}
    for (filename, _line, _name), (_cc, _nc, tottime, _ct, callers) in stats.items():
        package = _package_of(filename)
        self_s[package] += tottime
        for name, suffix in MODULES.items():
            if f"/repro/{suffix}" in filename:
                module_s[name] += tottime
        for (caller_file, _l, _n), caller in callers.items():
            if _package_of(caller_file) != package:
                # pstats stores either a bare call count or a 4-tuple.
                calls_in[package] += caller[0] if isinstance(caller, tuple) else caller
    total = sum(self_s.values())
    out: Dict[str, float] = {}
    for package in PACKAGES:
        out[f"{package}.self_s"] = self_s[package]
        out[f"{package}.self_share"] = self_s[package] / total if total else 0.0
        out[f"{package}.calls_in"] = calls_in[package]
    for name, seconds in module_s.items():
        out[f"{name}.self_s"] = seconds
    return out


def _rings(world):
    for hypervisor in world.hypervisors:
        engine = hypervisor.coreengine
        for vm in hypervisor.vms:
            if vm.vm_id is not None:
                attachment = engine.attachment_of(vm.vm_id)
                yield attachment.job_queue
                yield attachment.completion_queue
                yield attachment.receive_queue
        for nsm in hypervisor.nsms:
            queues = engine.nsm_queues(nsm.nsm_id)
            yield queues.job
            yield queues.completion
            yield queues.receive


def counters(world, sim_window: float, delivered_bytes: int) -> Dict[str, float]:
    """Public counters of a finished world, by layer."""
    out: Dict[str, float] = {}
    events = world.testbed.events_processed
    out["sim.events"] = events

    fidelity = world.testbed.sim.fidelity
    fluid = fidelity.stats() if fidelity is not None else {}
    out["sim.fluid.promotions"] = fluid.get("promotions", 0)
    out["sim.fluid.demotions"] = fluid.get("demotions", 0)
    out["sim.fluid.rate_epochs"] = fluid.get("rate_epochs", 0)
    out["sim.fluid.bytes_share"] = (
        fluid.get("fluid_bytes_delivered", 0) / delivered_bytes
        if delivered_bytes else 0.0
    )

    nqes = sum(h.coreengine.nqes_copied for h in world.hypervisors)
    rings = list(_rings(world))
    guestlibs = [vm.api for h in world.hypervisors for vm in h.vms
                 if vm.vm_id is not None]
    out["netkernel.nqes_copied"] = nqes
    out["netkernel.ring_pushed"] = sum(r.total_pushed for r in rings)
    out["netkernel.ring_push_timeouts"] = sum(r.push_timeouts for r in rings)
    out["netkernel.queue_hwm_max"] = max(
        (r.high_watermark for r in rings), default=0
    )
    out["netkernel.guest_calls"] = sum(g.calls_issued for g in guestlibs)
    out["netkernel.servicelib_ops"] = sum(
        h.coreengine.nsm_queues(nsm.nsm_id).servicelib.ops_handled
        for h in world.hypervisors for nsm in h.nsms
    )
    out["netkernel.events_per_nqe"] = events / nqes if nqes else 0.0

    cores = [core for host in world.hosts for core in host.cpu]
    out["host.cpu_busy_share_max"] = (
        max(core.busy_seconds for core in cores) / sim_window
    )
    out["host.cpu_ops"] = sum(core.ops for core in cores)

    tcp_stats, quic_stats = [], []
    for hypervisor in world.hypervisors:
        for nsm in hypervisor.nsms:
            family = quic_stats if nsm.spec.stack_family == "quic" else tcp_stats
            family.append(nsm.stack.stats)
        for vm in hypervisor.vms:
            if vm.guest_stack is not None:
                tcp_stats.append(vm.guest_stack.stats)
    out["tcp.segments_out"] = sum(s.segments_out for s in tcp_stats)
    out["tcp.segments_in"] = sum(s.segments_in for s in tcp_stats)
    out["tcp.conns_opened"] = sum(s.connections_opened for s in tcp_stats)
    out["quic.packets_out"] = sum(s.packets_out for s in quic_stats)
    out["quic.retransmits"] = sum(s.retransmits for s in quic_stats)
    out["quic.ptos"] = sum(s.ptos for s in quic_stats)

    wire = world.testbed.wire
    links = [wire.a_to_b.stats, wire.b_to_a.stats]
    out["net.link_tx_packets"] = sum(s.tx_packets for s in links)
    out["net.link_dropped_overflow"] = sum(s.dropped_overflow for s in links)
    out["net.link_dropped_random"] = sum(s.dropped_random for s in links)
    nics = [nic for host in world.hosts for nic in host.nics.values()]
    nics.extend(host.pnic for host in world.hosts)
    out["net.nic_dropped"] = sum(
        nic.dropped_failed + nic.dropped_draining for nic in nics
    )

    injector = world.injector
    out["faults.injected"] = len(injector.injected) if injector else 0
    out["faults.failovers"] = sum(
        len(h.coreengine.failovers) for h in world.hypervisors
    )
    out["faults.op_timeouts"] = sum(g.op_timeouts for g in guestlibs)
    out["faults.op_retries"] = sum(g.op_retries_sent for g in guestlibs)
    out["faults.resets_seen"] = sum(g.resets_seen for g in guestlibs)
    return out


def obs_metrics(summary: Dict) -> Dict[str, float]:
    """The simulated per-hop budget from ``repro.obs.summary(tracer)``."""
    counts = summary["counters"]
    hists = summary["histograms_ns"]

    def hist(name: str, key: str) -> float:
        return hists[name][key] if name in hists and hists[name].get("count") else 0.0

    segments_out = counts.get("tcp.segments_out", 0)
    retransmits = counts.get("tcp.retransmits", 0)
    return {
        "netkernel.switch_ns_p50": hist("coreengine.switch_ns", "p50"),
        "netkernel.copy_ns_p50": hist("hugepage.copy_ns", "p50"),
        "netkernel.copy_bytes": counts.get("hugepage.bytes", 0),
        "netkernel.hugepage_copies": counts.get("hugepage.copies", 0),
        "netkernel.queue_wait_ns_p99.job": hist("queue.wait_ns.job", "p99"),
        "netkernel.queue_wait_ns_p99.cq": hist("queue.wait_ns.cq", "p99"),
        "netkernel.queue_wait_ns_p99.rq": hist("queue.wait_ns.rq", "p99"),
        "tcp.retransmits": retransmits,
        "tcp.retransmit_share": retransmits / segments_out if segments_out else 0.0,
        "obs.spans": summary["spans"],
        "obs.spans_dropped": summary["spans_dropped"],
    }
