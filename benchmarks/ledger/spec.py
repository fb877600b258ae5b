"""What the ledger measures: workloads, metrics, units, bounds.

``BENCHMARK.json`` at the repository root is this module's
:func:`contract` written out; regenerate it with
``python3 benchmarks/ledger/spec.py > BENCHMARK.json`` (``selftest.py``
fails when the two disagree).

Every number is labelled **host** (what the simulator costs to run;
noisy) or **sim** (what the modelled NetKernel does; exact for a fixed
seed).
"""

from __future__ import annotations

import json
import sys

from layers import MODULES, PACKAGES

#: One fresh-subprocess repeat per this many ``--seconds``: each timed
#: window is 3.3-4.4 s on the recorded host.
NOMINAL_WINDOW_S = 3.0
#: Three repeats a run, about 12 s with start-up.  A fourth costs a third
#: more of the driver's time cap (158 runs, and this host is at times 1.5x
#: slower for many minutes) and, measured, buys nothing: see the README.
RUN_SECONDS = 9

#: (name, why it is here: the layer that does most of the work -> the one
#: that does almost none)
WORKLOADS = [
    ("lan_bulk",
     "Fig. 4 point, 2 NetKernel VMs, 2 bulk CUBIC flows on 40 GbE, closed loop: "
     "the balanced case (sim 29%, netkernel 24%, tcp 24% of host self time); "
     "any datapath or engine change shows here"),
    ("lan_bulk_quic",
     "same shape on the QUIC stack family: same netkernel layer, other stack "
     "(quic ~20%, tcp ~6%); a TCP-only optimisation predicts no change here"),
    ("web_nk",
     "32 closed-loop web clients (connect, 256 B, 16 KB, close) through NSMs: "
     "the only workload on NetKernel's control path (socket/connect/close "
     "nqes, conntable churn); gives request p50/p99"),
    ("fanin_10k",
     "10000 persistent native connections into one epoll sink, 2 x 512 B each, "
     "open loop: smallest message, most connections; netkernel 0%, the bypass "
     "for NetKernel changes and the RSS-per-conn witness"),
    ("fanin_bulk_fluid",
     "same 10000 connections, 4 x 64 KiB, TSO/GRO off, fidelity auto, open "
     "loop: uses the sim layer differently (sim.fluid ~20%); a packet-path "
     "gain that costs the fluid path shows here"),
    ("wan_bbr",
     "Fig. 5 point, NetKernel VM with BBR over the lossy 12 Mbit/s 350 ms WAN, "
     "closed loop: loss, retransmission and timers (tcp >70%, netkernel ~0%); "
     "engine or datapath work predicts no change"),
    ("chaos_failover",
     "lan_bulk shape with fault tolerance armed, a scripted NSM crash and a "
     "hostile tenant: the traffic that leaves the fast path (failover, retry); "
     "the one workload with typed errors and a recovery time"),
]

#: (name, unit, time base, better, bound): bound is the share of the
#: parent's median by which the metric may get worse before it counts as
#: a regression.  The sim bounds cover the spread across *seeds*; for one
#: seed a sim metric repeats exactly and two commits compare by equality
#: (``compare.py`` does).
END_TO_END = [
    ("wall_s", "s", "host", "lower", 0.25),
    ("setup_s", "s", "host", "lower", 0.25),
    ("peak_rss_mb", "MiB", "host", "lower", 0.05),
    ("sim_goodput_mbps", "Mbit/s", "sim", "higher", 0.02),
]


def _per_layer():
    rows = []
    for package in PACKAGES:
        rows.append((f"{package}.self_s", "s", "lower"))
        rows.append((f"{package}.self_share", "ratio", "lower"))
        rows.append((f"{package}.calls_in", "count", "lower"))
    rows += [(f"{module}.self_s", "s", "lower") for module in MODULES]
    rows += [
        ("sim.events", "count", "lower"),
        ("sim.us_per_event", "us", "lower"),
        ("sim.fluid.promotions", "count", "higher"),
        ("sim.fluid.demotions", "count", "lower"),
        ("sim.fluid.rate_epochs", "count", "lower"),
        ("sim.fluid.bytes_share", "ratio", "higher"),
        ("netkernel.nqes_copied", "count", "lower"),
        ("netkernel.ring_pushed", "count", "lower"),
        ("netkernel.ring_push_timeouts", "count", "lower"),
        ("netkernel.guest_calls", "count", "lower"),
        ("netkernel.servicelib_ops", "count", "lower"),
        ("netkernel.events_per_nqe", "ratio", "lower"),
        ("netkernel.switch_ns_p50", "ns", "lower"),
        ("netkernel.copy_ns_p50", "ns", "lower"),
        ("netkernel.copy_bytes", "B", "lower"),
        ("netkernel.hugepage_copies", "count", "lower"),
        ("netkernel.queue_wait_ns_p99.job", "ns", "lower"),
        ("netkernel.queue_wait_ns_p99.cq", "ns", "lower"),
        ("netkernel.queue_wait_ns_p99.rq", "ns", "lower"),
        ("netkernel.queue_hwm_max", "count", "lower"),
        ("host.cpu_busy_share_max", "ratio", "lower"),
        ("host.cpu_ops", "count", "lower"),
        ("tcp.segments_out", "count", "lower"),
        ("tcp.segments_in", "count", "lower"),
        ("tcp.retransmits", "count", "lower"),
        ("tcp.retransmit_share", "ratio", "lower"),
        ("tcp.conns_opened", "count", "higher"),
        ("quic.packets_out", "count", "lower"),
        ("quic.retransmits", "count", "lower"),
        ("quic.ptos", "count", "lower"),
        ("net.link_tx_packets", "count", "lower"),
        ("net.link_dropped_overflow", "count", "lower"),
        ("net.link_dropped_random", "count", "lower"),
        ("net.nic_dropped", "count", "lower"),
        ("api.connect_phase_wall_s", "s", "lower"),
        ("apps.open_loop_lateness_us", "us", "lower"),
        ("faults.injected", "count", "lower"),
        ("faults.failovers", "count", "lower"),
        ("faults.op_timeouts", "count", "lower"),
        ("faults.op_retries", "count", "lower"),
        ("faults.resets_seen", "count", "lower"),
        ("faults.typed_errors", "count", "lower"),
        ("faults.unrecovered_flows", "count", "lower"),
        ("sim_op_p50_us", "us", "lower"),
        ("sim_op_p99_us", "us", "lower"),
        ("sim_op_samples", "count", "higher"),
        ("sim_recovery_ms", "ms", "lower"),
        ("fail_share", "ratio", "lower"),
        ("obs.spans", "count", "lower"),
        ("obs.spans_dropped", "count", "lower"),
        ("trace.profile_overhead", "ratio", "lower"),
        ("trace.obs_overhead", "ratio", "lower"),
        ("proc.cpu_s", "s", "lower"),
        ("proc.gc_gen2_collections", "count", "lower"),
        ("proc.gc_s", "s", "lower"),
        ("proc.rss_after_import_mb", "MiB", "lower"),
        ("proc.rss_per_conn_kb", "KiB", "lower"),
    ]
    return rows


PER_LAYER = _per_layer()

def contract() -> dict:
    """The ``BENCHMARK.json`` object."""
    return {
        "command": ["python3", "benchmarks/ledger/run.py"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": unit, "better": better, "bound": bound}
            for n, unit, _base, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": unit, "better": better}
            for n, unit, better in PER_LAYER
        ],
    }


if __name__ == "__main__":
    json.dump(contract(), sys.stdout, indent=2)
    sys.stdout.write("\n")
