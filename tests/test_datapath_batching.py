"""Ring-drain datapath determinism regressions.

Three contracts of the ring-drain datapath, which charges every nqe once
at its layer's fixed cost, as the prototype does (§4.1):

* The datapath is **bit-identical** to the one the goldens below were
  captured on, before the ring consumers and kernel fast paths were
  rewritten: every simulated quantity must still match to the last float
  bit.
* Tracing is observation only: a traced run produces bit-identical
  simulated results to an untraced one.
* Every way a ring can be drained (notify mode x blocking handler x ring
  class x tenant scheduler) is pinned to the last bit and the last
  simulator event, and a fault that slows a consumer slows it in both
  drives — the drain matrix at the bottom of this file.
"""

import json
import pathlib

import pytest

from repro import obs
from repro.apps import BulkReceiver, BulkSender, RpcClient, RpcServer, WebClient, WebServer
from repro.experiments.common import FIG4_SOCKET_BUF, make_lan_testbed
from repro.net import Endpoint
from repro.netkernel import CoreEngineConfig, NotifyMode, NsmSpec
from repro.netkernel.nqe import Nqe, NqeOp
from repro.obs import runtime as obs_runtime
from repro.runstate import reset_run_ids

# Captured on the tree before the ring consumers were rewritten: a
# figure4-shaped workload, 1 flow, 0.05 s simulated, polling mode.
GOLDEN = {
    "gbps": "26.88369518857814",
    "final_now": "0.05",
    "nqes_copied_a": 5126,
    "nqes_copied_b": 2565,
    "calls_issued_a": 2564,
    "calls_issued_b": 3,
    "ce_core_busy_a": "6.151199999999648e-05",
    "ce_core_busy_b": "3.07799999999985e-05",
    "vm_core_busy_a": "0.017606664000001063",
    "sl_ops_a": 2564,
    "sl_ops_b": 3,
}


def _run_workload(coreengine_config=None, tracer=None, duration=0.05, flows=1):
    """The golden workload; returns every observable the goldens pin."""
    testbed = make_lan_testbed(coreengine_config=coreengine_config, tracer=tracer)
    sim = testbed.sim
    overrides = {"rcvbuf": FIG4_SOCKET_BUF, "sndbuf": FIG4_SOCKET_BUF}
    nsm_a = testbed.hypervisor_a.boot_nsm(
        NsmSpec(congestion_control="cubic", tcp_overrides=overrides)
    )
    nsm_b = testbed.hypervisor_b.boot_nsm(
        NsmSpec(congestion_control="cubic", tcp_overrides=overrides)
    )
    vm_a = testbed.hypervisor_a.boot_netkernel_vm("client", nsm_a, vcpus=4)
    vm_b = testbed.hypervisor_b.boot_netkernel_vm("server", nsm_b, vcpus=4)
    receivers = []
    for i in range(flows):
        port = 5000 + i
        receivers.append(BulkReceiver(sim, vm_b.api, port, warmup=duration * 0.25))
        BulkSender(sim, vm_a.api, Endpoint(vm_b.api.ip, port))
    sim.run(until=duration)
    ce_a = testbed.hypervisor_a.coreengine
    ce_b = testbed.hypervisor_b.coreengine
    total_bps = sum(rx.meter.bps(until=duration) for rx in receivers)
    return {
        "gbps": repr(total_bps / 1e9),
        "final_now": repr(sim.now),
        "nqes_copied_a": ce_a.nqes_copied,
        "nqes_copied_b": ce_b.nqes_copied,
        "calls_issued_a": vm_a.api.calls_issued,
        "calls_issued_b": vm_b.api.calls_issued,
        "ce_core_busy_a": repr(ce_a.core.busy_seconds),
        "ce_core_busy_b": repr(ce_b.core.busy_seconds),
        "vm_core_busy_a": repr(vm_a.cores[0].busy_seconds),
        "sl_ops_a": ce_a.nsm_queues(nsm_a.nsm_id).servicelib.ops_handled,
        "sl_ops_b": ce_b.nsm_queues(nsm_b.nsm_id).servicelib.ops_handled,
    }


def test_unbatched_is_bit_identical_to_pre_batching_goldens():
    observed = _run_workload()
    assert observed == GOLDEN


def test_traced_run_is_bit_identical_to_untraced():
    tracer = obs.Tracer()
    try:
        observed = _run_workload(tracer=tracer)
    finally:
        obs_runtime.reset()
    assert observed == GOLDEN
    assert tracer.spans, "tracer saw the datapath"


def test_receive_switch_frees_descriptor_for_unknown_cid():
    """A DATA nqe whose cID has no VM mapping must not leak its chunk."""
    testbed = make_lan_testbed()
    sim = testbed.sim
    nsm = testbed.hypervisor_a.boot_nsm(NsmSpec(congestion_control="cubic"))
    vm = testbed.hypervisor_a.boot_netkernel_vm("client", nsm, vcpus=2)
    ce = testbed.hypervisor_a.coreengine
    queues = ce.nsm_queues(nsm.nsm_id)
    region = vm.api.region
    chunk = region.try_alloc(4096)
    assert chunk is not None and region.used == 4096
    queues.receive.offer(
        Nqe(op=NqeOp.DATA, nsm_id=nsm.nsm_id, cid=424242, data_desc=chunk)
    )
    sim.run(until=0.001)
    assert chunk.freed
    assert region.used == 0


# --------------------------------------------------------------- drain matrix --
#
# One pin per way a ring can be drained: notify mode x blocking receive
# handler x ring class x tenant scheduler, on worlds whose rings queue
# deeply (web, hol), lightly (bulk8) and never (rpc).  Every value is a full ``repr``
# captured at the commit *before* the six hand-written consumers were folded
# into one ``RingPump``; ``events_processed`` is included so not even the
# number of simulator events may move (it alone was re-recorded when the
# protocol timers became ``sim.Deadline``s).  Regenerate (only for a deliberate
# model change) with ``PYTHONPATH=src python tests/test_datapath_batching.py``.
DRAIN_GOLDEN = pathlib.Path(__file__).parent / "data" / "drain_matrix_golden.json"

_INTR = NotifyMode.BATCHED_INTERRUPT

#: point -> (world, duration, CoreEngineConfig kwargs)
DRAIN_POINTS = {
    "rpc.poll": ("rpc", 0.1, {}),
    "rpc.intr": ("rpc", 0.1, {"notify_mode": _INTR}),
    "web.poll.b1": ("web", 0.03, {}),
    "web.intr.b1": ("web", 0.03, {"notify_mode": _INTR}),
    "hol.fifo": ("hol", 0.05, {"inline_rx_copy": True}),
    "hol.prio": ("hol", 0.05, {"inline_rx_copy": True, "priority_queues": True}),
    "hol.intr": ("hol", 0.05, {"inline_rx_copy": True, "notify_mode": _INTR}),
    "bulk8.poll": ("bulk8", 0.05, {}),
    "bulk8.intr": ("bulk8", 0.05, {"notify_mode": _INTR}),
    "bulk8.quota8": ("bulk8", 0.05, {"tenant_quota_nqes": 8}),
}

#: The points that take over ~2 s of wall each (the 8-flow and HoL bulk
#: worlds); the rest keep every drain form covered in the fast tier.
_SLOW_WORLDS = ("hol", "bulk8")


def _bulk_flows(sim, vm_a, vm_b, flows):
    receivers = []
    for i in range(flows):
        receivers.append(BulkReceiver(sim, vm_b.api, 5000 + i))
        # Under interrupt delays a SYN sent at t=0 beats the listen().
        BulkSender(
            sim, vm_a.api, Endpoint(vm_b.api.ip, 5000 + i), start_delay=0.001 + 0.0005 * i
        )
    return receivers


def _run_drain_point(world, duration, config_kwargs, server_nsm_slowdown=None):
    """Build one drain-matrix world, run it, return every pinned observable."""
    reset_run_ids()  # ring names embed NSM ids; pin them to a fresh process's
    config = CoreEngineConfig(**config_kwargs)
    hol = world == "hol"
    testbed = make_lan_testbed(
        coreengine_config=config,
        **({"queue_bytes": 256 * 1024} if hol else {}),
    )
    sim = testbed.sim
    spec_kwargs = {"rx_chunk_bytes": 8192} if hol else {}
    nsm_a = testbed.hypervisor_a.boot_nsm(NsmSpec(congestion_control="cubic", **spec_kwargs))
    nsm_b = testbed.hypervisor_b.boot_nsm(NsmSpec(congestion_control="cubic", **spec_kwargs))
    vm_a = testbed.hypervisor_a.boot_netkernel_vm("client", nsm_a, vcpus=4)
    vm_b = testbed.hypervisor_b.boot_netkernel_vm("server", nsm_b, vcpus=4)
    if server_nsm_slowdown is not None:
        nsm_b.servicelib.set_degraded(server_nsm_slowdown)
    receivers, clients = [], []
    if world == "rpc":
        RpcServer(sim, vm_b.api, port=7000)
        clients.append(
            RpcClient(sim, vm_a.api, Endpoint(vm_b.api.ip, 7000), start_delay=0.005)
        )
    elif world == "web":
        WebServer(sim, vm_b.api, port=80, response_bytes=16 * 1024)
        for i in range(16):
            clients.append(
                WebClient(
                    sim, vm_a.api, Endpoint(vm_b.api.ip, 80),
                    response_bytes=16 * 1024, start_delay=0.001 + 50e-6 * i,
                )
            )
    elif world == "hol":
        receivers = _bulk_flows(sim, vm_a, vm_b, 3)
        WebServer(sim, vm_b.api, port=80, response_bytes=2048)
        clients.append(
            WebClient(
                sim, vm_a.api, Endpoint(vm_b.api.ip, 80),
                response_bytes=2048, start_delay=0.02,
            )
        )
    else:
        receivers = _bulk_flows(sim, vm_a, vm_b, 8)
    sim.run(until=duration)
    ce_a = testbed.hypervisor_a.coreengine
    ce_b = testbed.hypervisor_b.coreengine
    rings = {}
    for ce, vm, nsm in ((ce_a, vm_a, nsm_a), (ce_b, vm_b, nsm_b)):
        attachment = ce.attachment_of(vm.vm_id)
        queues = ce.nsm_queues(nsm.nsm_id)
        for ring in (
            attachment.job_queue, attachment.completion_queue, attachment.receive_queue,
            queues.job, queues.completion, queues.receive,
        ):
            rings[f"{ce.core.name}/{ring.name}"] = ring.high_watermark
    return {
        "goodput_bps": [repr(rx.meter.bps(until=duration)) for rx in receivers],
        "clients": [
            [
                repr(c.latency.p(50)) if len(c.latency) else None,
                repr(c.latency.p(99)) if len(c.latency) else None,
                c.completed,
            ]
            for c in clients
        ],
        "busy_seconds": [
            repr(core.busy_seconds)
            for core in (
                ce_a.core, ce_b.core, nsm_a.cores[0], nsm_b.cores[0],
                vm_a.cores[0], vm_b.cores[0],
            )
        ],
        "nqes_copied": [ce_a.nqes_copied, ce_b.nqes_copied],
        "ops_handled": [
            ce_a.nsm_queues(nsm_a.nsm_id).servicelib.ops_handled,
            ce_b.nsm_queues(nsm_b.nsm_id).servicelib.ops_handled,
        ],
        "ring_high_watermark": rings,
        "events_processed": sim.events_processed,
    }


@pytest.mark.parametrize(
    "point",
    [
        pytest.param(
            name,
            marks=[pytest.mark.slow] if spec[0] in _SLOW_WORLDS else [],
        )
        for name, spec in DRAIN_POINTS.items()
    ],
)
def test_drain_matrix_point_is_bit_identical_to_golden(point):
    golden = json.loads(DRAIN_GOLDEN.read_text())
    observed = _run_drain_point(*DRAIN_POINTS[point])
    assert observed == golden[point]
    # The point exercised the datapath at all (a world that never got going
    # would pin zeros and stay green forever).
    assert sum(observed["nqes_copied"]) > 100


def test_nsm_slowdown_bites_in_both_drives():
    """NSM_SLOWDOWN rescales the job consumer's one per-nqe charge in the
    event-driven drive (polling) and in the poll loop (interrupts): fewer
    RPCs complete and the server NSM's core works longer in both."""

    def outcome(config_kwargs, slowdown):
        observed = _run_drain_point("rpc", 0.05, config_kwargs, slowdown)
        return observed["clients"][0][2], float(observed["busy_seconds"][3])

    for config_kwargs in ({}, {"notify_mode": _INTR}):
        healthy = outcome(config_kwargs, None)
        degraded = outcome(config_kwargs, 8.0)
        assert degraded[0] < healthy[0], config_kwargs
        assert degraded[1] > healthy[1], config_kwargs


if __name__ == "__main__":
    DRAIN_GOLDEN.write_text(
        json.dumps(
            {name: _run_drain_point(*spec) for name, spec in DRAIN_POINTS.items()},
            indent=1,
        )
        + "\n"
    )
