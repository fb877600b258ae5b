"""repro.obs: histograms, the head sampler, span trees, runtime slot, exporters."""

import json
import pathlib
import random

import pytest

from repro.experiments.common import make_lan_testbed
from repro.net import IIDLoss
from repro.obs import (
    CounterSet,
    HeadSampler,
    Log2Histogram,
    NullTracer,
    Tracer,
    chrome_trace,
    runtime,
    summary,
)
from repro.obs import spans as obs_spans
from repro.obs.histograms import SUB_BUCKETS
from repro.stats import percentile

from conftest import make_linked_stacks, transfer

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_chrome_trace.json"


@pytest.fixture(autouse=True)
def _clean_tracer_slot():
    yield
    runtime.reset()


# ------------------------------------------------------------- histograms --
def test_histogram_percentiles_match_exact_percentile():
    rng = random.Random(42)
    samples = [rng.lognormvariate(7.0, 1.5) for _ in range(20_000)]
    hist = Log2Histogram("t")
    for value in samples:
        hist.record(value)
    # Bucketing bounds relative error by 1/SUB_BUCKETS; allow a little
    # slack on top for interpolation at the tails.
    tolerance = 1.0 / SUB_BUCKETS + 0.05
    for p in (50, 90, 99, 99.9):
        exact = percentile(samples, p)
        approx = hist.percentile(p)
        assert approx == pytest.approx(exact, rel=tolerance)
    assert hist.min == min(samples)
    assert hist.max == max(samples)
    assert hist.mean == pytest.approx(sum(samples) / len(samples))


def test_histogram_single_value_and_empty():
    hist = Log2Histogram()
    assert hist.percentile(50) == 0.0
    assert hist.summary() == {"count": 0}
    hist.record(1000.0)
    assert hist.p50 == pytest.approx(1000.0, rel=1.0 / SUB_BUCKETS)
    assert hist.percentile(0) == 1000.0  # clamped to observed min
    assert hist.percentile(100) == 1000.0


# --------------------------------------------------------------- samplers --
def test_head_sampler_deterministic_per_tenant():
    first = HeadSampler(4)
    second = HeadSampler(4)
    tenants = [1, 2, 1, 1, 2, 1, 2, 2, 1, 2, 1, 1]
    decisions_a = [first.sample(t) for t in tenants]
    decisions_b = [second.sample(t) for t in tenants]
    assert decisions_a == decisions_b
    # Each tenant individually sees exactly every 4th of its own arrivals.
    per_tenant = HeadSampler(4)
    assert [per_tenant.sample(9) for _ in range(9)] == [
        True, False, False, False, True, False, False, False, True,
    ]


# ----------------------------------------------------------- runtime slot --
def test_null_tracer_default_and_scoped_install():
    assert runtime.get_tracer().enabled is False
    assert isinstance(runtime.get_tracer(), NullTracer)
    tracer = Tracer()
    with runtime.installed(tracer):
        assert runtime.get_tracer() is tracer
    assert runtime.get_tracer().enabled is False
    runtime.set_tracer(tracer)
    assert runtime.get_tracer() is tracer
    runtime.reset()
    assert runtime.get_tracer().enabled is False


def test_counters_inc_and_high_water():
    counters = CounterSet()
    counters.inc("x")
    counters.inc("x", 4)
    counters.set_max("hwm", 3)
    counters.set_max("hwm", 2)
    assert counters.get("x") == 5
    assert counters.get("hwm") == 3
    assert counters.as_dict() == {"x": 5, "hwm": 3}


def test_tracer_max_spans_drops_and_counts(monkeypatch):
    monkeypatch.setattr(obs_spans, "DEFAULT_MAX_SPANS", 2)
    tracer = Tracer()
    assert tracer.span("a", "guestlib") is not None
    assert tracer.span("b", "guestlib") is not None
    assert tracer.span("c", "guestlib") is None
    assert tracer.spans_dropped == 1
    assert len(tracer.spans) == 2


def test_unsampled_root_has_no_children():
    tracer = Tracer(sampler=HeadSampler(2))
    first = tracer.span("op", "guestlib", tenant=1)
    second = tracer.span("op", "guestlib", tenant=1)
    assert first is not None
    assert second is None  # arrival 1 of tenant 1 is not a multiple of 2
    assert first.child("k", "queue") is not None


# ----------------------------------------------- end-to-end span stitching --
def _run_traced_echo(tracer, payload=40_000):
    """One complete send()/recv() echo over the NetKernel datapath."""
    from repro.net import Endpoint
    from repro.netkernel import NsmSpec

    testbed = make_lan_testbed(tracer=tracer)
    nsm_a = testbed.hypervisor_a.boot_nsm(NsmSpec())
    nsm_b = testbed.hypervisor_b.boot_nsm(NsmSpec())
    vm_a = testbed.hypervisor_a.boot_netkernel_vm("client", nsm_a)
    vm_b = testbed.hypervisor_b.boot_netkernel_vm("server", nsm_b)
    api_a, api_b = vm_a.api, vm_b.api
    out = {}

    def server(sim):
        fd = yield api_b.socket()
        yield api_b.bind(fd, 5000)
        yield api_b.listen(fd)
        conn_fd = yield api_b.accept(fd)
        got = 0
        while got < payload:
            n = yield api_b.recv(conn_fd, payload)
            if n == 0:
                break
            got += n
        out["server_got"] = got

    def client(sim):
        yield sim.timeout(0.01)
        fd = yield api_a.socket()
        yield api_a.connect(fd, Endpoint(api_b.ip, 5000))
        yield api_a.send(fd, payload)

    testbed.sim.process(server(testbed.sim))
    testbed.sim.process(client(testbed.sim))
    testbed.sim.run(until=1.0)
    runtime.reset()
    assert out["server_got"] == payload
    return out


def test_traced_retransmits_equal_the_stacks_count():
    """``tcp.retransmits`` is counted where a connection retransmits, so a
    lossy traced transfer reports the stacks' own count, not zero."""
    tracer = Tracer()
    with runtime.installed(tracer):
        rig = make_linked_stacks(loss=IIDLoss(0.02, seed=3))
        tracer.attach(rig.sim)
        result = transfer(rig, 2_000_000)
    assert result["received"] == 2_000_000
    retransmits = rig.stack_a.stats.retransmits + rig.stack_b.stats.retransmits
    assert retransmits > 0
    assert tracer.counters.get("tcp.retransmits") == retransmits


def test_span_tree_covers_datapath_layers():
    tracer = Tracer()
    _run_traced_echo(tracer)

    send_roots = [
        s for s in tracer.spans if s.parent_id is None and s.op == "guestlib.send"
    ]
    assert send_roots, "guestlib.send produced no root spans"

    # One send() fans out into a tree; across the send roots the trees must
    # cover the full Figure-2 datapath.
    children = {}
    for span in tracer.spans:
        children.setdefault(span.parent_id, []).append(span)
    layers = set()
    frontier = list(send_roots)
    while frontier:
        span = frontier.pop()
        layers.add(span.layer)
        frontier.extend(children.get(span.span_id, ()))
    assert {"guestlib", "hugepage", "queue", "coreengine", "servicelib", "tcp"} <= layers

    # Direct parentage checks on one tree: the CoreEngine switch and the
    # ring residency hang off the send root; TCP segments hang off the
    # ServiceLib send op (flow binding).
    ops_by_parent = {}
    for span in tracer.spans:
        ops_by_parent.setdefault(span.parent_id, []).append(span.op)
    root = send_roots[0]
    assert "coreengine.switch.job" in ops_by_parent.get(root.span_id, [])
    tcp_spans = tracer.find(op="tcp.tx_segment", layer="tcp")
    assert tcp_spans
    by_id = {s.span_id: s for s in tracer.spans}
    parent = by_id[tcp_spans[0].parent_id]
    assert parent.op == "servicelib.send"

    # The nqe-switch latency is derivable from the histogram store.
    switch = tracer.histogram("coreengine.switch_ns")
    assert switch.total > 0
    assert switch.p99 >= 0

    report = summary(tracer)
    assert report["spans"] == len(tracer.spans)
    assert report["counters"]["guestlib.ops"] > 0
    assert report["cpu_ns_by_core"]  # CPU charge hook fired


def test_tracing_does_not_perturb_simulation():
    from repro.experiments.figure4 import measure_lan_throughput

    untraced = measure_lan_throughput("netkernel", 1, duration=0.02, warmup=0.005)
    runtime.reset()
    traced = measure_lan_throughput(
        "netkernel", 1, duration=0.02, warmup=0.005, tracer=Tracer()
    )
    runtime.reset()
    assert traced == untraced  # bit-identical, not approximately equal


# -------------------------------------------------------------- exporters --
def _build_reference_tracer() -> Tracer:
    """A tiny hand-built trace with fixed timestamps (no simulator)."""
    tracer = Tracer()
    root = tracer.span("guestlib.send", "guestlib", tenant=1)
    root.cpu(200).annotate(bytes=8192)
    tracer.record_span(
        "queue.job.wait", "queue", start=0.0, finish=1e-6, tenant=1, parent=root
    )
    switch = root.child("coreengine.switch.job", "coreengine")
    switch.cpu(12).end(at=2e-6)
    sl_send = root.child("servicelib.send", "servicelib")
    sl_send.cpu(300).end(at=3e-6)
    seg = sl_send.child("tcp.tx_segment", "tcp")
    seg.cpu(2000).annotate(bytes=1448)
    seg.end(at=4e-6)
    root.end(at=5e-6)
    tracer.span("open.never.ends", "guestlib")  # must be skipped by export
    return tracer


def test_chrome_trace_matches_golden_file():
    rendered = chrome_trace(_build_reference_tracer())
    golden = json.loads(GOLDEN.read_text())
    assert rendered == golden


def test_chrome_trace_structure():
    trace = chrome_trace(_build_reference_tracer())
    events = trace["traceEvents"]
    metadata = [e for e in events if e["ph"] == "M"]
    complete = [e for e in events if e["ph"] == "X"]
    assert any(e["args"]["name"] == "netkernel" for e in metadata)
    assert len(complete) == 5  # the open span is excluded
    root = next(e for e in complete if e["name"] == "guestlib.send")
    assert root["dur"] == pytest.approx(5.0)  # microseconds
    assert root["args"]["bytes"] == 8192
    # every complete event lands on a named layer thread
    named_tids = {e["tid"] for e in metadata if e["name"] == "thread_name"}
    assert {e["tid"] for e in complete} <= named_tids


def test_counter_cadence_snapshots_on_sim_clock():
    from repro.sim import Simulator

    tracer = Tracer(cadence=0.01)
    sim = Simulator()
    tracer.attach(sim)

    def workload(sim):
        for _ in range(5):
            tracer.count("ops")
            yield sim.timeout(0.01)

    sim.process(workload(sim))
    sim.run(until=0.05)
    snaps = tracer.cadence.snapshots
    assert len(snaps) == 5  # t = 0.01 .. 0.05 (events at `until` still fire)
    times = [t for t, _ in snaps]
    assert times == pytest.approx([0.01, 0.02, 0.03, 0.04, 0.05])
    # counters accumulate across snapshots
    assert [s["ops"] for _, s in snaps] == [1, 2, 3, 4, 5]
    report = summary(tracer)
    assert len(report["counter_snapshots"]) == 5
