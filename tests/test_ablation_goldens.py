"""Golden pins for the ablation experiments at small N.

These pin the full float output (via ``repr``) of one cheap point of
each ablation grid, on two axes at once:

* **Bit-stability** — refactors of the datapath or the experiment
  plumbing that change *any* simulated quantity show up here first,
  with an exact diff instead of a flaky threshold.
* **Executor identity** — the same grid fanned across workers
  (``jobs=2``) must merge to exactly the serial result; the parallel
  runner resets process-global id allocators per run precisely so this
  holds.

If a deliberate model change moves these numbers, regenerate with the
calls below and update the tables — the diff *is* the review artifact.
"""

import dataclasses

from repro.experiments.ablation_connscale import run_connscale_ablation
from repro.experiments.ablation_multiplexing import run_multiplexing_ablation

CONNSCALE_KWARGS = dict(
    client_counts=(1, 4),
    duration=0.08,
    warmup=0.02,
    modes=("native", "netkernel", "netkernel-4q"),
)

#: (mode, clients) -> repr of (requests_per_s, p50_us, p99_us)
CONNSCALE_GOLDEN = {
    ("native", 1): (
        "26583.333333333336",
        "43.50960000000514",
        "45.009600000034396",
    ),
    ("native", 4): (
        "88700.0",
        "52.14911999999045",
        "52.14912000003902",
    ),
    ("netkernel", 1): (
        "22150.0",
        "52.6608000000206",
        "52.66080000003448",
    ),
    ("netkernel", 4): (
        "54666.66666666667",
        "84.69272000007078",
        "84.69272000007078",
    ),
    # The multi-queue ServiceLib: a cID classifier feeding four shard
    # workers instead of the ring pump.
    ("netkernel-4q", 1): (
        "23583.333333333336",
        "49.37879999994399",
        "50.4968000000286",
    ),
    ("netkernel-4q", 4): (
        "85700.0",
        "53.09208000003201",
        "59.89904000003321",
    ),
}

MULTIPLEX_KWARGS = dict(tenants=2, duration=0.08, warmup=0.02)

#: placement -> (nsm_count, cores_reserved, then reprs of memory_gb,
#: aggregate_gbps, min_tenant_gbps, max_tenant_gbps)
MULTIPLEX_GOLDEN = {
    "dedicated": (
        2,
        2,
        "2.0",
        "37.62775722590455",
        "14.371187016032849",
        "23.256570209871704",
    ),
    "shared": (
        1,
        1,
        "1.0",
        "37.63257465874189",
        "17.69521069796196",
        "19.93736396077993",
    ),
}


def _connscale_observed(jobs):
    result = run_connscale_ablation(jobs=jobs, **CONNSCALE_KWARGS)
    return {
        (row.mode, row.clients): (
            repr(row.requests_per_s),
            repr(row.p50_us),
            repr(row.p99_us),
        )
        for row in result.rows
    }


def _multiplex_observed(jobs):
    result = run_multiplexing_ablation(jobs=jobs, **MULTIPLEX_KWARGS)
    return {
        row.placement: (
            row.nsm_count,
            row.cores_reserved,
            repr(row.memory_gb),
            repr(row.aggregate_gbps),
            repr(row.min_tenant_gbps),
            repr(row.max_tenant_gbps),
        )
        for row in result.rows
    }


def test_connscale_small_n_matches_golden():
    assert _connscale_observed(jobs=1) == CONNSCALE_GOLDEN


def test_connscale_parallel_matches_serial_exactly():
    serial = run_connscale_ablation(jobs=1, **CONNSCALE_KWARGS)
    fanned = run_connscale_ablation(jobs=2, **CONNSCALE_KWARGS)
    assert [dataclasses.asdict(r) for r in serial.rows] == [
        dataclasses.asdict(r) for r in fanned.rows
    ]


def test_multiplexing_small_n_matches_golden():
    assert _multiplex_observed(jobs=1) == MULTIPLEX_GOLDEN


def test_multiplexing_parallel_matches_serial_exactly():
    serial = run_multiplexing_ablation(jobs=1, **MULTIPLEX_KWARGS)
    fanned = run_multiplexing_ablation(jobs=2, **MULTIPLEX_KWARGS)
    assert [dataclasses.asdict(r) for r in serial.rows] == [
        dataclasses.asdict(r) for r in fanned.rows
    ]


def test_epoll_memory_growth_is_linear_and_bounded(monkeypatch):
    """Live bytes per connection stay bounded as the epoll workload scales.

    The ledger's ``fanin_10k`` (and any larger N) only works because
    per-connection state is O(1): measured ~5.2 KB/conn here under
    CPython 3.11, on a flyweight diet: __slots__ structs, one
    rate-sample list, waiter lists and ``closed`` built only when used,
    one local endpoint per listener.  The number covers the whole
    per-connection world — both TcpConnection endpoints, socket/epoll
    registration, and the workload's own sender.  This pins the
    *incremental* cost between two sizes so fixed overheads cancel; a
    leak or an accidental O(n) structure per connection (e.g. a
    ready-list copy retained per fd) blows the bound immediately.

    The worlds are ``fanin_10k``'s own builder at a smaller N, not a
    copy of it.
    """
    import gc
    import os
    import tracemalloc

    from repro.runstate import reset_run_ids

    monkeypatch.syspath_prepend(
        os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks", "ledger")
    )
    from workloads import _fanin

    def live_bytes(n_conns):
        reset_run_ids()
        gc.collect()
        tracemalloc.start()
        world = _fanin(1, None, n_conns, messages_per_conn=2,
                       message_bytes=512, send_spacing=2e-6)
        for until in world.run_until:
            world.testbed.run(until=until)
        result = world.results()
        assert result["failed"] == 0 and result["attempted"] == 2 * n_conns
        assert all(ok for _name, ok, _detail in result["checks"]), result["checks"]
        current, _peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return current

    small, large = live_bytes(200), live_bytes(800)
    per_conn = (large - small) / 600
    assert per_conn < 5.75 * 1024, (
        f"per-connection live memory grew to {per_conn:.0f} B "
        f"(200 conns: {small} B, 800 conns: {large} B)"
    )
