"""Ablation B (§3.2): FIFO vs priority nqe rings under bulk-data pressure.

A documented *negative* result: ring consumers are never the bottleneck
in this architecture, so the priority classes change nothing measurable.
The bench asserts exactly that (and that the rings do see real depth), so
a future change that makes rings a bottleneck will surface here.
"""

import math

from repro.experiments.ablation_priority import run_priority_ablation

from conftest import emit


def test_bench_priority_queues():
    result = run_priority_ablation()
    emit("Ablation B — FIFO vs priority nqe rings", result.table())
    fifo, priority = result.rows
    assert fifo.queue_kind == "fifo" and priority.queue_kind == "priority"
    # Rings genuinely carry a bulk backlog...
    assert fifo.max_ring_depth > 10
    # ...and both configurations serve the web workload equivalently.
    assert not math.isnan(fifo.request_p99_us)
    assert priority.request_p99_us <= fifo.request_p99_us * 1.5
    assert priority.requests_completed >= 0.8 * fifo.requests_completed
