"""Ablation C (§5): polling vs batched soft interrupts.

Polling: lowest RPC latency, provider cores pinned at 100%.
Interrupts: per-hop coalescing latency, CPU proportional to load.
"""

from repro.experiments.ablation_notify import run_notify_ablation

from conftest import emit


def test_bench_notification():
    result = run_notify_ablation()
    emit("Ablation C — notification mechanism", result.table())
    polling, interrupt = result.rows
    assert polling.mode == "polling"
    # Polling is faster per RPC...
    assert polling.rpc_p50_us < interrupt.rpc_p50_us
    # ...but burns the four provider cores outright.
    assert polling.provider_cores_burned > 3.5
    assert interrupt.provider_cores_burned < 1.0
