"""Ablation G (§5): Fastpass-style centralized arbitration as an NSM service."""

from repro.experiments.ablation_fastpass import run_fastpass_ablation

from conftest import emit


def test_bench_fastpass():
    result = run_fastpass_ablation()
    emit("Ablation G — Fastpass-style arbitration", result.text())
    tcp_only, fastpass = result.rows
    assert tcp_only["config"] == "tcp-only"
    # Arbitration keeps the fabric queue essentially empty...
    assert fastpass["queue_max_kb"] < 0.05 * tcp_only["queue_max_kb"]
    # ...collapsing the neighbour's tail latency...
    assert fastpass["rpc_p99_us"] < 0.25 * tcp_only["rpc_p99_us"]
    # ...for a small throughput cost.
    assert fastpass["aggregate_gbps"] > 0.9 * tcp_only["aggregate_gbps"]
