"""Ablation E (§5): per-container network stacks via NSaaS.

Shared host stack (cubic for everyone) vs NSaaS (the Spark container
picks DCTCP): same bulk throughput, far better tail latency for the
latency-sensitive neighbour because DCTCP holds the fabric queue at the
ECN marking threshold.
"""

from repro.experiments.ablation_containers import run_container_ablation

from conftest import emit


def test_bench_containers():
    result = run_container_ablation()
    emit("Ablation E — per-container stacks", result.text())
    shared, nsaas = result.rows
    assert shared["config"] == "shared-stack"
    # NSaaS keeps bulk throughput...
    assert nsaas["spark_gbps"] > 0.85 * shared["spark_gbps"]
    # ...and cuts the RPC tail by holding the fabric queue short.
    assert nsaas["rpc_p99_us"] < 0.5 * shared["rpc_p99_us"]
