"""Ablation D (§2.1): multiplexing gains from shared NSMs."""

from repro.experiments.ablation_multiplexing import run_multiplexing_ablation

from conftest import emit


def test_bench_multiplexing():
    result = run_multiplexing_ablation()
    emit("Ablation D — dedicated vs shared NSMs", result.text())
    dedicated, shared = result.rows
    assert dedicated["placement"] == "dedicated"
    # Shared placement consolidates provider resources...
    assert shared["nsm_count"] < dedicated["nsm_count"]
    assert shared["cores_reserved"] < dedicated["cores_reserved"]
    assert shared["memory_gb"] < dedicated["memory_gb"]
    # ...while delivering comparable aggregate throughput.
    assert shared["aggregate_gbps"] > 0.8 * dedicated["aggregate_gbps"]
