"""Ablation F (§5): per-tenant QoS (rate guarantees) on a shared NSM."""

import pytest

from repro.experiments.ablation_qos import run_qos_ablation

from conftest import emit


def test_bench_qos():
    result = run_qos_ablation()
    emit("Ablation F — per-tenant QoS on a shared NSM", result.table())
    # The token bucket delivers the configured rate exactly.
    assert result.rate_measured_gbps == pytest.approx(result.rate_cap_gbps, rel=0.03)
    no_qos, capped = result.rows
    assert no_qos.config == "no-qos"
    # Capping the aggressor protects the victim's share.
    assert capped.victim_gbps > no_qos.victim_gbps
    assert capped.aggressor_gbps == pytest.approx(10.0, rel=0.05)
    assert capped.victim_share > 0.55