"""Ablation H (§5): short-connection scalability, native vs NetKernel."""

from repro.experiments.ablation_connscale import run_connscale_ablation

from conftest import emit


def test_bench_connscale():
    result = run_connscale_ablation()
    emit("Ablation H — short-connection scalability", result.table())
    by = {(r.mode, r.clients): r for r in result.rows}
    # Both paths serve a single client at comparable latency...
    assert by[("netkernel", 1)].p50_us < 2.5 * by[("native", 1)].p50_us
    # ...but NetKernel's connection path saturates earlier: the paper's
    # §5 scalability concern, quantified.
    assert by[("native", 32)].requests_per_s > 1.5 * by[("netkernel", 32)].requests_per_s
    # NetKernel still scales up from 1 client before plateauing.
    assert by[("netkernel", 8)].requests_per_s > 2 * by[("netkernel", 1)].requests_per_s
    # The multi-queue ServiceLib (§5 future work, cID-sharded workers)
    # recovers most of the gap.
    assert by[("netkernel-4q", 32)].requests_per_s > 2.5 * by[("netkernel", 32)].requests_per_s
    assert by[("netkernel-4q", 32)].requests_per_s > 0.8 * by[("native", 32)].requests_per_s
