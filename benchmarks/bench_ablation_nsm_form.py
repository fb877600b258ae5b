"""Ablation A (§5): NSM form factor tradeoffs — VM vs container vs module."""

from repro.experiments.ablation_nsm_form import run_nsm_form_ablation

from conftest import emit


def test_bench_nsm_form():
    result = run_nsm_form_ablation()
    emit("Ablation A — NSM form factors", result.table())
    by_form = {row.form: row for row in result.rows}
    # Lighter forms burn less CPU per GB and less memory, boot faster.
    assert by_form["module"].cpu_seconds_per_gb < by_form["vm"].cpu_seconds_per_gb
    assert by_form["container"].memory_gb < by_form["vm"].memory_gb
    assert by_form["module"].boot_seconds < by_form["container"].boot_seconds
    # All forms carry full line-rate traffic at this load.
    for row in result.rows:
        assert row.throughput_gbps > 30.0
