"""Figure 4: TCP Cubic throughput — native guest stack vs Cubic NSM.

Paper shape: the NSM achieves virtually the same throughput as the native
stack; both reach 40 GbE line rate (~37 Gbps) with two or more flows.
"""

from repro.experiments.common import LAN_LINE_RATE_GBPS
from repro.experiments.figure4 import run_figure4

from conftest import emit


def test_bench_figure4():
    result = run_figure4(duration=0.3, warmup=0.08)
    emit("Figure 4 — Cubic native vs Cubic NSM", result.table())
    by_flows = {row.flows: row for row in result.rows}
    # NSM tracks native at every flow count.
    for row in result.rows:
        assert 0.75 <= row.ratio <= 1.25
    # One flow sits below line rate; two or more reach it.
    assert by_flows[1].native_gbps < 0.85 * LAN_LINE_RATE_GBPS
    assert by_flows[2].nsm_gbps > 0.93 * LAN_LINE_RATE_GBPS
    assert by_flows[3].nsm_gbps > 0.93 * LAN_LINE_RATE_GBPS
